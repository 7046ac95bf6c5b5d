"""Windowed open-loop measurement: warmup, measure, drain.

The standard three-phase methodology for steady-state throughput numbers:

* **warmup** — traffic is offered but not counted, so the measurement does
  not see the empty-network transient;
* **measure** — every message injected in this window is *measured*;
  accepted throughput and setup latency are computed over exactly these
  messages;
* **drain** — injection stops and the simulator keeps stepping until the
  measured messages have finished (or the drain budget runs out, in which
  case the leftovers count as unfinished — which at overload is precisely
  the signal that the offered rate exceeds the saturation rate).

:func:`run_throughput_point` is the one entry point of an open-loop run:
it builds everything from one throughput-mode
:class:`~repro.experiments.spec.ExperimentCell` (the cell carries the
window lengths, and :class:`~repro.experiments.spec.ExperimentSpec`
validates them), steps the simulator through the three phases and returns
a :class:`ThroughputResult`, deterministic in the cell.
:func:`~repro.experiments.runner.run_cell` and ``repro-mesh throughput
--trace-out`` both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.analysis.slo import RecoverySlo, compute_recovery_slo
from repro.core.block_construction import build_blocks
from repro.faults.injection import uniform_random_faults
from repro.faults.schedule import DynamicFaultSchedule
from repro.faults.workload import FaultWorkload, mtbf_schedule
from repro.mesh.topology import Mesh
from repro.obs.recorder import StepRecorder
from repro.obs.trace import write_trace
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.stats import percentile
from repro.throughput.injection import OpenLoopSource, make_injection

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoid a package cycle)
    from repro.experiments.spec import ExperimentCell


@dataclass(frozen=True)
class ThroughputResult:
    """Steady-state numbers of one open-loop run at one offered rate."""

    rate: float

    #: Messages generated during the window; how many of them delivered;
    #: failed setup *attempts* (the source retries every one of them);
    #: messages still undelivered at the horizon (queued, in flight, or
    #: awaiting a retry that never got to run).
    injected: int
    delivered: int
    failed: int
    unfinished: int

    #: Mean messages offered per (non-faulty) node per step: injections
    #: during the measurement window, normalized by window x nodes.
    offered_load: float

    #: Mean messages accepted per node per step: deliveries *occurring*
    #: during the measurement window (whatever their injection step),
    #: normalized the same way.  At steady state this equals the delivered
    #: fraction of the offered load; past saturation it flattens at the
    #: network's service rate instead of growing with the drained backlog.
    accepted_throughput: float

    #: Setup latency (steps from injection to delivery) over the delivered
    #: measured messages.
    mean_setup_latency: float
    p99_setup_latency: float

    #: Steps actually simulated (includes the drain).
    steps: int

    #: Dynamic fault events fired during the run and the circuits they
    #: dropped mid-transfer (0/0 for a static fault layout).
    fault_events: int = 0
    fault_dropped: int = 0

    #: Per-event recovery SLOs (:class:`~repro.analysis.slo.RecoverySlo`);
    #: ``None`` when the run had no dynamic fault events.
    slo: Optional[RecoverySlo] = None

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction of the measured messages (1.0 when none)."""
        if not self.injected:
            return 1.0
        return self.delivered / self.injected

    def to_row(self) -> Dict[str, float]:
        """Flat metric dictionary (one experiment-cell row)."""
        row = {
            "rate": self.rate,
            "injected": float(self.injected),
            "delivered": float(self.delivered),
            "failed": float(self.failed),
            "unfinished": float(self.unfinished),
            "delivery_rate": self.delivery_rate,
            "offered_load": self.offered_load,
            "accepted_throughput": self.accepted_throughput,
            "mean_setup_latency": self.mean_setup_latency,
            "p99_setup_latency": self.p99_setup_latency,
            "steps": float(self.steps),
        }
        if self.fault_events:
            row["fault_events"] = float(self.fault_events)
            row["fault_dropped"] = float(self.fault_dropped)
            if self.slo is not None:
                row["slo_dip_depth"] = self.slo.dip_depth
                row["slo_time_to_recover"] = float(self.slo.time_to_recover)
                row["slo_p99_excursion"] = self.slo.p99_excursion
        return row


def run_throughput_point(
    cell: "ExperimentCell", *, trace_out: Optional[str] = None
) -> ThroughputResult:
    """The windowed open-loop measurement of one throughput-mode cell.

    Builds the mesh, a *static* pre-stabilized fault set (``cell.faults``
    nodes, so a steady state exists to measure), the open-loop source and
    the contended simulator with a
    :class:`~repro.obs.recorder.StepRecorder`, then steps warmup, measure
    and drain.  Everything derives from ``cell.cell_seed``; the fault
    layout and injection stream are policy-independent, so per-policy
    curves are comparable point-for-point.

    With ``cell.fault_rate > 0`` a seeded MTBF/MTTR workload
    (:func:`~repro.faults.workload.mtbf_schedule`) fires inside the
    measurement window on top of the static set, each fault repaired
    ``cell.repair_after`` steps later (0 = permanent).  Its stream is
    seeded apart from the injection stream, so per-policy runs see the
    same fault timeline, and the result carries the per-event recovery
    SLOs.  ``trace_out`` writes the run's JSONL step trace, fault and
    recovery events included.

    Endpoints exclude every *block* node (faulty or disabled) of the
    static set: a setup to a disabled node can never deliver, and the
    source retries failed setups.  One setup attempt lives at most
    ``max(8, diameter + 2)`` steps: a congested-network PCS setup aborts
    and retries rather than wander — a wandering probe holds its whole
    partial circuit, so long budgets make every failure expensive for
    everyone else.
    """
    mesh = Mesh(cell.shape)
    lo, hi = cell.warmup, cell.warmup + cell.measure
    horizon = hi + cell.drain
    rng = np.random.default_rng(cell.cell_seed)
    fault_nodes = uniform_random_faults(mesh, cell.faults, rng, margin=1)
    if cell.fault_rate > 0.0:
        workload = FaultWorkload(
            rate=cell.fault_rate, repair_after=cell.repair_after, start=lo, stop=hi
        )
        schedule = mtbf_schedule(
            mesh,
            workload,
            np.random.default_rng([cell.cell_seed, 0xFA17]),
            initial=fault_nodes,
        )
    else:
        schedule = DynamicFaultSchedule.static(fault_nodes)
    blocked = build_blocks(mesh, fault_nodes).state.block_nodes if fault_nodes else ()
    source = OpenLoopSource(
        mesh,
        make_injection(cell.injection, cell.rate),
        pattern=cell.scenario,
        seed=cell.cell_seed,
        flits=cell.flits,
        stop=hi,
        exclude=blocked,
    )
    config = SimulationConfig(
        lam=cell.lam,
        router=cell.policy,
        contention=True,
        max_probe_lifetime=max(8, mesh.diameter + 2),
        max_steps=10**9,  # the measurement horizon bounds the run
    )
    recorder = StepRecorder(capacity=horizon)
    sim = Simulator(
        mesh, schedule=schedule, traffic=source, config=config, recorder=recorder
    )

    while sim.current_step < horizon:
        if sim.current_step >= hi and sim.in_flight == 0:
            break  # drained: every injected message finished
        sim.step()

    if trace_out is not None:
        write_trace(trace_out, sim, recorder)

    messages = sim.stats.messages
    measured = [r for r in messages if lo <= r.message.created_time < hi]
    delivered = [r for r in measured if r.delivered]
    delivered_in_window = sum(
        1
        for r in messages
        if r.delivered and r.finish_step is not None and lo <= r.finish_step < hi
    )
    latencies = sim.stats.setup_latencies(delivered)
    denominator = cell.measure * len(source.nodes)
    generated = source.generated_between(lo, hi)

    fault_events = schedule.fault_events
    slo: Optional[RecoverySlo] = None
    if fault_events:
        slo = compute_recovery_slo(
            recorder.deltas("delivered_total").tolist(),
            recorder.deltas("fault_dropped_total").tolist(),
            [(e.time, e.node) for e in fault_events],
            latencies_by_finish=[
                (r.finish_step, float(r.latency_steps))
                for r in messages
                if r.delivered and r.finish_step is not None
            ],
        )

    return ThroughputResult(
        rate=cell.rate,
        injected=generated,
        delivered=len(delivered),
        failed=len(measured) - len(delivered),
        unfinished=generated - len(delivered),
        offered_load=generated / denominator,
        accepted_throughput=delivered_in_window / denominator,
        mean_setup_latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
        p99_setup_latency=percentile(latencies, 0.99),
        steps=sim.current_step,
        fault_events=len(fault_events),
        fault_dropped=sim.stats.fault_dropped_circuits,
        slo=slo,
    )
