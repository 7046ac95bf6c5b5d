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
the cell's metric row, deterministic in the cell: the row
:func:`~repro.experiments.runner.run_cell` lands, which ``repro-mesh
throughput --trace-out`` prints as well.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.analysis.slo import compute_recovery_slo
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


def run_throughput_point(
    cell: "ExperimentCell", *, trace_out: Optional[str] = None
) -> Dict[str, float]:
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
    same fault timeline, and the row gains the five columns of
    :meth:`~repro.analysis.slo.RecoverySlo.summary` (fault events,
    fault-dropped circuits and the worst-case recovery SLOs).
    ``trace_out`` writes the run's JSONL step trace, fault and recovery
    events included.

    The row counts the messages generated in the measurement window
    (``injected``), how many of them delivered, the rest (``failed``, and
    ``unfinished`` against everything generated), and ``steps`` simulated,
    drain included.  ``offered_load`` and ``accepted_throughput`` are the
    injections and deliveries occurring in the window per usable node per
    step: past saturation the accepted rate flattens at the network's
    service rate instead of growing with the drained backlog.  The setup
    latencies are over the delivered measured messages.

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

    row = {
        "rate": cell.rate,
        "injected": float(generated),
        "delivered": float(len(delivered)),
        "failed": float(len(measured) - len(delivered)),
        "unfinished": float(generated - len(delivered)),
        "delivery_rate": len(delivered) / generated if generated else 1.0,
        "offered_load": generated / denominator,
        "accepted_throughput": delivered_in_window / denominator,
        "mean_setup_latency": (sum(latencies) / len(latencies)) if latencies else 0.0,
        "p99_setup_latency": percentile(latencies, 0.99),
        "steps": float(sim.current_step),
    }
    if schedule.fault_events:
        slo = compute_recovery_slo(
            recorder.deltas("delivered_total").tolist(),
            recorder.deltas("fault_dropped_total").tolist(),
            [(e.time, e.node) for e in schedule.fault_events],
            latencies_by_finish=[
                (r.finish_step, float(r.latency_steps))
                for r in messages
                if r.delivered and r.finish_step is not None
            ],
        )
        row.update(slo.summary())
    return row
