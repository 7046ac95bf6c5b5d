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

:func:`measure_open_loop` drives a :class:`~repro.simulator.engine.Simulator`
step by step through the three phases and samples a per-window series of
injected/delivered counts and circuit occupancy from the simulator's
:class:`~repro.simulator.stats.SimulationStats` along the way.
:func:`run_throughput_point` is the self-contained entry behind every
throughput cell (:func:`repro.experiments.runner.run_throughput_cell`):
mesh + faults + policy + rate in, :class:`ThroughputResult` out,
deterministic in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.slo import RecoverySlo, compute_recovery_slo
from repro.core.block_construction import build_blocks
from repro.faults.injection import uniform_random_faults
from repro.faults.schedule import DynamicFaultSchedule
from repro.faults.workload import workload_schedule
from repro.mesh.topology import Mesh
from repro.obs.recorder import StepRecorder
from repro.obs.trace import write_trace
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.stats import percentile
from repro.throughput.injection import OpenLoopSource, make_injection

Coord = Tuple[int, ...]


@dataclass(frozen=True)
class MeasurementWindows:
    """Phase lengths (in simulation steps) of one open-loop measurement."""

    warmup: int = 64
    measure: int = 256
    drain: int = 512
    #: Length of the occupancy-series sampling sub-windows.
    sample_every: int = 32

    def __post_init__(self) -> None:
        if self.warmup < 0 or self.measure < 1 or self.drain < 0:
            raise ValueError("warmup/drain must be >= 0 and measure >= 1")
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")

    @property
    def injection_stop(self) -> int:
        """First step with no injection (end of the measurement phase)."""
        return self.warmup + self.measure

    @property
    def horizon(self) -> int:
        """Hard step budget for the whole measurement."""
        return self.warmup + self.measure + self.drain


@dataclass(frozen=True)
class WindowSample:
    """One occupancy-series sample (a ``sample_every``-step sub-window)."""

    start_step: int
    injected: int
    finished: int
    delivered: int
    mean_reserved_links: float


@dataclass(frozen=True)
class ThroughputResult:
    """Steady-state numbers of one open-loop run at one offered rate."""

    policy: str
    pattern: str
    rate: float

    #: Messages generated during the window; how many of them delivered;
    #: failed setup *attempts* (an attempt is terminal only when the source
    #: does not retry); messages still undelivered at the horizon (queued,
    #: in flight, or awaiting a retry that never got to run).
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

    #: Per-sub-window series over the measurement phase.
    samples: Tuple[WindowSample, ...]

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


def _window_samples(
    recorder: StepRecorder, windows: MeasurementWindows
) -> List[WindowSample]:
    """Slice the recorder's cumulative columns into measurement sub-windows.

    Sub-windows cover exactly the measurement phase — boundaries at the
    warmup end, every ``sample_every`` steps after it, and the injection
    stop — and each sample is the first difference of the cumulative
    injected/finished/delivered/link-step columns across its window, so the
    numbers are identical to the historic inline mark-and-diff sampling.
    """
    bounds = [windows.warmup]
    boundary = windows.warmup + windows.sample_every
    while boundary < windows.injection_stop:
        bounds.append(boundary)
        boundary += windows.sample_every
    bounds.append(windows.injection_stop)

    cum = recorder.cumulative_at
    samples: List[WindowSample] = []
    for a, b in zip(bounds, bounds[1:]):
        samples.append(
            WindowSample(
                start_step=a,
                injected=cum("injected_total", b) - cum("injected_total", a),
                finished=cum("finished_total", b) - cum("finished_total", a),
                delivered=cum("delivered_total", b) - cum("delivered_total", a),
                mean_reserved_links=(
                    cum("link_steps_total", b) - cum("link_steps_total", a)
                )
                / (b - a),
            )
        )
    return samples


def measure_open_loop(
    mesh: Mesh,
    source: OpenLoopSource,
    *,
    schedule: Optional[DynamicFaultSchedule] = None,
    config: Optional[SimulationConfig] = None,
    windows: Optional[MeasurementWindows] = None,
    recorder: Optional[StepRecorder] = None,
    trace_out: Optional[str] = None,
) -> ThroughputResult:
    """Run the three-phase open-loop measurement and aggregate the window.

    ``source.stop`` is forced to the end of the measurement phase; the
    simulator then drains until every measured message finished or the
    drain budget is exhausted.  The per-window occupancy series is sliced
    from a :class:`~repro.obs.recorder.StepRecorder` attached to the
    simulator (pass ``recorder`` to keep it — e.g. for a trace export, or
    ``trace_out`` to write the JSONL trace, fault/recovery events included,
    directly).  A schedule with dynamic fault events additionally yields
    the per-event recovery SLOs on the result.
    """
    windows = windows or MeasurementWindows()
    config = config or SimulationConfig(contention=True)
    source.stop = windows.injection_stop
    if recorder is None:
        recorder = StepRecorder(capacity=windows.horizon)
    sim = Simulator(
        mesh, schedule=schedule, traffic=source, config=config, recorder=recorder
    )

    while sim.current_step < windows.horizon:
        if sim.current_step >= windows.injection_stop and sim.in_flight == 0:
            break  # drained: every injected message finished
        sim.step()

    if trace_out is not None:
        write_trace(trace_out, sim, recorder)

    samples = _window_samples(recorder, windows)

    lo, hi = windows.warmup, windows.injection_stop

    def created(message) -> int:
        return (
            message.created_time
            if message.created_time is not None
            else message.start_time
        )

    measured = [r for r in sim.stats.messages if lo <= created(r.message) < hi]
    delivered = [r for r in measured if r.delivered]
    failed_attempts = len(measured) - len(delivered)
    delivered_in_window = sum(
        1
        for r in sim.stats.messages
        if r.delivered and r.finish_step is not None and lo <= r.finish_step < hi
    )
    latencies = sim.stats.setup_latencies(delivered)
    active_nodes = len(source.nodes)
    denominator = windows.measure * active_nodes
    generated_measured = source.generated_between(lo, hi)
    terminal_failed = 0 if getattr(source, "retry_failed", False) else failed_attempts

    fault_events = schedule.fault_events if schedule is not None else []
    slo: Optional[RecoverySlo] = None
    if fault_events:
        slo = compute_recovery_slo(
            recorder.deltas("delivered_total").tolist(),
            recorder.deltas("fault_dropped_total").tolist(),
            [(e.time, e.node) for e in fault_events],
            latencies_by_finish=[
                (r.finish_step, float(r.latency_steps))
                for r in sim.stats.messages
                if r.delivered and r.finish_step is not None
            ],
        )

    return ThroughputResult(
        policy=getattr(sim.router, "name", "?"),
        pattern=source.pattern,
        rate=getattr(source.process, "rate", 0.0),
        injected=generated_measured,
        delivered=len(delivered),
        failed=failed_attempts,
        unfinished=generated_measured - len(delivered) - terminal_failed,
        offered_load=generated_measured / denominator if denominator else 0.0,
        accepted_throughput=(
            delivered_in_window / denominator if denominator else 0.0
        ),
        mean_setup_latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
        p99_setup_latency=percentile(latencies, 0.99),
        samples=tuple(samples),
        steps=sim.current_step,
        fault_events=len(fault_events),
        fault_dropped=sim.stats.fault_dropped_circuits,
        slo=slo,
    )


def run_throughput_point(
    shape: Sequence[int],
    policy: str,
    pattern: str,
    rate: float,
    *,
    faults: int = 0,
    lam: int = 2,
    flits: int = 64,
    seed: int = 0,
    injection: str = "bernoulli",
    windows: Optional[MeasurementWindows] = None,
    fault_rate: float = 0.0,
    repair_after: int = 0,
    fault_schedule: Optional[DynamicFaultSchedule] = None,
    trace_out: Optional[str] = None,
) -> ThroughputResult:
    """One self-contained open-loop measurement point.

    Builds the mesh, a *static* pre-stabilized fault set (``faults`` nodes,
    so a steady state exists to measure), the open-loop source and the
    simulator, and runs the windowed measurement.  Everything derives from
    ``seed``; the fault layout and injection stream are policy-independent,
    so per-policy curves measured with the same seed are comparable
    point-for-point.

    Dynamic faults during the measurement come from one of two places, in
    precedence order: an explicit ``fault_schedule`` (its initial faults
    replace the seeded static layout), or ``fault_rate > 0`` — a seeded
    MTBF/MTTR workload (:func:`~repro.faults.workload.mtbf_schedule`) firing
    inside the measurement window on top of the static set, each fault
    repaired ``repair_after`` steps later (0 = permanent).  The workload
    stream is seeded independently of the injection stream and is
    policy-independent, so per-policy runs see identical fault timelines.

    Endpoints exclude every *block* node (faulty or disabled): a setup to a
    disabled node can never deliver, and the source retries failed setups.
    One setup attempt lives at most ``max(8, diameter + 2)`` steps: a
    congested-network PCS setup aborts and retries rather than wander — a
    wandering probe holds its whole partial circuit, so long budgets make
    every failure expensive for everyone else, and the offline worst-case
    walk bound would let one stuck probe hold links for the whole
    measurement.
    """
    mesh = Mesh(tuple(shape))
    windows = windows or MeasurementWindows()
    rng = np.random.default_rng(seed)
    fault_nodes = uniform_random_faults(mesh, faults, rng, margin=1)
    if fault_schedule is not None:
        schedule = fault_schedule
        fault_nodes = tuple(sorted(schedule.initial_faults))
    elif fault_rate > 0.0:
        schedule = workload_schedule(
            mesh,
            rate=fault_rate,
            start=windows.warmup,
            stop=windows.injection_stop,
            repair_after=repair_after,
            seed=np.random.default_rng([seed, 0xFA17]),
            initial=fault_nodes,
        )
    else:
        schedule = DynamicFaultSchedule.static(fault_nodes)
    blocked = build_blocks(mesh, fault_nodes).state.block_nodes if fault_nodes else ()
    source = OpenLoopSource(
        mesh,
        make_injection(injection, rate),
        pattern=pattern,
        seed=seed,
        flits=flits,
        exclude=blocked,
    )
    config = SimulationConfig(
        lam=lam,
        router=policy,
        contention=True,
        max_probe_lifetime=max(8, mesh.diameter + 2),
        max_steps=10**9,  # the measurement horizon bounds the run
    )
    return measure_open_loop(
        mesh,
        source,
        schedule=schedule,
        config=config,
        windows=windows,
        trace_out=trace_out,
    )
