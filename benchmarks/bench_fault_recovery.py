"""Fault-injection-under-load benchmarks: teardown cost and SLO scoring.

Dynamic faults inside the measurement window exercise the expensive new
paths of the robustness work: per-event circuit teardown (every in-flight
probe and delivered circuit crossing the dead node released within the
fault's own step), the re-labeling churn each fault/recovery pair causes,
and the recovery-SLO scoring pass over the recorded per-step series.

Parity is gated before anything is timed: a mid-run fault/recovery run
must produce byte-identical statistics on the scalar object path and the
vectorized :class:`~repro.core.probe_table.ProbeTable` path, and the
windowed throughput measurement under an MTBF workload must emit identical
result rows on both backends.  The timed units stay small (8x8, short
windows) so the CI trajectory point (``BENCH_recovery.json``) is cheap.
"""

from dataclasses import replace

import numpy as np

from _common import print_table

from repro.analysis.slo import compute_recovery_slo
from repro.experiments import ExperimentSpec
from repro.faults.workload import FaultWorkload, mtbf_schedule
from repro.mesh.topology import Mesh
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage
from repro.throughput import measure, run_throughput_point
from repro.workloads.traffic import random_pairs


def _cell(*, repair_after, warmup, measure, drain):
    """The 8x8 limited-global uniform cell at rate 0.02 with 2 static faults
    and an MTBF workload at 0.04, run with cell seed 3."""
    (cell,) = ExperimentSpec(
        mode="throughput", mesh_shapes=((8, 8),), fault_counts=(2,),
        rates=(0.02,), fault_rates=(0.04,), repair_after=repair_after,
        warmup=warmup, measure=measure, drain=drain,
    ).cells()
    return replace(cell, cell_seed=3)


CELL = _cell(repair_after=24, warmup=32, measure=128, drain=256)


def _faulty_run():
    """A contended 10x10 run under MTBF faults and repairs, on the backend
    ``REPRO_BACKEND`` selects."""
    mesh = Mesh((10, 10))
    workload = FaultWorkload(rate=0.05, repair_after=20, start=4, stop=60)
    schedule = mtbf_schedule(mesh, workload, seed=7)
    rng = np.random.default_rng(5)
    excluded = [e.node for e in schedule.fault_events]
    pairs = random_pairs(mesh, 30, rng, min_distance=4, exclude=excluded)
    traffic = [
        TrafficMessage(source=s, destination=d, start_time=i % 8, flits=32)
        for i, (s, d) in enumerate(pairs)
    ]
    sim = Simulator(
        mesh,
        schedule=schedule,
        traffic=traffic,
        config=SimulationConfig(lam=2, router="limited-global", contention=True),
    )
    sim.run()
    return sim


def _fingerprint(sim):
    per_message = tuple(
        (
            record.message.source,
            record.message.destination,
            record.result.outcome.name,
            tuple(record.result.path),
            record.finish_step,
        )
        for record in sim.stats.messages
    )
    return sim.stats.summary(), per_message


def test_fault_teardown_parity(monkeypatch):
    """Gate: mid-run fault/recovery is byte-identical across engines."""
    fingerprints = {}
    for backend in ("scalar", "vector"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        fingerprints[backend] = _fingerprint(_faulty_run())
    assert fingerprints["scalar"] == fingerprints["vector"]


def test_throughput_under_faults_parity(monkeypatch):
    """Gate: the measured result row under an MTBF workload is backend-free."""
    rows = {}
    for backend in ("scalar", "vector"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        rows[backend] = run_throughput_point(CELL)
    assert rows["scalar"] == rows["vector"]
    assert rows["vector"]["fault_events"] > 0


def test_bench_faulty_simulation(benchmark):
    """Contended 10x10 run with MTBF faults + repairs (teardown hot path)."""
    sim = benchmark(_faulty_run)
    print(f"\nfault churn: {sim.stats.summary()['fault_changes']:g} fault changes")


def test_bench_throughput_point_under_faults(benchmark):
    """Windowed open-loop measurement with the fault workload + SLO scoring."""
    row = benchmark(lambda: run_throughput_point(CELL))
    slo = {k: v for k, v in row.items() if k.startswith(("fault_", "slo_"))}
    print(f"\nfault events: {int(row['fault_events'])}, slo: {slo}")


def test_bench_slo_scoring(benchmark):
    """Recovery-SLO pass over a long synthetic series (50k steps, 40 events)."""
    rng = np.random.default_rng(0)
    delivered = (2.0 + rng.standard_normal(50_000) * 0.2).clip(min=0.0).tolist()
    dropped = [0.0] * 50_000
    events = []
    for i in range(40):
        t = 1_000 + i * 1_200
        for u in range(t, t + 60):
            delivered[u] = 0.0
        dropped[t] = float(i % 3)
        events.append((t, (i % 8, i % 8)))
    latencies = [(int(t), 10.0 + float(t % 7)) for t in range(0, 50_000, 5)]
    slo = benchmark(
        lambda: compute_recovery_slo(
            delivered, dropped, events, latencies_by_finish=latencies
        )
    )
    assert len(slo.events) == 40
    assert slo.time_to_recover >= 0


def test_recovery_slo_table(monkeypatch):
    """Print the per-event SLO table of the canned run (informational)."""
    scored = []

    def capture(*args, **kwargs):
        scored.append(compute_recovery_slo(*args, **kwargs))
        return scored[-1]

    # The run scores its events once; keep that score for the table.
    monkeypatch.setattr(measure, "compute_recovery_slo", capture)
    run_throughput_point(_cell(repair_after=40, warmup=48, measure=192, drain=384))
    (slo,) = scored
    print_table(
        "recovery SLOs (8x8, rate 0.02, MTBF 1/0.04, MTTR 40)",
        ["t", "node", "baseline", "dip", "ttr", "p99 excursion", "dropped"],
        [
            (
                e.time,
                e.node,
                f"{e.baseline:.2f}",
                f"{e.dip_depth:.0%}",
                e.time_to_recover if e.recovered else "never",
                f"{e.p99_excursion:+.0f}",
                e.fault_dropped,
            )
            for e in slo.events
        ],
    )
