"""Open-loop saturation curves + the contended step-loop speedup.

Two things are measured here:

* **Saturation curve** — the accepted-throughput / latency curve of the
  limited-global policy under open-loop transpose traffic on an 8x8 mesh
  (the headline table of the throughput subsystem);
* **Vector vs scalar backend** — a high-load contended steady-state
  workload, where many probes are in flight at once, run on the vector
  backend (the probe table's fast path, the default) and on the scalar
  backend (the reference labeling and the scalar probe loop, the parity
  oracle).  The acceptance bar is vector >= 2x on this timed section.

Every timed comparison is parity-gated first: the compared paths are
asserted to produce byte-identical statistics and per-message paths.
"""

from dataclasses import replace

import numpy as np
from _common import print_table

from repro.backend import ENV_VAR, SCALAR, VECTOR
from repro.experiments import ExperimentSpec
from repro.faults.injection import uniform_random_faults
from repro.faults.schedule import DynamicFaultSchedule
from repro.mesh.topology import Mesh
from repro.simulator.engine import SimulationConfig, Simulator
from repro.throughput import run_throughput_point
from repro.workloads.traffic import to_traffic, transpose_pairs


def _high_load_run():
    """One contended steady-state run: full transpose batch, static faults,
    on the backend ``REPRO_BACKEND`` selects."""
    mesh = Mesh.cube(12, 2)
    rng = np.random.default_rng(7)
    faults = uniform_random_faults(mesh, 6, rng, margin=1)
    schedule = DynamicFaultSchedule.static(faults)
    fault_set = set(faults)
    pairs = [
        (s, d)
        for s, d in transpose_pairs(mesh)
        if s not in fault_set and d not in fault_set
    ]
    traffic = to_traffic(pairs, start_time=0, spacing=0, flits=32)
    sim = Simulator(
        mesh,
        schedule=schedule,
        traffic=traffic,
        config=SimulationConfig(router="limited-global", contention=True),
    )
    return sim.run().stats


def _fingerprint(stats):
    """Summary plus per-message outcome/path — the byte-identity the parity
    gates hold every compared configuration to."""
    return (
        stats.summary(),
        [
            (m.message.source, m.message.destination, m.result.outcome,
             tuple(m.result.path))
            for m in stats.messages
        ],
    )


def _high_load_run_on(monkeypatch, backend):
    monkeypatch.setenv(ENV_VAR, backend)
    return _high_load_run()


def test_decision_parity_vector_vs_scalar(monkeypatch):
    """Parity gate for the decision-engine comparison below."""
    assert _fingerprint(_high_load_run_on(monkeypatch, VECTOR)) == _fingerprint(
        _high_load_run_on(monkeypatch, SCALAR)
    )


def test_bench_step_decision_vector(benchmark, monkeypatch):
    """Contended step loop on the vector backend (the probe table)."""
    monkeypatch.setenv(ENV_VAR, VECTOR)
    stats = benchmark(_high_load_run)
    print(
        f"\nvector decisions: {stats.steps} steps, "
        f"{len(stats.messages)} messages, delivery {stats.delivery_rate:.2f}"
    )


def test_bench_step_decision_scalar(benchmark, monkeypatch):
    """Contended step loop on the scalar backend (the scalar probe loop)."""
    monkeypatch.setenv(ENV_VAR, SCALAR)
    stats = benchmark(_high_load_run)
    print(
        f"\nscalar decisions: {stats.steps} steps, "
        f"{len(stats.messages)} messages, delivery {stats.delivery_rate:.2f}"
    )


def test_decision_speedup_table(monkeypatch):
    """Print the headline decision-engine wall-clock ratio (informational)."""
    import time

    timings = {}
    for backend in (SCALAR, VECTOR):
        _high_load_run_on(monkeypatch, backend)  # warm caches
        start = time.perf_counter()
        stats = _high_load_run()
        timings[backend] = time.perf_counter() - start
    print_table(
        "Contended step loop: scalar vs vectorized decision engine (one run, warm)",
        ["steps", "messages", "scalar ms", "vector ms", "speedup"],
        [
            (
                stats.steps,
                len(stats.messages),
                f"{timings[SCALAR] * 1e3:.1f}",
                f"{timings[VECTOR] * 1e3:.1f}",
                f"{timings[SCALAR] / timings[VECTOR]:.1f}x",
            )
        ],
    )


def test_bench_saturation_curve(benchmark):
    """The headline load curve (also printed as a table)."""
    spec = ExperimentSpec(
        mode="throughput", mesh_shapes=((8, 8),), scenarios=("transpose",),
        fault_counts=(4,), rates=(0.002, 0.005, 0.01, 0.02, 0.04, 0.08),
        warmup=30, measure=120, drain=240,
    )
    cells = [replace(cell, cell_seed=0) for cell in spec.cells()]

    def sweep():
        return [run_throughput_point(cell) for cell in cells]

    rows = benchmark(sweep)
    print_table(
        "Open-loop saturation: limited-global, transpose, 8x8 mesh, 4 faults",
        ["rate", "offered", "accepted", "delivery", "mean lat", "p99 lat", "backlog"],
        [
            (
                f"{row['rate']:.3f}",
                f"{row['offered_load']:.4f}",
                f"{row['accepted_throughput']:.4f}",
                f"{row['delivery_rate']:.2f}",
                f"{row['mean_setup_latency']:.1f}",
                f"{row['p99_setup_latency']:.0f}",
                int(row["unfinished"]),
            )
            for row in rows
        ],
    )
