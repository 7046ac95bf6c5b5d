"""Probe-table engine + stacked multi-cell sweep benchmarks.

Two comparisons, both parity-gated before anything is timed:

* **Probe table vs its oracle** — the contended high-load workload of
  ``bench_throughput_saturation`` (full transpose batch, static faults,
  circuit contention on a 12x12 mesh) run once with probes living as rows of
  :class:`~repro.core.probe_table.ProbeTable` (the fast path) and once with
  the table disabled, stepping the scalar
  :class:`~repro.core.routing.RoutingProbe` loop that is its parity oracle.
  Only the table is timed; the oracle runs in the parity gate and in the
  informational ratio table.
* **Stacked vs serial sweep** — one same-shape simulate grid (8x8 transpose,
  circuit contention, seeds as replicates) executed cell-by-cell by the
  serial :func:`~repro.experiments.run_batch` engine and in lockstep by
  ``engine="auto"``, which joins every cell's probes onto one shared
  table so each simulation step classifies all cells' probes in a single
  vectorized pass.

The timed units keep the sweep at 12 cells so the CI trajectory point stays
cheap; ``test_probe_speedup_table`` prints the headline 48-cell ratio the
acceptance criteria quote (informational, wall-clock of one warm run each).
"""

import time

import numpy as np
from _common import print_table

from repro.experiments import ExperimentSpec, run_batch
from repro.faults.injection import uniform_random_faults
from repro.faults.schedule import DynamicFaultSchedule
from repro.mesh.topology import Mesh
from repro.pcs.circuit import LiveCircuitLedger
from repro.simulator.engine import SimulationConfig, Simulator
from repro.workloads.traffic import to_traffic, transpose_pairs


def _contended_run(table: bool):
    """One contended steady-state run; ``table=False`` forces the scalar
    probe loop (the oracle the probe table is held to)."""
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
    if not table:
        # The scalar loop, over the dict ledger it reads.
        sim._table = None
        sim.circuits = LiveCircuitLedger()
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


def _sweep_spec(n_cells: int) -> ExperimentSpec:
    """A same-shape contended grid: one stacked group of ``n_cells`` cells."""
    return ExperimentSpec(
        name="stacked-bench",
        mode="simulate",
        mesh_shapes=((8, 8),),
        policies=("limited-global",),
        scenarios=("transpose",),
        fault_counts=(1,),
        fault_intervals=(4,),
        lams=(2,),
        traffic_sizes=(28,),
        seeds=tuple(range(n_cells)),
        contention=True,
        flits=(32,),
    )


def test_probe_table_parity_contended():
    """Parity gate: table rows and the scalar probe loop are byte-identical."""
    assert _fingerprint(_contended_run(True)) == _fingerprint(_contended_run(False))


def test_stacked_sweep_parity_json():
    """Parity gate: stacked and serial sweeps export identical JSON."""
    spec = _sweep_spec(8)
    assert (
        run_batch(spec, engine="auto").to_json()
        == run_batch(spec, engine="serial").to_json()
    )


def test_bench_probe_table_step(benchmark):
    """Contended step loop, probes as flat probe-table columns."""
    stats = benchmark(lambda: _contended_run(True))
    print(
        f"\nprobe table:     {stats.steps} steps, "
        f"{len(stats.messages)} messages, delivery {stats.delivery_rate:.2f}"
    )


def test_bench_sweep_stacked(benchmark):
    """12-cell same-shape sweep stepped in lockstep on one shared table."""
    spec = _sweep_spec(12)
    batch = benchmark(lambda: run_batch(spec, engine="auto"))
    print(f"\nstacked sweep: {len(batch.results)} cells")


def test_bench_sweep_serial(benchmark):
    """The same 12-cell sweep, one cell at a time (single process)."""
    spec = _sweep_spec(12)
    batch = benchmark(lambda: run_batch(spec, engine="serial"))
    print(f"\nserial sweep:  {len(batch.results)} cells")


def test_probe_speedup_table():
    """Print the headline probe-engine ratios (informational, one warm run)."""
    timings = {}
    for name, run in (("oracle", lambda: _contended_run(False)),
                      ("table", lambda: _contended_run(True))):
        run()  # warm caches
        start = time.perf_counter()
        stats = run()
        timings[name] = time.perf_counter() - start
    spec = _sweep_spec(48)
    sweeps = {}
    for name, run in (("serial", lambda: run_batch(spec, engine="serial")),
                      ("stacked", lambda: run_batch(spec, engine="auto"))):
        run()  # warm caches
        start = time.perf_counter()
        run()
        sweeps[name] = time.perf_counter() - start
    print_table(
        "Contended step loop: scalar probe loop vs probe table (one run, warm)",
        ["steps", "messages", "oracle ms", "table ms", "speedup"],
        [
            (
                stats.steps,
                len(stats.messages),
                f"{timings['oracle'] * 1e3:.1f}",
                f"{timings['table'] * 1e3:.1f}",
                f"{timings['oracle'] / timings['table']:.1f}x",
            )
        ],
    )
    print_table(
        "48-cell same-shape sweep: serial vs stacked engine (one run, warm)",
        ["cells", "serial ms", "stacked ms", "speedup"],
        [
            (
                spec.cell_count,
                f"{sweeps['serial'] * 1e3:.1f}",
                f"{sweeps['stacked'] * 1e3:.1f}",
                f"{sweeps['serial'] / sweeps['stacked']:.1f}x",
            )
        ],
    )
