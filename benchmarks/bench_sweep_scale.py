"""Sharded + cached sweep execution benchmarks.

Three execution strategies over one contended same-shape sweep grid (8x8
transpose, circuit contention, seeds as replicates — the shape of a load
study and the dominant access pattern a sweep service would see):

* **stacked, single process** — ``run_batch(engine="auto", workers=1)``:
  every cell on one shared :class:`~repro.core.probe_table.ProbeTable`,
  stepped in lockstep;
* **auto-sharded, 4 workers** — the shard planner splits the group into
  stacked sub-shards dispatched across the persistent process pool
  (``run_batch(engine="auto", workers=4)``, the default composition);
* **warm result cache** — every cell served from the content-addressed
  on-disk cache (:class:`~repro.experiments.cache.ResultCache`); no
  simulation runs at all.

Parity is gated before anything is timed: all engines and cache states
must export byte-identical JSON.  The timed units keep the sweep at 24
cells so the CI trajectory point (``BENCH_sweep.json``) stays cheap;
``test_sweep_scale_table`` prints the headline 96-cell ratios the
acceptance criteria quote (informational, wall-clock of one warm run
each).  Note the multi-worker row only shows a speedup when the host
actually has spare cores — on a single-core container the sharded run
pays dispatch overhead for no concurrency.
"""

import os
import tempfile
import time

from _common import print_table

from repro.experiments import ExperimentSpec, ResultCache, run_batch, shutdown_pool


def _sweep_spec(n_cells: int) -> ExperimentSpec:
    """A contended same-shape grid: one stackable group of ``n_cells``."""
    return ExperimentSpec(
        name="sweep-scale-bench",
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


def test_sweep_engines_parity_json():
    """Parity gate: every engine/worker composition exports identical JSON."""
    spec = _sweep_spec(8)
    reference = run_batch(spec, engine="serial").to_json()
    assert run_batch(spec, engine="auto").to_json() == reference
    assert run_batch(spec, engine="auto", workers=4).to_json() == reference
    assert run_batch(spec, engine="auto", workers=2).to_json() == reference
    assert run_batch(spec, engine="serial", workers=2).to_json() == reference


def test_sweep_cache_parity_json(tmp_path):
    """Parity gate: cold, warm and mixed cache runs export identical JSON."""
    spec = _sweep_spec(8)
    reference = run_batch(spec, engine="serial").to_json()
    cache = ResultCache(tmp_path)
    assert run_batch(spec, cache=cache).to_json() == reference  # cold
    assert run_batch(spec, cache=cache).to_json() == reference  # warm
    assert cache.stats.hits == spec.cell_count


def test_bench_sweep_stacked_single_process(benchmark):
    """24-cell contended sweep, one lockstep stacked group, one process."""
    spec = _sweep_spec(24)
    batch = benchmark(lambda: run_batch(spec, engine="auto", workers=1))
    print(f"\nstacked 1-proc: {len(batch.results)} cells")


def test_bench_sweep_auto_sharded(benchmark):
    """The same 24 cells auto-sharded across 4 pool workers."""
    spec = _sweep_spec(24)
    try:
        batch = benchmark(lambda: run_batch(spec, engine="auto", workers=4))
    finally:
        shutdown_pool()
    print(f"\nauto w4: {len(batch.results)} cells (host cores: {os.cpu_count()})")


def test_bench_sweep_warm_cache(benchmark):
    """The same 24 cells served entirely from the warm result cache."""
    spec = _sweep_spec(24)
    with tempfile.TemporaryDirectory() as root:
        run_batch(spec, cache=ResultCache(root))  # prewarm
        batch = benchmark(lambda: run_batch(spec, cache=ResultCache(root)))
    print(f"\nwarm cache: {len(batch.results)} cells")


def test_sweep_scale_table():
    """Print the headline 96-cell ratios (informational, one warm run each)."""
    spec = _sweep_spec(96)
    timings = {}
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        runs = (
            ("stacked-1proc", lambda: run_batch(spec, engine="auto", workers=1)),
            ("auto-w4-cold", lambda: run_batch(spec, engine="auto", workers=4,
                                               cache=cache)),
            ("warm-cache", lambda: run_batch(spec, engine="auto", workers=4,
                                             cache=cache)),
        )
        exports = {}
        for name, run in runs:
            start = time.perf_counter()
            batch = run()
            timings[name] = time.perf_counter() - start
            exports[name] = batch.to_json()
    shutdown_pool()
    assert len(set(exports.values())) == 1  # byte-identical across the board
    print_table(
        "96-cell contended same-shape sweep: stacked vs sharded vs cached "
        f"(one run each; host cores: {os.cpu_count()})",
        ["cells", "stacked 1p ms", "auto w4 ms", "warm cache ms",
         "shard speedup", "cache speedup"],
        [
            (
                spec.cell_count,
                f"{timings['stacked-1proc'] * 1e3:.0f}",
                f"{timings['auto-w4-cold'] * 1e3:.0f}",
                f"{timings['warm-cache'] * 1e3:.0f}",
                f"{timings['stacked-1proc'] / timings['auto-w4-cold']:.1f}x",
                f"{timings['auto-w4-cold'] / timings['warm-cache']:.0f}x",
            )
        ],
    )
