"""Execution of experiment grids: stacked, sharded and cached.

:func:`run_cell` turns one :class:`~repro.experiments.spec.ExperimentCell`
into a :class:`~repro.experiments.results.CellResult`, through
:func:`build_simulator` for a simulate cell and
:func:`~repro.throughput.measure.run_throughput_point` for a throughput
cell (the CLI's single-cell runs call those two as well);
:func:`run_batch` runs a whole grid through one of two engines:

* ``engine="auto"`` (the default) — the stacked executor
  (:mod:`repro.experiments.stacked`): same-shape probe-table-eligible
  simulate cells step in lockstep on shared
  :class:`~repro.core.probe_table.ProbeTable` groups, and the policies of
  one offline configuration route over one setting
  (:func:`_offline_setting`: mesh, faults, labeling and pairs), built
  once.  With ``workers > 1`` the planner
  (:mod:`repro.experiments.shard`) partitions the cells into stacked and
  serial shards, offline cells in the serial engine's chunks (a setting
  is then shared within a chunk), and dispatches them across a
  *persistent* :class:`~concurrent.futures.ProcessPoolExecutor`;
* ``engine="serial"`` — the oracle: one cell at a time, each built from
  scratch, in serial chunks across the pool when ``workers > 1``.

Both engines build one shard list and hand it to one dispatcher, which
runs the shards in-process when ``workers <= 1`` and over the pool
otherwise.

Every cell is self-contained and rebuilds its scenario from primitive cell
parameters plus the deterministic ``cell_seed`` (the policies of one
configuration share that seed, so they get equal scenarios, which is what
lets the stacked executor build an offline setting once for all of them).
Cells are cheap to pickle, workers need no shared state, and a batch
produces **identical results for any worker count and either engine** —
the JSON export of a serial run, a 4-worker run and an auto-sharded run
are byte-for-byte equal.

Passing a :class:`~repro.experiments.cache.ResultCache` makes repeated
work free: cells whose fingerprint is already on disk skip simulation
entirely, and misses are persisted atomically as each result lands, so an
interrupted sweep resumes from its cache and overlapping sweeps cost only
cache reads.  The cache never appears in the exported JSON — cold and
warm runs serialize byte-identically.
"""

from __future__ import annotations

import atexit
import os
import signal
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.metrics import summarize_routes
from repro.backend import ENV_VAR as BACKEND_ENV_VAR
from repro.backend import resolve_backend
from repro.core.block_construction import LabelingState, build_blocks
from repro.experiments.cache import ResultCache
from repro.experiments.results import BatchResult, CellResult
from repro.experiments.shard import Shard, _split, plan_shards
from repro.experiments.spec import ExperimentCell, ExperimentSpec
from repro.faults.injection import clustered_faults, uniform_random_faults
from repro.mesh.topology import Mesh
from repro.obs.telemetry import PoolIncident, ShardRecord, SweepTelemetry
from repro.routing import resolve_router
from repro.simulator.engine import SimulationConfig, Simulator
from repro.throughput import measure
from repro.workloads.scenarios import simulate_scenario
from repro.workloads.traffic import random_pairs

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.probe_table import ProbeTable
    from repro.obs.profile import PhaseProfiler
    from repro.obs.recorder import StepRecorder

Coord = Tuple[int, ...]

#: What every policy of one offline configuration routes over: the mesh,
#: its stabilized labeling and the ``(source, destination)`` pairs.
OfflineSetting = Tuple[Mesh, LabelingState, Tuple[Tuple[Coord, Coord], ...]]

#: Engines :func:`run_batch` accepts.
ENGINES = ("auto", "serial")


class BatchCancelled(BaseException):
    """Raised *by an ``on_cell_done`` callback* to abort a batch cleanly.

    This is the one sanctioned way to stop :func:`run_batch` mid-grid (the
    HTTP service's job cancellation rides it): it propagates out of the
    batch at the next cell boundary, while every *other* exception a
    callback raises is suppressed and recorded — a broken progress hook
    must never cost the sweep.  Deliberately a ``BaseException`` so a
    careless ``except Exception`` inside a callback can't swallow it.
    """


def _offline_faults(
    mesh: Mesh, count: int, rng: np.random.Generator
) -> List[Coord]:
    """Half the faults clustered at the mesh centre, half spread uniformly.

    Clustered faults coalesce into a sizable block (the interesting case for
    the faulty-block model); the uniform remainder exercises scattered
    single-node blocks.  Seeding the cluster at the centre keeps large
    clusters inside the interior for every seed.
    """
    centre = tuple(s // 2 for s in mesh.shape)
    faults = clustered_faults(mesh, count // 2, rng, spread=3, seed_node=centre)
    faults += uniform_random_faults(mesh, count - len(faults), rng, exclude=faults)
    return faults


def _offline_setting(cell: ExperimentCell) -> OfflineSetting:
    """The mesh, stabilized labeling and message pairs of an offline cell.

    Derived from ``cell.cell_seed`` and the configuration axes alone, so
    every policy of one configuration gets an equal setting: the serial
    engine builds it per cell, the stacked executor once per
    configuration and routes each policy over it.
    """
    mesh = Mesh(cell.shape)
    rng = np.random.default_rng(cell.cell_seed)
    faults = _offline_faults(mesh, cell.faults, rng)
    labeling = build_blocks(mesh, faults).state
    pairs = random_pairs(
        mesh,
        cell.messages,
        rng,
        min_distance=max(2, mesh.diameter // 2),
        exclude=list(labeling.block_nodes),
    )
    return mesh, labeling, tuple(pairs)


def _offline_metrics(cell: ExperimentCell, setting: OfflineSetting) -> Dict[str, float]:
    """Metrics row of ``cell``'s policy routing every pair of ``setting``."""
    mesh, labeling, pairs = setting
    # The router derives whatever information view its policy assumes once
    # for the whole batch; it reads the labeling and pairs, never writes.
    return summarize_routes(resolve_router(cell.policy).route_batch(mesh, labeling, pairs))


def build_simulator(
    cell: ExperimentCell,
    *,
    recorder: Optional["StepRecorder"] = None,
    profiler: Optional["PhaseProfiler"] = None,
    table: Optional["ProbeTable"] = None,
) -> Simulator:
    """The simulator of one simulate-mode cell.

    Shared by both engines and by ``repro-mesh simulate``, so every door
    constructs byte-identical scenarios.  ``recorder`` and ``profiler``
    are the simulator's optional observers; ``table`` is the shared probe
    table of a stacked group (see :class:`Simulator`).
    """
    mesh, schedule, traffic = simulate_scenario(cell)
    return Simulator(
        mesh,
        schedule=schedule,
        traffic=traffic,
        config=SimulationConfig(
            lam=cell.lam, router=cell.policy, contention=cell.contention
        ),
        recorder=recorder,
        profiler=profiler,
        table=table,
    )


def _simulate_metrics(cell: ExperimentCell, sim: Simulator) -> Dict[str, float]:
    """Metrics row of one finished simulate-mode run."""
    stats = sim.stats
    worst = max(
        (c.steps_to_stabilize(cell.lam) for c in stats.convergence), default=0
    )
    metrics = dict(stats.summary())
    metrics["worst_steps_to_stabilize"] = float(worst)
    metrics["information_cells"] = float(sim.info.information_cells())
    return metrics


def _run_simulate_cell(cell: ExperimentCell) -> Dict[str, float]:
    return _simulate_metrics(cell, build_simulator(cell).run())


def run_cell(cell: ExperimentCell) -> CellResult:
    """Execute one cell and return its metrics (pure function of the cell)."""
    if cell.mode == "offline":
        metrics = _offline_metrics(cell, _offline_setting(cell))
    elif cell.mode == "simulate":
        metrics = _run_simulate_cell(cell)
    elif cell.mode == "throughput":
        # Looked up on its module at call time, so a wrapper patched onto
        # the module sees every throughput cell.
        metrics = measure.run_throughput_point(cell)
    else:
        raise ValueError(f"unknown experiment mode {cell.mode!r}")
    return CellResult(cell=cell, metrics=metrics)


# ---------------------------------------------------------------------- #
# worker-side entry points (top-level so they pickle)
# ---------------------------------------------------------------------- #
#: Crash-injection hook for the pool-recovery tests: when this env var
#: names an existing file, the first worker to execute a shard consumes
#: the file and dies with SIGKILL — exactly the abrupt worker death that
#: breaks a :class:`ProcessPoolExecutor`.  Subsequent shard executions
#: find no file and run normally, so the retried work completes.
CRASH_ENV_VAR = "REPRO_TEST_KILL_SHARD"


def _maybe_crash_for_test() -> None:
    sentinel = os.environ.get(CRASH_ENV_VAR)
    if not sentinel:
        return
    try:
        os.unlink(sentinel)
    except OSError:
        return  # another worker already consumed the crash
    os.kill(os.getpid(), signal.SIGKILL)


def _execute_shard(
    shard: Shard,
    backend: Optional[str] = None,
    land: Optional[Callable[[int, CellResult], None]] = None,
) -> Tuple[List[Tuple[int, CellResult]], float]:
    """Run one shard to completion; the unit a pool worker executes.

    Returns the shard's ``(index, result)`` pairs plus the wall seconds the
    shard took (the compute-time half of the sweep telemetry).  ``land``
    (in-process runs only) also receives each result as it finishes.
    ``backend`` pins the worker's hot-loop backend explicitly: the pool is
    persistent, so a worker forked under an old ``REPRO_BACKEND`` would
    otherwise keep computing with it after the parent changed its mind.
    """
    if backend is not None:
        os.environ[BACKEND_ENV_VAR] = backend
        # Only pool-dispatched executions (backend pinned by the parent) are
        # eligible to crash: the in-process degradation path must survive.
        _maybe_crash_for_test()
    start = perf_counter()
    if shard.kind == "stacked":
        from repro.experiments.stacked import run_cells_stacked

        pairs = run_cells_stacked(shard.cells, on_result=land)
    else:
        pairs = []
        for index, cell in shard.cells:
            result = run_cell(cell)
            pairs.append((index, result))
            if land is not None:
                land(index, result)
    return pairs, perf_counter() - start


# ---------------------------------------------------------------------- #
# persistent worker pool
# ---------------------------------------------------------------------- #
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, with at least ``workers`` processes.

    Keeping the pool alive across :func:`run_batch` calls is what makes a
    sweep *service* cheap: repeated and overlapping sweeps reuse warm
    worker processes instead of paying interpreter + import start-up per
    batch.  The pool is rebuilt only for a batch that needs more processes
    than it has, never to shrink it: a smaller batch submits fewer shards
    to the live pool.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (idempotent; re-created on use)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


def _abandon_pool() -> None:
    """Discard a possibly-wedged pool without waiting on its workers.

    ``shutdown(wait=True)`` would block on exactly the stuck worker that
    triggered the inactivity timeout; cancel what can be cancelled and let
    the executor's reaper collect the processes in the background.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


#: Pool rebuilds allowed per dispatch before degrading to in-process
#: execution: a repeatedly crashing pool is not going to start working.
MAX_POOL_REBUILDS = 2

#: A shard is resubmitted at most this many times after a pool crash; a
#: shard lost more often runs in-process instead (isolating a poison cell
#: in the parent, where its failure is at least attributable).
MAX_SHARD_ATTEMPTS = 2


def _dispatch_shards(
    shards: Sequence[Shard],
    workers: int,
    land: Callable[[int, CellResult], None],
    *,
    batch_start: float,
    records: List[ShardRecord],
    incidents: List[PoolIncident],
    shard_timeout: Optional[float] = None,
) -> int:
    """Run shards to completion, landing cells as they finish.

    With ``workers <= 1`` the shards run in-process, in order, and every
    cell lands the moment it finishes.  Otherwise they run across the
    persistent pool with completion-order delivery: ``wait(FIRST_COMPLETED)``
    over shard futures, so the progress hook never stalls behind the
    slowest early shard the way ``pool.map``'s submission-order iteration
    did.

    Pool dispatch is fault tolerant: a broken pool (a worker process died
    and poisoned the executor) is rebuilt and the lost shards resubmitted —
    multi-cell shards split in half on their first loss, so a poison cell
    ends up isolated in ever-smaller shards — with bounded retries
    (:data:`MAX_SHARD_ATTEMPTS` per shard, :data:`MAX_POOL_REBUILDS`
    rebuilds) before the remaining work degrades to in-process execution.
    ``shard_timeout`` is an *inactivity* budget in seconds: if no shard
    completes for that long the pool is abandoned and the outstanding
    shards run in-process.  Because cells are deterministic pure
    functions, retried and degraded work lands byte-identical results;
    every intervention is appended to ``incidents``.

    Appends one :class:`ShardRecord` per shard to ``records`` (shard
    seconds plus the landing offset from ``batch_start``) and returns the
    effective pool size.
    """

    def record(kind: str, cells: int, seconds: float) -> None:
        records.append(
            ShardRecord(
                kind=kind,
                cells=cells,
                seconds=seconds,
                landed_seconds=perf_counter() - batch_start,
            )
        )

    def run_inline(items: Sequence[Tuple[Shard, int]]) -> None:
        for shard, _attempt in items:
            pairs, seconds = _execute_shard(shard, land=land)
            record(shard.kind, len(pairs), seconds)

    def note(kind: str, count: int, action: str) -> None:
        incidents.append(PoolIncident(kind=kind, shards=count, action=action))

    if workers <= 1:
        run_inline([(shard, 0) for shard in shards])
        return 1
    # Cap the pool at the work available: a 2-cell spec with workers=8
    # should not spawn 8 processes.
    workers = min(workers, len(shards))
    backend = resolve_backend()
    rebuilds = 0
    pool = _shared_pool(workers)
    pending: Dict[Future, Tuple[Shard, int]] = {}

    def submit(items: Sequence[Tuple[Shard, int]]) -> List[Tuple[Shard, int]]:
        """Submit ``items``; returns those refused because a worker died
        while they were being submitted (the pool is broken then)."""
        for k, (shard, attempt) in enumerate(items):
            try:
                future = pool.submit(_execute_shard, shard, backend)
            except BrokenProcessPool:
                return list(items[k:])
            pending[future] = (shard, attempt)
        return []

    try:
        lost = submit([(shard, 0) for shard in shards])
        while pending or lost:
            if pending:
                done, _ = wait(
                    pending, timeout=shard_timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Inactivity: nothing completed within the budget.  The
                    # pool may be wedged (a worker stuck in native code never
                    # breaks the executor) — abandon it and finish in-process.
                    outstanding = list(pending.values()) + lost
                    pending.clear()
                    note("timeout", len(outstanding), "serial")
                    _abandon_pool()
                    run_inline(outstanding)
                    break
                for future in done:
                    shard, attempt = pending.pop(future)
                    try:
                        pairs, seconds = future.result()
                    except BrokenProcessPool:
                        lost.append((shard, attempt))
                        continue
                    for index, result in pairs:
                        land(index, result)
                    record(shard.kind, len(pairs), seconds)
            if not lost:
                continue
            # A dead worker breaks the whole executor: every still-pending
            # future is doomed too.  Collect all outstanding work, rebuild
            # the pool once, and resubmit — splitting multi-cell shards on
            # their first loss so a deterministic crasher gets isolated.
            lost.extend(pending.values())
            pending.clear()
            shutdown_pool()
            rebuilds += 1
            if rebuilds > MAX_POOL_REBUILDS:
                note("pool-broken", len(lost), "serial")
                run_inline(lost)
                break
            note("pool-broken", len(lost), "retried")
            pool = _shared_pool(workers)
            retry: List[Tuple[Shard, int]] = []
            for shard, attempt in lost:
                if attempt >= MAX_SHARD_ATTEMPTS:
                    continue
                if attempt == 0 and len(shard.cells) > 1:
                    retry.extend(
                        (Shard(kind=shard.kind, cells=chunk), attempt + 1)
                        for chunk in _split(shard.cells, 2)
                    )
                else:
                    retry.append((shard, attempt + 1))
            exhausted = [item for item in lost if item[1] >= MAX_SHARD_ATTEMPTS]
            lost = submit(retry)
            run_inline(exhausted)
    except BaseException:
        shutdown_pool()
        raise
    return workers


def run_batch(
    spec: Union[ExperimentSpec, dict],
    *,
    workers: int = 1,
    engine: str = "auto",
    cache: Optional[ResultCache] = None,
    on_cell_done: Optional[Callable[[CellResult], None]] = None,
    shard_timeout: Optional[float] = None,
) -> BatchResult:
    """Run every cell of ``spec`` and collect the results in grid order.

    ``spec`` is an :class:`ExperimentSpec` or a ``repro.spec/v1`` payload
    dict (parsed through :meth:`ExperimentSpec.from_dict` — the same
    contract the CLI and the HTTP service speak).  Everything after it is
    keyword-only.

    ``engine`` selects the execution strategy (see module docstring):
    ``"auto"`` stacks same-shape eligible cells and builds each offline
    configuration once for all its policies, in-process or in shards
    across ``workers`` processes; ``"serial"``, the oracle, runs
    cell-at-a-time (chunked across workers).  Because each cell reseeds
    from its own deterministic ``cell_seed``, the outcome — including the
    canonical JSON export — is identical for both engines and every
    worker count.

    ``cache`` (a :class:`~repro.experiments.cache.ResultCache`) serves
    fingerprint hits without running anything and persists each miss as it
    lands.  ``on_cell_done`` is invoked with every finished result in
    completion order (cache hits first).

    Pool dispatch is fault tolerant (see :func:`_dispatch_shards`): crashed
    workers trigger a pool rebuild and shard resubmission, and
    ``shard_timeout`` seconds of pool inactivity degrade the remaining work
    to in-process execution — either way the batch completes with results
    byte-identical to an undisturbed run, and every intervention is
    recorded in ``result.telemetry.incidents``.

    The returned batch carries a
    :class:`~repro.obs.telemetry.SweepTelemetry` (per-shard wall times,
    worker utilization, cache hit counts) on ``result.telemetry`` —
    observational only, excluded from the canonical JSON export.

    An exception raised *inside* ``on_cell_done`` never abandons the sweep
    or wedges the persistent pool: it is suppressed, counted, and surfaces
    as a ``callback-error`` incident in the telemetry.  The one exception
    to that rule is :class:`BatchCancelled`, the sanctioned cooperative
    abort, which propagates at the cell boundary that raised it.
    """
    if isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    if engine not in ENGINES:
        raise ValueError(f"unknown batch engine {engine!r} (choose from {ENGINES})")
    batch_start = perf_counter()
    cells = spec.cells()
    results: List[Optional[CellResult]] = [None] * len(cells)
    shard_records: List[ShardRecord] = []
    pool_incidents: List[PoolIncident] = []
    effective_workers = 1
    callback_errors = 0

    def land(index: int, result: CellResult, *, fresh: bool = True) -> None:
        nonlocal callback_errors
        if fresh and cache is not None:
            cache.put(result.cell, result.metrics)
        results[index] = result
        if on_cell_done is not None:
            try:
                on_cell_done(result)
            except BatchCancelled:
                raise
            except Exception:
                # The cell itself landed fine; only the progress hook is
                # broken.  Keep landing cells and account for the failure
                # in the telemetry instead of tearing the batch down.
                callback_errors += 1

    pending: List[Tuple[int, ExperimentCell]] = []
    for index, cell in enumerate(cells):
        if cache is not None:
            metrics = cache.get(cell)
            if metrics is not None:
                land(index, CellResult(cell=cell, metrics=metrics), fresh=False)
                continue
        pending.append((index, cell))
    if cache is not None and len(pending) < len(cells):
        # Cache hits land as one zero-compute shard so the shard table
        # accounts for every cell of the batch.
        shard_records.append(
            ShardRecord(
                kind="cached",
                cells=len(cells) - len(pending),
                seconds=0.0,
                landed_seconds=perf_counter() - batch_start,
            )
        )

    if pending:
        if workers <= 1:
            # One in-process shard: the stacked executor groups eligible
            # cells by shape and offline cells by configuration itself, and
            # runs everything else serially.
            kind = "serial" if engine == "serial" else "stacked"
            shards = [Shard(kind=kind, cells=tuple(pending))]
        else:
            shards = plan_shards(pending, workers=workers, engine=engine)
        effective_workers = _dispatch_shards(
            shards,
            workers,
            land,
            batch_start=batch_start,
            records=shard_records,
            incidents=pool_incidents,
            shard_timeout=shard_timeout,
        )

    if callback_errors:
        pool_incidents.append(
            PoolIncident(
                kind="callback-error", shards=callback_errors, action="suppressed"
            )
        )
    telemetry = SweepTelemetry(
        engine=engine,
        workers=max(1, effective_workers),
        cells=len(cells),
        wall_seconds=perf_counter() - batch_start,
        shards=tuple(shard_records),
        cache=cache.stats.to_dict() if cache is not None else None,
        incidents=tuple(pool_incidents),
    )
    return BatchResult.assemble(spec, results, telemetry=telemetry)
