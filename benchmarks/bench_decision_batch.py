"""Decision-path cost in isolation: scalar loop vs the vectorized kernel.

The contended step loop's dominant cost is the per-probe Algorithm-3
direction classification (``classify_directions`` via
``decision_candidates``).  This benchmark measures exactly that path,
detached from the simulator: a static fault configuration is built and its
information fully distributed, a population of in-flight probe headers is
grown by stepping real probes to staggered depths (so the headers carry
realistic stacks, used-direction sets and incoming directions), and then
one *decision round* — every probe classifying its candidate directions
once — is timed through the scalar reference loop (the parity oracle) and
through :func:`~repro.core.decision.classify_rows`, the probe table's
kernel, fed the same column inputs the table keeps per row.

A parity gate asserts the two classifications are byte-identical (same
classes, same directions, same order, same ``None`` rule-1 results) before
anything is timed.  Run with ``--benchmark-json`` to record a
``BENCH_decision.json`` trajectory point (see benchmarks/baselines/ and
benchmarks/check_regression.py).

The refresh-churn cases time the other half of the decision layer: the
engine's table refresh.  They replay the information changes of one
dynamic-fault cell (status changes and record mutator calls, step by step)
into a fresh state and call ``engine.tables()`` after each changed step;
their parity twin holds every refreshed table to a freshly built engine's.
"""

from functools import lru_cache

from dataclasses import replace

import numpy as np
from _common import print_table

from repro.core.block_construction import LabelingState, build_blocks
from repro.core.decision import VectorDecisionEngine, classify_rows
from repro.core.distribution import distribute_information
from repro.core.routing import (
    DecisionCache,
    DirectionClass,
    RoutingPolicy,
    RoutingProbe,
    decision_candidates,
)
from repro.core.state import InformationState
from repro.experiments import ExperimentSpec
from repro.faults.injection import uniform_random_faults
from repro.faults.status import NodeStatus
from repro.mesh.topology import Mesh
from repro.simulator.engine import Simulator
from repro.workloads import simulate_scenario
from repro.workloads.traffic import random_pairs


def _probe_population(shape, n_faults, n_probes, seed):
    """Static distributed information plus a population of in-flight headers.

    Probes are stepped to staggered depths (0..diameter hops) against the
    stabilized information, so the resulting headers exercise every decision
    situation: fresh at the source, mid-walk with an incoming direction,
    used-direction sets at revisited nodes, and backtracking walks around
    blocks.
    """
    mesh = Mesh(shape)
    rng = np.random.default_rng(seed)
    faults = uniform_random_faults(mesh, n_faults, rng, margin=1)
    labeling = build_blocks(mesh, faults).state
    info = distribute_information(mesh, labeling)
    policy = RoutingPolicy.limited_global()
    pairs = random_pairs(
        mesh, n_probes, rng,
        min_distance=max(2, mesh.diameter // 2),
        exclude=list(labeling.block_nodes),
    )
    cache = DecisionCache(info, policy)
    headers = []
    for i, (src, dst) in enumerate(pairs):
        probe = RoutingProbe(mesh, src, dst, policy=policy)
        for _ in range(i % (mesh.diameter + 1)):
            if probe.done:
                break
            probe.step(info, decision_cache=cache)
        if not probe.done:
            headers.append(probe.header)
    return info, policy, headers


def _columns(mesh, headers):
    """The headers as :func:`classify_rows` columns (the probe table's rows)."""
    surface = {d: j for j, d in enumerate(mesh.directions)}
    cur = np.array([mesh.index_of(h.current) for h in headers], dtype=np.int64)
    dest = np.array([mesh.index_of(h.destination) for h in headers], dtype=np.int64)
    rev = np.array(
        [
            -1 if h.incoming_direction is None
            else surface[h.incoming_direction.reversed()]
            for h in headers
        ],
        dtype=np.int64,
    )
    used = np.array(
        [sum(1 << surface[d] for d in h.used_at(h.current)) for h in headers],
        dtype=np.uint32,
    )
    at_source = np.array([h.current == h.source for h in headers], dtype=bool)
    return cur, cur, dest, rev, used, at_source


# Lazily built (and then shared) so --collect-only costs nothing.
@lru_cache(maxsize=None)
def _population(kind):
    if kind == "2d":
        info, policy, headers = _probe_population(
            (16, 16), n_faults=10, n_probes=256, seed=11
        )
    else:
        info, policy, headers = _probe_population(
            (10, 10, 10), n_faults=14, n_probes=256, seed=13
        )
    return info, policy, headers, _columns(info.mesh, headers)


def _vector_round(engine, columns):
    """One decision round through the kernel, as the probe table runs it."""
    tables, _token = engine.tables()
    return classify_rows(tables, *columns)


def _scalar_round(info, policy, headers, cache):
    """The per-header scalar loop the kernel must match exactly."""
    return [decision_candidates(info, h, policy=policy, cache=cache) for h in headers]


def _decode(engine, result):
    """A kernel round in ``decision_candidates``' form."""
    backtrack, sorted_dirs, counts, keys = result
    unit = engine.tables()[0].span + 1
    dirs = engine.mesh.directions
    return [
        None if backtrack[g] else [
            (DirectionClass(int(keys[g, j]) // unit), dirs[j])
            for j in sorted_dirs[g, : counts[g]].tolist()
        ]
        for g in range(len(counts))
    ]


def _parity(kind):
    info, policy, headers, columns = _population(kind)
    engine = VectorDecisionEngine(info, policy)
    assert _decode(engine, _vector_round(engine, columns)) == _scalar_round(
        info, policy, headers, DecisionCache(info, policy)
    )


def test_decision_parity_2d():
    """Parity gate for the timed 16x16 comparison below."""
    _parity("2d")


def test_decision_parity_3d():
    """Parity gate for the timed 10^3 comparison below."""
    _parity("3d")


def test_bench_decision_batch_16x16_vector(benchmark):
    info, policy, headers, columns = _population("2d")
    engine = VectorDecisionEngine(info, policy)
    out = benchmark(lambda: _vector_round(engine, columns))
    print(f"\n16x16 vector kernel: {len(out[2])} probes classified per round")


def test_bench_decision_batch_16x16_scalar(benchmark):
    info, policy, headers, _ = _population("2d")
    cache = DecisionCache(info, policy)
    out = benchmark(lambda: _scalar_round(info, policy, headers, cache))
    print(f"\n16x16 scalar loop:   {len(out)} probes classified per round")


def test_bench_decision_batch_10x10x10_vector(benchmark):
    info, policy, headers, columns = _population("3d")
    engine = VectorDecisionEngine(info, policy)
    out = benchmark(lambda: _vector_round(engine, columns))
    print(f"\n10^3 vector kernel: {len(out[2])} probes classified per round")


def test_bench_decision_batch_10x10x10_scalar(benchmark):
    info, policy, headers, _ = _population("3d")
    cache = DecisionCache(info, policy)
    out = benchmark(lambda: _scalar_round(info, policy, headers, cache))
    print(f"\n10^3 scalar loop:   {len(out)} probes classified per round")


def test_speedup_table():
    """Print the headline scalar/vector decision-round ratio (informational)."""
    import time

    rows = []
    for label, kind in (("16x16", "2d"), ("10x10x10", "3d")):
        info, policy, headers, columns = _population(kind)
        engine = VectorDecisionEngine(info, policy)
        cache = DecisionCache(info, policy)
        rounds = {
            "scalar": lambda: _scalar_round(info, policy, headers, cache),
            "vector": lambda: _vector_round(engine, columns),
        }
        timings = {}
        for name, run in rounds.items():
            run()  # warm tables
            start = time.perf_counter()
            for _ in range(10):
                run()
            timings[name] = (time.perf_counter() - start) / 10
        rows.append(
            (
                label,
                len(headers),
                f"{timings['scalar'] * 1e3:.2f}",
                f"{timings['vector'] * 1e3:.2f}",
                f"{timings['scalar'] / timings['vector']:.1f}x",
            )
        )
    print_table(
        "Decision round: scalar loop vs vectorized kernel (warm, mean of 10)",
        ["mesh", "probes", "scalar ms", "vector ms", "speedup"],
        rows,
    )


# --------------------------------------------------------------------- #
# table refresh under information churn
# --------------------------------------------------------------------- #
#: The mutators that add records to an information state.
_RECORD_ADDS = ("add_block_info", "add_block_info_at", "add_boundary", "add_boundary_at")
#: The mutators that change an information state's records.
_RECORD_MUTATORS = _RECORD_ADDS + ("cancel_stale",)

#: Simulation steps recorded per churn cell (the faults arrive at steps 2
#: and 8; the information has long converged by the end).
_CHURN_STEPS = 80


@lru_cache(maxsize=None)
def _churn(kind):
    """One dynamic-fault cell's information changes, step by step.

    Returns ``(mesh, start, steps)``: the status codes and records right
    after pre-convergence, then per simulation step that changed the
    information its status codes afterwards and the record mutator calls it
    made.  The information does not depend on the traffic, so the cell runs
    without messages.  The recorded calls must add both block and boundary
    records, or the replay would not exercise refreshes for added records.
    """
    shape = (8, 8) if kind == "2d" else (5, 5, 5)
    (cell,) = ExperimentSpec(
        mode="simulate", mesh_shapes=(shape,), scenarios=("transpose",),
        fault_counts=(2,), fault_intervals=(6,),
    ).cells()
    mesh, schedule, _ = simulate_scenario(replace(cell, cell_seed=1))
    sim = Simulator(mesh, schedule=schedule, traffic=[])
    info = sim.info
    start = (
        info.labeling.codes.copy(),
        {node: set(r) for node, r in info.node_blocks.items()},
        {node: set(r) for node, r in info.node_boundaries.items()},
    )
    calls = []
    for name in _RECORD_MUTATORS:
        method = getattr(info, name)

        def logged(*args, _name=name, _method=method):
            calls.append((_name, args))
            return _method(*args)

        setattr(info, name, logged)
    steps = []
    token = (info.labeling.mutations, info.record_mutations)
    for _ in range(_CHURN_STEPS):
        sim.step()
        now = (info.labeling.mutations, info.record_mutations)
        if now != token:
            steps.append((info.labeling.codes.copy(), tuple(calls)))
            calls.clear()
            token = now
    added = {name for _codes, step in steps for name, _args in step if name in _RECORD_ADDS}
    assert added & {"add_block_info", "add_block_info_at"}, added
    assert added & {"add_boundary", "add_boundary_at"}, added
    return mesh, start, tuple(steps)


def _replay_churn(kind, check=None):
    """Replay a churn cell into a fresh state; refresh after every step."""
    mesh, (codes, blocks, bounds), steps = _churn(kind)
    labeling = LabelingState(mesh=mesh)
    for i in np.flatnonzero(codes).tolist():
        labeling.set_status(mesh.coord_of(i), NodeStatus.from_code(int(codes[i])))
    info = InformationState(
        mesh=mesh,
        labeling=labeling,
        node_blocks={node: set(r) for node, r in blocks.items()},
        node_boundaries={node: set(r) for node, r in bounds.items()},
    )
    policy = RoutingPolicy.limited_global()
    engine = VectorDecisionEngine(info, policy)
    engine.tables()
    for codes, calls in steps:
        for i in np.flatnonzero(labeling.codes != codes).tolist():
            labeling.set_status(mesh.coord_of(i), NodeStatus.from_code(int(codes[i])))
        for name, args in calls:
            getattr(info, name)(*args)
        tables, _token = engine.tables()
        if check is not None:
            check(tables, VectorDecisionEngine(info, policy).tables()[0])
    return len(steps)


def _same_tables(live, fresh):
    for name in ("node_codes", "usable", "disabled_nb", "along", "c_start",
                 "c_count", "c_prism", "c_target_lo", "c_target_hi",
                 "base_key", "disabled_flag", "usable_bits", "detour_bits"):
        np.testing.assert_array_equal(getattr(live, name), getattr(fresh, name))
    assert live.has_constraints == fresh.has_constraints


def test_tables_refresh_churn_parity():
    """Parity gate for the refresh-churn cases: long-lived == fresh engine."""
    for kind in ("2d", "3d"):
        assert _replay_churn(kind, check=_same_tables) >= 10


def test_bench_tables_refresh_churn_8x8(benchmark):
    steps = benchmark(lambda: _replay_churn("2d"))
    print(f"\n8x8 refresh churn: {steps} information changes replayed")


def test_bench_tables_refresh_churn_5x5x5(benchmark):
    steps = benchmark(lambda: _replay_churn("3d"))
    print(f"\n5x5x5 refresh churn: {steps} information changes replayed")
