"""Labeling-round cost under fault churn: scalar loop vs vectorized engine.

The steady-state routing hot path was removed by per-node batched stepping
and the stable-labeling skip (PR 3); what remains expensive on large meshes
is the labeling itself *while faults churn* — every fault or recovery event
re-runs synchronous rounds of Algorithm 1 until the blocks re-stabilize.
This benchmark replays a deterministic churn history (initial fault set,
then interleaved recoveries and fresh faults, re-converging after every
event) on a large 2-D mesh (32x32) and a large 3-D mesh (16x16x16), once
through the pure-Python scalar rounds and once through the numpy stencil
engine.  A parity gate asserts the two replays are byte-identical before
anything is timed; the acceptance bar is vectorized >= 3x on the 32x32
churn.

Run with ``--benchmark-json`` to record a ``BENCH_labeling.json``
trajectory point (see benchmarks/baselines/).
"""

import numpy as np
from _common import print_table

from repro.backend import ENV_VAR, SCALAR, VECTOR
from repro.core.block_construction import LabelingState, run_block_construction
from repro.faults.injection import uniform_random_faults
from repro.mesh.topology import Mesh


def _churn_history(shape, n_faults, n_events, seed):
    """Deterministic churn: initial faults plus alternating recover/fault events."""
    mesh = Mesh(shape)
    rng = np.random.default_rng(seed)
    initial = uniform_random_faults(mesh, n_faults, rng, margin=1)
    events = []
    alive = list(initial)
    for i in range(n_events):
        if i % 2 == 0 and alive:
            victim = alive.pop(int(rng.integers(0, len(alive))))
            events.append(("recover", victim))
        else:
            fresh = uniform_random_faults(
                mesh, 1, rng, margin=1, exclude=alive + [n for _, n in events]
            )[0]
            alive.append(fresh)
            events.append(("fault", fresh))
    return mesh, initial, events


def _replay(mesh, initial, events):
    """Converge the initial set, then re-converge after every churn event,
    on the backend ``REPRO_BACKEND`` selects."""
    state = LabelingState.from_faults(mesh, initial)
    total_rounds = run_block_construction(state).rounds
    for kind, node in events:
        if kind == "recover":
            if state.status(node).value == "faulty":
                state.recover(node)
        else:
            state.make_faulty(node)
        total_rounds += run_block_construction(state).rounds
    return state, total_rounds


MESH_2D = _churn_history((32, 32), n_faults=40, n_events=24, seed=3)
MESH_3D = _churn_history((16, 16, 16), n_faults=60, n_events=24, seed=5)


def _replay_on(monkeypatch, backend, history):
    monkeypatch.setenv(ENV_VAR, backend)
    return _replay(*history)


def test_churn_parity_2d(monkeypatch):
    """Parity gate for the timed 32x32 comparison below."""
    scalar_state, scalar_rounds = _replay_on(monkeypatch, SCALAR, MESH_2D)
    vector_state, vector_rounds = _replay_on(monkeypatch, VECTOR, MESH_2D)
    assert scalar_rounds == vector_rounds
    assert np.array_equal(scalar_state.codes, vector_state.codes)
    assert scalar_state.non_enabled_nodes() == vector_state.non_enabled_nodes()


def test_churn_parity_3d(monkeypatch):
    """Parity gate for the timed 16x16x16 comparison below."""
    scalar_state, scalar_rounds = _replay_on(monkeypatch, SCALAR, MESH_3D)
    vector_state, vector_rounds = _replay_on(monkeypatch, VECTOR, MESH_3D)
    assert scalar_rounds == vector_rounds
    assert np.array_equal(scalar_state.codes, vector_state.codes)


def test_bench_labeling_churn_32x32_vector(benchmark, monkeypatch):
    monkeypatch.setenv(ENV_VAR, VECTOR)
    _, rounds = benchmark(lambda: _replay(*MESH_2D))
    print(f"\n32x32 vector churn: {rounds} labeling rounds over {len(MESH_2D[2])} events")


def test_bench_labeling_churn_32x32_scalar(benchmark, monkeypatch):
    monkeypatch.setenv(ENV_VAR, SCALAR)
    _, rounds = benchmark(lambda: _replay(*MESH_2D))
    print(f"\n32x32 scalar churn: {rounds} labeling rounds over {len(MESH_2D[2])} events")


def test_bench_labeling_churn_16x16x16_vector(benchmark, monkeypatch):
    monkeypatch.setenv(ENV_VAR, VECTOR)
    _, rounds = benchmark(lambda: _replay(*MESH_3D))
    print(f"\n16^3 vector churn: {rounds} labeling rounds over {len(MESH_3D[2])} events")


def test_bench_labeling_churn_16x16x16_scalar(benchmark, monkeypatch):
    monkeypatch.setenv(ENV_VAR, SCALAR)
    _, rounds = benchmark(lambda: _replay(*MESH_3D))
    print(f"\n16^3 scalar churn: {rounds} labeling rounds over {len(MESH_3D[2])} events")


def test_speedup_table(monkeypatch):
    """Print the headline scalar/vector wall-clock ratio (informational)."""
    import time

    rows = []
    for label, history in (("32x32", MESH_2D), ("16x16x16", MESH_3D)):
        timings = {}
        for backend in (SCALAR, VECTOR):
            _replay_on(monkeypatch, backend, history)  # warm caches
            start = time.perf_counter()
            _, rounds = _replay(*history)
            timings[backend] = time.perf_counter() - start
        rows.append(
            (
                label,
                rounds,
                f"{timings[SCALAR] * 1e3:.1f}",
                f"{timings[VECTOR] * 1e3:.1f}",
                f"{timings[SCALAR] / timings[VECTOR]:.1f}x",
            )
        )
    print_table(
        "Labeling churn: scalar vs vectorized (one replay, warm)",
        ["mesh", "rounds", "scalar ms", "vector ms", "speedup"],
        rows,
    )
