"""Table D1 — detours vs number of faults, across routing policies.

The companion evaluations (and this paper's motivation) compare the
limited-global model against routing without fault information and against
idealized global information: the limited-global routing should track the
global-information ideal closely while the information-free routing
degrades much faster as faults accumulate.  The static faulty-block
predecessor (adjacent-only information, Wu ICPP 2000) sits in between,
which isolates the contribution of boundary propagation (the ablation
called out in DESIGN.md).

The tables route through :mod:`repro.experiments`: each row set is one
offline-mode :class:`ExperimentSpec` over the fault-count axis, every
policy column sharing the same per-cell fault layout and traffic.  The
timed section measures the routing hot path over a prebuilt configuration.
"""

import numpy as np
from _common import print_table

from repro.analysis.metrics import summarize_routes
from repro.core.block_construction import build_blocks
from repro.experiments import ExperimentSpec, run_batch
from repro.faults.injection import clustered_faults, uniform_random_faults
from repro.mesh.topology import Mesh
from repro.routing import resolve_router
from repro.workloads.traffic import random_pairs

POLICIES = ("limited-global", "static-block", "no-information", "global-information")


def _one_row(mesh, fault_count, seed, messages=20):
    rng = np.random.default_rng(seed)
    # Seed the cluster at the mesh centre so large clusters always fit in the
    # interior regardless of the random seed.
    centre = tuple(s // 2 for s in mesh.shape)
    faults = clustered_faults(
        mesh, fault_count // 2, rng, spread=3, seed_node=centre
    )
    faults += uniform_random_faults(mesh, fault_count - len(faults), rng, exclude=faults)
    labeling = build_blocks(mesh, faults).state
    pairs = random_pairs(
        mesh,
        messages,
        rng,
        min_distance=mesh.diameter // 2,
        exclude=list(labeling.block_nodes),
    )
    return {
        policy: summarize_routes(resolve_router(policy).route_batch(mesh, labeling, pairs))
        for policy in POLICIES
    }


def _detour_batch(name, shape, fault_counts, messages):
    spec = ExperimentSpec(
        name=name,
        mode="offline",
        mesh_shapes=(shape,),
        policies=POLICIES,
        fault_counts=fault_counts,
        traffic_sizes=(messages,),
    )
    return spec, run_batch(spec)


def test_table_detours_2d(benchmark):
    mesh = Mesh.cube(16, 2)
    benchmark(_one_row, mesh, 16, seed=11)

    spec, batch = _detour_batch("table-d1a", (16, 16), (4, 8, 16, 24, 32), 20)
    detours = batch.pivot("mean_detours", rows="faults")
    delivery = batch.pivot("delivery_rate", rows="faults")
    rows = [
        (count, *[f"{detours[count][p]:.2f}" for p in POLICIES])
        for count in spec.fault_counts
    ]
    print_table(
        "Table D1a: mean detours vs fault count (16x16 mesh)",
        ["faults", *POLICIES],
        rows,
    )

    # Shape assertions: global <= limited-global <= no-information on average.
    for count in spec.fault_counts:
        assert detours[count]["global-information"] <= detours[count]["limited-global"] + 1e-9
        assert detours[count]["limited-global"] <= detours[count]["no-information"] + 1e-9
        assert all(rate == 1.0 for rate in delivery[count].values())


def test_table_detours_3d(benchmark):
    mesh = Mesh.cube(10, 3)
    summaries = benchmark(_one_row, mesh, 12, seed=21, messages=12)

    spec, batch = _detour_batch("table-d1b", (10, 10, 10), (8, 16, 32), 16)
    detours = batch.pivot("mean_detours", rows="faults")
    backtracks = batch.pivot("mean_backtracks", rows="faults")
    rows = [
        (
            count,
            *[f"{detours[count][p]:.2f}" for p in POLICIES],
            f"{backtracks[count]['no-information']:.2f}",
        )
        for count in spec.fault_counts
    ]
    print_table(
        "Table D1b: mean detours vs fault count (10^3 mesh)",
        ["faults", *POLICIES, "no-info backtracks"],
        rows,
    )
    timed = {policy: row["mean_detours"] for policy, row in summaries.items()}
    assert timed["limited-global"] <= timed["no-information"] + 1e-9
    for count in spec.fault_counts:
        assert detours[count]["global-information"] <= detours[count]["limited-global"] + 1e-9
