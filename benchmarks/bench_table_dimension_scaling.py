"""Table N1 — behaviour across mesh dimensionality (n = 2, 3, 4).

The paper's point of generalizing from the 2-D [9] and 3-D [10] models is
that the same constructions work for every n.  The bench runs the identical
experiment (one interior block of edge 2, plus scattered faults, a batch of
long-haul messages) in 2-D, 3-D and 4-D meshes of comparable node count and
reports convergence rounds, detours and information footprint per
dimension.
"""

import numpy as np
from _common import print_table

from repro.analysis.convergence import measure_convergence
from repro.analysis.metrics import memory_footprint_row, summarize_routes
from repro.core.block_construction import build_blocks
from repro.faults.injection import uniform_random_faults
from repro.routing import resolve_router
from repro.workloads.scenarios import parametric_block_scenario
from repro.workloads.traffic import random_pairs

CONFIGS = (
    (2, 16),   # 256 nodes
    (3, 8),    # 512 nodes
    (4, 5),    # 625 nodes
)


def _row(n_dims, radix, seed=5):
    rng = np.random.default_rng(seed)
    scenario = parametric_block_scenario(radix, n_dims, edge=2)
    mesh = scenario.mesh
    block_faults = list(scenario.expected_extents[0].iter_points())
    extra = uniform_random_faults(mesh, 2, rng, exclude=block_faults)
    faults = block_faults + extra

    measurement = measure_convergence(mesh, faults)
    labeling = build_blocks(mesh, faults).state
    pairs = random_pairs(
        mesh, 16, rng, min_distance=max(2, mesh.diameter // 2),
        exclude=list(labeling.block_nodes),
    )
    detours = {
        policy: summarize_routes(
            resolve_router(policy).route_batch(mesh, labeling, pairs)
        )["mean_detours"]
        for policy in ("limited-global", "no-information")
    }
    memory = memory_footprint_row(mesh, labeling)
    return (
        f"{radix}^{n_dims}",
        mesh.size,
        measurement.labeling_rounds,
        measurement.identification_rounds,
        measurement.boundary_rounds,
        f"{detours['limited-global']:.2f}",
        f"{detours['no-information']:.2f}",
        f"{memory['reduction_factor']:.1f}x",
    )


def test_table_dimension_scaling(benchmark):
    benchmark(_row, 3, 8)

    rows = [_row(n_dims, radix) for n_dims, radix in CONFIGS]
    print_table(
        "Table N1: the same model across mesh dimensionality",
        ["mesh", "nodes", "a", "b", "c", "detours (limited)", "detours (no info)", "memory reduction"],
        rows,
    )

    # Shape: the constructions converge in every dimension, and the
    # limited-global routing never does worse than the information-free one.
    for row in rows:
        assert row[2] >= 0 and row[3] > 0
        assert float(row[5]) <= float(row[6]) + 1e-9
