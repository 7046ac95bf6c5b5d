"""Unit tests for convergence analysis and comparison metrics."""

from repro.analysis.convergence import (
    expected_boundary_rounds,
    expected_identification_rounds,
    expected_labeling_rounds,
    measure_convergence,
)
from repro.analysis.metrics import (
    COMPARED_POLICIES,
    global_table_cells,
    limited_global_cells,
    memory_footprint_row,
    summarize_routes,
)
from repro.core.block_construction import build_blocks
from repro.core.distribution import distribute_information
from repro.core.routing import RouteOutcome, RouteResult
from repro.faults.injection import uniform_random_faults
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh
from repro.routing import resolve_router
from repro.workloads.scenarios import FIGURE1_FAULTS, parametric_block_scenario
from repro.workloads.traffic import random_pairs


class TestMeasureConvergence:
    def test_figure1_measurement(self, mesh3d):
        measurement = measure_convergence(mesh3d, FIGURE1_FAULTS)
        assert measurement.block_extents == (Region((3, 5, 3), (5, 6, 4)),)
        assert measurement.labeling_rounds >= 1
        assert measurement.identification_rounds > 0
        assert measurement.boundary_rounds > 0
        assert measurement.total_rounds == (
            measurement.labeling_rounds
            + measurement.identification_rounds
            + measurement.boundary_rounds
        )
        assert measurement.steps(lam=2) == -(-measurement.total_rounds // 2)

    def test_rounds_grow_with_block_size_not_mesh_size(self):
        """The paper's quick-distribution claim: a+b scales with the block."""
        small_block = parametric_block_scenario(14, 3, edge=2)
        large_block = parametric_block_scenario(14, 3, edge=5)
        m_small = measure_convergence(
            small_block.mesh, list(small_block.expected_extents[0].iter_points())
        )
        m_large = measure_convergence(
            large_block.mesh, list(large_block.expected_extents[0].iter_points())
        )
        assert m_large.identification_rounds > m_small.identification_rounds

        small_mesh = parametric_block_scenario(10, 3, edge=2, origin=(4, 4, 4))
        big_mesh = parametric_block_scenario(16, 3, edge=2, origin=(4, 4, 4))
        m_a = measure_convergence(
            small_mesh.mesh, list(small_mesh.expected_extents[0].iter_points())
        )
        m_b = measure_convergence(
            big_mesh.mesh, list(big_mesh.expected_extents[0].iter_points())
        )
        assert m_a.identification_rounds == m_b.identification_rounds
        assert m_a.labeling_rounds == m_b.labeling_rounds
        # Only the boundary propagation sees the mesh size.
        assert m_b.boundary_rounds >= m_a.boundary_rounds

    def test_expected_formulas_are_upper_bound_flavoured(self, mesh3d):
        """The closed forms track the measurements within a small factor."""
        for edge in (2, 4):
            scenario = parametric_block_scenario(12, 3, edge=edge)
            extent = scenario.expected_extents[0]
            measurement = measure_convergence(
                scenario.mesh, list(extent.iter_points())
            )
            assert measurement.labeling_rounds <= 2 * expected_labeling_rounds(extent)
            assert (
                measurement.identification_rounds
                <= 2 * expected_identification_rounds(extent)
            )
            assert measurement.boundary_rounds <= 2 * expected_boundary_rounds(
                scenario.mesh, extent
            ) + 2


class TestSummarizeRoutes:
    def test_empty_batch(self):
        row = summarize_routes([])
        assert row["routes"] == 0
        assert row["delivery_rate"] == 1.0

    def test_mixed_batch(self):
        delivered = RouteResult(
            outcome=RouteOutcome.DELIVERED,
            path=[(0, 0), (1, 0)],
            source=(0, 0),
            destination=(1, 0),
            min_distance=1,
            forward_hops=1,
            backtrack_hops=0,
        )
        failed = RouteResult(
            outcome=RouteOutcome.UNREACHABLE,
            path=[(0, 0)],
            source=(0, 0),
            destination=(5, 5),
            min_distance=10,
            forward_hops=4,
            backtrack_hops=4,
        )
        row = summarize_routes([delivered, failed])
        assert row["routes"] == 2
        assert row["delivered"] == 1
        assert row["delivery_rate"] == 0.5
        assert row["mean_hops"] == 1.0
        assert row["max_detours"] == 0
        # An integral mean keeps statistics.mean's int, as the offline
        # rows (and so their JSON digests) always have.
        assert type(row["mean_hops"]) is int


class TestComparePolicies:
    def test_comparison_table(self, rng):
        mesh = Mesh.cube(12, 2)
        faults = uniform_random_faults(mesh, 8, rng)
        labeling = build_blocks(mesh, faults).state
        pairs = random_pairs(
            mesh, 12, rng, min_distance=8, exclude=list(labeling.block_nodes)
        )
        summaries = {
            name: summarize_routes(resolve_router(name).route_batch(mesh, labeling, pairs))
            for name in COMPARED_POLICIES
        }
        assert set(summaries) == {
            "limited-global",
            "no-information",
            "static-block",
            "global-information",
        }
        row = {name: summary["mean_detours"] for name, summary in summaries.items()}
        # The global-information ideal is a lower bound; the limited-global
        # model must not do worse than the information-free routing.
        assert row["global-information"] <= row["limited-global"] + 1e-9
        assert row["limited-global"] <= row["no-information"] + 1e-9
        # Everything delivered (the configurations keep endpoints enabled).
        for summary in summaries.values():
            assert summary["delivery_rate"] == 1.0


class TestMemoryFootprint:
    def test_limited_global_far_below_global_table(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        info = distribute_information(mesh3d, labeling)
        limited = limited_global_cells(info)
        table = global_table_cells(mesh3d, labeling)
        assert limited < table
        assert table == mesh3d.size  # one block -> one entry per node

    def test_memory_footprint_row(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        row = memory_footprint_row(mesh3d, labeling)
        assert row["blocks"] == 1.0
        assert row["reduction_factor"] > 1.0
