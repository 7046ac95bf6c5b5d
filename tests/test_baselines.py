"""Unit tests for the comparison routing policies of `repro.routing`."""

import numpy as np
import pytest

from repro.core.block_construction import build_blocks
from repro.core.distribution import distribute_information
from repro.core.routing import RouteOutcome, RoutingPolicy, route_offline
from repro.core.safety import shortest_path_length
from repro.core.state import InformationState
from repro.faults.injection import uniform_random_faults
from repro.mesh.topology import Mesh
from repro.routing import (
    GlobalInfoRouter,
    StaticBlockRouter,
    adjacent_only_information,
    resolve_router,
)
from repro.workloads.scenarios import FIGURE1_FAULTS
from repro.workloads.traffic import random_pairs

NO_INFORMATION = RoutingPolicy.no_information()


def _global_router():
    router = resolve_router("global-information")
    assert isinstance(router, GlobalInfoRouter) and router.avoid_blocks
    return router


def _masked(mesh, mask):
    return {node for node, blocked in zip(mesh.nodes(), mask) if blocked}


class TestGlobalInformationRouter:
    def test_matches_bfs_shortest_path(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        result = _global_router().route(mesh3d, labeling, (4, 2, 4), (4, 9, 4))
        assert result.delivered
        expected = shortest_path_length(
            mesh3d, set(labeling.block_nodes), (4, 2, 4), (4, 9, 4)
        )
        assert result.hops == expected

    def test_avoid_blocks_vs_faults_only(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        strict = _global_router().blocked_mask(labeling)
        lenient = GlobalInfoRouter(avoid_blocks=False).blocked_mask(labeling)
        assert _masked(mesh3d, strict) == labeling.block_nodes
        assert _masked(mesh3d, lenient) == labeling.faulty_nodes
        assert _masked(mesh3d, strict) >= _masked(mesh3d, lenient)

    def test_avoid_blocks_false_crosses_disabled_nodes(self, mesh2d):
        # A disabled node may be crossed when only faults are avoided.
        labeling = build_blocks(mesh2d, [(4, 5), (5, 4)]).state
        assert labeling.disabled_nodes == {(4, 4), (5, 5)}
        disabled = (5, 5)
        strict = _global_router().route(mesh2d, labeling, disabled, (9, 9))
        lenient = GlobalInfoRouter(avoid_blocks=False).route(
            mesh2d, labeling, disabled, (9, 9)
        )
        assert strict.outcome is RouteOutcome.UNREACHABLE and strict.path == [disabled]
        assert lenient.delivered and lenient.detours == 0

    def test_unreachable_destination(self, mesh2d):
        faults = [(4, 5), (6, 5), (5, 4), (5, 6)]
        labeling = build_blocks(mesh2d, faults).state
        result = _global_router().route(mesh2d, labeling, (0, 0), (5, 5))
        assert result.outcome is RouteOutcome.UNREACHABLE

    def test_source_equals_destination(self, mesh2d):
        labeling = build_blocks(mesh2d, []).state
        result = _global_router().route(mesh2d, labeling, (3, 3), (3, 3))
        assert result.delivered and result.hops == 0

    def test_fault_free_is_minimal(self, mesh3d):
        labeling = build_blocks(mesh3d, []).state
        result = _global_router().route(mesh3d, labeling, (0, 0, 0), (9, 9, 9))
        assert result.detours == 0

    def test_blocked_mask_cached_per_labeling_state(self, mesh2d):
        labeling = build_blocks(mesh2d, [(4, 5), (5, 4)]).state
        router = _global_router()
        first = router.blocked_mask(labeling)
        assert router.blocked_mask(labeling) is first
        labeling.make_faulty((2, 2))
        second = router.blocked_mask(labeling)
        assert second is not first
        assert second[mesh2d.index_of((2, 2))] and not first[mesh2d.index_of((2, 2))]


class TestNoInformationBaseline:
    def test_delivers_despite_faults(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        bare = InformationState(mesh=mesh3d, labeling=labeling)
        result = route_offline(bare, (0, 4, 4), (4, 7, 4), policy=NO_INFORMATION)
        assert result.delivered

    def test_never_worse_delivery_than_global_unreachable(self, mesh2d):
        # If the global router says unreachable, no-info must not deliver.
        faults = [(4, 5), (6, 5), (5, 4), (5, 6)]
        labeling = build_blocks(mesh2d, faults).state
        bare = InformationState(mesh=mesh2d, labeling=labeling)
        result = route_offline(bare, (0, 0), (5, 5), policy=NO_INFORMATION)
        assert result.outcome is not RouteOutcome.DELIVERED


class TestStaticBlockBaseline:
    def test_adjacent_only_information_has_no_boundaries(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        info = adjacent_only_information(mesh3d, labeling)
        assert all(not info.boundaries_at(n) for n in info.nodes_holding_information())
        assert info.information_cells() > 0

    def test_information_held_closer_than_limited_global(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        adjacent = adjacent_only_information(mesh3d, labeling)
        full = distribute_information(mesh3d, labeling)
        assert len(adjacent.nodes_holding_information()) < len(
            full.nodes_holding_information()
        )

    def test_routes_deliver(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        result = StaticBlockRouter().route(mesh3d, labeling, (0, 4, 4), (4, 7, 4))
        assert result.delivered


class TestRelativeQuality:
    """The ordering the paper's comparison relies on, over random workloads."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_limited_global_never_beaten_by_no_info_on_average(self, seed):
        rng = np.random.default_rng(seed)
        mesh = Mesh.cube(12, 2)
        faults = uniform_random_faults(mesh, 10, rng)
        labeling = build_blocks(mesh, faults).state
        info = distribute_information(mesh, labeling)
        bare = InformationState(mesh=mesh, labeling=labeling)
        pairs = random_pairs(
            mesh, 25, rng, min_distance=8, exclude=list(labeling.block_nodes)
        )
        informed = uninformed = 0
        for source, destination in pairs:
            a = route_offline(info, source, destination)
            b = route_offline(bare, source, destination, policy=NO_INFORMATION)
            if a.delivered:
                informed += a.hops
            if b.delivered:
                uninformed += b.hops
        assert informed <= uninformed

    def test_global_information_is_lower_bound(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        info = distribute_information(mesh3d, labeling)
        router = _global_router()
        for source, destination in [((0, 4, 4), (4, 7, 4)), ((4, 2, 4), (4, 9, 4))]:
            limited = route_offline(info, source, destination)
            ideal = router.route(mesh3d, labeling, source, destination)
            assert limited.delivered and ideal.delivered
            assert ideal.hops <= limited.hops
