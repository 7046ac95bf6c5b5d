"""Property-based tests (hypothesis) for the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.block_construction import build_blocks, labeling_round
from repro.core.distribution import converged_information
from repro.core.identification import oracle_identify
from repro.core.routing import RouteOutcome, route_offline
from repro.core.safety import is_safe_source, minimal_path_exists, shortest_path_length
from repro.faults.status import NodeStatus
from repro.mesh.coords import manhattan
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
def coords(n_dims: int, radix: int):
    return st.tuples(*[st.integers(0, radix - 1) for _ in range(n_dims)])


def regions(n_dims: int, radix: int):
    return st.builds(
        lambda pairs: Region(
            tuple(min(p) for p in pairs), tuple(max(p) for p in pairs)
        ),
        st.tuples(
            *[
                st.tuples(st.integers(0, radix - 1), st.integers(0, radix - 1))
                for _ in range(n_dims)
            ]
        ),
    )


MESH_2D = Mesh.cube(8, 2)
MESH_3D = Mesh.cube(6, 3)


def fault_sets(mesh: Mesh, max_faults: int = 6):
    interior = list(mesh.interior_region(1).iter_points())
    return st.lists(st.sampled_from(interior), min_size=0, max_size=max_faults).map(
        lambda nodes: sorted(set(nodes))
    )


# --------------------------------------------------------------------- #
# region properties
# --------------------------------------------------------------------- #
class TestRegionProperties:
    @given(regions(3, 8))
    def test_volume_matches_iteration(self, region):
        assert sum(1 for _ in region.iter_points()) == region.volume

    @given(regions(2, 10), regions(2, 10))
    def test_intersection_symmetric_and_contained(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_region(inter)
            assert b.contains_region(inter)
            assert b.intersection(a) == inter
        else:
            assert not a.intersects(b)

    @given(regions(3, 8))
    def test_expand_contains_region(self, region):
        assert region.expand(2).contains_region(region)

    @given(st.lists(coords(3, 8), min_size=1, max_size=10))
    def test_oracle_identify_contains_every_point(self, points):
        extent = oracle_identify(points)
        assert all(extent.contains(p) for p in points)
        # Minimality: shrinking along any dimension loses some point.
        for dim in range(3):
            assert any(p[dim] == extent.lo[dim] for p in points)
            assert any(p[dim] == extent.hi[dim] for p in points)


# --------------------------------------------------------------------- #
# mesh properties
# --------------------------------------------------------------------- #
class TestMeshProperties:
    @given(coords(3, 6), coords(3, 6))
    def test_distance_symmetry_and_identity(self, u, v):
        assert manhattan(u, v) == manhattan(v, u)
        assert (manhattan(u, v) == 0) == (u == v)

    @given(coords(3, 6), coords(3, 6))
    def test_preferred_direction_count_equals_differing_dims(self, u, v):
        preferred = MESH_3D.preferred_directions(u, v)
        assert len(preferred) == sum(1 for a, b in zip(u, v) if a != b)

    @given(coords(3, 6))
    def test_neighbor_relation_is_symmetric(self, u):
        for v in MESH_3D.neighbors(u):
            assert u in MESH_3D.neighbors(v)

    @given(coords(2, 8), coords(2, 8))
    def test_moving_preferred_reduces_distance_by_one(self, u, v):
        for direction in MESH_2D.preferred_directions(u, v):
            moved = direction.apply(u)
            assert manhattan(moved, v) == manhattan(u, v) - 1


# --------------------------------------------------------------------- #
# labeling properties
# --------------------------------------------------------------------- #
class TestLabelingProperties:
    @settings(max_examples=40, deadline=None)
    @given(fault_sets(MESH_2D))
    def test_stable_blocks_are_disjoint_filled_rectangles(self, faults):
        result = build_blocks(MESH_2D, faults)
        blocks = result.blocks
        # Fixpoint: one more round changes nothing.
        assert labeling_round(result.state) == 0
        seen = set()
        for block in blocks:
            assert block.is_rectangular
            assert not seen & set(block.nodes)
            seen |= set(block.nodes)
        # Every fault is inside exactly one block.
        for fault in faults:
            assert any(fault in block.nodes for block in blocks)
        # Extents of distinct blocks do not even touch (they would have
        # merged otherwise).
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert not a.extent.expand(0).intersects(b.extent)

    @settings(max_examples=40, deadline=None)
    @given(fault_sets(MESH_2D))
    def test_disabled_nodes_never_exceed_extent_volume(self, faults):
        result = build_blocks(MESH_2D, faults)
        for block in result.blocks:
            assert len(block.nodes) == block.extent.volume
            assert set(block.faulty_nodes) <= set(block.nodes)

    @settings(max_examples=30, deadline=None)
    @given(fault_sets(MESH_2D, max_faults=4))
    def test_full_recovery_restores_all_enabled(self, faults):
        from repro.core.block_construction import run_block_construction

        result = build_blocks(MESH_2D, faults)
        state = result.state
        for fault in faults:
            state.recover(fault)
        run_block_construction(state)
        assert state.non_enabled_nodes() == {}


# --------------------------------------------------------------------- #
# routing properties
# --------------------------------------------------------------------- #
class TestRoutingProperties:
    @settings(max_examples=30, deadline=None)
    @given(fault_sets(MESH_2D, max_faults=5), coords(2, 8), coords(2, 8))
    def test_routing_terminates_and_is_consistent(self, faults, source, destination):
        info = converged_information(MESH_2D, faults)
        if not info.status(source).is_operational:
            return
        if not info.status(destination).is_operational:
            return
        result = route_offline(info, source, destination)
        assert result.outcome in (RouteOutcome.DELIVERED, RouteOutcome.UNREACHABLE)
        assert result.hops == result.forward_hops + result.backtrack_hops
        if result.outcome is RouteOutcome.DELIVERED:
            assert result.path[0] == source
            assert result.path[-1] == destination
            assert result.hops >= result.min_distance
            # The walk is hop-by-hop.
            for u, v in zip(result.path, result.path[1:]):
                assert manhattan(u, v) == 1
        else:
            # The probe only reports unreachable when BFS agrees there is no
            # path through non-block nodes, or the destination is disabled.
            blocked = set(info.labeling.block_nodes)
            reachable = shortest_path_length(MESH_2D, blocked, source, destination)
            assert reachable is None

    @settings(max_examples=30, deadline=None)
    @given(fault_sets(MESH_2D, max_faults=5), coords(2, 8), coords(2, 8))
    def test_safe_sources_route_minimally(self, faults, source, destination):
        result = build_blocks(MESH_2D, faults)
        blocked = set(result.state.block_nodes)
        if source in blocked or destination in blocked:
            return
        if not is_safe_source(source, destination, result.blocks):
            return
        info = converged_information(MESH_2D, faults)
        route = route_offline(info, source, destination)
        assert route.delivered
        assert route.detours == 0
        assert minimal_path_exists(MESH_2D, blocked, source, destination)

    @settings(max_examples=20, deadline=None)
    @given(fault_sets(MESH_3D, max_faults=4), coords(3, 6), coords(3, 6))
    def test_3d_routing_delivers_when_endpoints_enabled(self, faults, source, destination):
        info = converged_information(MESH_3D, faults)
        if not (
            info.status(source) is NodeStatus.ENABLED
            and info.status(destination) is NodeStatus.ENABLED
        ):
            return
        result = route_offline(info, source, destination)
        # With interior faults only, the enabled part of a mesh stays
        # connected (paper assumption), so enabled endpoints are reachable.
        assert result.outcome is RouteOutcome.DELIVERED
