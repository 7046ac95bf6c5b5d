"""Property-based tests for boundary geometry and direction classification."""

from hypothesis import given, settings, strategies as st

from repro.core.boundary import compute_boundaries, dangerous_prism, opposite_prism
from repro.core.distribution import converged_information
from repro.core.faulty_block import FaultyBlock
from repro.core.routing import DirectionClass, RoutingPolicy, classify_directions
from repro.core.state import InformationState
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh

MESH_2D = Mesh.cube(10, 2)
MESH_3D = Mesh.cube(7, 3)


def interior_regions(mesh: Mesh, max_edge: int = 3):
    """Strategy producing block extents inside the mesh interior."""
    n = mesh.n_dims

    def build(origin_and_shape):
        origin, shape = origin_and_shape
        lo = tuple(o for o in origin)
        hi = tuple(
            min(o + s, mesh.shape[d] - 2) for d, (o, s) in enumerate(zip(origin, shape))
        )
        return Region(lo, hi)

    return st.tuples(
        st.tuples(*[st.integers(1, mesh.shape[d] - 2) for d in range(n)]),
        st.tuples(*[st.integers(0, max_edge - 1) for _ in range(n)]),
    ).map(build)


class TestPrismProperties:
    @settings(max_examples=50, deadline=None)
    @given(interior_regions(MESH_3D), st.integers(0, 2), st.sampled_from([-1, 1]))
    def test_prisms_disjoint_from_block_and_each_other(self, extent, dim, side):
        prism = dangerous_prism(extent, MESH_3D, dim, side)
        other = opposite_prism(extent, MESH_3D, dim, side)
        if prism is not None:
            assert not prism.intersects(extent)
        if other is not None:
            assert not other.intersects(extent)
        if prism is not None and other is not None:
            assert not prism.intersects(other)

    @settings(max_examples=50, deadline=None)
    @given(interior_regions(MESH_3D), st.integers(0, 2), st.sampled_from([-1, 1]))
    def test_prism_spans_block_cross_section(self, extent, dim, side):
        prism = dangerous_prism(extent, MESH_3D, dim, side)
        if prism is None:
            return
        for d in range(3):
            if d != dim:
                assert prism.span(d) == extent.span(d)

    @settings(max_examples=30, deadline=None)
    @given(interior_regions(MESH_2D, max_edge=2))
    def test_boundary_nodes_sit_outside_the_dangerous_prism(self, extent):
        block = FaultyBlock(extent)
        informed = compute_boundaries(MESH_2D, [block])
        for node, infos in informed.items():
            for info in infos:
                prism = dangerous_prism(info.extent, MESH_2D, info.dim, info.dangerous_side)
                assert prism is None or not prism.contains(node)
                assert not info.extent.contains(node)


class TestClassificationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(1, 8)), min_size=0, max_size=4
        ).map(lambda pts: sorted(set(pts))),
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
    )
    def test_classification_is_a_permutation_of_usable_directions(
        self, faults, node, destination
    ):
        info = converged_information(MESH_2D, faults)
        if info.labeling.status(node).in_block or node == destination:
            return
        ordered = classify_directions(
            info, node, destination, policy=RoutingPolicy.limited_global()
        )
        directions = [d for _, d in ordered]
        # No duplicates, all in-mesh, never towards a faulty neighbor.
        assert len(set(directions)) == len(directions)
        for cls, direction in ordered:
            neighbor = MESH_2D.neighbor(node, direction)
            assert neighbor is not None
            assert info.labeling.status(neighbor).is_operational
            assert isinstance(cls, DirectionClass)
        # Classes appear in non-decreasing priority order.
        classes = [cls for cls, _ in ordered]
        assert classes == sorted(classes)

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
    )
    def test_fault_free_classification_has_no_detour_class(self, node, destination):
        info = InformationState.fresh(MESH_2D)
        ordered = classify_directions(
            info, node, destination, policy=RoutingPolicy.limited_global()
        )
        assert all(
            cls
            in (DirectionClass.PREFERRED, DirectionClass.SPARE, DirectionClass.INCOMING)
            for cls, _ in ordered
        )
