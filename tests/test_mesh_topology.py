"""Unit tests for the k-ary n-D mesh topology."""

import pytest

from repro.mesh.directions import Direction
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh


class TestConstruction:
    def test_cube_constructor(self):
        mesh = Mesh.cube(10, 3)
        assert mesh.shape == (10, 10, 10)
        assert mesh.n_dims == 3
        assert mesh.radix == 10

    def test_rectangular_mesh(self):
        mesh = Mesh((4, 6, 8))
        assert mesh.size == 4 * 6 * 8
        assert mesh.diameter == 3 + 5 + 7

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Mesh(())
        with pytest.raises(ValueError):
            Mesh((4, 1))


class TestPaperProperties:
    """The k-ary n-D mesh properties quoted in Section 2.1."""

    @pytest.mark.parametrize("k,n", [(4, 2), (5, 3), (3, 4)])
    def test_node_count_is_k_to_the_n(self, k, n):
        assert Mesh.cube(k, n).size == k**n

    @pytest.mark.parametrize("k,n", [(4, 2), (5, 3), (3, 4)])
    def test_diameter_is_k_minus_1_times_n(self, k, n):
        assert Mesh.cube(k, n).diameter == (k - 1) * n

    @pytest.mark.parametrize("k,n", [(5, 2), (5, 3)])
    def test_interior_degree_is_2n(self, k, n):
        mesh = Mesh.cube(k, n)
        interior_node = tuple([2] * n)
        assert mesh.degree(interior_node) == 2 * n

    def test_corner_degree_is_n(self):
        mesh = Mesh.cube(5, 3)
        assert mesh.degree((0, 0, 0)) == 3

    def test_neighbors_differ_in_exactly_one_dimension(self):
        mesh = Mesh.cube(6, 3)
        node = (2, 3, 4)
        for neighbor in mesh.neighbors(node):
            diffs = [abs(a - b) for a, b in zip(node, neighbor)]
            assert sum(diffs) == 1 and max(diffs) == 1


class TestQueries:
    def test_contains(self, mesh3d):
        assert mesh3d.contains((0, 0, 0))
        assert mesh3d.contains((9, 9, 9))
        assert not mesh3d.contains((10, 0, 0))
        assert not mesh3d.contains((-1, 0, 0))
        assert not mesh3d.contains((0, 0))

    def test_validate(self, mesh3d):
        assert mesh3d.validate([1, 2, 3]) == (1, 2, 3)
        with pytest.raises(ValueError):
            mesh3d.validate((1, 2, 10))

    def test_neighbor_off_mesh_is_none(self, mesh2d):
        assert mesh2d.neighbor((0, 0), Direction(0, -1)) is None
        assert mesh2d.neighbor((0, 0), Direction(0, +1)) == (1, 0)

    def test_nodes_iteration_count(self):
        mesh = Mesh.cube(3, 3)
        assert sum(1 for _ in mesh.nodes()) == 27

    def test_distance(self, mesh3d):
        assert mesh3d.distance((0, 0, 0), (9, 9, 9)) == 27

    def test_index_coord_roundtrip(self):
        mesh = Mesh((3, 4, 5))
        for index, node in enumerate(mesh.nodes()):
            assert mesh.index_of(node) == index
            assert mesh.coord_of(index) == node
        with pytest.raises(ValueError):
            mesh.coord_of(mesh.size)


class TestRoutingClassification:
    def test_preferred_directions(self, mesh3d):
        dirs = mesh3d.preferred_directions((2, 5, 5), (5, 5, 0))
        assert set(dirs) == {Direction(0, +1), Direction(2, -1)}

    def test_no_preferred_at_destination(self, mesh3d):
        assert mesh3d.preferred_directions((4, 4, 4), (4, 4, 4)) == []


class TestSurfaces:
    def test_on_outmost_surface(self, mesh3d):
        assert mesh3d.on_outmost_surface((0, 5, 5))
        assert mesh3d.on_outmost_surface((5, 9, 5))
        assert not mesh3d.on_outmost_surface((5, 5, 5))

    def test_interior_region(self, mesh3d):
        interior = mesh3d.interior_region(1)
        assert interior == Region((1, 1, 1), (8, 8, 8))
        with pytest.raises(ValueError):
            Mesh.cube(2, 2).interior_region(1)

    def test_clip_region(self, mesh2d):
        region = Region((-3, 5), (15, 7))
        assert mesh2d.clip_region(region) == Region((0, 5), (9, 7))

    def test_extent(self, mesh2d):
        assert mesh2d.extent == Region((0, 0), (9, 9))
