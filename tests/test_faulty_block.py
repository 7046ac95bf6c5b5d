"""Unit tests for faulty-block geometry (Definitions 2 and 3)."""

import pytest

from repro.core.faulty_block import FaultyBlock, dangerous_prism_of_extent
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh
from repro.workloads.scenarios import (
    FIGURE1_EXTENT,
    FIGURE2_CORNER,
    FIGURE2_EDGE_NEIGHBORS,
)


@pytest.fixture
def figure1_block() -> FaultyBlock:
    """The paper's block [3:5, 5:6, 3:4] with all members filled in."""
    return FaultyBlock(FIGURE1_EXTENT)


class TestConstruction:
    def test_nodes_default_to_full_extent(self, figure1_block):
        assert figure1_block.is_rectangular
        assert len(figure1_block.nodes) == 12

    def test_from_nodes(self):
        block = FaultyBlock.from_nodes([(1, 1), (2, 2)], faulty_nodes=[(1, 1)])
        assert block.extent == Region((1, 1), (2, 2))
        assert block.faulty_nodes == frozenset({(1, 1)})
        assert block.disabled_nodes == frozenset({(2, 2)})
        assert not block.is_rectangular

    def test_faulty_must_be_subset(self):
        with pytest.raises(ValueError):
            FaultyBlock.from_nodes([(1, 1)], faulty_nodes=[(9, 9)])

    def test_nodes_must_be_inside_extent(self):
        with pytest.raises(ValueError):
            FaultyBlock(Region((0, 0), (1, 1)), nodes=frozenset({(5, 5)}))

    def test_max_edge(self, figure1_block):
        assert figure1_block.max_edge == 2

    def test_str(self, figure1_block):
        assert str(figure1_block) == "FaultyBlock[3:5, 5:6, 3:4]"


class TestDefinition2Levels:
    """Adjacent nodes, k-level edge nodes and corners."""

    def test_member_has_level_zero(self, figure1_block):
        assert figure1_block.level_of((4, 5, 3)) == 0

    def test_adjacent_node_has_level_one(self, figure1_block):
        assert figure1_block.level_of((2, 5, 3)) == 1
        assert figure1_block.level_of((4, 7, 4)) == 1

    def test_far_node_has_level_zero(self, figure1_block):
        assert figure1_block.level_of((0, 0, 0)) == 0
        assert figure1_block.level_of((7, 5, 3)) == 0

    def test_figure2_corner_is_3_level(self, figure1_block):
        """Figure 2: (6,4,5) is a 3-level corner of block [3:5, 5:6, 3:4]."""
        assert figure1_block.level_of(FIGURE2_CORNER) == 3

    def test_figure2_edge_neighbors_are_3_level_edge_nodes(self, figure1_block, mesh3d):
        """Figure 2: its three edge neighbors (5,4,5), (6,5,5), (6,4,4)."""
        for node in FIGURE2_EDGE_NEIGHBORS:
            assert figure1_block.level_of(node) == 2
        assert sorted(
            figure1_block.edge_neighbors_of_corner(FIGURE2_CORNER, mesh3d)
        ) == sorted(FIGURE2_EDGE_NEIGHBORS)

    def test_edge_node_has_two_adjacent_neighbors(self, figure1_block, mesh3d):
        """Each 3-level edge node has two neighbors adjacent to the block.

        The paper's example: (5,4,5) has neighbors (5,5,5) and (5,4,4)
        adjacent to the block.
        """
        neighbors = mesh3d.neighbors((5, 4, 5))
        adjacent = [n for n in neighbors if figure1_block.level_of(n) == 1]
        assert sorted(adjacent) == [(5, 4, 4), (5, 5, 5)]

    def test_corner_count(self, figure1_block, mesh3d):
        corners = figure1_block.corners(mesh3d)
        assert len(corners) == 8
        assert FIGURE2_CORNER in corners

    def test_corners_clipped_by_mesh(self):
        # A block touching coordinate 0 loses the corners beyond the mesh
        # surface (they would sit at x = -1).
        mesh = Mesh.cube(8, 2)
        block = FaultyBlock(Region((0, 3), (1, 4)))
        corners = block.corners(mesh)
        assert all(mesh.contains(c) for c in corners)
        assert len(corners) == 2
        assert sorted(corners) == [(2, 2), (2, 5)]

    def test_frame_levels_partition(self, figure1_block, mesh3d):
        frame = figure1_block.frame_nodes(mesh3d)
        by_level = {
            1: figure1_block.adjacent_nodes(mesh3d),
            2: figure1_block.edge_nodes(mesh3d),
            3: figure1_block.corners(mesh3d),
        }
        assert sorted(frame) == sorted(
            by_level[1] + by_level[2] + by_level[3]
        )

    def test_adjacent_node_counts_match_surface_area(self, figure1_block, mesh3d):
        # A 3x2x2 block away from the mesh surface has 2*(3*2 + 3*2 + 2*2) = 32
        # level-1 (face-adjacent) nodes.
        assert len(figure1_block.adjacent_nodes(mesh3d)) == 32

    def test_level_rejects_bad_rank(self, figure1_block):
        with pytest.raises(ValueError):
            figure1_block.level_of((1, 1))

    def test_edge_neighbors_requires_corner(self, figure1_block, mesh3d):
        with pytest.raises(ValueError):
            figure1_block.edge_neighbors_of_corner((0, 0, 0), mesh3d)


class TestDefinition3Surfaces:
    def test_six_adjacent_surfaces_in_3d(self, figure1_block, mesh3d):
        surfaces = figure1_block.adjacent_surfaces(mesh3d)
        assert len(surfaces) == 6

    def test_surface_positions(self, figure1_block):
        # S1 (negative Y side) and S4 (positive Y side) of block [3:5,5:6,3:4].
        s1 = figure1_block.adjacent_surface(1)
        s4 = figure1_block.adjacent_surface(4)
        assert s1 == Region((3, 4, 3), (5, 4, 4))
        assert s4 == Region((3, 7, 3), (5, 7, 4))

    def test_surfaces_clipped_when_block_near_mesh_edge(self):
        mesh = Mesh.cube(8, 2)
        block = FaultyBlock(Region((0, 3), (1, 4)))
        surfaces = block.adjacent_surfaces(mesh)
        # The surface beyond x = -1 falls off the mesh entirely.
        assert 0 not in surfaces
        assert 2 in surfaces


class TestDangerousPrisms:
    def test_prism_below_block(self, mesh3d):
        prism = dangerous_prism_of_extent(FIGURE1_EXTENT, mesh3d, dim=1, side=-1)
        assert prism == Region((3, 0, 3), (5, 4, 4))

    def test_opposite_prism(self, mesh3d):
        opposite = dangerous_prism_of_extent(FIGURE1_EXTENT, mesh3d, dim=1, side=+1)
        assert opposite == Region((3, 7, 3), (5, 9, 4))

    def test_prism_none_when_block_touches_surface(self):
        mesh = Mesh.cube(8, 2)
        extent = Region((0, 3), (1, 4))
        assert dangerous_prism_of_extent(extent, mesh, dim=0, side=-1) is None
        assert dangerous_prism_of_extent(extent, mesh, dim=0, side=+1) is not None

    def test_prism_requires_valid_side(self, mesh3d):
        with pytest.raises(ValueError):
            dangerous_prism_of_extent(FIGURE1_EXTENT, mesh3d, dim=0, side=0)
