"""Unit tests for coordinate arithmetic."""

import pytest

from repro.mesh.coords import is_adjacent, manhattan, offsets_toward
from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh


class TestArithmetic:
    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            manhattan((1, 2), (1, 2, 3))


class TestManhattan:
    def test_distance_matches_paper_definition(self):
        # D(u, v) = sum_i |u_i - v_i|
        assert manhattan((0, 0, 0), (3, 4, 5)) == 12
        assert manhattan((2, 2), (2, 2)) == 0

    def test_symmetry(self):
        assert manhattan((1, 7, 3), (4, 2, 8)) == manhattan((4, 2, 8), (1, 7, 3))

    def test_triangle_inequality(self):
        a, b, c = (0, 0), (3, 4), (7, 1)
        assert manhattan(a, c) <= manhattan(a, b) + manhattan(b, c)


class TestAdjacency:
    def test_adjacent_iff_distance_one(self):
        assert is_adjacent((1, 1), (1, 2))
        assert not is_adjacent((1, 1), (2, 2))
        assert not is_adjacent((1, 1), (1, 1))

    def test_rank_mismatch_is_not_adjacent(self):
        assert not is_adjacent((1, 1), (1, 1, 1))


class TestOffsets:
    def test_offsets_toward(self):
        assert offsets_toward((2, 5, 5), (5, 5, 0)) == (+1, 0, -1)

    def test_preferred_directions(self):
        dirs = Mesh((6, 6, 6)).preferred_directions((2, 5, 5), (5, 5, 0))
        assert set(dirs) == {Direction(0, +1), Direction(2, -1)}

    def test_no_preferred_at_destination(self):
        assert Mesh((6, 6)).preferred_directions((3, 3), (3, 3)) == []

