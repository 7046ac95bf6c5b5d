"""Unit tests for the direction algebra."""

import pytest

from repro.mesh.directions import (
    Direction,
    all_directions,
    direction_between,
    direction_from_surface,
    opposite,
    opposite_surface,
    surface_index,
)


class TestDirection:
    def test_apply_moves_one_hop(self):
        assert Direction(0, +1).apply((2, 3, 4)) == (3, 3, 4)
        assert Direction(2, -1).apply((2, 3, 4)) == (2, 3, 3)

    def test_reversed_flips_sign(self):
        assert Direction(1, +1).reversed() == Direction(1, -1)
        assert Direction(1, -1).reversed() == Direction(1, +1)

    def test_offset_property(self):
        assert Direction(0, -1).offset == -1
        assert Direction(0, +1).offset == +1


class TestAllDirections:
    def test_count_is_2n(self):
        for n in (1, 2, 3, 4, 5):
            assert len(all_directions(n)) == 2 * n

    def test_surface_index_order(self):
        dirs = all_directions(3)
        # S0..S2 are the negative sides, S3..S5 the positive sides.
        assert dirs[0] == Direction(0, -1)
        assert dirs[2] == Direction(2, -1)
        assert dirs[3] == Direction(0, +1)
        assert dirs[5] == Direction(2, +1)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            all_directions(0)


class TestSurfaceNumbering:
    def test_surface_index_roundtrip(self):
        for n in (2, 3, 4):
            for i in range(2 * n):
                direction = direction_from_surface(i, n)
                assert surface_index(direction, n) == i

    def test_opposite_surface_matches_paper(self):
        # In 3-D the paper pairs S_i with S_{(i+3) mod 6}.
        for i in range(6):
            assert opposite_surface(i, 3) == (i + 3) % 6

    def test_opposite_surface_is_involution(self):
        for n in (2, 3, 4):
            for i in range(2 * n):
                assert opposite_surface(opposite_surface(i, n), n) == i

    def test_surface_index_out_of_range(self):
        with pytest.raises(ValueError):
            direction_from_surface(6, 3)
        with pytest.raises(ValueError):
            opposite_surface(-1, 3)
        with pytest.raises(ValueError):
            surface_index(Direction(5, 1), 3)


class TestDirectionBetween:
    def test_positive_and_negative_hops(self):
        assert direction_between((1, 1), (2, 1)) == Direction(0, +1)
        assert direction_between((1, 1), (1, 0)) == Direction(1, -1)

    def test_opposite_of_between_is_reverse(self):
        d = direction_between((3, 4, 5), (3, 5, 5))
        assert opposite(d) == direction_between((3, 5, 5), (3, 4, 5))

    def test_rejects_non_neighbors(self):
        with pytest.raises(ValueError):
            direction_between((0, 0), (1, 1))
        with pytest.raises(ValueError):
            direction_between((0, 0), (2, 0))
        with pytest.raises(ValueError):
            direction_between((0, 0), (0, 0))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            direction_between((0, 0), (0, 0, 0))

