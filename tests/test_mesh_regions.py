"""Unit tests for hyper-rectangle regions."""

import pytest

from repro.mesh.regions import Region


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Region((3, 3), (2, 5))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            Region((0, 0), (1, 1, 1))

    def test_from_points_is_bounding_box(self):
        region = Region.from_points([(3, 5, 4), (4, 5, 4), (5, 5, 3), (3, 6, 3)])
        assert region == Region((3, 5, 3), (5, 6, 4))

    def test_from_points_rejects_empty(self):
        with pytest.raises(ValueError):
            Region.from_points([])

    def test_single(self):
        region = Region.single((2, 3))
        assert region.volume == 1
        assert region.contains((2, 3))


class TestGeometry:
    def test_shape_volume_edges(self):
        region = Region((3, 5, 3), (5, 6, 4))
        assert region.shape == (3, 2, 2)
        assert region.volume == 12
        assert region.edge_lengths == (2, 1, 1)
        assert region.max_edge == 2

    def test_span(self):
        region = Region((3, 5, 3), (5, 6, 4))
        assert region.span(0) == (3, 5)
        assert region.span(2) == (3, 4)

    def test_contains(self):
        region = Region((1, 1), (3, 3))
        assert region.contains((2, 2))
        assert region.contains((1, 3))
        assert not region.contains((0, 2))
        assert not region.contains((2, 2, 2))
        assert (2, 2) in region
        assert "nonsense" not in region

    def test_contains_region(self):
        outer = Region((0, 0), (5, 5))
        inner = Region((1, 1), (3, 3))
        assert outer.contains_region(inner)
        assert not inner.contains_region(outer)

    def test_intersects_and_intersection(self):
        a = Region((0, 0), (3, 3))
        b = Region((2, 2), (5, 5))
        c = Region((4, 4), (6, 6))
        assert a.intersects(b)
        assert a.intersection(b) == Region((2, 2), (3, 3))
        assert not a.intersects(c)
        assert a.intersection(c) is None

    def test_intersects_rank_mismatch(self):
        with pytest.raises(ValueError):
            Region((0,), (1,)).intersects(Region((0, 0), (1, 1)))


class TestDerivedRegions:
    def test_expand(self):
        region = Region((2, 2), (4, 4))
        assert region.expand(1) == Region((1, 1), (5, 5))

    def test_expand_negative_raises(self):
        with pytest.raises(ValueError):
            Region((0, 0), (1, 1)).expand(-1)

    def test_clip(self):
        region = Region((-1, 3), (4, 12))
        assert region.clip((0, 0), (9, 9)) == Region((0, 3), (4, 9))

    def test_face(self):
        region = Region((2, 2, 2), (4, 5, 6))
        low = region.face(1, -1)
        high = region.face(1, +1)
        assert low == Region((2, 2, 2), (4, 2, 6))
        assert high == Region((2, 5, 2), (4, 5, 6))
        with pytest.raises(ValueError):
            region.face(0, 0)

    def test_adjacent_surface_is_one_unit_away(self):
        # Definition 3: the adjacent surface is one unit away from the block.
        region = Region((3, 5, 3), (5, 6, 4))
        south = region.adjacent_surface(1, -1)   # S1 in the paper (negative Y)
        north = region.adjacent_surface(1, +1)   # S4
        assert south == Region((3, 4, 3), (5, 4, 4))
        assert north == Region((3, 7, 3), (5, 7, 4))

    def test_corner_points_count(self):
        region = Region((1, 1, 1), (2, 3, 4))
        assert len(region.corner_points()) == 8
        assert (1, 1, 1) in region.corner_points()
        assert (2, 3, 4) in region.corner_points()

    def test_block_corner_points_match_paper(self):
        # The paper's block [3:5, 5:6, 3:4] has corners at the combinations of
        # (2,6) x (4,7) x (2,5).
        region = Region((3, 5, 3), (5, 6, 4))
        corners = set(region.block_corner_points())
        assert (6, 4, 5) in corners        # the Figure-2 corner
        assert (2, 4, 2) in corners
        assert len(corners) == 8


class TestIteration:
    def test_iter_points_covers_volume(self):
        region = Region((0, 0), (2, 3))
        points = list(region)
        assert len(points) == region.volume == len(region)
        assert len(set(points)) == len(points)
