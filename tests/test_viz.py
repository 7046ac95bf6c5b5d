"""Unit tests for the ASCII renderers."""

import pytest

from repro.core.block_construction import build_blocks
from repro.core.distribution import converged_information
from repro.core.routing import route_offline
from repro.viz.ascii import render_information, render_labeling, render_route
from repro.workloads.scenarios import FIGURE1_FAULTS


class TestRenderLabeling:
    def test_2d_block_rendering(self, mesh2d):
        labeling = build_blocks(mesh2d, [(4, 4), (5, 5)]).state
        text = render_labeling(mesh2d, labeling)
        lines = text.splitlines()
        assert len(lines) == 10
        assert all(len(line.split()) == 10 for line in lines)
        assert text.count("F") == 2
        assert text.count("D") == 2

    def test_origin_is_bottom_left(self, mesh2d):
        labeling = build_blocks(mesh2d, [(1, 1)]).state
        lines = render_labeling(mesh2d, labeling).splitlines()
        # y = 1 is the second row from the bottom; x = 1 the second column.
        assert lines[-2].split()[1] == "F"

    def test_3d_requires_slice(self, mesh3d):
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        with pytest.raises(ValueError):
            render_labeling(mesh3d, labeling)
        text = render_labeling(mesh3d, labeling, slice_coords=(4,))
        assert "F" in text  # the z=4 slice contains faults (3,5,4) and (4,5,4)
        with pytest.raises(ValueError):
            render_labeling(mesh3d, labeling, slice_coords=(4, 4))


class TestRenderInformation:
    def test_information_markers(self, mesh2d):
        info = converged_information(mesh2d, [(4, 4), (5, 5)])
        text = render_information(info)
        assert "b" in text   # frame nodes hold block records
        assert "+" in text   # boundary columns hold boundary records
        assert "." in text   # far nodes hold nothing


class TestRenderRoute:
    def test_route_markers(self, mesh2d):
        info = converged_information(mesh2d, [(4, 4), (5, 5)])
        route = route_offline(info, (0, 0), (9, 9))
        text = render_route(mesh2d, info.labeling, route)
        assert text.count("S") == 1
        assert text.count("T") == 1
        assert text.count("*") >= route.min_distance - 2
