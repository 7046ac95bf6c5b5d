"""Unit tests for traffic generators and the paper scenarios."""

from dataclasses import replace

import pytest

from repro.core.block_construction import build_blocks
from repro.experiments import ExperimentSpec
from repro.mesh.topology import Mesh
from repro.simulator.traffic import TrafficMessage
from repro.workloads.scenarios import (
    FIGURE1_EXTENT,
    figure1_scenario,
    figure4_recovery_scenario,
    parametric_block_scenario,
    simulate_scenario,
    two_block_scenario,
)
from repro.workloads.traffic import random_pairs, to_traffic, transpose_pairs


class TestTrafficMessage:
    def test_coerces_tuples(self):
        message = TrafficMessage(source=[0, 0], destination=[3, 3], start_time=2)
        assert message.source == (0, 0)
        assert message.destination == (3, 3)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TrafficMessage(source=(0, 0), destination=(1, 1), start_time=-1)


class TestRandomPairs:
    def test_min_distance_respected(self, mesh3d, rng):
        pairs = random_pairs(mesh3d, 15, rng, min_distance=10)
        assert len(pairs) == 15
        assert all(mesh3d.distance(s, d) >= 10 for s, d in pairs)

    def test_exclusion_respected(self, mesh2d, rng):
        exclude = [(5, 5), (4, 4)]
        pairs = random_pairs(mesh2d, 10, rng, exclude=exclude)
        endpoints = {p for pair in pairs for p in pair}
        assert not endpoints & set(map(tuple, exclude))

    def test_impossible_distance_raises(self, rng):
        mesh = Mesh.cube(4, 2)
        with pytest.raises(RuntimeError):
            random_pairs(mesh, 5, rng, min_distance=100)

    def test_bad_arguments(self, mesh2d, rng):
        with pytest.raises(ValueError):
            random_pairs(mesh2d, -1, rng)
        with pytest.raises(ValueError):
            random_pairs(mesh2d, 1, rng, min_distance=0)


class TestStructuredPairs:
    def test_transpose_pairs(self):
        mesh = Mesh.cube(4, 2)
        pairs = transpose_pairs(mesh)
        assert all(d == tuple(reversed(s)) for s, d in pairs)
        assert all(s != d for s, d in pairs)
        limited = transpose_pairs(mesh, limit=3)
        assert len(limited) == 3

    def test_transpose_requires_cube(self):
        with pytest.raises(ValueError):
            transpose_pairs(Mesh((4, 6)))


class TestToTraffic:
    def test_spacing(self):
        pairs = [((0, 0), (3, 3)), ((1, 1), (4, 4))]
        traffic = to_traffic(pairs, start_time=5, spacing=3, flits=16)
        assert [m.start_time for m in traffic] == [5, 8]
        assert all(m.flits == 16 for m in traffic)


class TestScenarios:
    def test_figure1(self):
        scenario = figure1_scenario()
        result = build_blocks(scenario.mesh, scenario.schedule.initial_faults)
        assert [b.extent for b in result.blocks] == [FIGURE1_EXTENT]
        with pytest.raises(ValueError):
            figure1_scenario(radix=6)

    def test_figure4(self):
        scenario = figure4_recovery_scenario()
        assert len(scenario.schedule.recovery_events) == 1
        assert scenario.schedule.recovery_events[0].node == (5, 5, 3)

    def test_parametric_block(self):
        scenario = parametric_block_scenario(12, 3, edge=3)
        extent = scenario.expected_extents[0]
        assert extent.shape == (3, 3, 3)
        result = build_blocks(scenario.mesh, scenario.schedule.initial_faults)
        assert result.blocks[0].extent == extent
        with pytest.raises(ValueError):
            parametric_block_scenario(6, 3, edge=10)
        with pytest.raises(ValueError):
            parametric_block_scenario(6, 3, edge=0)

    def test_two_block_scenario_extents(self):
        scenario = two_block_scenario()
        result = build_blocks(scenario.mesh, scenario.schedule.initial_faults)
        assert sorted(b.extent for b in result.blocks) == sorted(
            scenario.expected_extents
        )

    def test_random_simulate_scenario_consistency(self):
        (cell,) = ExperimentSpec(
            mode="simulate", mesh_shapes=((10, 10),), fault_counts=(4,),
            traffic_sizes=(6,),
        ).cells()
        _, schedule, traffic = simulate_scenario(replace(cell, cell_seed=3))
        assert len(schedule.fault_events) == 4
        assert len(traffic) == 6
        fault_nodes = schedule.initial_faults | {e.node for e in schedule.fault_events}
        for message in traffic:
            assert message.source not in fault_nodes
            assert message.destination not in fault_nodes
