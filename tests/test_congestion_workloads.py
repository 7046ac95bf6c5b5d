"""Tests for the hotspot/transpose/bursty closed-batch traffic families."""

from dataclasses import replace
from itertools import product

import numpy as np

from repro.experiments import ExperimentSpec
from repro.mesh.topology import Mesh
from repro.throughput import BernoulliInjection, OpenLoopSource
from repro.workloads import simulate_scenario
from repro.workloads.scenarios import BURST_INTERVAL, BURST_SIZE
from repro.workloads.traffic import HOTSPOT_FRACTION, hotspot_node, hotspot_pairs


def _scenario(shape, family, *, seed, messages, faults=0, **axes):
    """Mesh, schedule and traffic of the one cell of a simulate spec, with
    ``seed`` as its cell seed."""
    (cell,) = ExperimentSpec(
        mode="simulate",
        mesh_shapes=(shape,),
        scenarios=(family,),
        fault_counts=(faults,),
        traffic_sizes=(messages,),
        **axes,
    ).cells()
    return simulate_scenario(replace(cell, cell_seed=seed))


class TestHotspotPairs:
    def test_fraction_targets_hotspot(self):
        mesh = Mesh.cube(10, 2)
        rng = np.random.default_rng(7)
        pairs = hotspot_pairs(mesh, 20, rng, min_distance=2)
        hot = (5, 5)
        assert sum(1 for _, d in pairs if d == hot) == 10
        assert len(pairs) == 20
        for source, destination in pairs:
            assert mesh.distance(source, destination) >= 2

    def test_deterministic_in_seed(self):
        mesh = Mesh.cube(8, 2)
        a = hotspot_pairs(mesh, 12, np.random.default_rng(3))
        b = hotspot_pairs(mesh, 12, np.random.default_rng(3))
        assert a == b

    def test_excluded_centre_moves_the_hotspot(self):
        mesh = Mesh.cube(8, 2)
        excluded = [(4, 4), (3, 4), (5, 5)]
        pairs = hotspot_pairs(
            mesh, 20, np.random.default_rng(0), min_distance=2, exclude=excluded
        )
        assert sum(1 for _, d in pairs if d == (4, 3)) == 10
        assert not {node for pair in pairs for node in pair} & set(excluded)


class TestHotspotNode:
    def test_centre_unless_excluded(self):
        mesh = Mesh((5, 5))
        assert hotspot_node(mesh) == (2, 2)
        assert hotspot_node(mesh, [(0, 0)]) == (2, 2)

    def test_nearest_usable_node_ties_broken_by_coordinate(self):
        mesh = Mesh((5, 5))
        assert hotspot_node(mesh, [(2, 2)]) == (1, 2)
        assert hotspot_node(mesh, [(2, 2), (1, 2)]) == (2, 1)
        assert hotspot_node(Mesh((4, 4, 4)), [(2, 2, 2)]) == (1, 2, 2)

    def test_open_loop_source_shares_the_hotspot(self):
        mesh = Mesh((5, 5))
        for excluded in ([], [(2, 2)], [(2, 2), (1, 2), (2, 1)]):
            source = OpenLoopSource(
                mesh, BernoulliInjection(0.5), pattern="hotspot", exclude=excluded
            )
            assert source.hotspot == hotspot_node(mesh, excluded)


class TestScenarios:
    def test_hotspot_scenario_traffic_and_flits(self):
        _, _, traffic = _scenario((8, 8), "hotspot", seed=1, messages=10, flits=128)
        assert len(traffic) == 10
        assert all(m.flits == 128 for m in traffic)

    def test_transpose_scenario_pairs_are_transposes(self):
        _, _, traffic = _scenario((6, 6), "transpose", seed=0, messages=8)
        assert 0 < len(traffic) <= 8
        for message in traffic:
            assert message.destination == tuple(reversed(message.source))
            assert message.start_time == 0  # maximally contended

    def test_bursty_scenario_groups_arrivals(self):
        _, _, traffic = _scenario((8, 8), "bursty", seed=5, messages=18)
        starts = sorted({m.start_time for m in traffic})
        assert starts == [0, BURST_INTERVAL, 2 * BURST_INTERVAL]
        for start in starts:
            assert sum(1 for m in traffic if m.start_time == start) == 6

    def test_bursty_scenario_sends_its_traffic_size(self):
        """Every requested message is sent, in waves of BURST_SIZE, the last
        wave holding the remainder."""
        assert BURST_SIZE == 6
        waves_by_size = {
            3: [3], 8: [6, 2], 11: [6, 5], 12: [6, 6], 16: [6, 6, 4], 20: [6, 6, 6, 2],
        }
        for messages, waves in waves_by_size.items():
            _, _, traffic = _scenario(
                (8, 8), "bursty", seed=4, messages=messages, faults=2
            )
            assert [m.start_time for m in traffic] == [
                wave * BURST_INTERVAL
                for wave, size in enumerate(waves)
                for _ in range(size)
            ]

    def test_scenarios_deterministic_in_seed(self):
        _, schedule_a, a = _scenario((10, 10), "bursty", seed=9, messages=24)
        _, schedule_b, b = _scenario((10, 10), "bursty", seed=9, messages=24)
        assert a == b
        assert list(schedule_a.events) == list(schedule_b.events)

    def test_dynamic_faults_layer_on_top(self):
        _, schedule, _ = _scenario((10, 10), "hotspot", seed=2, messages=6, faults=3)
        assert len(schedule.events) == 3

    def test_no_endpoint_on_a_scheduled_fault(self):
        """Every family keeps its endpoints off the schedule's faults — the
        hotspot family too when the schedule fails the mesh centre, where
        the hot messages go to :func:`hotspot_node` instead."""
        centre_failed = 0
        for shape, faults in product(((8, 8), (5, 5, 5)), (2, 4)):
            spec = ExperimentSpec(
                mode="simulate", mesh_shapes=(shape,),
                scenarios=("random", "hotspot", "transpose", "bursty"),
                fault_counts=(faults,), traffic_sizes=(12,), seeds=range(50),
            )
            for cell in spec.cells():
                mesh, schedule, traffic = simulate_scenario(cell)
                failed = {event.node for event in schedule.fault_events}
                for message in traffic:
                    assert message.source not in failed, cell
                    assert message.destination not in failed, cell
                centre = tuple(s // 2 for s in shape)
                if cell.scenario == "hotspot" and centre in failed:
                    centre_failed += 1
                    hot = hotspot_node(mesh, failed)
                    assert hot != centre
                    assert sum(m.destination == hot for m in traffic) >= round(
                        len(traffic) * HOTSPOT_FRACTION
                    )
        assert centre_failed > 0
