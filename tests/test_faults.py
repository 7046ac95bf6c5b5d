"""Unit tests for node status, fault schedules and fault injection."""

import pytest

from repro.faults.injection import (
    FaultInjectionError,
    clustered_faults,
    dynamic_schedule,
    uniform_random_faults,
)
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind
from repro.faults.status import NodeStatus
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh


class TestNodeStatus:
    def test_operational(self):
        assert NodeStatus.ENABLED.is_operational
        assert NodeStatus.DISABLED.is_operational
        assert NodeStatus.CLEAN.is_operational
        assert not NodeStatus.FAULTY.is_operational

    def test_in_block(self):
        assert NodeStatus.FAULTY.in_block
        assert NodeStatus.DISABLED.in_block
        assert not NodeStatus.ENABLED.in_block
        assert not NodeStatus.CLEAN.in_block


class TestFaultEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1, (0, 0))

    def test_node_is_tuple(self):
        event = FaultEvent(3, [1, 2])
        assert event.node == (1, 2)

    def test_ordering_by_time(self):
        early = FaultEvent(1, (0, 0))
        late = FaultEvent(5, (0, 0, 1) if False else (0, 1))
        assert early < late


class TestDynamicFaultSchedule:
    def test_static_schedule(self):
        schedule = DynamicFaultSchedule.static([(1, 1), (2, 2)])
        assert schedule.fault_events == []
        assert schedule.faulty_set_at(0) == {(1, 1), (2, 2)}
        assert schedule.horizon == 0

    def test_paper_quantities(self):
        schedule = dynamic_schedule(
            [(1, 1), (2, 2), (3, 3)], start_time=4, interval=[5, 7]
        )
        assert len(schedule.fault_events) == 3
        assert schedule.occurrence_times == (4, 9, 16)
        assert schedule.intervals == (5, 7)

    def test_faulty_set_evolves(self):
        schedule = dynamic_schedule([(1, 1), (2, 2)], start_time=2, interval=4)
        assert schedule.faulty_set_at(1) == set()
        assert schedule.faulty_set_at(2) == {(1, 1)}
        assert schedule.faulty_set_at(6) == {(1, 1), (2, 2)}

    def test_recovery_restores_node(self):
        schedule = DynamicFaultSchedule(
            events=[FaultEvent(3, (1, 1), FaultEventKind.RECOVERY)],
            initial_faults={(1, 1)},
        )
        assert schedule.faulty_set_at(2) == {(1, 1)}
        assert schedule.faulty_set_at(3) == set()

    def test_double_fault_rejected(self):
        with pytest.raises(ValueError):
            DynamicFaultSchedule(
                events=[FaultEvent(1, (1, 1)), FaultEvent(2, (1, 1))]
            )

    def test_recovery_of_healthy_node_rejected(self):
        with pytest.raises(ValueError):
            DynamicFaultSchedule(
                events=[FaultEvent(1, (1, 1), FaultEventKind.RECOVERY)]
            )

    def test_events_at(self):
        schedule = dynamic_schedule([(1, 1), (2, 2)], start_time=0, interval=3)
        assert [e.node for e in schedule.events_at(3)] == [(2, 2)]

    def test_len_and_iter(self):
        schedule = dynamic_schedule([(1, 1), (2, 2)])
        assert len(schedule) == 2
        assert all(isinstance(e, FaultEvent) for e in schedule)


class TestUniformRandomFaults:
    def test_count_and_interior(self, mesh3d, rng):
        faults = uniform_random_faults(mesh3d, 20, rng)
        assert len(faults) == len(set(faults)) == 20
        for fault in faults:
            assert not mesh3d.on_outmost_surface(fault)

    def test_respects_exclusion(self, mesh2d, rng):
        exclude = [(4, 4), (5, 5)]
        faults = uniform_random_faults(mesh2d, 30, rng, exclude=exclude)
        assert not set(faults) & set(exclude)

    def test_too_many_faults_raises(self, rng):
        mesh = Mesh.cube(4, 2)
        with pytest.raises(FaultInjectionError):
            uniform_random_faults(mesh, 100, rng)

    def test_negative_count_raises(self, mesh2d, rng):
        with pytest.raises(ValueError):
            uniform_random_faults(mesh2d, -1, rng)


class TestClusteredFaults:
    def test_cluster_is_tight(self, mesh3d, rng):
        faults = clustered_faults(mesh3d, 6, rng, spread=2, seed_node=(5, 5, 5))
        region = Region.from_points(faults)
        assert region.max_edge <= 4
        for fault in faults:
            assert not mesh3d.on_outmost_surface(fault)

    def test_impossible_cluster_raises(self, mesh2d, rng):
        with pytest.raises(FaultInjectionError):
            clustered_faults(mesh2d, 100, rng, spread=1, seed_node=(5, 5))


class TestScheduleBuilders:
    def test_dynamic_schedule_interval_list_too_short(self):
        with pytest.raises(ValueError):
            dynamic_schedule([(1, 1), (2, 2), (3, 3)], interval=[5])

    def test_dynamic_schedule_negative_interval(self):
        with pytest.raises(ValueError):
            dynamic_schedule([(1, 1), (2, 2)], interval=-1)
