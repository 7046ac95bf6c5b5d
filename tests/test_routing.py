"""Unit tests for fault-information-based PCS routing (Algorithm 3)."""

import pytest

from repro.core.block_construction import build_blocks
from repro.core.distribution import converged_information, distribute_information
from repro.core.routing import (
    BACKTRACK,
    DirectionClass,
    ProbeHeader,
    RouteOutcome,
    RoutingPolicy,
    RoutingProbe,
    classify_directions,
    route_offline,
    routing_decision,
)
from repro.core.state import InformationState
from repro.mesh.directions import Direction
from repro.workloads.scenarios import FIGURE1_FAULTS


class TestProbeHeader:
    def test_push_pop_and_incoming(self):
        header = ProbeHeader(destination=(3, 3), stack=[(0, 0)])
        header.push((1, 0))
        header.push((1, 1))
        assert header.current == (1, 1)
        assert header.source == (0, 0)
        assert header.incoming_direction == Direction(1, +1)
        assert header.pop() == (1, 0)
        assert not header.at_source
        assert header.pop() == (0, 0)
        assert header.at_source
        with pytest.raises(RuntimeError):
            header.pop()

    def test_used_directions_persist(self):
        header = ProbeHeader(destination=(3, 3), stack=[(0, 0)])
        header.record_use((0, 0), Direction(0, +1))
        assert Direction(0, +1) in header.used_at((0, 0))
        assert header.used_at((1, 1)) == set()

    def test_used_at_read_does_not_mutate(self):
        header = ProbeHeader(destination=(3, 3), stack=[(0, 0)])
        # Inspecting nodes the probe never forwarded from must not grow the
        # header: record_use is the only writer.
        for node in ((1, 1), (2, 2), (0, 0)):
            header.used_at(node)
        assert header.used == {}
        header.record_use((0, 0), Direction(0, +1))
        assert set(header.used) == {(0, 0)}


class TestPolicies:
    def test_limited_global_uses_everything(self):
        policy = RoutingPolicy.limited_global()
        assert policy.use_block_info and policy.use_boundary_info

    def test_no_information_uses_nothing(self):
        policy = RoutingPolicy.no_information()
        assert not policy.use_block_info and not policy.use_boundary_info


class TestFaultFreeRouting:
    def test_routes_are_minimal_without_faults(self, mesh3d):
        info = InformationState.fresh(mesh3d)
        result = route_offline(info, (0, 0, 0), (9, 9, 9))
        assert result.outcome is RouteOutcome.DELIVERED
        assert result.hops == result.min_distance == 27
        assert result.detours == 0
        assert result.backtrack_hops == 0

    def test_source_equals_destination(self, mesh2d):
        info = InformationState.fresh(mesh2d)
        result = route_offline(info, (4, 4), (4, 4))
        assert result.delivered
        assert result.hops == 0

    def test_path_is_connected(self, mesh3d):
        info = InformationState.fresh(mesh3d)
        result = route_offline(info, (1, 2, 3), (7, 6, 5))
        for u, v in zip(result.path, result.path[1:]):
            assert mesh3d.distance(u, v) == 1


class TestDirectionClassification:
    def test_preferred_before_spare(self, mesh2d):
        info = InformationState.fresh(mesh2d)
        ordered = classify_directions(
            info, (2, 2), (5, 5), policy=RoutingPolicy.limited_global()
        )
        classes = [cls for cls, _ in ordered]
        assert classes[0] is DirectionClass.PREFERRED
        assert classes == sorted(classes)

    def test_faulty_neighbor_excluded(self, mesh2d):
        info = InformationState.fresh(mesh2d, faults=[(3, 2)])
        ordered = classify_directions(
            info, (2, 2), (5, 2), policy=RoutingPolicy.limited_global()
        )
        directions = [d for _, d in ordered]
        assert Direction(0, +1) not in directions

    def test_used_direction_excluded(self, mesh2d):
        info = InformationState.fresh(mesh2d)
        ordered = classify_directions(
            info,
            (2, 2),
            (5, 5),
            policy=RoutingPolicy.limited_global(),
            used={Direction(0, +1)},
        )
        assert Direction(0, +1) not in [d for _, d in ordered]

    def test_incoming_has_lowest_priority(self, mesh2d):
        info = InformationState.fresh(mesh2d)
        ordered = classify_directions(
            info,
            (2, 2),
            (5, 5),
            policy=RoutingPolicy.limited_global(),
            incoming=Direction(0, +1),
        )
        assert ordered[-1] == (DirectionClass.INCOMING, Direction(0, -1))

    def test_detour_demotion_at_boundary(self, mesh3d):
        """A preferred direction entering a dangerous prism is demoted when
        the destination lies in the opposite prism (critical routing)."""
        info = converged_information(mesh3d, FIGURE1_FAULTS)
        # Node (2,2,4) sits on the boundary column west of the block; moving
        # +X enters the prism below the block; destination above the block.
        node, destination = (2, 2, 4), (4, 9, 4)
        assert info.boundaries_at(node)
        ordered = dict(
            (d, cls)
            for cls, d in classify_directions(
                info, node, destination, policy=RoutingPolicy.limited_global()
            )
        )
        assert ordered[Direction(0, +1)] is DirectionClass.PREFERRED_DETOUR
        assert ordered[Direction(1, +1)] is DirectionClass.PREFERRED

    def test_no_demotion_without_information(self, mesh3d):
        bare = InformationState(
            mesh=mesh3d, labeling=build_blocks(mesh3d, FIGURE1_FAULTS).state
        )
        ordered = dict(
            (d, cls)
            for cls, d in classify_directions(
                bare, (2, 2, 4), (4, 9, 4), policy=RoutingPolicy.no_information()
            )
        )
        assert ordered[Direction(0, +1)] is DirectionClass.PREFERRED

    def test_disabled_neighbor_is_last_resort(self, mesh3d):
        info = converged_information(mesh3d, FIGURE1_FAULTS)
        # (2, 5, 3) is adjacent to the disabled member (3, 5, 3).
        ordered = dict(
            (d, cls)
            for cls, d in classify_directions(
                info, (2, 5, 3), (9, 5, 3), policy=RoutingPolicy.limited_global()
            )
        )
        assert ordered[Direction(0, +1)] is DirectionClass.DISABLED_NEIGHBOR


class TestRoutingDecision:
    def test_backtrack_on_disabled_node(self, mesh3d):
        info = converged_information(mesh3d, FIGURE1_FAULTS)
        header = ProbeHeader(destination=(9, 9, 9), stack=[(2, 5, 3), (3, 5, 3)])
        assert (
            routing_decision(info, header, policy=RoutingPolicy.limited_global())
            == BACKTRACK
        )

    def test_backtrack_when_no_unused_direction(self, mesh2d):
        info = InformationState.fresh(mesh2d, faults=[(1, 0), (0, 1)])
        header = ProbeHeader(destination=(5, 5), stack=[(0, 0)])
        # Corner node with both neighbors faulty: nothing usable.
        assert (
            routing_decision(info, header, policy=RoutingPolicy.limited_global())
            == BACKTRACK
        )

    def test_decision_prefers_highest_priority(self, mesh2d):
        info = InformationState.fresh(mesh2d)
        header = ProbeHeader(destination=(5, 2), stack=[(2, 2)])
        decision = routing_decision(info, header, policy=RoutingPolicy.limited_global())
        assert decision == Direction(0, +1)


class TestRoutingAroundBlocks:
    def test_boundary_information_avoids_detour(self, mesh3d):
        """The headline behaviour: with boundary information the probe never
        enters the dangerous area, keeping the path minimal, while the
        information-free probe pays a detour."""
        labeling = build_blocks(mesh3d, FIGURE1_FAULTS).state
        info = distribute_information(mesh3d, labeling)
        bare = InformationState(mesh=mesh3d, labeling=labeling)
        # The x-offset dominates, so the greedy preferred order walks +X
        # towards the block first; the boundary column at x=2 is where the
        # informed probe gets steered +Y instead of entering the prism.
        source, destination = (0, 4, 4), (4, 7, 4)

        informed = route_offline(info, source, destination)
        uninformed = route_offline(
            bare, source, destination, policy=RoutingPolicy.no_information()
        )
        assert informed.delivered and uninformed.delivered
        assert informed.detours == 0
        assert uninformed.detours > 0

    def test_unsafe_source_still_delivered(self, mesh3d):
        """A probe starting inside the dangerous prism detours but arrives."""
        info = converged_information(mesh3d, FIGURE1_FAULTS)
        result = route_offline(info, (4, 2, 4), (4, 9, 4))
        assert result.delivered
        assert result.detours is not None and result.detours > 0

    def test_destination_surrounded_is_unreachable(self, mesh2d):
        """A destination whose neighbors are all faulty cannot be reached and
        the probe reports it by backtracking to the source."""
        faults = [(4, 5), (6, 5), (5, 4), (5, 6)]
        labeling = build_blocks(mesh2d, faults).state
        info = distribute_information(mesh2d, labeling)
        result = route_offline(info, (0, 0), (5, 5))
        assert result.outcome is RouteOutcome.UNREACHABLE

    def test_used_directions_prevent_livelock(self, mesh2d):
        """Every (node, direction) pair is used at most once."""
        faults = [(4, 4), (5, 5), (4, 6), (6, 4)]
        labeling = build_blocks(mesh2d, faults).state
        info = distribute_information(mesh2d, labeling)
        result = route_offline(info, (0, 0), (9, 9))
        assert result.delivered
        seen = set()
        for u, v in zip(result.path, result.path[1:]):
            if mesh2d.distance(u, v) != 1:
                continue
            # only forward moves consume a (node, direction) pair
        assert result.hops <= 4 * mesh2d.size

    def test_exhausted_when_step_budget_too_small(self, mesh3d):
        info = InformationState.fresh(mesh3d)
        result = route_offline(info, (0, 0, 0), (9, 9, 9), max_steps=3)
        assert result.outcome is RouteOutcome.EXHAUSTED
        assert result.detours is None


class TestRoutingProbe:
    def test_step_by_step_matches_offline(self, mesh3d):
        info = converged_information(mesh3d, FIGURE1_FAULTS)
        offline = route_offline(info, (0, 4, 4), (4, 7, 4))
        probe = RoutingProbe(mesh3d, (0, 4, 4), (4, 7, 4))
        while probe.step(info) is None:
            pass
        assert probe.result().path == offline.path

    def test_probe_validates_endpoints(self, mesh2d):
        with pytest.raises(ValueError):
            RoutingProbe(mesh2d, (0, 0), (99, 99))
