"""Integration tests replaying the paper's worked examples end to end.

Each test corresponds to a figure or theorem of the paper and exercises the
full pipeline (labeling → identification → boundary → routing → simulator)
rather than a single module.
"""

import pytest

from repro.analysis.detour_bounds import DetourBoundParameters, theorem4_max_detours
from repro.core.block_construction import build_blocks
from repro.core.distribution import distribute_information_with_report
from repro.core.routing import route_offline
from repro.core.safety import is_safe_source
from repro.faults.injection import dynamic_schedule
from repro.mesh.topology import Mesh
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage
from repro.workloads.scenarios import (
    FIGURE1_EXTENT,
    FIGURE2_CORNER,
    figure1_scenario,
    figure4_recovery_scenario,
    two_block_scenario,
)


class TestFigure1Pipeline:
    """Figure 1: faults → block [3:5, 5:6, 3:4] → surfaces → distributed info."""

    def test_full_pipeline(self):
        scenario = figure1_scenario()
        mesh = scenario.mesh
        result = build_blocks(mesh, scenario.schedule.initial_faults)
        assert [b.extent for b in result.blocks] == [FIGURE1_EXTENT]
        block = result.blocks[0]
        assert len(block.adjacent_surfaces(mesh)) == 6
        info, report = distribute_information_with_report(mesh, result.state)
        assert report.identifications[FIGURE1_EXTENT].stable
        # The Figure-2 corner ends up holding the block record.
        assert info.has_block_info(FIGURE2_CORNER, FIGURE1_EXTENT)


class TestFigure4RecoveryPipeline:
    """Figure 4 + Theorem 1: recovery does not hurt routing optimality."""

    def test_routing_after_recovery_not_worse(self):
        scenario = figure4_recovery_scenario(recovery_time=2)
        mesh = scenario.mesh
        config = SimulationConfig(lam=4)
        source, destination = (0, 4, 4), (4, 7, 4)

        # Before recovery (static Figure-1 block): minimal route.
        static = Simulator(
            mesh,
            schedule=figure1_scenario().schedule,
            traffic=[TrafficMessage(source=source, destination=destination)],
            config=config,
        ).run()
        before = static.stats.messages[0]

        # With the recovery happening: routing must not become worse.
        dynamic = Simulator(
            mesh,
            schedule=scenario.schedule,
            traffic=[
                TrafficMessage(source=source, destination=destination, start_time=20)
            ],
            config=config,
        ).run()
        after = dynamic.stats.messages[0]

        assert before.delivered and after.delivered
        assert after.result.hops <= before.result.hops


class TestTwoBlockPipeline:
    """Figure 3(d): boundaries that merge still steer routing correctly."""

    def test_routing_between_two_blocks(self):
        scenario = two_block_scenario()
        mesh = scenario.mesh
        result = build_blocks(mesh, scenario.schedule.initial_faults)
        info, _ = distribute_information_with_report(mesh, result.state)
        # Route from below both blocks to above both blocks: with boundary
        # information the probe is steered around the pair.
        route = route_offline(info, (5, 0, 5), (5, 11, 5))
        assert route.delivered
        # The ideal path must dodge both blocks laterally: 11 + 2*2 hops.
        assert route.hops <= 11 + 8


class TestDynamicDetourBound:
    """Theorems 3/4: measured detours stay within the analytical bound."""

    @pytest.mark.parametrize("interval", [20, 40])
    def test_measured_detours_within_theorem4_bound(self, interval):
        mesh = Mesh.cube(12, 3)
        source, destination = (0, 0, 0), (11, 11, 11)
        # Two dynamic faults appear near the path while the message travels.
        # They must land *next to* the probe's staircase, never on a node the
        # partial circuit already occupies: a fault hitting the circuit itself
        # tears the probe down (see tests/test_fault_recovery.py for that
        # semantics) and Theorem 4 only bounds detours of surviving probes.
        faults = [(5, 5, 5), (6, 6, 7)]
        schedule = dynamic_schedule(faults, start_time=4, interval=interval)
        config = SimulationConfig(lam=4)
        sim = Simulator(
            mesh,
            schedule=schedule,
            traffic=[TrafficMessage(source=source, destination=destination)],
            config=config,
        )
        result = sim.run()
        record = result.stats.messages[0]
        assert record.delivered

        labeling_rounds = [
            max((c.labeling_rounds for c in result.stats.convergence), default=1)
        ] * max(len(faults), 1)
        e_max = 2  # the two faults coalesce into a block of edge <= 2
        params = DetourBoundParameters(
            distance=mesh.distance(source, destination),
            start_time=0,
            last_fault_time=0,
            intervals=[interval] * len(faults),
            labeling_rounds=labeling_rounds,
            e_max=e_max,
        )
        bound = theorem4_max_detours(params)
        assert record.detours is not None
        assert record.detours <= bound

    def test_safe_source_with_no_dynamic_fault_is_minimal(self):
        """Theorem 3 base case: i <= p means D(i) = D."""
        scenario = figure1_scenario()
        mesh = scenario.mesh
        result = build_blocks(mesh, scenario.schedule.initial_faults)
        source, destination = (7, 0, 0), (9, 3, 2)
        assert is_safe_source(source, destination, result.blocks)
        sim = Simulator(
            mesh,
            schedule=scenario.schedule,
            traffic=[TrafficMessage(source=source, destination=destination)],
        ).run()
        record = sim.stats.messages[0]
        assert record.delivered
        assert record.detours == 0


class TestGracefulDegradation:
    """The companion-paper claim: performance degrades gracefully as the
    number of dynamic faults grows."""

    def test_detours_grow_slowly_with_fault_count(self):
        from dataclasses import replace

        from repro.experiments import ExperimentSpec
        from repro.experiments.runner import build_simulator

        means = {}
        for fault_count in (2, 8):
            (cell,) = ExperimentSpec(
                mode="simulate",
                mesh_shapes=((10, 10),),
                fault_counts=(fault_count,),
                fault_intervals=(12,),
                lams=(4,),
                traffic_sizes=(10,),
            ).cells()
            result = build_simulator(replace(cell, cell_seed=7)).run()
            assert result.stats.delivery_rate == 1.0
            means[fault_count] = result.stats.mean_detours
        # More faults may cost more detours, but the degradation is bounded
        # (well under the mesh diameter on average).
        assert means[8] < 18
