"""Unit and integration tests for the step-synchronous simulator (Figure 7)."""

import pytest

from repro.core.routing import RouteOutcome
from repro.faults.injection import dynamic_schedule
from repro.routing import resolve_router
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage
from repro.workloads.scenarios import (
    FIGURE1_EXTENT,
    figure1_scenario,
    figure4_recovery_scenario,
)


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(lam=0)
        with pytest.raises(ValueError):
            SimulationConfig(max_steps=0)
        # An explicit 0 used to be silently treated as "unset" by the
        # engine's `or` fallback; it is now rejected outright.
        with pytest.raises(ValueError):
            SimulationConfig(max_probe_lifetime=0)
        with pytest.raises(ValueError):
            SimulationConfig(max_probe_lifetime=-1)

    def test_defaults(self):
        config = SimulationConfig()
        assert config.lam == 2
        assert config.router == "limited-global"
        assert resolve_router(config.router).policy.use_boundary_info
        assert not config.contention


class TestFaultFreeSimulation:
    def test_messages_advance_one_hop_per_step(self, mesh2d):
        traffic = [TrafficMessage(source=(0, 0), destination=(5, 5), start_time=0)]
        sim = Simulator(mesh2d, traffic=traffic)
        result = sim.run()
        record = result.stats.messages[0]
        assert record.delivered
        assert record.result.hops == 10
        # Injected at step 0, one hop per step: finishes at step 9.
        assert record.finish_step == 9

    def test_multiple_messages(self, mesh2d):
        traffic = [
            TrafficMessage(source=(0, 0), destination=(9, 9), start_time=0),
            TrafficMessage(source=(9, 0), destination=(0, 9), start_time=3),
        ]
        result = Simulator(mesh2d, traffic=traffic).run()
        assert len(result.stats.messages) == 2
        assert result.stats.delivery_rate == 1.0
        assert result.stats.mean_detours == 0.0

    def test_no_work_terminates_quickly(self, mesh2d):
        result = Simulator(mesh2d).run()
        assert result.stats.steps == 0


class TestStaticFaultSimulation:
    def test_preconverged_information_available_at_step_zero(self, mesh3d):
        scenario = figure1_scenario()
        sim = Simulator(mesh3d, schedule=scenario.schedule)
        assert sim.info.has_block_info((2, 4, 2), FIGURE1_EXTENT)
        assert sim.info.information_cells() > 0

    def test_routing_around_static_block(self, mesh3d):
        scenario = figure1_scenario()
        traffic = [TrafficMessage(source=(0, 4, 4), destination=(4, 7, 4))]
        result = Simulator(mesh3d, schedule=scenario.schedule, traffic=traffic).run()
        record = result.stats.messages[0]
        assert record.delivered
        assert record.detours == 0


class TestDynamicFaults:
    def test_convergence_records_created(self, mesh3d):
        schedule = dynamic_schedule([(5, 5, 5)], start_time=3)
        sim = Simulator(mesh3d, schedule=schedule, config=SimulationConfig(lam=4))
        result = sim.run()
        assert len(result.stats.convergence) == 1
        record = result.stats.convergence[0]
        assert record.event.node == (5, 5, 5)
        assert record.detected_step == 3
        assert record.stabilized_step is not None
        assert record.stabilized_step >= 3

    def test_new_block_identified_after_fault(self, mesh3d):
        schedule = dynamic_schedule([(5, 5, 5), (6, 6, 5)], start_time=2, interval=20)
        sim = Simulator(mesh3d, schedule=schedule, config=SimulationConfig(lam=4))
        sim.run()
        holders = sim.info.nodes_holding_information()
        assert holders, "dynamic faults must eventually produce distributed info"

    def test_convergence_bounded_by_schedule_interval(self, mesh3d):
        """With d_i > (a+b+c)/λ each change stabilizes before the next."""
        schedule = dynamic_schedule(
            [(4, 4, 4), (4, 5, 5), (7, 7, 7)], start_time=2, interval=30
        )
        config = SimulationConfig(lam=4)
        result = Simulator(mesh3d, schedule=schedule, config=config).run()
        assert len(result.stats.convergence) == 3
        for record in result.stats.convergence:
            assert record.steps_to_stabilize(config.lam) <= 30

    def test_routing_during_dynamic_fault_still_delivers(self, mesh2d):
        """Faults appearing near the path cause detours, not failures.

        The faults land ahead of the probe, never on a node of its partial
        circuit — a fault hitting the circuit itself tears the probe down
        (see test_fault_recovery.py for that semantics).
        """
        # The message walks east along y=5 while a block forms on its path.
        schedule = dynamic_schedule([(5, 5), (6, 6)], start_time=1, interval=4)
        traffic = [TrafficMessage(source=(0, 5), destination=(9, 5), start_time=0)]
        config = SimulationConfig(lam=2)
        result = Simulator(mesh2d, schedule=schedule, traffic=traffic, config=config).run()
        record = result.stats.messages[0]
        assert record.delivered
        assert record.result.hops > 9

    def test_recovery_dissolves_information(self, mesh3d):
        scenario = figure4_recovery_scenario(recovery_time=2)
        config = SimulationConfig(lam=4)
        sim = Simulator(mesh3d, schedule=scenario.schedule, config=config)
        assert sim.info.has_block_info((2, 4, 2), FIGURE1_EXTENT)
        sim.run()
        # The original full-extent record must have been cancelled: the
        # stabilized blocks after recovery are strictly smaller.
        extents = {
            record.extent
            for records in sim.info.node_blocks.values()
            for record in records
        }
        assert FIGURE1_EXTENT not in extents

    def test_stats_summary_keys(self, mesh2d):
        schedule = dynamic_schedule([(4, 4)], start_time=1)
        traffic = [TrafficMessage(source=(0, 0), destination=(9, 9))]
        result = Simulator(mesh2d, schedule=schedule, traffic=traffic).run()
        summary = result.stats.summary()
        for key in ("delivery_rate", "mean_detours", "steps", "fault_changes"):
            assert key in summary


class TestExecutionModel:
    def test_lambda_rounds_per_step(self, mesh3d):
        """Exactly λ information rounds are executed per step."""
        schedule = dynamic_schedule([(5, 5, 5)], start_time=0)
        config = SimulationConfig(lam=3)
        sim = Simulator(mesh3d, schedule=schedule, config=config)
        sim.step()
        sim.step()
        assert sim.stats.total_rounds == 2 * 3

    def test_higher_lambda_stabilizes_in_fewer_steps(self, mesh3d):
        def steps_to_stable(lam):
            schedule = dynamic_schedule([(5, 5, 5), (5, 6, 6)], start_time=1, interval=0)
            sim = Simulator(mesh3d, schedule=schedule, config=SimulationConfig(lam=lam))
            result = sim.run()
            return max(r.stabilized_step for r in result.stats.convergence)

        assert steps_to_stable(8) <= steps_to_stable(1)

    def test_probe_lifetime_limit(self, mesh2d):
        config = SimulationConfig(max_probe_lifetime=3)
        traffic = [TrafficMessage(source=(0, 0), destination=(9, 9))]
        result = Simulator(mesh2d, traffic=traffic, config=config).run()
        record = result.stats.messages[0]
        assert record.result.outcome is RouteOutcome.EXHAUSTED

    def test_probe_lifetime_of_one_is_honored(self, mesh2d):
        """The smallest explicit lifetime cuts probes after one step."""
        config = SimulationConfig(max_probe_lifetime=1)
        traffic = [TrafficMessage(source=(0, 0), destination=(9, 9))]
        result = Simulator(mesh2d, traffic=traffic, config=config).run()
        record = result.stats.messages[0]
        assert record.result.outcome is RouteOutcome.EXHAUSTED
        assert record.result.hops <= 2

    def test_max_steps_flushes_in_flight_probes(self, mesh2d):
        config = SimulationConfig(max_steps=3)
        traffic = [TrafficMessage(source=(0, 0), destination=(9, 9))]
        result = Simulator(mesh2d, traffic=traffic, config=config).run()
        assert len(result.stats.messages) == 1
        assert result.stats.steps == 3

    def test_traffic_validation(self, mesh2d):
        with pytest.raises(ValueError):
            Simulator(
                mesh2d,
                traffic=[TrafficMessage(source=(0, 0), destination=(99, 99))],
            )
