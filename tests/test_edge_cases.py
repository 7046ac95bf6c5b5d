"""Edge-case coverage: rectangular meshes, 4-D constructions, mixed dynamics."""

from repro.core.block_construction import build_blocks
from repro.core.distribution import converged_information, distribute_information_with_report
from repro.core.routing import RouteOutcome, route_offline
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage


class TestRectangularMeshes:
    """The model does not require a uniform radix."""

    def test_block_and_routing_in_rectangular_mesh(self):
        mesh = Mesh((6, 12, 4))
        faults = [(3, 6, 2), (2, 5, 2)]
        result = build_blocks(mesh, faults)
        assert all(b.is_rectangular for b in result.blocks)
        info = converged_information(mesh, faults)
        route = route_offline(info, (0, 0, 0), (5, 11, 3))
        assert route.delivered

    def test_distribution_in_flat_mesh(self):
        mesh = Mesh((20, 4))
        faults = [(10, 2), (11, 1)]
        labeling = build_blocks(mesh, faults).state
        info, report = distribute_information_with_report(mesh, labeling)
        assert report.identification_rounds > 0
        assert info.information_cells() > 0


class TestFourDimensions:
    def test_full_pipeline_in_4d(self, mesh4d):
        extent = Region((2, 2, 2, 2), (3, 3, 3, 3))
        faults = list(extent.iter_points())
        result = build_blocks(mesh4d, faults)
        assert [b.extent for b in result.blocks] == [extent]
        block = result.blocks[0]
        # 2^4 corners, 2n = 8 adjacent surfaces.
        assert len(block.corners(mesh4d)) == 16
        assert len(block.adjacent_surfaces(mesh4d)) == 8
        info = converged_information(mesh4d, faults)
        route = route_offline(info, (0, 0, 0, 0), (5, 5, 5, 5))
        assert route.delivered

    def test_4d_safe_route_is_minimal(self, mesh4d):
        faults = [(2, 2, 2, 2), (3, 3, 2, 2)]
        info = converged_information(mesh4d, faults)
        route = route_offline(info, (4, 4, 4, 4), (5, 5, 5, 5))
        assert route.delivered and route.detours == 0


class TestMixedDynamics:
    def test_fault_and_recovery_in_same_run(self, mesh2d):
        schedule = DynamicFaultSchedule(
            events=[
                FaultEvent(2, (5, 5), FaultEventKind.FAULT),
                FaultEvent(2, (6, 6), FaultEventKind.FAULT),
                FaultEvent(20, (5, 5), FaultEventKind.RECOVERY),
            ],
        )
        traffic = [
            TrafficMessage(source=(0, 0), destination=(9, 9), start_time=0),
            TrafficMessage(source=(9, 0), destination=(0, 9), start_time=25),
        ]
        result = Simulator(
            mesh2d, schedule=schedule, traffic=traffic, config=SimulationConfig(lam=4)
        ).run()
        assert result.stats.delivery_rate == 1.0
        # Three fault changes tracked (two faults + one recovery).
        assert len(result.stats.convergence) == 3

    def test_simultaneous_faults_one_convergence_each(self, mesh3d):
        schedule = DynamicFaultSchedule(
            events=[
                FaultEvent(3, (4, 4, 4), FaultEventKind.FAULT),
                FaultEvent(3, (4, 5, 5), FaultEventKind.FAULT),
            ]
        )
        result = Simulator(
            mesh3d, schedule=schedule, config=SimulationConfig(lam=4)
        ).run()
        assert len(result.stats.convergence) == 2
        assert all(r.stabilized_step is not None for r in result.stats.convergence)

    def test_destination_becomes_faulty_mid_route(self, mesh2d):
        schedule = DynamicFaultSchedule(
            events=[FaultEvent(4, (9, 9), FaultEventKind.FAULT)]
        )
        traffic = [TrafficMessage(source=(0, 0), destination=(9, 9), start_time=0)]
        result = Simulator(
            mesh2d,
            schedule=schedule,
            traffic=traffic,
            config=SimulationConfig(lam=2, max_probe_lifetime=200),
        ).run()
        record = result.stats.messages[0]
        # The probe cannot be delivered to a faulty destination; it must
        # terminate (unreachable or exhausted), not loop forever.
        assert record.result.outcome is not RouteOutcome.DELIVERED
        assert result.stats.steps < 400
