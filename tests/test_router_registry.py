"""Tests for the unified router registry (repro.routing).

Covers registry completeness (every policy name the CLI and the experiment
spec accept resolves), the online/offline parity contract (a contention-free
single-message simulation reproduces the offline route exactly, for every
registered policy), the view every Algorithm-3 router decides over in the
simulator, and the online-only behaviors of the static-block and
global-information routers.
"""

import pytest

from repro.cli import _build_parser
from repro.core.block_construction import build_blocks
from repro.core.routing import RouteOutcome
from repro.core.state import InformationState
from repro.experiments import ExperimentSpec
from repro.faults.injection import dynamic_schedule
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind
from repro.mesh.topology import Mesh
from repro.routing import (
    AlgorithmRouter,
    Router,
    RoutingPolicy,
    available_routers,
    register_router,
    resolve_router,
)
from repro.routing import registry
from repro.simulator import engine
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage
from repro.workloads.traffic import to_traffic

EXPECTED_POLICIES = {
    "limited-global",
    "static-block",
    "boundary-only",
    "no-disabled-avoid",
    "no-information",
    "global-information",
}

FAULTS = [(3, 5), (4, 5), (5, 5), (4, 6)]

#: The policies run by one Algorithm-3 probe (every one but the BFS planner).
ALGORITHM_POLICIES = [
    name for name in available_routers() if isinstance(resolve_router(name), AlgorithmRouter)
]


def _labeling(mesh):
    return build_blocks(mesh, FAULTS).state


class TestRegistryCompleteness:
    def test_expected_policies_registered(self):
        assert set(available_routers()) == EXPECTED_POLICIES

    def test_every_spec_policy_resolves(self):
        """Every policy name the experiment spec accepts must resolve."""
        for name in available_routers():
            router = resolve_router(name)
            assert isinstance(router, Router)
            assert router.name == name

    def test_spec_accepts_every_registered_policy_in_both_modes(self):
        for mode in ("simulate", "offline"):
            spec = ExperimentSpec(mode=mode, policies=available_routers())
            assert len(spec.policies) == len(EXPECTED_POLICIES)

    def test_cli_policy_choices_match_registry(self):
        """Every policy name the CLI accepts resolves (and vice versa)."""
        parser = _build_parser()
        subparsers = next(
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        )
        for command in ("route", "simulate"):
            sub = subparsers.choices[command]
            policy_action = next(a for a in sub._actions if a.dest == "policy")
            assert tuple(policy_action.choices) == available_routers()

    def test_unknown_name_raises_with_menu(self):
        with pytest.raises(ValueError, match="limited-global"):
            resolve_router("nope")

    def test_resolve_returns_fresh_instances(self):
        assert resolve_router("static-block") is not resolve_router("static-block")

    def test_duplicate_registration_guard(self):
        with pytest.raises(ValueError):
            register_router("limited-global", lambda: None)


class TestOfflineOnlineParity:
    """Contention-free single-message simulation == offline route, per policy."""

    @pytest.mark.parametrize("name", sorted(EXPECTED_POLICIES))
    @pytest.mark.parametrize(
        "source,destination",
        [((0, 5), (9, 5)), ((2, 2), (7, 9)), ((0, 0), (9, 9))],
    )
    def test_parity(self, name, source, destination):
        mesh = Mesh.cube(10, 2)
        offline = resolve_router(name).route(mesh, _labeling(mesh), source, destination)
        sim = Simulator(
            mesh,
            schedule=DynamicFaultSchedule.static(FAULTS),
            traffic=[TrafficMessage(source=source, destination=destination)],
            config=SimulationConfig(router=name),
        )
        record = sim.run().stats.messages[0]
        assert record.result.outcome == offline.outcome
        assert record.result.path == offline.path
        assert record.result.hops == offline.hops
        assert record.result.backtrack_hops == offline.backtrack_hops
        assert record.blocked_hops == 0
        assert record.setup_retries == 0

    def test_parity_unreachable_destination(self):
        """A destination walled in by faults is unreachable both ways."""
        mesh = Mesh.cube(8, 2)
        walls = [(0, 1), (1, 1), (1, 0)]
        labeling = build_blocks(mesh, walls).state
        for name in sorted(EXPECTED_POLICIES):
            offline = resolve_router(name).route(mesh, labeling, (7, 7), (0, 0))
            sim = Simulator(
                mesh,
                schedule=DynamicFaultSchedule.static(walls),
                traffic=[TrafficMessage(source=(7, 7), destination=(0, 0))],
                config=SimulationConfig(router=name),
            )
            record = sim.run().stats.messages[0]
            assert offline.outcome is not RouteOutcome.DELIVERED
            assert record.result.outcome == offline.outcome, name


class TestAlgorithmRouterViews:
    def test_no_information_router_uses_bare_view(self):
        mesh = Mesh.cube(8, 2)
        labeling = _labeling(mesh)
        router = resolve_router("no-information")
        view = router.offline_view(mesh, labeling)
        assert view.information_cells() == 0

    def test_offline_view_cached_per_labeling_state(self):
        mesh = Mesh.cube(8, 2)
        labeling = _labeling(mesh)
        router = resolve_router("limited-global")
        assert router.offline_view(mesh, labeling) is router.offline_view(mesh, labeling)
        labeling.make_faulty((1, 1))
        assert router.offline_view(mesh, labeling).blocks_known_at((1, 2))


class TestStaticBlockOnline:
    def test_adjacent_view_rebuilds_on_labeling_change(self):
        mesh = Mesh.cube(8, 2)
        labeling = _labeling(mesh)
        router = resolve_router("static-block")
        first = router.offline_view(mesh, labeling)
        assert router.offline_view(mesh, labeling) is first
        labeling.make_faulty((1, 1))
        second = router.offline_view(mesh, labeling)
        assert second is not first

    def test_probe_sees_only_adjacent_information(self):
        """Far from the block the static-block probe holds no records."""
        mesh = Mesh.cube(10, 2)
        labeling = _labeling(mesh)
        router = resolve_router("static-block")
        view = router.offline_view(mesh, labeling)
        assert not view.blocks_known_at((0, 0))
        assert view.blocks_known_at((2, 5))  # frame node next to the block

    def test_simulator_decides_over_adjacent_view(self):
        """Online, static-block reads the adjacent-only view of the
        simulator's current labeling, not the simulator's own information."""
        mesh = Mesh.cube(10, 2)
        sim = Simulator(
            mesh,
            schedule=DynamicFaultSchedule.static(FAULTS),
            config=SimulationConfig(router="static-block"),
        )
        view = sim.decision_view()
        assert view is not sim.info
        assert view is sim.router.offline_view(mesh, sim.info.labeling)
        # (2, 0) lies on a boundary the limited-global model propagates.
        assert sim.info.boundaries_at((2, 0)) and not view.boundaries_at((2, 0))
        sim.info.labeling.make_faulty((1, 1))
        assert sim.decision_view() is not view


def _sim(name, schedule, *, contention=True):
    mesh = Mesh.cube(8, 2)
    pairs = [((0, 0), (7, 7)), ((7, 0), (0, 7)), ((0, 4), (7, 4)), ((4, 0), (4, 7))]
    return Simulator(
        mesh,
        schedule=schedule,
        traffic=to_traffic(pairs * 3, start_time=0, spacing=1, flits=8),
        config=SimulationConfig(router=name, contention=contention),
    )


class TestScalarDecisionView:
    """The scalar loop decides over ``Simulator.decision_view()`` with one
    decision cache, rebuilt only when that view object changes."""

    @pytest.fixture(autouse=True)
    def scalar(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "scalar")

    @pytest.fixture
    def built(self, monkeypatch):
        """The view of every decision cache the simulator builds."""
        views = []

        class Counting(engine.DecisionCache):
            def __init__(self, info, policy):
                views.append(info)
                super().__init__(info, policy)

        monkeypatch.setattr(engine, "DecisionCache", Counting)
        return views

    @pytest.mark.parametrize("name", ALGORITHM_POLICIES)
    def test_one_cache_per_run_under_static_faults(self, name, built):
        sim = _sim(name, DynamicFaultSchedule.static([(3, 3), (3, 4), (5, 5)]))
        stats = sim.run().stats
        assert sim._table is None and stats.steps > 10
        assert len(built) == 1 and built[0] is sim.decision_view()

    def test_static_block_cache_follows_relabels(self, built):
        schedule = DynamicFaultSchedule(
            initial_faults={(4, 4)},
            events=[
                FaultEvent(3, (3, 4)),
                FaultEvent(7, (5, 5)),
                FaultEvent(11, (4, 4), FaultEventKind.RECOVERY),
            ],
        )
        sim = _sim("static-block", schedule)
        labelings = set()
        while sim.current_step < 30:
            sim.step()
            assert sim._decision_cache.info is sim.decision_view()
            labelings.add(sim.info.labeling.mutations)
        # One cache per labeling the message phase saw, and none in between.
        assert len(built) == len(labelings) > 1


class _BareView(AlgorithmRouter):
    """A policy of its own view: the bare labeling, derived per labeling."""

    def __init__(self):
        super().__init__(RoutingPolicy(name="bare-view"))

    def _build_view(self, mesh, labeling):
        return InformationState(mesh=mesh, labeling=labeling)

    def online_view(self, info):
        return self.offline_view(info.mesh, info.labeling)


class TestAlgorithmRouterSubclass:
    @pytest.mark.parametrize("contention", [False, True])
    def test_subclass_runs_on_table_as_on_scalar_loop(self, monkeypatch, contention):
        """Any :class:`AlgorithmRouter` is table eligible, and the table and
        the scalar loop both decide over its online view."""
        monkeypatch.setitem(registry._FACTORIES, "bare-view", _BareView)
        schedule = DynamicFaultSchedule(
            initial_faults={(4, 4)},
            events=[FaultEvent(3, (3, 4)), FaultEvent(9, (4, 4), FaultEventKind.RECOVERY)],
        )
        outputs = {}
        for backend in ("scalar", "vector"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            sim = _sim("bare-view", schedule, contention=contention)
            assert (sim._table is not None) == (backend == "vector")
            stats = sim.run().stats
            outputs[backend] = (
                stats.summary(),
                [(m.result.outcome, tuple(m.result.path)) for m in stats.messages],
            )
        assert outputs["scalar"] == outputs["vector"]


class TestGlobalInformationOnline:
    def test_replans_when_fault_appears_mid_flight(self):
        """A fault dropped onto the planned path forces a live replan."""
        mesh = Mesh.cube(10, 2)
        schedule = dynamic_schedule([(5, 5)], start_time=2)
        sim = Simulator(
            mesh,
            schedule=schedule,
            traffic=[TrafficMessage(source=(0, 5), destination=(9, 5))],
            config=SimulationConfig(router="global-information"),
        )
        record = sim.run().stats.messages[0]
        assert record.delivered
        assert (5, 5) not in record.result.path
        # The straight row was the plan until the fault appeared.
        assert record.result.path[0] == (0, 5)
        assert record.result.backtrack_hops == 0

    def test_unreachable_when_walled_in(self):
        mesh = Mesh.cube(6, 2)
        walls = [(0, 1), (1, 1), (1, 0)]
        sim = Simulator(
            mesh,
            schedule=DynamicFaultSchedule.static(walls),
            traffic=[TrafficMessage(source=(5, 5), destination=(0, 0))],
            config=SimulationConfig(router="global-information"),
        )
        record = sim.run().stats.messages[0]
        assert record.result.outcome is RouteOutcome.UNREACHABLE


class TestSimulationConfigRouter:
    def test_unknown_router_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="registered"):
            SimulationConfig(router="nope")

    def test_default_router_is_limited_global(self):
        mesh = Mesh.cube(6, 2)
        sim = Simulator(mesh, config=SimulationConfig())
        assert isinstance(sim.router, AlgorithmRouter)
        assert sim.router.name == "limited-global"
