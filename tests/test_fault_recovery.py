"""Mid-run fault teardown, recovery, and the MTBF fault workload.

A dynamic fault must tear down — within the *same step* it fires — every
in-flight probe whose partial circuit crosses the failed node and every
delivered circuit still holding a link into it, identically on the scalar
object path and the vectorized :class:`~repro.core.probe_table.ProbeTable`
path.  These tests pin that contract with a backend x contention x policy
parity matrix, a one-step ledger-release assertion, a crafted
fault-dropped-circuit scenario, and determinism/validity checks on the
seeded fault workload generator.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import ENV_VAR as BACKEND_ENV_VAR
from repro.backend import SCALAR, VECTOR
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind
from repro.experiments import ExperimentSpec
from repro.faults.workload import FaultWorkload, mtbf_schedule
from repro.mesh.topology import Mesh
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage
from repro.throughput import run_throughput_point
from repro.workloads.traffic import random_pairs

BACKENDS = (SCALAR, VECTOR)

#: Policies exercising distinct information models through the same engine.
PARITY_POLICIES = ("limited-global", "no-information", "boundary-only", "static-block")


def _mid_run_schedule():
    """Faults landing while traffic is in flight, each later recovering."""
    return DynamicFaultSchedule(
        events=(
            FaultEvent(time=4, node=(4, 4)),
            FaultEvent(time=7, node=(5, 3)),
            FaultEvent(time=18, node=(4, 4), kind=FaultEventKind.RECOVERY),
            FaultEvent(time=22, node=(5, 3), kind=FaultEventKind.RECOVERY),
        )
    )


def _traffic(mesh, count=24, seed=7):
    rng = np.random.default_rng(seed)
    pairs = random_pairs(
        mesh, count, rng, min_distance=4, exclude=[(4, 4), (5, 3)]
    )
    return [
        TrafficMessage(source=s, destination=d, start_time=i % 6, flits=32)
        for i, (s, d) in enumerate(pairs)
    ]


def _fingerprint(sim):
    """Everything observable about a finished run, order-sensitive."""
    per_message = tuple(
        (
            record.message.source,
            record.message.destination,
            record.result.outcome.name,
            tuple(record.result.path),
            record.result.hops,
            record.result.blocked_hops,
            record.result.setup_retries,
            record.finish_step,
        )
        for record in sim.stats.messages
    )
    return sim.stats.summary(), per_message


class TestMidRunFaultParity:
    @pytest.mark.parametrize("policy", PARITY_POLICIES)
    @pytest.mark.parametrize("contention", [False, True])
    def test_backends_identical_through_fault_and_recovery(
        self, policy, contention, monkeypatch
    ):
        mesh = Mesh((10, 10))
        fingerprints = {}
        for backend in BACKENDS:
            monkeypatch.setenv(BACKEND_ENV_VAR, backend)
            config = SimulationConfig(lam=2, router=policy, contention=contention)
            sim = Simulator(
                mesh,
                schedule=_mid_run_schedule(),
                traffic=_traffic(mesh),
                config=config,
            )
            sim.run()
            fingerprints[backend] = _fingerprint(sim)
        assert fingerprints[SCALAR] == fingerprints[VECTOR]

    def test_table_path_engaged_on_vector(self, monkeypatch):
        """The matrix above must actually compare two different engines."""
        mesh = Mesh((10, 10))
        sims = {}
        for backend in BACKENDS:
            monkeypatch.setenv(BACKEND_ENV_VAR, backend)
            sims[backend] = Simulator(
                mesh,
                schedule=_mid_run_schedule(),
                traffic=_traffic(mesh),
                config=SimulationConfig(lam=2, router="limited-global", contention=True),
            )
        assert sims[VECTOR]._table is not None
        assert sims[SCALAR]._table is None


class TestLedgerReleaseOnFault:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_reserved_link_incident_to_failed_node_after_fault_step(
        self, backend, monkeypatch
    ):
        """Teardown frees the dead node's links within the fault's own step."""
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        mesh = Mesh((10, 10))
        fault_time, node = 6, (4, 4)
        schedule = DynamicFaultSchedule(
            events=(FaultEvent(time=fault_time, node=node),)
        )
        config = SimulationConfig(lam=2, router="limited-global", contention=True)
        sim = Simulator(
            mesh, schedule=schedule, traffic=_traffic(mesh, count=40), config=config
        )
        while sim._step <= fault_time and sim._work_remaining():
            sim.step()
        assert sim._step > fault_time
        for u, v in sim.circuits.reserved_link_set():
            assert node != u and node != v

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delivered_circuit_crossing_fault_is_dropped(self, backend, monkeypatch):
        """A circuit mid-transfer over the failed node counts as fault-dropped."""
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        mesh = Mesh((10, 10))
        # One message delivered quickly, then held for a long transfer
        # (large flit count); the fault lands on an interior path node
        # during the hold, so release_crossing must drop exactly it.
        traffic = [
            TrafficMessage(
                source=(1, 1), destination=(7, 1), start_time=0, flits=4096
            )
        ]
        schedule = DynamicFaultSchedule(events=(FaultEvent(time=12, node=(4, 1)),))
        config = SimulationConfig(lam=2, router="limited-global", contention=True)
        sim = Simulator(mesh, schedule=schedule, traffic=traffic, config=config)
        sim.run()
        record = sim.stats.messages[0]
        assert record.delivered
        assert record.finish_step < 12  # delivered before the fault
        assert (4, 1) in record.result.path
        assert sim.stats.fault_dropped_circuits == 1
        assert sim.stats.summary()["fault_dropped"] == 1


class TestFaultWorkload:
    def test_mtbf_schedule_deterministic(self, mesh2d):
        workload = FaultWorkload(rate=0.05, repair_after=20, start=10, stop=200)
        a = mtbf_schedule(mesh2d, workload, seed=42)
        b = mtbf_schedule(mesh2d, workload, seed=42)
        assert a.events == b.events
        c = mtbf_schedule(mesh2d, workload, seed=43)
        assert a.events != c.events

    def test_mtbf_schedule_validity(self, mesh2d):
        workload = FaultWorkload(rate=0.1, repair_after=15, start=5, stop=300)
        schedule = mtbf_schedule(mesh2d, workload, seed=3)
        faults = schedule.fault_events
        assert faults, "rate 0.1 over ~300 steps must produce faults"
        # Interior nodes only (margin 1), each node faulted at most once.
        nodes = [e.node for e in faults]
        assert len(nodes) == len(set(nodes))
        for node in nodes:
            assert all(1 <= c < s - 1 for c, s in zip(node, mesh2d.shape))
        # Every fault recovers exactly repair_after steps later.
        recoveries = {e.node: e.time for e in schedule.recovery_events}
        for event in faults:
            assert recoveries[event.node] == event.time + 15
        # Fault times stay inside [start, stop).
        assert all(5 <= e.time < 300 for e in faults)

    def test_mtbf_respects_initial_faults(self, mesh2d):
        initial = [(3, 3), (6, 6)]
        workload = FaultWorkload(rate=0.2, repair_after=0, start=0, stop=400)
        schedule = mtbf_schedule(mesh2d, workload, seed=1, initial=initial)
        assert schedule.initial_faults == {(3, 3), (6, 6)}
        dynamic = {e.node for e in schedule.fault_events}
        assert dynamic and not dynamic & {(3, 3), (6, 6)}

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            FaultWorkload(rate=-0.1)
        with pytest.raises(ValueError):
            FaultWorkload(rate=1.5)
        with pytest.raises(ValueError):
            FaultWorkload(rate=0.1, repair_after=-1)
        with pytest.raises(ValueError):
            FaultWorkload(rate=0.1, start=10, stop=5)
        # rate 0 is the valid "no dynamic faults" degenerate case.
        workload = FaultWorkload(rate=0.0, stop=100)
        assert not mtbf_schedule(Mesh((8, 8)), workload, seed=0).events

    def test_mtbf_schedule_replayable_into_simulator(self, mesh2d):
        """A generated schedule passes the schedule's own validation and runs."""
        workload = FaultWorkload(rate=0.05, repair_after=20, start=5, stop=60)
        schedule = mtbf_schedule(mesh2d, workload, seed=11)
        sim = Simulator(
            mesh2d,
            schedule=schedule,
            traffic=_traffic(mesh2d, count=10),
            config=SimulationConfig(lam=2, router="limited-global"),
        )
        sim.run()
        assert sim.stats.summary()["fault_changes"] >= len(schedule.fault_events)


def _cell(*, seed, faults=0, **axes):
    """The one limited-global, uniform 8x8 cell at rate 0.02, seeded ``seed``."""
    (cell,) = ExperimentSpec(
        mode="throughput", mesh_shapes=((8, 8),), fault_counts=(faults,),
        rates=(0.02,), **axes,
    ).cells()
    return replace(cell, cell_seed=seed)


class TestThroughputPointUnderFaults:
    def test_rows_identical_across_backends(self, monkeypatch):
        """The windowed measurement under an MTBF workload is backend-free."""
        rows = {}
        cell = _cell(
            seed=3, faults=2, fault_rates=(0.04,), repair_after=24,
            warmup=32, measure=96, drain=192,
        )
        for backend in BACKENDS:
            monkeypatch.setenv(BACKEND_ENV_VAR, backend)
            rows[backend] = run_throughput_point(cell)
        assert rows[SCALAR] == rows[VECTOR]
        assert rows[VECTOR]["fault_events"] > 0
        assert "slo_dip_depth" in rows[VECTOR]
        assert "slo_time_to_recover" in rows[VECTOR]

    def test_static_runs_unchanged(self):
        """No fault workload: rows carry no fault/SLO columns (back-compat)."""
        row = run_throughput_point(_cell(seed=5, warmup=16, measure=64, drain=128))
        assert "fault_events" not in row
        assert "fault_dropped" not in row
        assert "slo_dip_depth" not in row
