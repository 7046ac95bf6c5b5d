"""Tests for the simulator's PCS circuit phase (live link reservations)."""

import pytest

from repro.mesh.topology import Mesh
from repro.pcs.circuit import Circuit, LiveCircuitLedger, ReservationError
from repro.pcs.transfer import hold_steps
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage


class TestLiveCircuitLedger:
    def test_sync_reserves_and_releases_stack_links(self):
        ledger = LiveCircuitLedger()
        ledger.sync(1, [(0, 0), (1, 0), (2, 0)])
        assert ledger.reserved_links == 2
        assert ledger.is_blocked(2, (0, 0), (1, 0))
        assert not ledger.is_blocked(1, (0, 0), (1, 0))  # own links never block
        ledger.sync(1, [(0, 0), (1, 0)])  # backtrack released one link
        assert ledger.reserved_links == 1
        assert not ledger.is_blocked(2, (1, 0), (2, 0))

    def test_sync_direction_independent(self):
        ledger = LiveCircuitLedger()
        ledger.sync(1, [(2, 0), (1, 0)])
        assert ledger.is_blocked(2, (1, 0), (2, 0))

    def test_taking_a_foreign_link_is_an_error(self):
        ledger = LiveCircuitLedger()
        ledger.sync(1, [(0, 0), (1, 0)])
        with pytest.raises(ReservationError):
            ledger.sync(2, [(1, 0), (0, 0)])

    def test_release(self):
        ledger = LiveCircuitLedger()
        ledger.sync(1, [(0, 0), (1, 0), (2, 0)])
        ledger.release(1)
        assert ledger.reserved_links == 0
        assert ledger.active_holders == 0

    def test_timed_hold_and_expiry(self):
        ledger = LiveCircuitLedger()
        ledger.sync(1, [(0, 0), (1, 0)])
        ledger.sync(2, [(5, 5), (5, 6)])
        ledger.hold_until(1, 10)
        ledger.hold_until(2, 7)
        assert ledger.release_expired(6) == 0
        assert ledger.reserved_links == 2
        assert ledger.release_expired(7) == 1
        assert not ledger.is_blocked(9, (5, 5), (5, 6))
        assert ledger.is_blocked(9, (0, 0), (1, 0))
        assert ledger.release_expired(10) == 1
        assert ledger.reserved_links == 0

    def test_double_crossed_link_survives_one_backtrack(self):
        """A probe looping over its own circuit crosses a link twice; one
        backtrack must release one traversal, not the link itself."""
        ledger = LiveCircuitLedger()
        ledger.reserve_link(1, (0, 0), (1, 0))
        ledger.reserve_link(1, (1, 0), (0, 0))  # second traversal, same link
        ledger.release_link(1, (1, 0), (0, 0))
        assert ledger.is_blocked(2, (0, 0), (1, 0))  # still held (count 1)
        ledger.release_link(1, (0, 0), (1, 0))
        assert not ledger.is_blocked(2, (0, 0), (1, 0))

    def test_blocked_for_predicate(self):
        ledger = LiveCircuitLedger()
        ledger.sync(1, [(0, 0), (1, 0)])
        blocked = ledger.blocked_for(2)
        assert blocked((0, 0), (1, 0))
        assert not blocked((1, 0), (2, 0))


class TestHoldSteps:
    def test_hold_scales_with_flits_and_length(self):
        short = Circuit(((0, 0), (1, 0))).length
        long = Circuit(tuple((i, 0) for i in range(6))).length
        assert hold_steps(short, 0) == 1  # even empty messages hold
        assert hold_steps(long, 64) >= hold_steps(short, 64)
        assert hold_steps(short, 1000) > hold_steps(short, 10)

    def test_flits_validation(self):
        with pytest.raises(ValueError):
            TrafficMessage(source=(0, 0), destination=(1, 1), flits=-1)


class TestContentionSimulation:
    def test_two_probes_contend_for_a_shared_link(self):
        """The acceptance scenario: concurrent setups fight over one row."""
        mesh = Mesh.cube(8, 2)
        traffic = [
            TrafficMessage(source=(0, 0), destination=(7, 0), start_time=0, flits=400),
            TrafficMessage(source=(1, 0), destination=(6, 0), start_time=1, flits=64),
        ]
        sim = Simulator(mesh, traffic=traffic, config=SimulationConfig(contention=True))
        stats = sim.run().stats
        assert stats.delivery_rate == 1.0
        first, second = stats.messages
        # The later probe found its row links reserved and walked around.
        assert second.blocked_hops > 0
        assert stats.total_blocked_hops > 0
        assert second.result.hops > second.result.min_distance
        assert stats.circuits_reserved == 2
        assert stats.peak_reserved_links > 0
        assert stats.mean_reserved_links > 0

    def test_contention_disabled_is_contention_free(self):
        """Without --contention nothing is reserved and nothing blocks."""
        mesh = Mesh.cube(8, 2)
        traffic = [
            TrafficMessage(source=(0, 0), destination=(7, 0), start_time=0),
            TrafficMessage(source=(1, 0), destination=(6, 0), start_time=1),
        ]
        sim = Simulator(mesh, traffic=traffic)
        stats = sim.run().stats
        assert sim.circuits is None
        assert stats.total_blocked_hops == 0
        assert stats.total_setup_retries == 0
        assert stats.circuits_reserved == 0
        assert stats.peak_reserved_links == 0
        # Both probes go straight down the shared row.
        assert all(m.result.hops == m.result.min_distance for m in stats.messages)

    def test_circuit_hold_time_scales_with_flits(self):
        """A longer message holds its circuit longer, delaying the rival."""

        def finish_step_of_second(flits):
            mesh = Mesh.cube(8, 2)
            traffic = [
                TrafficMessage(
                    source=(0, 3), destination=(7, 3), start_time=0, flits=flits
                ),
                TrafficMessage(
                    source=(0, 3), destination=(7, 3), start_time=9, flits=16
                ),
            ]
            config = SimulationConfig(contention=True, max_probe_lifetime=500)
            sim = Simulator(mesh, traffic=traffic, config=config)
            stats = sim.run().stats
            assert stats.delivery_rate == 1.0
            return stats.messages[-1].finish_step

        assert finish_step_of_second(2000) > finish_step_of_second(16)

    def test_held_circuit_released_after_transfer(self):
        mesh = Mesh.cube(8, 2)
        traffic = [TrafficMessage(source=(0, 0), destination=(7, 0), flits=100)]
        sim = Simulator(mesh, traffic=traffic, config=SimulationConfig(contention=True))
        stats = sim.run().stats
        assert stats.circuits_reserved == 1
        assert sim.circuits is not None
        # run() drains all work, including the hold expiry.
        assert sim.circuits.reserved_links == 0

    def test_fenced_in_source_waits_instead_of_unreachable(self):
        """Transient reservations at the source must not read as fault
        unreachability: the probe waits and delivers once links free up."""
        mesh = Mesh.cube(4, 2)
        traffic = [
            # Two long transfers into the corner hold both of (0,0)'s links.
            TrafficMessage(source=(3, 0), destination=(0, 0), start_time=0, flits=800),
            TrafficMessage(source=(0, 3), destination=(0, 0), start_time=0, flits=800),
            # A probe *from* the fenced-in corner, injected mid-hold.
            TrafficMessage(source=(0, 0), destination=(3, 3), start_time=4, flits=8),
        ]
        config = SimulationConfig(contention=True, max_probe_lifetime=500)
        sim = Simulator(mesh, traffic=traffic, config=config)
        stats = sim.run().stats
        assert stats.delivery_rate == 1.0  # a fault-free mesh delivers everything
        fenced = stats.messages[-1]
        assert fenced.message.source == (0, 0)
        assert fenced.setup_retries > 0  # it had to wait out the holds

    def test_global_information_waits_out_reservations(self):
        """A fenced-in global probe waits (setup retries) instead of failing."""
        mesh = Mesh.cube(8, 2)
        traffic = [
            TrafficMessage(source=(0, 0), destination=(7, 0), start_time=0, flits=600),
            TrafficMessage(source=(1, 0), destination=(5, 0), start_time=2, flits=16),
        ]
        config = SimulationConfig(
            contention=True, router="global-information", max_probe_lifetime=500
        )
        sim = Simulator(mesh, traffic=traffic, config=config)
        stats = sim.run().stats
        assert stats.delivery_rate == 1.0
        assert stats.total_blocked_hops + stats.total_setup_retries > 0

    def test_contention_stats_in_summary(self):
        mesh = Mesh.cube(6, 2)
        sim = Simulator(mesh, config=SimulationConfig(contention=True))
        summary = sim.run().stats.summary()
        for key in (
            "blocked_hops",
            "setup_retries",
            "circuits_reserved",
            "mean_reserved_links",
            "peak_reserved_links",
        ):
            assert key in summary
