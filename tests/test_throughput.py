"""Tests for the open-loop throughput subsystem (repro.throughput)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.throughput import throughput_rows
from repro.core.state import InformationState
from repro.experiments import ExperimentSpec, run_batch
from repro.faults.schedule import DynamicFaultSchedule
from repro.mesh.topology import Mesh
from repro.pcs.circuit import LiveCircuitLedger
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import BatchSource, TrafficMessage
from repro.throughput import (
    BernoulliInjection,
    BurstyInjection,
    OpenLoopSource,
    find_saturation,
    knee,
    make_injection,
    run_throughput_point,
)
from repro.throughput.injection import HOTSPOT_FRACTION, RETRY_BACKOFF
from repro.workloads import simulate_scenario


def _transpose_scenario(seed):
    """Mesh, schedule and traffic of a 6x6 transpose cell with three
    dynamic faults and the full 30-pair batch, seeded ``seed``."""
    (cell,) = ExperimentSpec(
        mode="simulate",
        mesh_shapes=((6, 6),),
        scenarios=("transpose",),
        fault_counts=(3,),
        traffic_sizes=(30,),
    ).cells()
    return simulate_scenario(replace(cell, cell_seed=seed))


def _cell(shape, policy, pattern, rate, *, seed, faults=0, **windows):
    """The one cell of a throughput spec, run with ``seed`` as its cell seed."""
    (cell,) = ExperimentSpec(
        mode="throughput",
        mesh_shapes=(shape,),
        policies=(policy,),
        scenarios=(pattern,),
        fault_counts=(faults,),
        rates=(rate,),
        **windows,
    ).cells()
    return replace(cell, cell_seed=seed)


def is_monotone_nondecreasing(values, *, tolerance=0.1):
    """True iff the sequence never drops by more than ``tolerance`` (relative).

    Each value is compared against the running maximum, so a noisy plateau
    passes while a genuine collapse does not: an accepted-throughput curve
    should rise with offered load up to saturation.
    """
    running_max = float("-inf")
    for value in values:
        if running_max > 0 and value < running_max * (1.0 - tolerance):
            return False
        running_max = max(running_max, value)
    return True


def flattens(offered, accepted, *, threshold=0.25):
    """True iff the curve's tail no longer tracks the offered load.

    Below saturation, each extra unit of offered load yields roughly one
    extra unit of accepted throughput (the zero-load efficiency,
    ``accepted[0] / offered[0]``).  A saturated curve has flattened: the
    marginal efficiency over the last segment drops under ``threshold``
    times the zero-load efficiency.
    """
    if len(offered) != len(accepted) or len(offered) < 3:
        return False
    if offered[0] <= 0 or offered[-1] <= offered[-2]:
        return False
    base_efficiency = accepted[0] / offered[0]
    if base_efficiency <= 0:
        return False
    marginal = (accepted[-1] - accepted[-2]) / (offered[-1] - offered[-2])
    return marginal < threshold * base_efficiency


class TestInjectionProcesses:
    def test_bernoulli_rate_and_determinism(self):
        process = BernoulliInjection(0.25)
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        masks1 = [process.injecting(rng1, 1000) for _ in range(20)]
        masks2 = [process.injecting(rng2, 1000) for _ in range(20)]
        for a, b in zip(masks1, masks2):
            assert (a == b).all()
        mean = np.mean([m.mean() for m in masks1])
        assert 0.2 < mean < 0.3

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            BernoulliInjection(1.5)

    def test_bursty_mean_rate_matches(self):
        process = BurstyInjection(0.1)
        rng = np.random.default_rng(3)
        total = sum(process.injecting(rng, 500).sum() for _ in range(2000))
        mean = total / (500 * 2000)
        assert 0.07 < mean < 0.13

    def test_bursty_is_clustered(self):
        # A single node's on/off stream should have long runs of silence.
        process = BurstyInjection(0.1)
        rng = np.random.default_rng(5)
        stream = [bool(process.injecting(rng, 1)[0]) for _ in range(4000)]
        silent = max(
            len(run)
            for run in "".join("x" if s else "." for s in stream).split("x")
        )
        # Bernoulli at 0.1 would practically never stay silent ~40x longer
        # than its mean gap; an off-phase process does.
        assert silent > 100

    def test_make_injection_unknown(self):
        with pytest.raises(ValueError, match="unknown injection"):
            make_injection("poisson", 0.1)


class TestOpenLoopSource:
    def _source(self, **kwargs):
        mesh = Mesh((5, 5))
        defaults = dict(pattern="uniform", seed=0, flits=16)
        defaults.update(kwargs)
        return mesh, OpenLoopSource(mesh, BernoulliInjection(0.5), **defaults)

    def test_one_port_per_node(self):
        mesh, source = self._source()
        emitted = source.poll(0) + source.poll(1) + source.poll(2)
        sources = [m.source for m in emitted]
        # Ports stay busy until the simulator reports completion, so a node
        # never has two setups in flight — later generations queue up.
        assert len(sources) == len(set(sources))
        assert source.queued > 0
        assert source.generated == source.injected + source.queued

    def test_message_finished_frees_port_and_retries_failures(self):
        from repro.core.routing import RouteOutcome, RouteResult
        from repro.simulator.stats import MessageRecord

        mesh, source = self._source()
        message = source.poll(0)[0]
        result = RouteResult(
            outcome=RouteOutcome.EXHAUSTED,
            path=[message.source],
            source=message.source,
            destination=message.destination,
            min_distance=1,
            forward_hops=0,
            backtrack_hops=0,
        )
        source.message_finished(
            MessageRecord(message=message, result=result, finish_step=3)
        )
        # The failed message is re-issued first, keeping its creation step,
        # once the first attempt's backoff has passed.
        ready = 3 + 1 + RETRY_BACKOFF
        retried = [m for m in source.poll(ready) if m.source == message.source]
        assert len(retried) == 1
        assert retried[0].destination == message.destination
        assert retried[0].created_time == 0

    def test_retry_backoff_delays_reissue(self):
        from repro.core.routing import RouteOutcome, RouteResult
        from repro.simulator.stats import MessageRecord

        mesh, source = self._source()
        message = source.poll(0)[0]
        result = RouteResult(
            outcome=RouteOutcome.EXHAUSTED,
            path=[message.source],
            source=message.source,
            destination=message.destination,
            min_distance=1,
            forward_hops=0,
            backtrack_hops=0,
        )
        source.message_finished(
            MessageRecord(message=message, result=result, finish_step=3)
        )
        ready = 3 + 1 + RETRY_BACKOFF
        assert all(m.source != message.source for m in source.poll(ready - 1))
        retried = [m for m in source.poll(ready) if m.source == message.source]
        assert len(retried) == 1

    def test_emission_scans_only_free_ports_with_queued_heads(self):
        """Emission visits only the nodes whose port is free and whose
        queue holds a message, in node order: after every poll and every
        finish that set is exactly what a scan over all nodes finds, so
        each step emits what the scan would."""
        from repro.core.routing import RouteOutcome, RouteResult
        from repro.simulator.stats import MessageRecord

        mesh, source = self._source()
        rng = np.random.default_rng(7)
        in_flight = []

        def scan():
            return {
                i for i, node in enumerate(source.nodes)
                if node not in source._busy and source._queues[node]
            }

        for step in range(120):
            emitted = source.poll(step)
            order = [source.nodes.index(m.source) for m in emitted]
            assert order == sorted(order)
            assert source._ready == scan()
            in_flight += emitted
            rng.shuffle(in_flight)
            for message in in_flight[: int(rng.integers(0, 4))]:
                outcome = RouteOutcome.DELIVERED if rng.random() < 0.5 \
                    else RouteOutcome.EXHAUSTED
                result = RouteResult(
                    outcome=outcome,
                    path=[message.source],
                    source=message.source,
                    destination=message.destination,
                    min_distance=1,
                    forward_hops=0,
                    backtrack_hops=0,
                )
                source.message_finished(
                    MessageRecord(message=message, result=result, finish_step=step)
                )
                in_flight.remove(message)
                assert source._ready == scan()
        assert source.injected > 60 and source.queued > 0

    def test_transpose_pattern_reverses_coordinates(self):
        mesh = Mesh((6, 6))
        source = OpenLoopSource(
            mesh, BernoulliInjection(1.0), pattern="transpose", seed=0
        )
        for message in source.poll(0):
            assert message.destination == tuple(reversed(message.source))

    def test_transpose_requires_cubic_mesh(self):
        mesh = Mesh((6, 4))
        with pytest.raises(ValueError, match="cubic"):
            OpenLoopSource(mesh, BernoulliInjection(0.1), pattern="transpose")

    def test_hotspot_concentrates_traffic(self):
        mesh = Mesh((7, 7))
        source = OpenLoopSource(
            mesh, BernoulliInjection(1.0), pattern="hotspot", seed=0
        )
        emitted = source.poll(0)
        # Every node emits at step 0; the hotspot itself sends uniform.
        senders = [m for m in emitted if m.source != (3, 3)]
        assert len(senders) == 48
        hot = sum(m.destination == (3, 3) for m in senders)
        # A uniform pattern would send about one message there.
        assert hot > HOTSPOT_FRACTION * len(senders) / 2

    def test_stop_freezes_generation_and_emission(self):
        mesh, source = self._source(stop=2)
        source.poll(0)
        source.poll(1)
        generated = source.generated
        assert source.poll(2) == []
        assert source.generated == generated
        assert source.exhausted(2)
        assert not source.exhausted(1)

    def test_excluded_nodes_never_endpoints(self):
        mesh = Mesh((5, 5))
        excluded = {(2, 2), (1, 3)}
        source = OpenLoopSource(
            mesh, BernoulliInjection(1.0), pattern="uniform", seed=0, exclude=excluded
        )
        for message in source.poll(0):
            assert message.source not in excluded
            assert message.destination not in excluded


class TestStreamingSourceParity:
    """A BatchSource-fed simulator equals the historic list-fed one."""

    @pytest.mark.parametrize("contention", [False, True])
    def test_batch_source_equals_list(self, contention):
        results = []
        for as_source in (False, True):
            mesh, schedule, traffic = _transpose_scenario(5)
            sim = Simulator(
                mesh,
                schedule=schedule,
                traffic=BatchSource(traffic) if as_source else traffic,
                config=SimulationConfig(
                    router="limited-global", contention=contention
                ),
            )
            stats = sim.run().stats
            results.append(
                (
                    stats.summary(),
                    [
                        (m.message.source, m.message.destination,
                         m.result.outcome.value, m.result.hops, m.finish_step)
                        for m in stats.messages
                    ],
                )
            )
        assert results[0] == results[1]


class TestTableStepping:
    """The probe table is byte-identical to the scalar per-probe oracle.

    The oracle is the plain ``RoutingProbe`` loop a simulator runs once
    ``sim._table`` is cleared, over the dict ledger that loop reads when
    contended.  ``global-information`` plans by BFS and never gets a table,
    so for it both runs take the object path.
    """

    @pytest.mark.parametrize("detour_cap", ["default", "zero"])
    @pytest.mark.parametrize("contention", [False, True])
    @pytest.mark.parametrize(
        "router", ["limited-global", "no-information", "static-block",
                   "global-information"]
    )
    def test_table_equals_oracle(self, contention, router, detour_cap, monkeypatch):
        """``detour_cap="zero"`` leaves no room for a detour bit table, so
        the table classifies through the CSR constraint-row fallback."""
        from repro.backend import VECTOR, resolve_backend
        from repro.core.decision import DecisionTables

        if detour_cap == "zero":
            monkeypatch.setattr(DecisionTables, "DETOUR_TABLE_CAP", 0)
        hosted = router != "global-information" and resolve_backend() == VECTOR
        results = []
        for table in (True, False):
            mesh, schedule, traffic = _transpose_scenario(2)
            sim = Simulator(
                mesh,
                schedule=schedule,
                traffic=traffic,
                config=SimulationConfig(router=router, contention=contention),
            )
            assert (sim._table is not None) == hosted
            if not table:
                # Run the scalar oracle, over the dict ledger it reads.
                sim._table = None
                if contention:
                    sim.circuits = LiveCircuitLedger()
            stats = sim.run().stats
            results.append(
                (
                    stats.summary(),
                    [
                        (m.message.source, m.message.destination,
                         m.result.outcome.value, m.result.hops,
                         tuple(m.result.path), m.finish_step)
                        for m in stats.messages
                    ],
                )
            )
        assert results[0] == results[1]


class TestDecisionCache:
    """A per-node decision cache never changes a routing decision."""

    @pytest.mark.parametrize(
        "router", ["limited-global", "static-block", "boundary-only",
                   "no-disabled-avoid", "no-information"]
    )
    def test_cached_equals_uncached(self, router):
        from repro.core.block_construction import build_blocks
        from repro.core.routing import DecisionCache, route_offline
        from repro.routing import resolve_router

        mesh, schedule, traffic = _transpose_scenario(2)
        faults = sorted({event.node for event in schedule.events})
        labeling = build_blocks(mesh, faults).state
        policy = resolve_router(router)
        info = policy.offline_view(mesh, labeling)
        cache = DecisionCache(info, policy.policy)  # shared across routes
        blocked = labeling.block_nodes
        pairs = [
            (m.source, m.destination)
            for m in traffic
            if m.source not in blocked and m.destination not in blocked
        ]
        assert pairs
        for source, destination in pairs:
            uncached = route_offline(info, source, destination, policy=policy.policy)
            cached = route_offline(
                info, source, destination, policy=policy.policy, decision_cache=cache
            )
            assert cached == uncached

    def test_decision_cache_tracks_information_changes(self):
        from repro.core.routing import DecisionCache, RoutingPolicy

        mesh = Mesh((5, 5))
        info = InformationState.fresh(mesh)
        cache = DecisionCache(info, RoutingPolicy.limited_global())
        before = cache.context((2, 2))
        assert cache.context((2, 2)) is before  # cached while unchanged
        info.labeling.make_faulty((2, 3))
        after = cache.context((2, 2))
        assert after is not before
        assert len(after.usable) == len(before.usable) - 1


class TestWindowedMeasurement:
    def test_low_load_accepts_everything(self):
        row = run_throughput_point(
            _cell(
                (6, 6), "limited-global", "uniform", 0.002, seed=3,
                warmup=20, measure=100, drain=150,
            )
        )
        assert row["delivery_rate"] == 1.0
        assert row["unfinished"] == 0
        assert row["accepted_throughput"] == pytest.approx(
            row["offered_load"], rel=0.35
        )
        assert 0 < row["mean_setup_latency"] <= row["p99_setup_latency"]

    def test_to_row_keys(self):
        row = run_throughput_point(
            _cell(
                (5, 5), "no-information", "uniform", 0.01, seed=0,
                warmup=10, measure=40, drain=60,
            )
        )
        for key in ("rate", "offered_load", "accepted_throughput",
                    "mean_setup_latency", "p99_setup_latency", "delivery_rate",
                    "unfinished"):
            assert key in row


class TestOpenLoopDeterminismAndParity:
    def test_same_seed_same_windowed_stats(self):
        cell = _cell(
            (6, 6), "limited-global", "transpose", 0.03, seed=9, faults=2,
            warmup=16, measure=64, drain=120,
        )
        rows = [run_throughput_point(cell) for _ in range(2)]
        assert rows[0] == rows[1]

    def test_serial_equals_parallel_batch(self):
        spec = ExperimentSpec(
            name="tp-det",
            mode="throughput",
            mesh_shapes=((6, 6),),
            policies=("limited-global", "no-information"),
            scenarios=("transpose",),
            fault_counts=(2,),
            rates=(0.01, 0.05),
            seeds=(0, 1),
            warmup=16,
            measure=64,
            drain=120,
        )
        serial = run_batch(spec, workers=1).to_json()
        parallel = run_batch(spec, workers=4).to_json()
        assert serial == parallel

    @pytest.mark.parametrize("policy", ["limited-global", "no-information"])
    def test_low_load_matches_closed_batch(self, policy):
        """Near-zero rate: open-loop latencies equal a closed-batch replay."""
        mesh = Mesh((6, 6))
        schedule = DynamicFaultSchedule.static([(2, 2)])
        config = SimulationConfig(router=policy, contention=True, max_steps=10**9)
        source = OpenLoopSource(
            mesh,
            BernoulliInjection(0.002),
            pattern="uniform",
            seed=4,
            flits=16,
            exclude=[(2, 2)],
            stop=300,
        )
        open_sim = Simulator(mesh, schedule=schedule, traffic=source, config=config)
        open_sim.run()
        open_records = {
            (m.message.source, m.message.destination, m.message.start_time):
            (m.result.outcome.value, m.result.hops, m.finish_step)
            for m in open_sim.stats.messages
        }
        assert len(open_records) >= 3  # the rate actually generated traffic

        replay = [
            TrafficMessage(source=s, destination=d, start_time=t, flits=16)
            for (s, d, t) in open_records
        ]
        closed_sim = Simulator(
            mesh,
            schedule=DynamicFaultSchedule.static([(2, 2)]),
            traffic=replay,
            config=SimulationConfig(router=policy, contention=True, max_steps=10**9),
        )
        closed_sim.run()
        closed_records = {
            (m.message.source, m.message.destination, m.message.start_time):
            (m.result.outcome.value, m.result.hops, m.finish_step)
            for m in closed_sim.stats.messages
        }
        assert open_records == closed_records


class TestSaturation:
    def _fake_measure(self, saturation_rate):
        def measure(rate):
            latency = 5.0 if rate <= saturation_rate else 80.0
            return {
                "rate": rate,
                "offered_load": rate,
                "accepted_throughput": min(rate, saturation_rate),
                "mean_setup_latency": latency,
                "p99_setup_latency": latency * 2,
                "delivery_rate": 1.0,
            }

        return measure

    def test_find_saturation_brackets_the_knee(self):
        rate, probed = find_saturation(
            self._fake_measure(0.1), low=0.01, high=0.4, iterations=8
        )
        assert 0.08 <= rate <= 0.12
        assert probed == sorted(probed, key=lambda row: row["rate"])

    def test_knee_is_the_last_row_before_saturation(self):
        measure = self._fake_measure(0.1)
        rows = [measure(rate) for rate in (0.2, 0.01, 0.05, 0.1, 0.15)]
        assert knee(rows) == measure(0.1)
        assert knee([]) is None
        # Accepting under MIN_ACCEPTANCE of the offered load saturates too,
        # even at the lowest rate.
        assert knee([dict(measure(0.2), rate=0.01)]) is None

    def test_find_saturation_validation(self):
        with pytest.raises(ValueError):
            find_saturation(self._fake_measure(0.1), low=0.5, high=0.4)

    def test_shape_checks(self):
        assert is_monotone_nondecreasing([1.0, 1.2, 1.19, 1.3], tolerance=0.1)
        assert not is_monotone_nondecreasing([1.0, 2.0, 1.0], tolerance=0.1)
        assert flattens([0.01, 0.02, 0.04, 0.08], [0.009, 0.018, 0.022, 0.023])
        assert not flattens([0.01, 0.02, 0.04, 0.08], [0.009, 0.018, 0.036, 0.072])

    def test_acceptance_curve_monotone_and_flattening(self):
        """The PR acceptance criterion: limited-global on an 8x8 mesh."""
        offered, accepted = [], []
        for rate in (0.002, 0.005, 0.01, 0.02, 0.04, 0.08):
            row = run_throughput_point(
                _cell(
                    (8, 8), "limited-global", "transpose", rate, seed=0, faults=4,
                    warmup=30, measure=120, drain=240,
                )
            )
            offered.append(row["offered_load"])
            accepted.append(row["accepted_throughput"])
        assert is_monotone_nondecreasing(accepted, tolerance=0.15)
        assert flattens(offered, accepted)

    def test_load_curves_and_rows(self):
        spec = ExperimentSpec(
            name="throughput",
            mode="throughput",
            mesh_shapes=((6, 6),),
            policies=("limited-global",),
            scenarios=("uniform",),
            fault_counts=(2,),
            rates=(0.01, 0.05),
            warmup=16,
            measure=64,
            drain=120,
        )
        rows = throughput_rows(run_batch(spec))
        curve = rows["limited-global"]
        assert [r["rate"] for r in curve] == [0.01, 0.05]
        # Both rates accept under MIN_ACCEPTANCE of their offered load.
        assert knee(curve) is None


class TestGlobalProbeTimeoutRelease:
    def test_probe_releases_after_wait_timeout(self):
        from repro.core.routing import RouteOutcome
        from repro.routing import GlobalPathProbe

        mesh = Mesh((4, 4))
        info = InformationState.fresh(mesh)
        probe = GlobalPathProbe(mesh, (0, 0), (3, 0), wait_timeout=3)
        assert probe.step(info) is None
        assert probe.current == (1, 0)

        def fence(u, v):
            return True

        for _ in range(2):
            assert probe.step(info, link_blocked=fence) is None
            assert probe.current == (1, 0)  # waiting, still holding its link
            assert probe.timeout_releases == 0
        assert probe.step(info, link_blocked=fence) is None
        assert probe.timeout_releases == 1
        assert probe.current == (0, 0)  # released the circuit, back at source
        assert probe.backtrack_hops == 1

        # Once the reservations clear, the retried setup delivers.
        for _ in range(10):
            if probe.step(info) is not None:
                break
        assert probe.outcome is RouteOutcome.DELIVERED

    def test_simulator_counts_timeout_releases(self):
        from repro.mesh.coords import canonical_link

        mesh = Mesh((4, 4))
        message = TrafficMessage(source=(0, 0), destination=(3, 3), start_time=0)
        sim = Simulator(
            mesh,
            traffic=[message],
            config=SimulationConfig(router="global-information", contention=True),
        )
        sim.step()  # probe advances one hop, holding one link
        probe = sim._probes[0][1]
        probe.wait_timeout = 2  # keep the test short
        held = {canonical_link(u, v) for u, v in zip(probe.path, probe.path[1:])}
        foreign = 10**6
        for node in mesh.nodes():
            for neighbor in mesh.neighbors(node):
                link = canonical_link(node, neighbor)
                if link not in held and not sim.circuits.is_blocked(foreign, *link):
                    sim.circuits.reserve_link(foreign, *link)
        for _ in range(4):  # fenced in: waits, then times out and releases
            sim.step()
        assert probe.timeout_releases >= 1
        sim.circuits.release(foreign)
        result = sim.run()
        assert result.stats.timeout_releases >= 1
        assert result.stats.summary()["timeout_releases"] >= 1.0
        assert result.stats.delivery_rate == 1.0


class TestThroughputSpec:
    def test_flits_and_scenario_are_axes(self):
        spec = ExperimentSpec(
            mode="simulate",
            scenarios=("random", "hotspot"),
            flits=(16, 64),
            policies=("limited-global", "no-information"),
        )
        cells = spec.cells()
        assert spec.cell_count == len(cells) == 2 * 2 * 2
        assert {c.scenario for c in cells} == {"random", "hotspot"}
        assert {c.flits for c in cells} == {16, 64}

    def test_cell_seed_policy_invariant_across_new_axes(self):
        spec = ExperimentSpec(
            mode="throughput",
            scenarios=("uniform", "transpose"),
            rates=(0.01, 0.05),
            flits=(16, 64),
            policies=("limited-global", "static-block", "no-information"),
        )
        by_config = {}
        for cell in spec.cells():
            by_config.setdefault(cell.config_key(), set()).add(cell.cell_seed)
        for seeds in by_config.values():
            assert len(seeds) == 1  # every policy shares the configuration seed
        # The rate is likewise excluded from the derivation: every point of
        # one load curve shares the same fault layout and random stream.
        by_curve = {}
        for cell in spec.cells():
            key = tuple(k for k in cell.config_key() if not isinstance(k, float))
            by_curve.setdefault(key, set()).add(cell.cell_seed)
        for seeds in by_curve.values():
            assert len(seeds) == 1
        distinct = {c.cell_seed for c in spec.cells()}
        assert len(distinct) == len(by_curve)

    def test_windows_validation(self):
        with pytest.raises(ValueError, match="measure >= 1"):
            ExperimentSpec(mode="throughput", measure=0)

    def test_throughput_mode_forces_contention(self):
        spec = ExperimentSpec(mode="throughput")
        assert spec.contention is True
        assert spec.scenarios == ("uniform",)

    def test_scenario_validation_per_mode(self):
        with pytest.raises(ValueError, match="not valid"):
            ExperimentSpec(mode="simulate", scenarios=("uniform",))
        with pytest.raises(ValueError, match="not valid"):
            ExperimentSpec(mode="throughput", scenarios=("bursty",))
        with pytest.raises(ValueError, match="not valid"):
            ExperimentSpec(mode="offline", scenarios=("hotspot",))

    def test_transpose_requires_cubic_shapes(self):
        with pytest.raises(ValueError, match="cubic"):
            ExperimentSpec(
                mode="simulate", scenarios=("transpose",), mesh_shapes=((8, 4),)
            )

    def test_rates_validation(self):
        with pytest.raises(ValueError, match="rates"):
            ExperimentSpec(mode="simulate", rates=(0.1, 0.2))
        with pytest.raises(ValueError, match="rates"):
            ExperimentSpec(mode="throughput", rates=(0.0,))

    def test_scenario_axis_runs_in_simulate_mode(self):
        spec = ExperimentSpec(
            mode="simulate",
            mesh_shapes=((6, 6),),
            scenarios=("hotspot", "bursty"),
            fault_counts=(2,),
            traffic_sizes=(6,),
        )
        batch = run_batch(spec)
        assert len(batch) == 2
        for result in batch.results:
            assert result.metrics["messages"] > 0


class TestThroughputCli:
    def test_throughput_command_prints_curve(self, capsys):
        from repro.cli import main

        code = main(
            [
                "throughput", "--shape", "6,6", "--policy", "limited-global",
                "--scenario", "transpose", "--rates", "0.01,0.05",
                "--faults", "2", "--warmup", "16", "--measure", "64",
                "--drain", "120",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "policy limited-global:" in out
        assert "accepted" in out

    def test_throughput_command_writes_json(self, capsys, tmp_path):
        import json

        from repro.cli import main

        out_path = tmp_path / "curve.json"
        code = main(
            [
                "throughput", "--shape", "5,5", "--policy", "no-information",
                "--rates", "0.01", "--faults", "0", "--warmup", "8",
                "--measure", "32", "--drain", "60", "--out", str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["spec"]["mode"] == "throughput"
        assert payload["cells"][0]["rate"] == 0.01

    #: One cell with dynamic faults and repairs, small enough for tier-1.
    FAULT_CELL = [
        "throughput", "--shape", "6,6", "--policy", "limited-global",
        "--rates", "0.03", "--faults", "2", "--seeds", "3",
        "--warmup", "16", "--measure", "64", "--drain", "120",
        "--fault-rate", "0.05", "--repair-after", "24",
    ]

    def test_trace_out_prints_the_curve_row(self, capsys, tmp_path):
        from repro.cli import main

        assert main(self.FAULT_CELL) == 0
        curve = capsys.readouterr().out.splitlines()
        trace = tmp_path / "trace.jsonl"
        assert main(self.FAULT_CELL + ["--trace-out", str(trace)]) == 0
        traced = capsys.readouterr().out.splitlines()
        # policy line, header and the one row: the trace records the very
        # cell the curve prints.
        assert traced[:3] == curve[:3]
        assert "SLO over" in traced[3]
        assert trace.read_text().count("\n") > 0

    def test_saturation_probes_are_the_spec_cells(self, capsys, monkeypatch):
        import contextlib
        import io
        from dataclasses import replace

        from repro import cli
        from repro.experiments import SPEC_SCHEMA, run_cell

        probed = []
        real = cli.run_cell

        def spy(cell):
            probed.append(cell)
            return real(cell)

        monkeypatch.setattr(cli, "run_cell", spy)
        policies = ["limited-global", "no-information"]
        code = cli.main(
            [
                "throughput", "--shape", "5,5", "--policy", ",".join(policies),
                "--faults", "1", "--warmup", "8",
                "--measure", "32", "--drain", "60", "--saturation",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        spec = ExperimentSpec.from_dict(
            {
                "schema": SPEC_SCHEMA, "name": "throughput",
                "mode": "throughput", "mesh_shapes": [[5, 5]],
                "policies": policies, "fault_counts": [1],
                "rates": list(cli.DEFAULT_RATES),
                "warmup": 8, "measure": 32, "drain": 60,
            }
        )
        cells = {}
        for cell in spec.cells():
            cells.setdefault(cell.policy, cell)  # each policy's first cell
        assert [c.policy for c in probed] == [p for p in policies for _ in range(8)]
        for cell in probed:
            assert cell == replace(cells[cell.policy], rate=cell.rate)
            expected = io.StringIO()
            with contextlib.redirect_stdout(expected):
                cli._print_curve(cell.policy, [run_cell(cell).metrics])
            row = expected.getvalue().splitlines()[-1]
            block = out.split(f"policy {cell.policy}:\n", 1)[1]
            assert row in block.split("policy ", 1)[0]

    def test_spec_errors_exit_2(self, capsys, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["throughput", "--shape", "5,5", "--rates", "0"])
        assert exc.value.code == 2
        assert "rates must be within (0, 1]" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(
                ["throughput", "--shape", "5,5", "--rates", "0.01",
                 "--seeds", "0,1", "--trace-out", str(tmp_path / "t.jsonl")]
            )
        assert exc.value.code == 2
        assert "--trace-out records one cell" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()


class TestEngineLabelingSkip:
    """The stable-labeling skip must not change any statistic."""

    def test_dynamic_schedule_stats_unchanged_by_skip(self):
        class NoSkipSimulator(Simulator):
            """Forces a real labeling round every step (the pre-skip engine)."""

            def step(self):
                self._labeling_stable = False
                super().step()

        (cell,) = ExperimentSpec(
            mode="simulate", mesh_shapes=((6, 6),), fault_counts=(3,),
            fault_intervals=(7,), traffic_sizes=(8,),
        ).cells()

        def run(cls):
            mesh, schedule, traffic = simulate_scenario(replace(cell, cell_seed=11))
            sim = cls(
                mesh,
                schedule=schedule,
                traffic=traffic,
                config=SimulationConfig(router="limited-global"),
            )
            stats = sim.run().stats
            return (
                stats.summary(),
                stats.total_rounds,
                [(c.labeling_rounds, c.total_rounds) for c in stats.convergence],
            )

        assert run(Simulator) == run(NoSkipSimulator)
