"""Unit tests for :mod:`repro.analysis.slo` on synthetic series.

The SLO module is pure series arithmetic, so every behaviour — dips,
recoveries, never-recovers sentinels, overlapping events, latency
excursions — can be pinned with hand-built series whose answers are known
exactly.
"""

import random

import pytest

from repro.analysis.slo import (
    EventSlo,
    RecoverySlo,
    compute_recovery_slo,
    event_transient,
    moving_average,
    p99_excursion,
)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        series = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert moving_average(series, 1) == series

    def test_trailing_mean(self):
        series = [2.0, 4.0, 6.0, 8.0]
        # Window 2: first value averages only itself.
        assert moving_average(series, 2) == [2.0, 3.0, 5.0, 7.0]

    def test_warmup_divides_by_samples_seen(self):
        assert moving_average([4.0, 8.0], 10) == [4.0, 6.0]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)


class TestEventTransient:
    def _step_down_series(self, *, pre=2.0, post=0.0, at=50, length=100):
        return [pre] * at + [post] * (length - at)

    def test_full_dip_never_recovers(self):
        series = self._step_down_series()
        baseline, dip, ttr = event_transient(series, 50, smooth=1)
        assert baseline == pytest.approx(2.0)
        assert dip == pytest.approx(1.0)
        assert ttr == -1

    def test_recovery_detected_at_threshold(self):
        # Dip to zero for 10 steps, then back to the old level.
        series = [2.0] * 50 + [0.0] * 10 + [2.0] * 40
        baseline, dip, ttr = event_transient(series, 50, smooth=1)
        assert baseline == pytest.approx(2.0)
        assert dip == pytest.approx(1.0)
        assert ttr == 10  # first step at/above 0.9 * baseline

    def test_partial_dip_within_threshold_is_instant_recovery(self):
        # Drop only to 95% of baseline: never below the recovery threshold.
        series = [2.0] * 50 + [1.9] * 50
        baseline, dip, ttr = event_transient(series, 50, smooth=1)
        assert ttr == 0
        assert dip == pytest.approx(0.05)  # shallow, but still measured

    def test_zero_baseline_yields_no_transient(self):
        series = [0.0] * 50 + [1.0] * 50
        baseline, dip, ttr = event_transient(series, 50, smooth=1)
        assert (baseline, dip, ttr) == (0.0, 0.0, 0)

    def test_event_past_series_end(self):
        assert event_transient([1.0] * 10, 10) == (0.0, 0.0, -1)

    def test_event_at_step_zero_has_no_baseline(self):
        assert event_transient([1.0] * 10, 0, smooth=1) == (0.0, 0.0, 0)

    def test_smoothing_spreads_the_trough(self):
        # A single zero step barely dents the 4-step smoothed series.
        series = [2.0] * 50 + [0.0] + [2.0] * 49
        _, dip_smooth, _ = event_transient(series, 50, smooth=4)
        _, dip_raw, _ = event_transient(series, 50, smooth=1)
        assert dip_raw == pytest.approx(1.0)
        assert 0.0 < dip_smooth < dip_raw

    def test_validation(self):
        with pytest.raises(ValueError):
            event_transient([1.0], -1)
        with pytest.raises(ValueError):
            event_transient([1.0], 0, recover_fraction=0.0)
        with pytest.raises(ValueError):
            event_transient([1.0], 0, recover_fraction=1.5)


class TestP99Excursion:
    def test_post_minus_pre(self):
        pairs = [(t, 10.0) for t in range(40, 50)] + [
            (t, 30.0) for t in range(50, 60)
        ]
        assert p99_excursion(pairs, 50) == pytest.approx(20.0)

    def test_empty_side_is_zero(self):
        post_only = [(t, 30.0) for t in range(50, 60)]
        assert p99_excursion(post_only, 50) == 0.0
        pre_only = [(t, 10.0) for t in range(40, 50)]
        assert p99_excursion(pre_only, 50) == 0.0
        assert p99_excursion([], 50) == 0.0

    def test_windows_bound_the_comparison(self):
        pairs = [(0, 999.0), (49, 10.0), (50, 30.0), (500, 999.0)]
        # The outliers fall outside both windows.
        assert p99_excursion(pairs, 50) == pytest.approx(20.0)


class TestRecoverySlo:
    def test_aggregates_are_worst_case(self):
        slo = RecoverySlo(
            events=(
                EventSlo(10, (1, 1), 2.0, 0.3, 5, 4.0, 1),
                EventSlo(40, (2, 2), 2.0, 0.8, 12, 9.0, 2),
            )
        )
        assert slo.dip_depth == pytest.approx(0.8)
        assert slo.time_to_recover == 12
        assert slo.p99_excursion == pytest.approx(9.0)
        assert slo.fault_dropped == 3

    def test_any_unrecovered_event_poisons_the_aggregate(self):
        slo = RecoverySlo(
            events=(
                EventSlo(10, (1, 1), 2.0, 0.3, 5, 0.0, 0),
                EventSlo(40, (2, 2), 2.0, 1.0, -1, 0.0, 0),
            )
        )
        assert slo.time_to_recover == -1
        assert not slo.events[1].recovered
        assert slo.summary()["slo_time_to_recover"] == -1.0

    def test_empty_run(self):
        slo = RecoverySlo(events=())
        assert slo.dip_depth == 0.0
        assert slo.time_to_recover == 0
        assert slo.summary()["fault_events"] == 0.0


class TestComputeRecoverySlo:
    def test_single_event_end_to_end(self):
        delivered = [2.0] * 50 + [0.0] * 10 + [2.0] * 40
        dropped = [0.0] * 100
        dropped[50] = 3.0
        slo = compute_recovery_slo(
            delivered, dropped, [(50, (4, 4))], smooth=1
        )
        assert len(slo.events) == 1
        event = slo.events[0]
        assert event.node == (4, 4)
        assert event.dip_depth == pytest.approx(1.0)
        assert event.time_to_recover == 10
        assert event.fault_dropped == 3

    def test_overlapping_events_attribute_drops_by_window(self):
        # Second fault fires while the first transient is still open:
        # drops between the events belong to the first, later ones to
        # the second, and each event scores its own transient.
        delivered = [2.0] * 50 + [0.0] * 30 + [2.0] * 20
        dropped = [0.0] * 100
        dropped[52] = 1.0  # after event 1, before event 2
        dropped[70] = 2.0  # after event 2
        slo = compute_recovery_slo(
            delivered, dropped, [(60, (2, 2)), (50, (1, 1))], smooth=1
        )
        # Events are scored in time order regardless of input order.
        assert [e.time for e in slo.events] == [50, 60]
        assert slo.events[0].fault_dropped == 1
        assert slo.events[1].fault_dropped == 2
        assert slo.events[0].time_to_recover == 30
        # Event 2's 32-step baseline window straddles the outage start:
        # 22 healthy steps at 2.0 and 10 at 0.0 average to a depressed
        # baseline, against which the still-zero throughput is a full dip.
        assert slo.events[1].baseline == pytest.approx(22 * 2.0 / 32)
        assert slo.events[1].dip_depth == pytest.approx(1.0)
        assert slo.events[1].time_to_recover == 20
        assert slo.dip_depth == pytest.approx(1.0)
        assert slo.fault_dropped == 3

    def test_never_recovers_run(self):
        delivered = [2.0] * 50 + [0.0] * 50
        slo = compute_recovery_slo(
            delivered, [0.0] * 100, [(50, (3, 3))], smooth=1
        )
        assert slo.time_to_recover == -1
        assert not slo.events[0].recovered

    def test_latencies_flow_into_excursion(self):
        delivered = [2.0] * 100
        latencies = [(t, 10.0) for t in range(40, 50)] + [
            (t, 25.0) for t in range(50, 60)
        ]
        slo = compute_recovery_slo(
            delivered,
            [0.0] * 100,
            [(50, (3, 3))],
            latencies_by_finish=latencies,
            smooth=1,
        )
        assert slo.events[0].p99_excursion == pytest.approx(15.0)


class TestScoringMatchesPerEventOracle:
    """``compute_recovery_slo`` smooths once and windows one finish-sorted
    copy of the latencies; the public per-event functions are its oracle,
    and every field must match them exactly."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_series(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 300)
        delivered = [rng.choice([0.0, 1.0, rng.random() * 3]) for _ in range(n)]
        dropped = [float(rng.randint(0, 2)) for _ in range(n)]
        events = [
            (rng.randint(0, n + 10), (rng.randint(0, 7), rng.randint(0, 7)))
            for _ in range(rng.randint(0, 8))
        ]
        latencies = [
            (rng.randint(0, n), float(rng.randint(1, 60)))
            for _ in range(rng.randint(0, 150))
        ]
        windows = dict(
            baseline_window=rng.randint(1, 40),
            smooth=rng.randint(1, 10),
            recover_fraction=rng.choice([0.5, 0.9, 1.0]),
        )
        excursion_window = rng.randint(1, 80)
        slo = compute_recovery_slo(
            delivered,
            dropped,
            events,
            latencies_by_finish=latencies,
            excursion_window=excursion_window,
            **windows,
        )
        ordered = sorted(events)
        expected = []
        for i, (t, node) in enumerate(ordered):
            baseline, dip, ttr = event_transient(delivered, t, **windows)
            end = ordered[i + 1][0] if i + 1 < len(ordered) else len(dropped)
            expected.append(
                EventSlo(
                    time=t,
                    node=node,
                    baseline=baseline,
                    dip_depth=dip,
                    time_to_recover=ttr,
                    p99_excursion=p99_excursion(
                        latencies,
                        t,
                        baseline_window=windows["baseline_window"],
                        excursion_window=excursion_window,
                    ),
                    fault_dropped=int(sum(dropped[t:end])),
                )
            )
        assert slo == RecoverySlo(events=tuple(expected))
