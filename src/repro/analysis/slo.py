"""Recovery SLOs: per-fault-event transient cost of a measured run.

When a fault fires under load the network pays a transient: delivered
throughput dips while torn-down circuits retry, setup latency spikes while
probes detour around the not-yet-labeled block, and some in-transfer
circuits are dropped outright.  This module quantifies that transient per
event from per-step series (the :class:`~repro.obs.recorder.StepRecorder`
delta columns, or the equivalent series of a JSONL trace):

* **dip depth** — fraction of the pre-event delivered-throughput baseline
  lost at the deepest point of the post-event trough;
* **time to recover** — steps until smoothed throughput is back within
  ``recover_fraction`` (default 90%) of the baseline; ``-1`` when it never
  gets there inside the recorded window;
* **p99 setup-latency excursion** — post-event p99 minus pre-event p99
  over the delivered messages finishing near the event;
* **fault-dropped circuits** — in-transfer circuits torn down by the event.

Everything here is pure series arithmetic — no simulator imports — so the
same code scores a live recorder, a parsed trace, and the synthetic series
in the unit tests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "EventSlo",
    "RecoverySlo",
    "compute_recovery_slo",
    "event_transient",
    "moving_average",
    "p99_excursion",
]

#: Steps of pre-event history used for the throughput / latency baseline.
DEFAULT_BASELINE_WINDOW = 32
#: Trailing moving-average window applied before dip/recovery detection.
DEFAULT_SMOOTH = 8
#: Recovered = smoothed throughput back within this fraction of baseline.
DEFAULT_RECOVER_FRACTION = 0.9
#: Steps of post-event history scanned for the latency excursion.
DEFAULT_EXCURSION_WINDOW = 64


def moving_average(series: Sequence[float], window: int) -> List[float]:
    """Trailing moving average: mean of the last ``window`` values at each step."""
    if window < 1:
        raise ValueError("window must be at least 1")
    out: List[float] = []
    running = 0.0
    for i, value in enumerate(series):
        running += float(value)
        if i >= window:
            running -= float(series[i - window])
        out.append(running / min(i + 1, window))
    return out


def _p99(values: List[float]) -> float:
    """Nearest-rank p99 of an unsorted list (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, int(0.99 * len(ordered) + 0.5) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def event_transient(
    series: Sequence[float],
    t: int,
    *,
    baseline_window: int = DEFAULT_BASELINE_WINDOW,
    smooth: int = DEFAULT_SMOOTH,
    recover_fraction: float = DEFAULT_RECOVER_FRACTION,
) -> Tuple[float, float, int]:
    """Transient of one event at step ``t`` against a per-step series.

    Returns ``(baseline, dip_depth, time_to_recover)``.  The series is
    smoothed with a trailing ``smooth``-step moving average; the baseline
    is the smoothed mean over the ``baseline_window`` steps before ``t``;
    recovery is the first step at or after ``t`` where the smoothed series
    is back at ``recover_fraction * baseline`` (``-1`` when that never
    happens inside the series); the dip depth is measured at the deepest
    trough between the event and the recovery (or the series end).

    With no usable pre-event history (``t == 0`` or a zero baseline) there
    is nothing to dip from: the transient is ``(baseline, 0.0, 0)``.
    """
    _check_event(t, recover_fraction)
    if t >= len(series):
        return 0.0, 0.0, -1
    return _transient(moving_average(series, smooth), t, baseline_window, recover_fraction)


def _check_event(t: int, recover_fraction: float) -> None:
    if t < 0:
        raise ValueError("event step must be non-negative")
    if not 0.0 < recover_fraction <= 1.0:
        raise ValueError("recover_fraction must be within (0, 1]")


def _transient(
    smoothed: List[float], t: int, baseline_window: int, recover_fraction: float
) -> Tuple[float, float, int]:
    """:func:`event_transient` over an already smoothed series (``t`` in range)."""
    pre = smoothed[max(0, t - baseline_window) : t]
    baseline = sum(pre) / len(pre) if pre else 0.0
    if baseline <= 0.0:
        return baseline, 0.0, 0
    threshold = recover_fraction * baseline
    recover_at = -1
    for u in range(t, len(smoothed)):
        if smoothed[u] >= threshold:
            recover_at = u
            break
    trough_slice = smoothed[t : recover_at + 1] if recover_at >= 0 else smoothed[t:]
    trough = min(trough_slice) if trough_slice else baseline
    dip_depth = max(0.0, (baseline - trough) / baseline)
    time_to_recover = recover_at - t if recover_at >= 0 else -1
    return baseline, dip_depth, time_to_recover


def p99_excursion(
    latencies_by_finish: Sequence[Tuple[int, float]],
    t: int,
    *,
    baseline_window: int = DEFAULT_BASELINE_WINDOW,
    excursion_window: int = DEFAULT_EXCURSION_WINDOW,
) -> float:
    """Post-event p99 setup latency minus the pre-event p99.

    ``latencies_by_finish`` pairs each delivered message's finish step with
    its setup latency.  Either side empty means there is no comparison to
    make and the excursion is 0.
    """
    pre = [lat for f, lat in latencies_by_finish if t - baseline_window <= f < t]
    post = [lat for f, lat in latencies_by_finish if t <= f < t + excursion_window]
    return _excursion(pre, post)


def _excursion(pre: List[float], post: List[float]) -> float:
    if not pre or not post:
        return 0.0
    return _p99(post) - _p99(pre)


@dataclass(frozen=True)
class EventSlo:
    """Transient cost of one fault event."""

    time: int
    node: Tuple[int, ...]
    baseline: float
    dip_depth: float
    #: Steps from the event until throughput is back within the recovery
    #: fraction of baseline; ``-1`` = never inside the recorded window.
    time_to_recover: int
    p99_excursion: float
    fault_dropped: int

    @property
    def recovered(self) -> bool:
        return self.time_to_recover >= 0


@dataclass(frozen=True)
class RecoverySlo:
    """All fault-event transients of one run, with worst-case aggregates."""

    events: Tuple[EventSlo, ...]

    @property
    def dip_depth(self) -> float:
        """Deepest throughput dip across events (0.0 with no events)."""
        return max((e.dip_depth for e in self.events), default=0.0)

    @property
    def time_to_recover(self) -> int:
        """Slowest recovery across events; ``-1`` if any event never recovers."""
        if any(not e.recovered for e in self.events):
            return -1
        return max((e.time_to_recover for e in self.events), default=0)

    @property
    def p99_excursion(self) -> float:
        return max((e.p99_excursion for e in self.events), default=0.0)

    @property
    def fault_dropped(self) -> int:
        return sum(e.fault_dropped for e in self.events)

    def summary(self) -> Dict[str, float]:
        """Flat floats, shaped for a result row / report line."""
        return {
            "fault_events": float(len(self.events)),
            "fault_dropped": float(self.fault_dropped),
            "slo_dip_depth": self.dip_depth,
            "slo_time_to_recover": float(self.time_to_recover),
            "slo_p99_excursion": self.p99_excursion,
        }


def compute_recovery_slo(
    delivered: Sequence[float],
    fault_dropped: Sequence[float],
    events: Sequence[Tuple[int, Tuple[int, ...]]],
    *,
    latencies_by_finish: Sequence[Tuple[int, float]] = (),
    baseline_window: int = DEFAULT_BASELINE_WINDOW,
    smooth: int = DEFAULT_SMOOTH,
    recover_fraction: float = DEFAULT_RECOVER_FRACTION,
    excursion_window: int = DEFAULT_EXCURSION_WINDOW,
) -> RecoverySlo:
    """Score every fault event against the run's per-step series.

    ``delivered`` and ``fault_dropped`` are per-step delta series (deliveries
    and fault-dropped circuits during each step); ``events`` lists the FAULT
    events as ``(step, node)`` in time order.  Dropped circuits are
    attributed to the most recent event at or before their step.
    """
    ordered = sorted((int(t), tuple(node)) for t, node in events)
    # One smoothing pass and one finish-sorted copy of the latencies serve
    # every event: each event then scores from slices of them.
    smoothed: Optional[List[float]] = None
    by_finish = sorted(latencies_by_finish, key=lambda pair: pair[0])
    finishes = [f for f, _lat in by_finish]
    latencies = [lat for _f, lat in by_finish]
    scored: List[EventSlo] = []
    for i, (t, node) in enumerate(ordered):
        _check_event(t, recover_fraction)
        if t >= len(delivered):
            baseline, dip, ttr = 0.0, 0.0, -1
        else:
            if smoothed is None:
                smoothed = moving_average(delivered, smooth)
            baseline, dip, ttr = _transient(smoothed, t, baseline_window, recover_fraction)
        window_end = ordered[i + 1][0] if i + 1 < len(ordered) else len(fault_dropped)
        dropped = int(sum(fault_dropped[t:window_end]))
        lo = bisect_left(finishes, t - baseline_window)
        mid = bisect_left(finishes, t)
        hi = bisect_left(finishes, t + excursion_window)
        scored.append(
            EventSlo(
                time=t,
                node=node,
                baseline=baseline,
                dip_depth=dip,
                time_to_recover=ttr,
                p99_excursion=_excursion(latencies[lo:mid], latencies[mid:hi]),
                fault_dropped=dropped,
            )
        )
    return RecoverySlo(events=tuple(scored))
