"""Load–latency curves and the saturation-point search.

Two tools on top of the windowed open-loop measurement:

* :class:`LoadCurve` holds a policy's points by ascending rate (the
  ``repro-mesh throughput`` curve builds one from
  :func:`~repro.analysis.throughput.throughput_rows` of a throughput-mode
  batch) and finds its *knee*;
* :func:`find_saturation` binary-searches the injection rate to the knee
  of the latency curve: the largest rate whose mean setup latency stays
  under :data:`LATENCY_FACTOR` times the zero-load latency while the
  network still accepts at least :data:`MIN_ACCEPTANCE` of the offered
  load.  ``repro-mesh throughput --saturation`` runs it over one spec
  cell per policy, varying only the cell's rate, and reads each probe's
  metric row from :func:`~repro.experiments.runner.run_cell`.

The conventional definition of saturation throughput is the accepted
throughput at that knee; past it the accepted curve flattens while latency
(and the unfinished backlog) grows without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: A point saturates when its mean setup latency exceeds ``LATENCY_FACTOR``
#: times the zero-load latency, or when the network accepts less than
#: ``MIN_ACCEPTANCE`` of the offered load.
LATENCY_FACTOR = 3.0
MIN_ACCEPTANCE = 0.9


@dataclass(frozen=True)
class LoadPoint:
    """One (offered rate, measured outcome) point of a load curve."""

    rate: float
    offered_load: float
    accepted_throughput: float
    mean_setup_latency: float
    p99_setup_latency: float
    delivery_rate: float

    @classmethod
    def from_metrics(cls, metrics: Dict[str, float]) -> "LoadPoint":
        """Rebuild a point from an experiment cell's metric row."""
        return cls(
            rate=metrics["rate"],
            offered_load=metrics["offered_load"],
            accepted_throughput=metrics["accepted_throughput"],
            mean_setup_latency=metrics["mean_setup_latency"],
            p99_setup_latency=metrics["p99_setup_latency"],
            delivery_rate=metrics["delivery_rate"],
        )


@dataclass(frozen=True)
class LoadCurve:
    """A policy's load–latency/throughput curve, points by ascending rate."""

    policy: str
    points: Tuple[LoadPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "points", tuple(sorted(self.points, key=lambda p: p.rate))
        )

    def knee(self) -> Optional[LoadPoint]:
        """Last point before saturation, or ``None`` if every point is past it.

        Saturation is detected against the curve's own zero-load latency
        (the first point's mean latency).
        """
        if not self.points:
            return None
        zero_load = self.points[0].mean_setup_latency
        knee: Optional[LoadPoint] = None
        for point in self.points:
            if _saturated(point, zero_load):
                break
            knee = point
        return knee


def _saturated(point: LoadPoint, zero_load_latency: float) -> bool:
    if zero_load_latency > 0 and point.mean_setup_latency > (
        LATENCY_FACTOR * zero_load_latency
    ):
        return True
    if point.offered_load > 0 and (
        point.accepted_throughput < MIN_ACCEPTANCE * point.offered_load
    ):
        return True
    return False


def find_saturation(
    measure: Callable[[float], Dict[str, float]],
    *,
    low: float = 0.005,
    high: float = 0.5,
    iterations: int = 7,
) -> Tuple[float, List[LoadPoint]]:
    """Binary-search the knee of the latency curve.

    ``measure`` maps an injection rate to a throughput cell's metric row
    (the CLI passes :func:`~repro.experiments.runner.run_cell` of one cell
    with its rate replaced).  The zero-load latency is taken at ``low``;
    the search then halves the bracket ``iterations`` times, keeping rates
    that are not yet saturated.  Returns the largest non-saturated rate
    found and every probed point (ascending by rate) for plotting.
    """
    if not 0.0 < low < high:
        raise ValueError("need 0 < low < high")
    baseline = LoadPoint.from_metrics(measure(low))
    zero_load = baseline.mean_setup_latency
    probed: List[LoadPoint] = [baseline]
    best = low
    lo, hi = low, high
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        point = LoadPoint.from_metrics(measure(mid))
        probed.append(point)
        if _saturated(point, zero_load):
            hi = mid
        else:
            lo = mid
            best = max(best, mid)
    probed.sort(key=lambda p: p.rate)
    return best, probed
