"""Load–latency curves and the saturation-point search.

Two complementary tools on top of the windowed open-loop measurement:

* :func:`load_curves` sweeps a fixed list of injection rates for every
  policy **through the experiment grid** (:func:`repro.experiments.run_batch`
  with a ``throughput``-mode :class:`~repro.experiments.spec.ExperimentSpec`),
  so curves inherit the runner's determinism contract — serial and
  multi-process sweeps produce byte-identical JSON — and return per-policy
  :class:`LoadCurve` objects;
* :func:`find_saturation` binary-searches the injection rate to the *knee*
  of the latency curve: the largest rate whose mean setup latency stays
  under ``latency_factor`` times the zero-load latency while the network
  still accepts at least ``min_acceptance`` of the offered load.

The conventional definition of saturation throughput is the accepted
throughput at that knee; past it the accepted curve flattens while latency
(and the unfinished backlog) grows without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.throughput.measure import (
    MeasurementWindows,
    ThroughputResult,
    run_throughput_point,
)


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
    def from_result(cls, result: ThroughputResult) -> "LoadPoint":
        return cls(
            rate=result.rate,
            offered_load=result.offered_load,
            accepted_throughput=result.accepted_throughput,
            mean_setup_latency=result.mean_setup_latency,
            p99_setup_latency=result.p99_setup_latency,
            delivery_rate=result.delivery_rate,
        )

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

    def knee(
        self, *, latency_factor: float = 3.0, min_acceptance: float = 0.9
    ) -> Optional[LoadPoint]:
        """Last point before saturation, or ``None`` if every point is past it.

        Saturation is detected against the curve's own zero-load latency
        (the first point's mean latency): a point saturates when its mean
        latency exceeds ``latency_factor`` times zero-load, or when accepted
        throughput falls under ``min_acceptance`` of offered.
        """
        if not self.points:
            return None
        zero_load = self.points[0].mean_setup_latency
        knee: Optional[LoadPoint] = None
        for point in self.points:
            if _saturated(point, zero_load, latency_factor, min_acceptance):
                break
            knee = point
        return knee


def _saturated(
    point: LoadPoint,
    zero_load_latency: float,
    latency_factor: float,
    min_acceptance: float,
) -> bool:
    if zero_load_latency > 0 and point.mean_setup_latency > (
        latency_factor * zero_load_latency
    ):
        return True
    if point.offered_load > 0 and (
        point.accepted_throughput < min_acceptance * point.offered_load
    ):
        return True
    return False


def load_curves(
    shape: Sequence[int],
    policies: Sequence[str],
    rates: Sequence[float],
    *,
    pattern: str = "uniform",
    faults: int = 0,
    lam: int = 2,
    flits: int = 64,
    seeds: Sequence[int] = (0,),
    injection: str = "bernoulli",
    windows: Optional[MeasurementWindows] = None,
    workers: int = 1,
    name: str = "throughput",
    fault_rate: float = 0.0,
    repair_after: int = 0,
):
    """Per-policy load curves via the experiment grid.

    Returns ``(batch, curves)``: the raw
    :class:`~repro.experiments.results.BatchResult` (canonical JSON export,
    worker-count independent) and a ``{policy: LoadCurve}`` mapping with
    replicate seeds averaged per rate.  ``fault_rate``/``repair_after``
    switch on the dynamic MTBF fault workload inside every cell's
    measurement window (see :func:`~repro.throughput.measure.run_throughput_point`).
    """
    # Imported here so repro.throughput stays importable without pulling the
    # experiments package in (and to keep the import graph acyclic).
    from repro.analysis.throughput import throughput_rows
    from repro.experiments import ExperimentSpec, run_batch

    windows = windows or MeasurementWindows()
    spec = ExperimentSpec(
        name=name,
        mode="throughput",
        mesh_shapes=(tuple(shape),),
        policies=tuple(policies),
        scenarios=(pattern,),
        fault_counts=(faults,),
        lams=(lam,),
        flits=(flits,),
        rates=tuple(rates),
        seeds=tuple(seeds),
        injection=injection,
        warmup=windows.warmup,
        measure=windows.measure,
        drain=windows.drain,
        fault_rates=(fault_rate,),
        repair_after=repair_after,
    )
    batch = run_batch(spec, workers=workers)
    rows = throughput_rows(batch)  # single source of replicate averaging
    curves: Dict[str, LoadCurve] = {
        policy: LoadCurve(
            policy=policy,
            points=tuple(LoadPoint.from_metrics(row) for row in rows[policy]),
        )
        for policy in policies
    }
    return batch, curves


def find_saturation(
    measure: Callable[[float], ThroughputResult],
    *,
    low: float = 0.005,
    high: float = 0.5,
    iterations: int = 7,
    latency_factor: float = 3.0,
    min_acceptance: float = 0.9,
) -> Tuple[float, List[LoadPoint]]:
    """Binary-search the knee of the latency curve.

    ``measure`` maps an injection rate to a :class:`ThroughputResult` (use a
    :func:`functools.partial` over :func:`run_throughput_point`).  The
    zero-load latency is taken at ``low``; the search then halves the
    bracket ``iterations`` times, keeping rates that are not yet saturated.
    Returns the largest non-saturated rate found and every probed point
    (ascending by rate) for plotting.
    """
    if not 0.0 < low < high:
        raise ValueError("need 0 < low < high")
    baseline = measure(low)
    zero_load = baseline.mean_setup_latency
    probed: List[LoadPoint] = [LoadPoint.from_result(baseline)]
    best = low
    lo, hi = low, high
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        point = LoadPoint.from_result(measure(mid))
        probed.append(point)
        if _saturated(point, zero_load, latency_factor, min_acceptance):
            hi = mid
        else:
            lo = mid
            best = max(best, mid)
    probed.sort(key=lambda p: p.rate)
    return best, probed


def saturation_for_policy(
    shape: Sequence[int],
    policy: str,
    *,
    pattern: str = "uniform",
    faults: int = 0,
    lam: int = 2,
    flits: int = 64,
    seed: int = 0,
    injection: str = "bernoulli",
    windows: Optional[MeasurementWindows] = None,
    low: float = 0.005,
    high: float = 0.5,
    iterations: int = 7,
    latency_factor: float = 3.0,
    min_acceptance: float = 0.9,
    fault_rate: float = 0.0,
    repair_after: int = 0,
) -> Tuple[float, List[LoadPoint]]:
    """Convenience: :func:`find_saturation` over :func:`run_throughput_point`."""

    def measure(rate: float) -> ThroughputResult:
        return run_throughput_point(
            shape,
            policy,
            pattern,
            rate,
            faults=faults,
            lam=lam,
            flits=flits,
            seed=seed,
            injection=injection,
            windows=windows,
            fault_rate=fault_rate,
            repair_after=repair_after,
        )

    return find_saturation(
        measure,
        low=low,
        high=high,
        iterations=iterations,
        latency_factor=latency_factor,
        min_acceptance=min_acceptance,
    )
