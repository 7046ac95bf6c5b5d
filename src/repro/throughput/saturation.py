"""Load-curve knees and the saturation-point search.

Two tools over throughput metric rows (the rows
:func:`~repro.experiments.runner.run_cell` lands for throughput cells):

* :func:`knee` finds the last row of a load curve before saturation (the
  ``repro-mesh throughput`` curve reads its rows from
  :func:`~repro.analysis.throughput.throughput_rows` of a throughput-mode
  batch);
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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A point saturates when its mean setup latency exceeds ``LATENCY_FACTOR``
#: times the zero-load latency, or when the network accepts less than
#: ``MIN_ACCEPTANCE`` of the offered load.
LATENCY_FACTOR = 3.0
MIN_ACCEPTANCE = 0.9

Row = Dict[str, float]


def knee(rows: Sequence[Row]) -> Optional[Row]:
    """Last row before saturation, by ascending rate; ``None`` if every row
    is past it.

    Saturation is detected against the curve's own zero-load latency
    (the lowest rate's mean latency).
    """
    ordered = sorted(rows, key=lambda row: row["rate"])
    if not ordered:
        return None
    zero_load = ordered[0]["mean_setup_latency"]
    last: Optional[Row] = None
    for row in ordered:
        if _saturated(row, zero_load):
            break
        last = row
    return last


def _saturated(row: Row, zero_load_latency: float) -> bool:
    if zero_load_latency > 0 and row["mean_setup_latency"] > (
        LATENCY_FACTOR * zero_load_latency
    ):
        return True
    if row["offered_load"] > 0 and (
        row["accepted_throughput"] < MIN_ACCEPTANCE * row["offered_load"]
    ):
        return True
    return False


def find_saturation(
    measure: Callable[[float], Row],
    *,
    low: float = 0.005,
    high: float = 0.5,
    iterations: int = 7,
) -> Tuple[float, List[Row]]:
    """Binary-search the knee of the latency curve.

    ``measure`` maps an injection rate to a throughput cell's metric row
    (the CLI passes :func:`~repro.experiments.runner.run_cell` of one cell
    with its rate replaced).  The zero-load latency is taken at ``low``;
    the search then halves the bracket ``iterations`` times, keeping rates
    that are not yet saturated.  Returns the largest non-saturated rate
    found and every probed row (ascending by rate) for plotting.
    """
    if not 0.0 < low < high:
        raise ValueError("need 0 < low < high")
    baseline = measure(low)
    zero_load = baseline["mean_setup_latency"]
    probed: List[Row] = [baseline]
    best = low
    lo, hi = low, high
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        row = measure(mid)
        probed.append(row)
        if _saturated(row, zero_load):
            hi = mid
        else:
            lo = mid
            best = max(best, mid)
    probed.sort(key=lambda row: row["rate"])
    return best, probed
