"""Analysis of open-loop throughput sweeps.

:func:`throughput_rows` turns a ``throughput``-mode
:class:`~repro.experiments.results.BatchResult` into per-policy load-curve
rows, the rows :func:`~repro.throughput.saturation.knee` reads.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.results import BatchResult

#: Metric columns of one load-curve row, in display order.
CURVE_COLUMNS = (
    "rate",
    "offered_load",
    "accepted_throughput",
    "delivery_rate",
    "mean_setup_latency",
    "p99_setup_latency",
    "unfinished",
)


def throughput_rows(batch: BatchResult) -> Dict[str, List[Dict[str, float]]]:
    """Per-policy load-curve rows (ascending rate, replicate seeds averaged).

    Accepts any ``throughput``-mode batch; each row carries the
    :data:`CURVE_COLUMNS` metrics.
    """
    rows: Dict[str, List[Dict[str, float]]] = {}
    policies: List[str] = []
    rates: List[float] = []
    for result in batch.results:
        if result.cell.policy not in policies:
            policies.append(result.cell.policy)
        if result.cell.rate not in rates:
            rates.append(result.cell.rate)
    for policy in policies:
        policy_rows: List[Dict[str, float]] = []
        for rate in sorted(rates):
            cells = batch.select(policy=policy, rate=rate)
            if not cells:
                continue
            row = {
                column: sum(c.metrics[column] for c in cells) / len(cells)
                for column in CURVE_COLUMNS
                if column in cells[0].metrics
            }
            row["rate"] = rate
            policy_rows.append(row)
        rows[policy] = policy_rows
    return rows
