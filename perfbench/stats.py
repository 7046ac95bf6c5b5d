"""Order statistics and interval arithmetic shared by the benchmark files.

Kept free of any ``repro`` import so that ``selftest.py`` can check it
without the program on the path.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between order
    statistics (numpy's default ``linear`` method).

    Raises ``ValueError`` on an empty sample: a percentile of nothing is a
    bug in the caller, never a number to report.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-quantile's
    rank — the tail a percentile rests on."""
    return n - 1 - math.floor(q * (n - 1))


def covered_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(
    spans: Sequence[Tuple[int, float, float, Optional[int]]],
) -> List[float]:
    """Self time of each ``(span_id, start, end, parent_id)`` span.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Returned in input order.
    """
    children = {}
    for sid, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered_length(children.get(sid, ()), start, end)
        for sid, start, end, _ in spans
    ]
