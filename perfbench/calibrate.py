"""Host-speed reference: a fixed kernel timed between jobs.

On a shared VM the host's own speed drifts by 10-30% within seconds, and
every timing moves with it.  The benchmark times this kernel in short
blocks between jobs, outside every job's timing, and divides each job's
time by the host factor of its interval: the mean kernel time of the two
blocks that bracket the job, over ``NOMINAL_S``.  A timing is so reported
as it would read on a host that runs the kernel in ``NOMINAL_S``.  The
kernel imports nothing from the program, so a change to the program moves
the scaled timings exactly as much as the raw ones.

It mixes interpreter work (dict updates in a Python loop; method calls,
tuple keys and a sort over small objects) with small numpy calls (masks,
``nonzero``, fancy indexing, reductions), the kinds of work the program's
hot paths are made of.  On the VM it was written on, numpy-heavy stacked
sweeps and object-heavy cache replays respond to the host's speed
differently, the replays more steeply; this mix tracked both better than
either half alone.
"""

from __future__ import annotations

from statistics import fmean
from time import perf_counter
from typing import List, Sequence

import numpy as np

#: Kernel seconds on the 2-vCPU Xeon VM the benchmark was written on; it
#: only fixes the scale, so scaled timings read close to raw ones there.
NOMINAL_S = 0.0085

_VALUES = (np.arange(4096, dtype=np.int64) * 2654435761) % 1000


class _Cell:
    __slots__ = ("x", "y", "tag")

    def __init__(self, x: int, y: int, tag: str) -> None:
        self.x, self.y, self.tag = x, y, tag

    def key(self) -> tuple:
        return (self.tag, self.x, self.y)


_CELLS = [_Cell(i, i * 3 % 17, f"t{i % 13}") for i in range(1000)]


def kernel() -> int:
    counts: dict = {}
    for i in range(7500):
        key = (i * 7) % 31
        counts[key] = counts.get(key, 0) + i
    total = 0
    for i in range(100):
        picked = np.nonzero(_VALUES > i * 10)[0]
        total += int((_VALUES[picked] % 7).sum())
    for _ in range(5):
        by_tag: dict = {}
        for cell in _CELLS:
            tag, x, y = cell.key()
            by_tag[tag] = by_tag.get(tag, 0) + x * y
        total += len(sorted(_CELLS, key=_Cell.key)) + len(by_tag)
    return total + sum(counts.values())


def samples(n: int) -> List[float]:
    """Seconds of ``n`` back-to-back kernel runs."""
    out = []
    for _ in range(n):
        start = perf_counter()
        kernel()
        out.append(perf_counter() - start)
    return out


def bracket_factors(blocks: Sequence[Sequence[float]]) -> List[float]:
    """Host factor of each interval between consecutive reference blocks:
    the mean kernel time of both blocks over ``NOMINAL_S``.  Divide a
    timing made in interval ``i`` by ``factors[i]``."""
    return [fmean([*before, *after]) / NOMINAL_S
            for before, after in zip(blocks, blocks[1:])]


def at_nominal(timings: Sequence[Sequence[float]],
               blocks: Sequence[Sequence[float]]) -> List[float]:
    """``(interval, seconds)`` pairs -> seconds at nominal host speed."""
    factors = bracket_factors(blocks)
    return [seconds / factors[int(i)] for i, seconds in timings]
