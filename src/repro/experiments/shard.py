"""Shard planning: partition a sweep's cells into dispatchable units.

A pooled sweep (``workers > 1``) runs as :class:`Shard` units, planned
here from the grid's cells and the engine name.  Under ``engine="auto"``
the planner partitions cells by (mesh shape, probe-table eligibility,
mode):

* **stacked shards** — the work of the stacked executor
  (:func:`~repro.experiments.stacked.run_cells_stacked`), of two kinds:
  * probe-table-eligible simulate cells of one shape, run as one lockstep
    group on a shared :class:`~repro.core.probe_table.ProbeTable` (the
    message phase's fast path).  A large group is *split* into up to
    ``workers`` sub-shards so a contended 96-cell same-shape sweep
    saturates the whole pool; stacking is a pure per-row amortization,
    so membership never changes any cell's result;
  * offline cells, chunked exactly as serial cells are, so the pool keeps
    the serial engine's parallelism and shard boundaries; the executor
    builds a configuration's mesh, faults, labeling and pairs once for
    the policies of it that share a chunk.  A pooled shard's cells land
    together when it completes, so chunks are not widened to whole
    configurations: that would hold back the first cell of a spec with
    fewer configurations than chunks.
* **serial shards** — everything else (throughput cells, the
  global-information policy's and the scalar backend's simulate cells),
  chunked with an explicit chunk size so per-cell dispatch overhead is
  amortized and tiny specs don't fan out one pickle per cell.  Their
  simulate cells step the scalar probe loop, the table's parity oracle.

Under ``engine="serial"``, the oracle, every cell goes to the serial
chunks and runs alone.

Eligibility here is the simulator's own gate
(:func:`~repro.core.probe_table.table_eligible`) applied to a cell before
any simulator exists; the stacked executor applies the same test to
choose the cells it builds onto a group's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Sequence, Tuple

from repro.core.probe_table import table_eligible
from repro.experiments.spec import ExperimentCell
from repro.routing import resolve_router

#: One (grid index, cell) work item.
IndexedCell = Tuple[int, ExperimentCell]

#: Don't split a stacked group below this many cells per sub-shard: the
#: stacking win comes from amortizing the per-step vectorized pass over
#: many cells, so two 2-cell shards are slower than one 4-cell shard.
MIN_STACKED_SHARD = 4

#: Serial and offline cells are chunked into about this many shards per
#: worker, which balances load (a slow cell only stalls its own chunk)
#: against per-chunk pickling overhead.
SERIAL_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class Shard:
    """One dispatchable unit of sweep work.

    ``kind`` is ``"stacked"`` (run by the stacked executor: a same-shape
    probe-table lockstep group, or a chunk of offline cells) or
    ``"serial"`` (cells run one at a time).  Shards are picklable and
    self-contained, so they travel to pool workers as-is.
    """

    kind: str
    cells: Tuple[IndexedCell, ...]

    def __len__(self) -> int:
        return len(self.cells)


def probe_table_eligible(cell: ExperimentCell) -> bool:
    """Whether ``cell``'s simulator will run its messages on the probe table.

    A simulate-mode cell that passes the simulator's own gate,
    :func:`~repro.core.probe_table.table_eligible`.
    """
    return cell.mode == "simulate" and table_eligible(
        resolve_router(cell.policy), len(cell.shape)
    )


def _split(items: Sequence[IndexedCell], n_shards: int) -> List[Tuple[IndexedCell, ...]]:
    """Split ``items`` into ``n_shards`` contiguous, near-equal runs."""
    n_shards = max(1, min(n_shards, len(items)))
    base, extra = divmod(len(items), n_shards)
    out: List[Tuple[IndexedCell, ...]] = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        out.append(tuple(items[start:start + size]))
        start += size
    return out


def _chunks(items: Sequence, workers: int) -> List[Sequence]:
    """Contiguous runs of ``items``, about SERIAL_CHUNKS_PER_WORKER per worker."""
    if not items:
        return []
    if workers <= 1:
        return [items]
    size = max(1, ceil(len(items) / (workers * SERIAL_CHUNKS_PER_WORKER)))
    return [items[start:start + size] for start in range(0, len(items), size)]


def plan_shards(
    cells: Sequence[IndexedCell],
    *,
    workers: int = 1,
    engine: str = "auto",
) -> List[Shard]:
    """Partition ``cells`` into stacked and serial shards for ``workers``.

    ``engine="serial"`` stacks and shares nothing: every cell lands in a
    serial chunk.  Deterministic: grouping follows grid order, so the same
    grid always plans the same shards.  Every input index appears in
    exactly one shard.
    """
    workers = max(1, workers)
    stacked_groups: Dict[Tuple[int, ...], List[IndexedCell]] = {}
    offline: List[IndexedCell] = []
    serial: List[IndexedCell] = []
    for index, cell in cells:
        if engine == "serial":
            serial.append((index, cell))
        elif probe_table_eligible(cell):
            stacked_groups.setdefault(cell.shape, []).append((index, cell))
        elif cell.mode == "offline":
            offline.append((index, cell))
        else:
            serial.append((index, cell))

    shards: List[Shard] = []
    for group in stacked_groups.values():
        n = min(workers, max(1, len(group) // MIN_STACKED_SHARD))
        for chunk in _split(group, n):
            shards.append(Shard(kind="stacked", cells=chunk))
    # Offline cells keep the serial chunk boundaries; the stacked executor
    # shares each configuration's setting within a chunk.
    for chunk in _chunks(offline, workers):
        shards.append(Shard(kind="stacked", cells=tuple(chunk)))
    for chunk in _chunks(serial, workers):
        shards.append(Shard(kind="serial", cells=tuple(chunk)))
    return shards
