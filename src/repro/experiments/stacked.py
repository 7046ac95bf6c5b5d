"""Stacked multi-cell execution: same-shape sweep cells step together.

A sweep grid usually varies seed, fault count, policy or traffic over one
mesh shape.  The serial engine steps each cell's simulator to completion
alone, so every simulation step pays the fixed numpy dispatch cost of the
vectorized classification on a handful of in-flight probes.  The stacked
engine instead joins every probe-table-eligible simulate-mode cell of one
shape onto a shared :class:`~repro.core.probe_table.ProbeTable` and runs
the group in lockstep: one classification pass per step covers all cells'
probes, amortizing the fixed cost across the whole group.

Results are byte-identical to the serial engine's.  Cells stay fully
independent — each keeps its own information state, traffic source,
statistics and circuit ledger — and the shared classification is a pure
per-row function, so stacking changes *where* rows are classified, never
what any cell observes.  That independence is also why the sharded
executor (:mod:`repro.experiments.shard`) may split one shape group into
several sub-groups across worker processes: group membership is invisible
to every member.  The table is the message phase's fast path and hosts
every Algorithm-3 and static-block cell.  The simulate cells it cannot
host (scalar backend, the global-information router) step the scalar probe
loop, the table's parity oracle, and throughput/offline cells run as in
the serial engine — cell by cell.

:func:`run_cells_stacked` is the composable unit: it runs any indexed
subset of a grid's cells, in-process for ``run_batch(engine="auto")`` and
in a sharded pool worker alike.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.probe_table import ProbeTable
from repro.experiments.results import CellResult
from repro.experiments.spec import ExperimentCell

if False:  # pragma: no cover - import cycle guard for annotations
    from repro.simulator.engine import Simulator

#: One stacked-group member: grid position, cell, its joined simulator.
_Member = Tuple[int, ExperimentCell, "Simulator"]

#: Callback fired as each cell's result lands: ``(grid index, result)``.
OnResult = Callable[[int, CellResult], None]


def _run_group(
    table: ProbeTable,
    members: List[_Member],
    land: OnResult,
) -> None:
    """Step one shape group in lockstep until every member drains.

    Every active member executes exactly the serial step sequence —
    information phases per simulator, then one shared
    :meth:`ProbeTable.run_step` over all active cells — so each member's
    step ``t`` is indistinguishable from its solo run.  Members that drain
    (or hit their step budget) finalize immediately through
    :meth:`Simulator.run`, which executes zero further steps and flushes.
    """
    from repro.experiments.runner import _simulate_metrics

    active = members
    t = 0
    while active:
        stepping: List[_Member] = []
        for item in active:
            index, cell, sim = item
            if sim._step < sim.config.max_steps and sim._work_remaining():
                stepping.append(item)
            else:
                land(index, CellResult(
                    cell=cell, metrics=_simulate_metrics(cell, sim.run())
                ))
        active = stepping
        if not stepping:
            break
        for _, _, sim in stepping:
            sim._step_information(t)
        table.run_step(t, tuple(sim._table_cell for _, _, sim in stepping))
        for _, _, sim in stepping:
            sim._step += 1
            sim.stats.steps = sim._step
        t += 1


def run_cells_stacked(
    cells: Sequence[Tuple[int, ExperimentCell]],
    *,
    on_result: Optional[OnResult] = None,
) -> List[Tuple[int, CellResult]]:
    """Run an indexed subset of a grid, stacking what the table can host.

    Probe-table-eligible simulate cells are grouped by mesh shape and
    stepped in lockstep on one shared table per group; everything else
    (other modes, ineligible policies/backends) runs serially through the
    same construction paths as the serial engine, so results are
    byte-identical either way.  Returns ``(grid index, result)`` pairs in
    completion order; ``on_result`` additionally fires as each lands.
    This function is self-contained and picklable work — it is what a
    sharded pool worker executes for a stacked shard.
    """
    from repro.experiments.runner import _simulate_metrics, build_simulator, run_cell

    out: List[Tuple[int, CellResult]] = []

    def land(index: int, result: CellResult) -> None:
        out.append((index, result))
        if on_result is not None:
            on_result(index, result)

    groups: Dict[Tuple[int, ...], List[_Member]] = {}
    for index, cell in cells:
        if cell.mode != "simulate":
            land(index, run_cell(cell))
            continue
        sim = build_simulator(cell)
        if sim._table is None:
            # Not probe-table eligible: run this simulator to completion
            # alone (same construction path as the serial engine).
            land(index, CellResult(
                cell=cell, metrics=_simulate_metrics(cell, sim.run())
            ))
            continue
        groups.setdefault(cell.shape, []).append((index, cell, sim))

    for members in groups.values():
        table = ProbeTable(members[0][2].mesh)
        for _, _, sim in members:
            sim._join_table(table)
        _run_group(table, members, land)

    return out
