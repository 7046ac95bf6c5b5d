"""Stacked multi-cell execution: cells that share work do it once.

A sweep grid usually varies seed, fault count, policy or traffic over one
mesh shape.  The serial engine runs each cell alone, from scratch.  The
stacked executor shares what cells have in common, in two ways.

**Simulate cells step together.**  Alone, every simulation step pays the
fixed numpy dispatch cost of the vectorized classification on a handful
of in-flight probes.  The executor instead builds every
probe-table-eligible simulate-mode cell of one shape onto one shared
:class:`~repro.core.probe_table.ProbeTable` (the group's first simulator
builds it, the others attach to it as they are built) and runs the group
in lockstep: one classification pass per step covers all cells' probes,
amortizing the fixed cost across the whole group.  Cells stay fully
independent — each keeps its own information state, traffic source,
statistics and circuit ledger — and the shared classification is a pure
per-row function, so stacking changes *where* rows are classified, never
what any cell observes.  That independence is also why the sharded
executor (:mod:`repro.experiments.shard`) may split one shape group into
several sub-groups across worker processes: group membership is invisible
to every member.

**Offline policies share one setting.**  The cells of one offline
configuration differ only in policy and share one ``cell_seed``, so they
route over equal inputs: the mesh, the faults, the stabilized labeling
and the message pairs (:func:`~repro.experiments.runner._offline_setting`).
The executor builds that setting once per configuration (per run of a
configuration's cells in the subset it is given) and calls each policy's
:meth:`~repro.routing.Router.route_batch` over it, the way
:func:`~repro.analysis.metrics.compare_policies` compares policies on
one fault set.  Routers only read the setting, and each keeps its own
views and tables.  In-process the whole grid is one subset, so each
configuration is built once; over the pool, offline cells keep the
serial engine's chunks, and a configuration that straddles two chunks is
built once in each.

Results are byte-identical to the serial engine's, the oracle.  The
simulate cells the table cannot host (scalar backend, the
global-information router) step the scalar probe loop, the table's parity
oracle, and throughput cells run as in the serial engine — cell by cell.

:func:`run_cells_stacked` is the composable unit: it runs any indexed
subset of a grid's cells, in-process for ``run_batch(engine="auto")`` and
in a sharded pool worker alike.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.probe_table import ProbeTable
from repro.experiments.results import CellResult
from repro.experiments.shard import probe_table_eligible
from repro.experiments.spec import ExperimentCell

if False:  # pragma: no cover - import cycle guard for annotations
    from repro.simulator.engine import Simulator

#: One stacked-group member: grid position, cell, its joined simulator.
_Member = Tuple[int, ExperimentCell, "Simulator"]

#: Callback fired as each cell's result lands: ``(grid index, result)``.
OnResult = Callable[[int, CellResult], None]


def setting_key(cell: ExperimentCell) -> Tuple[object, ...]:
    """Cells with equal keys route over one offline setting.

    The configuration axes and the ``cell_seed`` the setting is drawn
    from: everything an offline cell's inputs depend on, with its policy
    left out.
    """
    return (cell.config_key(), cell.cell_seed)


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
    """Run an indexed subset of a grid, sharing what its cells share.

    Probe-table-eligible simulate cells are grouped by mesh shape and
    stepped in lockstep on one table per group: the group's first
    simulator builds the table and every later member is built onto it.
    Consecutive offline cells of one configuration (equal
    :func:`setting_key`) route every policy over one setting, built when
    the first of them arrives; each cell lands as soon as its own routes
    finish.  Everything else runs alone through the serial engine's
    :func:`~repro.experiments.runner.run_cell`.  Results are
    byte-identical to the serial engine's.  Returns ``(grid index,
    result)`` pairs in completion order; ``on_result`` additionally fires
    as each lands.  This function is self-contained and picklable work —
    it is what a sharded pool worker executes for a stacked shard.
    """
    from repro.experiments.runner import (
        _offline_metrics,
        _offline_setting,
        build_simulator,
        run_cell,
    )

    out: List[Tuple[int, CellResult]] = []

    def land(index: int, result: CellResult) -> None:
        out.append((index, result))
        if on_result is not None:
            on_result(index, result)

    groups: Dict[Tuple[int, ...], List[_Member]] = {}
    current: Optional[Tuple[object, ...]] = None
    setting = None
    for index, cell in cells:
        if cell.mode == "offline":
            # The grid puts policies innermost, so a configuration's cells
            # arrive together and one setting at a time is enough.
            key = setting_key(cell)
            if key != current:
                current, setting = key, _offline_setting(cell)
            land(index, CellResult(cell=cell, metrics=_offline_metrics(cell, setting)))
        elif probe_table_eligible(cell):
            members = groups.setdefault(cell.shape, [])
            table = members[0][2]._table if members else None
            members.append((index, cell, build_simulator(cell, table=table)))
        else:
            land(index, run_cell(cell))

    for members in groups.values():
        _run_group(members[0][2]._table, members, land)

    return out
