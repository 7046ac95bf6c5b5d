"""Struct-of-arrays probe engine: the vectorized message phase.

This is the simulator's one fast path for Algorithm-3 path setup.  Its
parity oracle is the scalar loop (``Simulator._step_messages``), which
keeps one :class:`~repro.core.routing.RoutingProbe` object per in-flight
message and steps them one by one.  This module keeps *all* in-flight
probes' state as flat numpy columns instead, one row per probe:

* the PCS stack as a ``(probes, depth_cap)`` int32 node-index matrix with a
  per-probe depth pointer (plus a parallel matrix of the link slot entered
  at each push, so backtracks release by precomputed slot);
* per-probe used-direction state as a ``(probes, size)`` uint32 bitmask
  (bit ``j`` = direction column ``j`` of :attr:`Mesh.directions`);
* outcome codes, blocked/retry counters, waited flags and the full
  traversal log as further columns (the log's length and the stack depth
  together give the forward and backtrack hop counts).

Every column is declared once, in the module-level :data:`_COLUMNS`
registry: its attribute name, dtype, trailing width (none, stack depth,
path length, mesh size or ``2n``) and the value a fresh row starts with.
Table construction, injection, compaction and width growth are each one
loop over that registry.  Columns are exact-length: injection concatenates
the fresh rows and compaction drops finished ones, so the live rows are
always whole columns.  No other module reads the column format — the
step recorder gets its in-flight counters from :meth:`ProbeTable.cell_counters`.

One :meth:`ProbeTable.run_step` call is then a handful of array passes:
candidates for every probe needing a decision are gathered in one
:func:`~repro.core.decision.classify_rows` call, contention-free probes
advance/backtrack by masked column writes, and contended probes run a lean
sequential scan against the :class:`~repro.pcs.circuit.ArrayCircuitLedger`
holder column (sequential because a reservation taken by probe *i* must be
visible to probe *i + 1* within the same step — exactly the scalar loop's
semantics).  Decisions, per-message paths and statistics are byte-identical
to the scalar oracle; the parity suite holds the two to that.

:func:`table_eligible` says which routers the table hosts: every policy
whose probes classify per direction over one information view — the
Algorithm-3 policies over the simulator's own information (offline: the
router's distributed or bare view), ``static-block`` over its
adjacent-only view.  ``global-information`` (a BFS planner), the scalar
backend and meshes above 16 dimensions step the scalar objects online and
route pair by pair offline.

The table is multi-cell: several runs sharing one mesh shape can attach
to one table (the stacked sweep runner does), each with its own
information state, traffic and ledger.  Their classification tables are
concatenated along the node axis so the whole stack classifies in one pass.

A cell reads its run only through :class:`TableHost`.  The contract has two
hosts: :class:`~repro.simulator.engine.Simulator`, whose message phase the
table runs, and :class:`OfflineBatch`, one batch of offline routes
classified over a router's offline view without contention (what
:meth:`~repro.routing.Router.route_batch` runs for the routers the table
hosts).
"""

from __future__ import annotations

import weakref
from itertools import repeat
from typing import (
    TYPE_CHECKING, Any, Iterable, List, NamedTuple, Optional, Protocol, Sequence, Tuple,
    Union,
)

import numpy as np

from repro.backend import VECTOR, resolve_backend
from repro.core.block_construction import LabelingState
from repro.core.decision import DecisionTables, VectorDecisionEngine, classify_rows
from repro.core.routing import InformationProvider, RouteOutcome, RouteResult, probe_step_limit
from repro.mesh.topology import Mesh
from repro.obs.profile import NULL_PROFILER
from repro.routing import AlgorithmRouter, StaticBlockRouter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.pcs.circuit import ArrayCircuitLedger

Coord = Tuple[int, ...]

#: Outcome codes of the ``_outc`` column.
OUTCOME_NONE = -1
OUTCOME_DELIVERED = 0
OUTCOME_UNREACHABLE = 1

_OUTCOMES = {
    OUTCOME_DELIVERED: RouteOutcome.DELIVERED,
    OUTCOME_UNREACHABLE: RouteOutcome.UNREACHABLE,
    OUTCOME_NONE: RouteOutcome.EXHAUSTED,
}


class _Column(NamedTuple):
    """One per-row column of :class:`ProbeTable`, held as attribute ``attr``."""

    attr: str
    dtype: object
    #: ``None`` for a 1-D column, else the name of the table attribute
    #: holding the trailing width.
    width: Optional[str]
    #: A fresh row's value; ``None`` means :meth:`ProbeTable._inject` gives
    #: it per row (a matrix column at position 0, zeros after it).
    fill: Optional[int]


#: Every per-row column, declared once.
_COLUMNS: Tuple[_Column, ...] = (
    # The message: owning cell, destination node index, the host's message
    # object, the step its probe expires at (start + lifetime), ledger
    # holder id and OUTCOME_* code.
    _Column("_cell", np.int32, None, None),
    _Column("_dest", np.int32, None, None),
    _Column("_msgs", object, None, None),
    _Column("_expiry", np.int64, None, None),
    _Column("_holder", np.int64, None, None),
    _Column("_outc", np.int8, None, None),
    # The PCS stack (the source node index at position 0) under its depth
    # pointer, the link slot entered at each push, and the reversed entry
    # direction per position (-1 at the source): the INCOMING surface
    # index, so classification never reconstructs it from coordinate diffs.
    _Column("_depth", np.int32, None, 1),
    _Column("_stack", np.int32, "_depth_cap", None),
    _Column("_sslot", np.int32, "_depth_cap", 0),
    _Column("_sdir", np.int8, "_depth_cap", -1),
    # Used-direction bitmask per node.
    _Column("_used", np.uint32, "_size", 0),
    # Traversal log (source at position 0) and its length.  Every forward
    # hop pushes and every backtrack pops, and both append to the log, so
    # depth and length determine the forward and backtrack hop counts.
    _Column("_plen", np.int32, None, 1),
    _Column("_path", np.int32, "_path_cap", None),
    # Blocked hop and setup-retry counters.
    _Column("_blk", np.int64, None, 0),
    _Column("_rty", np.int64, None, 0),
    _Column("_waited", bool, None, 0),
    # Ledger release-epoch at the row's last full WAIT scan (-1 = must
    # scan).  While the cell's epoch is unchanged no link was freed, so a
    # parked waiter's candidates are provably still all blocked.
    _Column("_wepoch", np.int64, None, -1),
    # Carryover candidates (valid while ``_cvalid``): sorted directions,
    # their next nodes and link slots, and the candidate count with rule-1
    # backtracks encoded as -1 (zero is a genuine empty candidate list).
    _Column("_cdirs", np.int8, "_two_n", 0),
    _Column("_cnext", np.int32, "_two_n", 0),
    _Column("_cslot", np.int32, "_two_n", 0),
    _Column("_cn", np.int16, None, 0),
    _Column("_cvalid", bool, None, 0),
)


def table_eligible(router: object, backend: Optional[str], n_dims: int) -> bool:
    """Whether a :class:`ProbeTable` runs a simulator's message phase or
    an offline batch.

    The one gate :class:`~repro.simulator.engine.Simulator`, the shard
    planner and :meth:`~repro.routing.Router.route_batch` share.  It takes
    the vector backend (decision engine and array ledger), a used-direction
    bitmask within 32 bits (at most 16 dimensions), and a router whose
    probes are plain Algorithm-3 probes deciding against one information
    view (``online_view`` and ``offline_view``).
    """
    return (
        resolve_backend(backend) == VECTOR
        and 2 * n_dims <= 32
        and type(router) in (AlgorithmRouter, StaticBlockRouter)
    )


class TableHost(Protocol):
    """What one :class:`ProbeTable` cell reads of the run it steps probes for.

    :class:`~repro.simulator.engine.Simulator` and :class:`OfflineBatch`
    implement it.  Ledger holder ids are the table's own, counted per cell
    from 0 in injection order.
    """

    mesh: Mesh
    #: A router :func:`table_eligible` admits; rows classify under its policy.
    router: Union[AlgorithmRouter, StaticBlockRouter]
    #: The cell's link reservations, or ``None`` for a contention-free cell.
    circuits: Optional["ArrayCircuitLedger"]
    #: Steps past its message's ``start_time`` after which a row that has
    #: not finished finishes EXHAUSTED (it is advanced before the check).
    probe_lifetime: int

    def decision_view(self) -> InformationProvider:
        """The information the cell's rows classify over at this step."""
        ...

    def poll(self, t: int) -> Sequence[Any]:
        """Messages injected at step ``t``: each has ``source``,
        ``destination`` and ``start_time`` (and, in a contended cell,
        ``flits``)."""
        ...

    def finish_message(
        self, message: Any, result: RouteResult, *, finish_step: Optional[int]
    ) -> None:
        """Record a finished row; ``finish_step`` is ``None`` for a row
        flushed when the run's step budget ran out."""
        ...

    def hold_circuit(
        self, holder: int, stack: Sequence[Coord], message: Any, t: int
    ) -> None:
        """Contended cells only: hold a delivered row's circuit (its PCS
        stack) for the message's data transfer."""
        ...

    def record_occupancy(self) -> None:
        """Contended cells only: sample the reserved links after a step."""
        ...


class _CellState:
    """One attached host: its router's view, classifier and ledger."""

    __slots__ = (
        "host", "router", "view", "classifier", "ledger", "lifetime", "carry_token",
        "next_holder",
    )

    def __init__(self, host: TableHost) -> None:
        # Non-owning: a simulator owns its table, so a strong reference
        # back would make every finished simulator wait for the cycle
        # collector instead of being freed when its last user drops it.
        self.host = weakref.proxy(host)
        self.router = host.router
        self.view: Optional[object] = None
        self.classifier: Optional[VectorDecisionEngine] = None
        self.ledger = host.circuits
        self.lifetime = host.probe_lifetime
        #: Information token of the last classification — WAIT carryover is
        #: only valid while it is unchanged (a WAIT changes no probe state).
        self.carry_token: Optional[Tuple[int, int]] = None
        self.next_holder = 0

    def engine(self) -> VectorDecisionEngine:
        """The classifier over the view this cell's router decides against.

        Built once per view: once per run for the Algorithm-3 policies, once
        per labeling change for static-block's adjacent-only view.
        """
        view = self.host.decision_view()
        if view is not self.view:
            self.view = view
            self.classifier = VectorDecisionEngine(view, self.router.policy)
        return self.classifier


class ProbeTable:
    """All in-flight probes of one or more same-shape cells, as flat columns."""

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        n = mesh.n_dims
        self._n = n
        self._two_n = 2 * n
        self._size = mesh.size
        if self._two_n > 32:
            raise ValueError("used-direction bitmask supports at most 16 dimensions")
        self._neighbors = mesh.neighbor_table
        self._slots = mesh.link_slot_table
        self._coord_tuples = tuple(mesh.nodes())

        self._cells: List[_CellState] = []
        self._cell_count: List[int] = []
        self._offsets = np.zeros(0, dtype=np.int64)
        self._cell_is_free = np.zeros(0, dtype=bool)
        self._any_free = False
        self._any_contended = False
        self._concat_tokens: Optional[List[Tuple[int, int]]] = None
        self._concat_tables: Optional[DecisionTables] = None
        self._concat_hasc: List[bool] = []
        self._arange = np.zeros(0, dtype=np.int64)

        # -- the _COLUMNS (exact row count; dropped as probes finish) -----
        self._depth_cap = 8
        self._path_cap = 16
        # High-water stack depth / path length (capacity growth triggers);
        # a fresh row has both at 1.
        self._hw_depth = 1
        self._hw_plen = 1
        for attr, dtype, width, _fill in _COLUMNS:
            shape = (0, getattr(self, width)) if width else 0
            setattr(self, attr, np.zeros(shape, dtype=dtype))

    # ------------------------------------------------------------------ #
    # cell management
    # ------------------------------------------------------------------ #
    def attach(self, host: TableHost) -> int:
        """Attach a run as one cell; returns its cell id."""
        if host.mesh.shape != self.mesh.shape:
            raise ValueError(
                f"cell mesh {host.mesh.shape} does not match table mesh {self.mesh.shape}"
            )
        cell = len(self._cells)
        self._cells.append(_CellState(host))
        self._cell_count.append(0)
        self._offsets = np.arange(len(self._cells), dtype=np.int64) * self._size
        self._cell_is_free = np.array(
            [cs.ledger is None for cs in self._cells], dtype=bool
        )
        self._any_free = bool(self._cell_is_free.any())
        self._any_contended = not self._cell_is_free.all()
        self._concat_tokens = None
        self._concat_tables = None
        self._concat_hasc = []
        return cell

    def cell_rows(self, cell: int) -> int:
        """Number of in-flight probes of ``cell`` (O(1) — kept current by
        inject/drop, so per-step ``_work_remaining`` polls stay cheap)."""
        return self._cell_count[cell]

    def cell_counters(self, cell: int) -> Tuple[int, int, int, int]:
        """``(in_flight, blocked_hops, setup_retries, waiting)`` over the
        in-flight probes of ``cell`` — the step recorder's counter read."""
        rows = slice(None) if len(self._cells) == 1 else self._cell == cell
        return (
            self._cell_count[cell],
            int(self._blk[rows].sum()),
            int(self._rty[rows].sum()),
            int(np.count_nonzero(self._waited[rows])),
        )

    # ------------------------------------------------------------------ #
    # the step
    # ------------------------------------------------------------------ #
    def run_step(
        self, t: int, cells: Sequence[int], profiler=NULL_PROFILER
    ) -> None:
        """Execute the message phase of step ``t`` for the given cells.

        Mirrors the scalar oracle's phase 3 exactly: inject, release expired
        holds, decide, advance/backtrack/wait, mirror reservations, finish,
        record occupancy — in that per-cell order.  ``profiler`` (a
        :class:`~repro.obs.profile.PhaseProfiler`) times each phase as a
        span; the default no-op profiler times nothing.
        """
        with profiler.span("source_poll"):
            for c in cells:
                self._inject(c, t)
        with profiler.span("ledger_sweep"):
            for c in cells:
                ledger = self._cells[c].ledger
                if ledger is not None:
                    ledger.release_expired(t)
        if len(self._cell):
            with profiler.span("decision_batch"):
                self._classify()
                self._ensure_capacity()
            with profiler.span("probe_advance"):
                fin: List[int] = []
                if self._any_free:
                    self._advance_free(fin, t)
                if self._any_contended:
                    self._advance_contended(fin, t)
                if fin:
                    self._drop(fin)
        with profiler.span("occupancy"):
            for c in cells:
                cs = self._cells[c]
                if cs.ledger is not None:
                    cs.host.record_occupancy()

    # ------------------------------------------------------------------ #
    # injection
    # ------------------------------------------------------------------ #
    def _inject(self, c: int, t: int) -> None:
        cs = self._cells[c]
        messages = cs.host.poll(t)
        if not messages:
            return
        index_of = self.mesh.index_of
        k = len(messages)
        src = np.array([index_of(m.source) for m in messages], dtype=np.int32)
        dest = np.array([index_of(m.destination) for m in messages], dtype=np.int32)
        given = {
            "_cell": [c] * k,
            "_dest": dest,
            "_msgs": messages,
            "_expiry": [m.start_time + cs.lifetime for m in messages],
            "_holder": np.arange(cs.next_holder, cs.next_holder + k),
            "_outc": np.where(src == dest, OUTCOME_DELIVERED, OUTCOME_NONE),
            "_stack": src,
            "_path": src,
        }
        cs.next_holder += k
        for attr, dtype, width, fill in _COLUMNS:
            if fill is None and not width:
                fresh = np.asarray(given[attr], dtype)
            else:
                shape = (k, getattr(self, width)) if width else k
                fresh = np.full(shape, fill, dtype) if fill else np.zeros(shape, dtype)
                if fill is None:  # a matrix column's source entry
                    fresh[:, 0] = given[attr]
            setattr(self, attr, np.concatenate([getattr(self, attr), fresh]))
        self._cell_count[c] += k

    # ------------------------------------------------------------------ #
    # classification
    # ------------------------------------------------------------------ #
    def _tables(self) -> Tuple[DecisionTables, List[Tuple[int, int]]]:
        """Per-step classification tables (concatenated for multi-cell).

        The concatenation is *patched*, not rebuilt: information tokens
        churn cell-by-cell (every identification round bumps one), and with
        many stacked cells some token changes almost every step.  Only the
        changed cell's node-axis slices — raw tables plus the packed
        composite keys and detour bits — are copied in.
        """
        if len(self._cells) == 1:
            tables, token = self._cells[0].engine().tables()
            return tables, [token]
        per: List[DecisionTables] = []
        tokens: List[Tuple[int, int]] = []
        for cs in self._cells:
            tables, token = cs.engine().tables()
            per.append(tables)
            tokens.append(token)
        old_tokens = self._concat_tokens
        if tokens == old_tokens and self._concat_tables is not None:
            return self._concat_tables, tokens
        concat = self._concat_tables
        if concat is not None and concat.detour_bits is not None:
            size = self._size
            for c, (tb, token) in enumerate(zip(per, tokens)):
                if old_tokens is not None and token == old_tokens[c]:
                    continue
                sl = slice(c * size, (c + 1) * size)
                concat.node_codes[sl] = tb.node_codes
                concat.usable[sl] = tb.usable
                concat.disabled_nb[sl] = tb.disabled_nb
                concat.along[sl] = tb.along
                concat.base_key[sl] = tb.base_key
                concat.disabled_flag[sl] = tb.disabled_flag
                concat.usable_bits[sl] = tb.usable_bits
                if tb.detour_bits is not None:
                    concat.detour_bits[sl] = tb.detour_bits
                else:
                    concat.detour_bits[sl] = 0
                self._concat_hasc[c] = tb.has_constraints
            concat.has_constraints = any(self._concat_hasc)
            self._concat_tokens = tokens
            return concat, tokens
        # Full (re)build: first call, or the detour table exceeds its cap
        # (the CSR constraint arrays must then stay consistent because the
        # classifier's reduceat fallback reads them).  Each cell's
        # ``c_start`` entries shift by the number of constraint rows of the
        # cells before it.
        row_offset = 0
        c_start_parts = []
        for tables in per:
            c_start_parts.append(tables.c_start + row_offset)
            row_offset += tables.c_prism.shape[0]
        n_nodes = len(per) * self._size
        detour_bits = None
        if n_nodes * self._size <= DecisionTables.DETOUR_TABLE_CAP:
            # Cells without a detour table (no geometry) get all-zero bits,
            # so later per-cell patches always have a target.
            detour_bits = np.concatenate(
                [
                    tb.detour_bits
                    if tb.detour_bits is not None
                    else np.zeros((self._size, self._size), dtype=np.uint32)
                    for tb in per
                ]
            )
        first = per[0]
        stacked = DecisionTables(
            node_codes=np.concatenate([tb.node_codes for tb in per]),
            usable=np.concatenate([tb.usable for tb in per]),
            disabled_nb=np.concatenate([tb.disabled_nb for tb in per]),
            along=np.concatenate([tb.along for tb in per]),
            c_start=np.concatenate(c_start_parts),
            c_count=np.concatenate([tb.c_count for tb in per]),
            c_prism=np.concatenate([tb.c_prism for tb in per]),
            c_target_lo=np.concatenate([tb.c_target_lo for tb in per]),
            c_target_hi=np.concatenate([tb.c_target_hi for tb in per]),
            dims=first.dims,
            signs=first.signs,
            perm=first.perm,
            span=first.span,
            n=first.n,
            two_n=first.two_n,
            size=first.size,
            coords=first.coords,
            detour_bits=detour_bits,
        )
        self._concat_hasc = [tb.has_constraints for tb in per]
        self._concat_tokens = tokens
        self._concat_tables = stacked
        return stacked, tokens

    def _classify(self) -> None:
        """One classification pass over every row needing a decision.

        Rows that WAITed last step reuse their stored candidates while the
        cell's information token is unchanged: a WAIT changes neither the
        row nor the information, so its classification still holds.
        """
        tables, tokens = self._tables()
        for c, cs in enumerate(self._cells):
            if tokens[c] != cs.carry_token:
                if cs.carry_token is not None:
                    self._cvalid[self._cell == c] = False
                cs.carry_token = tokens[c]

        # Finished-but-uncompacted rows (src == dst injections) classify
        # harmlessly — the advance checks the outcome first — so the only
        # skip worth testing for is the WAIT carry.
        sel = np.flatnonzero(~(self._waited & self._cvalid))
        if sel.size == 0:
            return
        dm1 = self._depth[sel] - 1
        cur = self._stack[sel, dm1]
        dest = self._dest[sel]
        used_bits = self._used[sel, cur]
        # Rule 1 compares positions, not stack depth: a probe that looped
        # forward back onto its source coordinate is "at source" here.
        at_source = cur == self._stack[sel, 0]
        rev = self._sdir[sel, dm1]

        if len(self._cells) > 1:
            node_idx = cur + self._offsets[self._cell[sel]]
        else:
            node_idx = cur
        backtrack, sorted_dirs, counts, _keys = classify_rows(
            tables, node_idx, cur, dest, rev, used_bits, at_source
        )
        cur_col = cur[:, None]
        self._cdirs[sel] = sorted_dirs
        self._cn[sel] = np.where(backtrack, -1, counts)
        self._cnext[sel] = self._neighbors[cur_col, sorted_dirs]
        self._cslot[sel] = self._slots[cur_col, sorted_dirs]
        self._cvalid[sel] = True
        # Fresh candidates: any parked waiter here must do a full scan.
        self._wepoch[sel] = -1

    def _ensure_capacity(self) -> None:
        """Grow the stack/path matrices so one more hop always fits.

        Keyed off the high-water depth/path-length marks the advance passes
        maintain, so no per-step column reduction is needed.
        """
        for cap_attr, high in (
            ("_depth_cap", self._hw_depth), ("_path_cap", self._hw_plen)
        ):
            cap = getattr(self, cap_attr)
            if high + 1 >= cap:
                new_cap = max(cap * 2, high + 2)
                pad = ((0, 0), (0, new_cap - cap))
                for attr, _dtype, width, _fill in _COLUMNS:
                    if width == cap_attr:
                        setattr(self, attr, np.pad(getattr(self, attr), pad))
                setattr(self, cap_attr, new_cap)

    # ------------------------------------------------------------------ #
    # contention-free advance (bulk)
    # ------------------------------------------------------------------ #
    def _advance_free(self, fin: List[int], t: int) -> None:
        free_rows = self._cell_is_free[self._cell]
        act = np.flatnonzero(free_rows & (self._outc == OUTCOME_NONE))
        if act.size:
            counts = self._cn[act]
            # A non-positive count means BACKTRACK (rule-1 rows store -1,
            # and rule 1 never fires at the source, so the at-source case
            # is genuine exhaustion → UNREACHABLE).
            bt = counts <= 0
            at_src = self._depth[act] == 1
            unreach = bt & at_src
            if unreach.any():
                self._outc[act[unreach]] = OUTCOME_UNREACHABLE
            pop = bt & ~at_src
            if pop.any():
                r = act[pop]
                self._depth[r] -= 1
                retreat = self._stack[r, self._depth[r] - 1]
                self._path[r, self._plen[r]] = retreat
                self._plen[r] += 1
            adv = ~bt
            if adv.any():
                r = act[adv]
                cur = self._stack[r, self._depth[r] - 1]
                d0 = self._cdirs[r, 0].astype(np.int64)
                self._used[r, cur] |= np.uint32(1) << d0.astype(np.uint32)
                nxt = self._cnext[r, 0]
                self._stack[r, self._depth[r]] = nxt
                self._sdir[r, self._depth[r]] = np.where(
                    d0 < self._n, d0 + self._n, d0 - self._n
                ).astype(np.int8)
                self._depth[r] += 1
                self._path[r, self._plen[r]] = nxt
                self._plen[r] += 1
                self._hw_depth = max(self._hw_depth, int(self._depth[r].max()))
                delivered = nxt == self._dest[r]
                if delivered.any():
                    self._outc[r[delivered]] = OUTCOME_DELIVERED
            if (pop | adv).any():
                self._hw_plen = max(self._hw_plen, int(self._plen[act].max()))
        rows_all = np.flatnonzero(free_rows)
        if rows_all.size:
            done = (self._outc[rows_all] != OUTCOME_NONE) | (self._expiry[rows_all] <= t)
            if done.any():
                finished = rows_all[done]
                for r in finished.tolist():
                    self._finish_row(r, t)
                fin.extend(finished.tolist())

    # ------------------------------------------------------------------ #
    # contended advance (sequential, exact scalar semantics)
    # ------------------------------------------------------------------ #
    def _advance_contended(self, fin: List[int], t: int) -> None:
        """Advance every contended cell's rows in one extraction pass.

        Rows are walked grouped by cell (stable order within each cell —
        the scalar sequential-visibility contract is per cell), so the
        column extraction, the writeback and the batched matrix writes all
        happen once per step regardless of how many cells are stacked.
        """
        # Gridlock short-circuit: a cell where every in-flight row is parked
        # (waiting, release-epoch current, unexpired) cannot move, release
        # or reserve anything this step, so the whole cell's step collapses
        # to the exact counter bumps the scalar scan would make.  A single
        # non-parked row disqualifies its cell — its releases could unblock
        # parked rows mid-pass, which only the sequential walk can see.
        #
        # Single-cell fast path: the rows are the whole table, so columns
        # extract as views, without the fancy-index copy.
        if len(self._cells) == 1:
            count_rows = self._cell.size
            if count_rows == 0:
                return
            parked = (
                self._waited
                & (self._wepoch == self._cells[0].ledger._epoch)
                & (self._expiry > t)
            )
            if parked.all():
                self._rty += 1
                self._blk += self._cn
                return
            rows = slice(None)
            if self._arange.size < count_rows:
                self._arange = np.arange(
                    max(count_rows, 2 * self._arange.size), dtype=np.int64
                )
            ridx = self._arange[:count_rows]
            rlist: Sequence[int] = range(count_rows)
            cell_stream: Iterable[int] = repeat(0)
        else:
            contended_row = ~self._cell_is_free[self._cell]
            epochs = np.fromiter(
                (
                    0 if cs.ledger is None else cs.ledger._epoch
                    for cs in self._cells
                ),
                dtype=np.int64,
                count=len(self._cells),
            )
            parked = (
                self._waited
                & (self._wepoch == epochs[self._cell])
                & (self._expiry > t)
            )
            counts_arr = np.bincount(self._cell, minlength=len(self._cells))
            allfast = (
                (
                    np.bincount(
                        self._cell, weights=parked, minlength=len(self._cells)
                    ).astype(np.int64)
                    == counts_arr
                )
                & (counts_arr > 0)
                & ~self._cell_is_free
            )
            if allfast.any():
                av = allfast[self._cell]
                self._rty[av] += 1
                self._blk[av] += self._cn[av]
                contended_row &= ~av
            rows_all = np.flatnonzero(contended_row)
            if rows_all.size == 0:
                return
            rows = rows_all[np.argsort(self._cell[rows_all], kind="stable")]
            ridx = rows
            rlist = rows.tolist()
            cell_stream = self._cell[rows].tolist()

        # The per-hop reserve/release bookkeeping is inlined against the
        # current cell's ledger columns (the scan already proved the slot
        # free or ours), with the reserved-link count batched into
        # ``res_delta`` and flushed at every cell switch and finish.
        ledger = None
        holder_col = refcount = release_col = held_map = None
        cell_epoch = 0
        cur_c = -1

        stack = self._stack
        sslot = self._sslot
        path = self._path

        # The per-row columns the walk mutates, as Python lists; each
        # finishing row and, after the walk, every row write them back.
        synced = (self._depth, self._plen, self._blk, self._rty,
                  self._waited, self._wepoch)
        lists = [col[rows].tolist() for col in synced]
        depth_l, plen_l, blk_l, rty_l, waited_l, wep_l = lists
        # Per-row geometry at the pre-step depth, extracted in bulk: the
        # current node (used-bit updates), the retreat node one below it
        # (backtrack path entries) and the entry slot (backtrack releases).
        dm1 = self._depth[rows] - 1

        # Deferred matrix writes: each row moves at most one hop per step
        # and no row reads another row's stack/path/used, so the per-move
        # scalar stores batch into a few fancy-index writes after the loop.
        f_r: List[int] = []  # forward movers: row, pre-depth, pre-plen,
        f_d: List[int] = []  # next node, slot taken, direction, from-node
        f_p: List[int] = []
        f_nxt: List[int] = []
        f_slot: List[int] = []
        f_dir: List[int] = []
        f_cur: List[int] = []
        b_r: List[int] = []  # backtrackers: row, pre-plen, retreat node
        b_p: List[int] = []
        b_ret: List[int] = []
        rs_r: List[int] = []  # restarters: used mask clears
        res_delta = 0
        hw_d = 0
        hw_p = 0

        # One zip stream per read-only column: iterating fourteen parallel
        # lists through a single zip is markedly cheaper than fourteen
        # ``lst[i]`` index expressions per row.  depth/plen appear both in
        # the stream (pre-step values — each row only mutates its own index,
        # after zip has already read it) and as mutable lists for writeback.
        stream = zip(
            rlist,
            cell_stream,
            self._outc[rows].tolist(),
            depth_l,
            plen_l,
            self._cn[rows].tolist(),
            self._holder[rows].tolist(),
            self._dest[rows].tolist(),
            self._cslot[rows].tolist(),
            self._cnext[rows].tolist(),
            self._cdirs[rows].tolist(),
            (self._expiry[rows] <= t).tolist(),
            stack[ridx, dm1].tolist(),
            stack[ridx, np.maximum(dm1 - 1, 0)].tolist(),
            sslot[ridx, dm1].tolist(),
        )
        for i, (r, c, outcome, depth, plen, count, mine, dest, row_slots,
                row_next, row_dirs, expired, cur, ret, tslot) in enumerate(
                    stream):
            if c != cur_c:
                if res_delta:
                    ledger._reserved_count += res_delta
                    res_delta = 0
                ledger = self._cells[c].ledger
                holder_col = ledger._holder
                refcount = ledger._refcount
                release_col = ledger._release
                held_map = ledger._held
                cell_epoch = ledger._epoch
                cur_c = c
            moved = 0
            if outcome == OUTCOME_NONE and waited_l[i] and wep_l[i] == cell_epoch:
                # Parked waiter: no link in this cell was freed since its
                # last full scan (and its candidates are unchanged), so every
                # candidate is provably still blocked.  The scalar scan would
                # re-count the same blocks and wait again.
                rty_l[i] += 1
                blk_l[i] += count
            elif outcome == OUTCOME_NONE:
                stay = False  # WAIT or RESTART: no move, but expiry still runs
                decision_backtrack = False
                if count <= 0:
                    if count == 0 and depth == 1 and (blk_l[i] or rty_l[i]):
                        # RESTART: exhaustion contaminated by reservations.
                        rs_r.append(r)
                        rty_l[i] += 1
                        waited_l[i] = False
                        stay = True
                    else:
                        decision_backtrack = True
                else:
                    forward = -1
                    blocked = 0
                    for j in range(count):
                        owner = holder_col[row_slots[j]]
                        if owner >= 0 and owner != mine:
                            blocked += 1
                            continue
                        forward = j
                        break
                    if blocked:
                        blk_l[i] += blocked
                    if forward < 0:
                        rty_l[i] += 1
                        if depth == 1:
                            waited_l[i] = True  # WAIT: nothing to release
                            wep_l[i] = cell_epoch  # park until a release
                            stay = True
                        else:
                            decision_backtrack = True
                if not stay:
                    waited_l[i] = False
                    if decision_backtrack:
                        if depth == 1:
                            outcome = OUTCOME_UNREACHABLE
                        else:
                            # Inline ledger.release_slot(mine, entry slot).
                            slot = tslot
                            held = held_map.get(mine)
                            if held is not None and slot in held:
                                rc = refcount[slot] - 1
                                if rc <= 0:
                                    refcount[slot] = 0
                                    if release_col[slot] != -1:
                                        release_col[slot] = -1
                                    held.discard(slot)
                                    if holder_col[slot] == mine:
                                        holder_col[slot] = -1
                                        res_delta -= 1
                                        ledger._epoch += 1
                                        cell_epoch += 1
                                    if not held:
                                        del held_map[mine]
                                else:
                                    refcount[slot] = rc
                            depth_l[i] = depth - 1
                            moved = 2
                            b_r.append(r)
                            b_p.append(plen)
                            b_ret.append(ret)
                            p1 = plen + 1
                            plen_l[i] = p1
                            if p1 > hw_p:
                                hw_p = p1
                    else:
                        slot = row_slots[forward]
                        nxt = row_next[forward]
                        moved = 1
                        f_r.append(r)
                        f_d.append(depth)
                        f_p.append(plen)
                        f_nxt.append(nxt)
                        f_slot.append(slot)
                        f_dir.append(row_dirs[forward])
                        f_cur.append(cur)
                        d1 = depth + 1
                        depth_l[i] = d1
                        if d1 > hw_d:
                            hw_d = d1
                        p1 = plen + 1
                        plen_l[i] = p1
                        if p1 > hw_p:
                            hw_p = p1
                        # Inline ledger.reserve_slot(mine, slot): the scan
                        # above proved the slot free or already ours.
                        if holder_col[slot] < 0:
                            holder_col[slot] = mine
                            res_delta += 1
                        held = held_map.get(mine)
                        if held is None:
                            held_map[mine] = {slot}
                        else:
                            held.add(slot)
                        refcount[slot] += 1
                        if nxt == dest:
                            outcome = OUTCOME_DELIVERED
            if outcome != OUTCOME_NONE or expired:
                # Finish inline: sync this row's columns and pending matrix
                # writes first (the record and circuit read them), then the
                # finish releases — a delivery's excursion links (or a
                # failure's whole circuit) free up for probes later in this
                # loop.
                self._outc[r] = outcome
                for col, values in zip(synced, lists):
                    col[r] = values[i]
                if moved == 1:
                    stack[r, depth] = f_nxt[-1]
                    sslot[r, depth] = f_slot[-1]
                    path[r, plen] = f_nxt[-1]
                elif moved == 2:
                    path[r, plen] = b_ret[-1]
                ledger._reserved_count += res_delta
                res_delta = 0
                self._finish_row(r, t)
                # The finish may have released the row's circuit links;
                # parked waiters later in this pass must see that.
                cell_epoch = ledger._epoch
                fin.append(r)

        # ``outc`` never changes for surviving rows (every outcome
        # assignment finishes the row inline above), so it needs no
        # writeback.
        for col, values in zip(synced, lists):
            col[rows] = values

        n = self._n
        if f_r:
            fr = np.array(f_r, dtype=np.int64)
            fd = np.array(f_d, dtype=np.int64)
            fdir = np.array(f_dir, dtype=np.int64)
            nx = np.array(f_nxt, dtype=np.int32)
            self._used[fr, f_cur] |= (np.uint32(1) << fdir).astype(np.uint32)
            stack[fr, fd] = nx
            sslot[fr, fd] = np.array(f_slot, dtype=np.int32)
            self._sdir[fr, fd] = np.where(fdir < n, fdir + n, fdir - n).astype(
                np.int8
            )
            path[fr, f_p] = nx
        if b_r:
            path[np.array(b_r, dtype=np.int64), b_p] = np.array(
                b_ret, dtype=np.int32
            )
        if rs_r:
            self._used[np.array(rs_r, dtype=np.int64)] = 0
        ledger._reserved_count += res_delta
        if hw_d > self._hw_depth:
            self._hw_depth = hw_d
        if hw_p > self._hw_plen:
            self._hw_plen = hw_p

    # ------------------------------------------------------------------ #
    # finishing
    # ------------------------------------------------------------------ #
    def _row_result(self, r: int) -> RouteResult:
        coords = self._coord_tuples
        depth, plen = int(self._depth[r]), int(self._plen[r])
        path = [coords[i] for i in self._path[r, :plen].tolist()]
        source = path[0]
        destination = coords[self._dest[r]]
        return RouteResult(
            outcome=_OUTCOMES[int(self._outc[r])],
            path=path,
            source=source,
            destination=destination,
            min_distance=self.mesh.distance(source, destination),
            # depth - 1 = forward - backtrack; plen - 1 = forward + backtrack.
            forward_hops=(plen + depth) // 2 - 1,
            backtrack_hops=(plen - depth) // 2,
            blocked_hops=int(self._blk[r]),
            setup_retries=int(self._rty[r]),
        )

    def _finish_row(self, r: int, t: int) -> None:
        """Record one finished row, mirroring the scalar finish order."""
        cs = self._cells[self._cell[r]]
        message = self._msgs[r]
        cs.host.finish_message(message, self._row_result(r), finish_step=t)
        ledger = cs.ledger
        if ledger is not None:
            holder = int(self._holder[r])
            if self._outc[r] == OUTCOME_DELIVERED:
                coords = self._coord_tuples
                stack = [coords[i] for i in self._stack[r, : self._depth[r]].tolist()]
                cs.host.hold_circuit(holder, stack, message, t)
            else:
                ledger.release(holder)

    def flush_cell(self, cell: int) -> None:
        """Flush ``cell``'s in-flight probes (step budget ran out).

        Mirrors the scalar :meth:`Simulator.run` tail: each probe is
        recorded with no finish step (no source feedback), its reservations
        released, and its row removed.
        """
        rows = np.flatnonzero(self._cell == cell)
        if rows.size == 0:
            return
        cs = self._cells[cell]
        for r in rows.tolist():
            cs.host.finish_message(self._msgs[r], self._row_result(r), finish_step=None)
            if cs.ledger is not None:
                cs.ledger.release(int(self._holder[r]))
        self._drop(rows)

    def teardown_node(self, cell: int, node: Coord, t: int) -> None:
        """Tear down ``cell``'s rows standing on or routed through ``node``.

        The fault-event counterpart of the scalar oracle's probe sweep
        (``Simulator._teardown_node``): rows whose stack crosses the failed
        node finish EXHAUSTED in insertion order, with the usual source
        feedback and ledger release through the normal finish path — so the
        flat-column engine stays byte-identical to the scalar loop.
        """
        rows = np.flatnonzero(self._cell == cell)
        if rows.size == 0:
            return
        node_idx = self.mesh.index_of(node)
        depth = self._depth[rows]
        onstack = (self._stack[rows] == node_idx) & (
            np.arange(self._depth_cap)[None, :] < depth[:, None]
        )
        doomed = rows[onstack.any(axis=1)]
        if doomed.size == 0:
            return
        for r in doomed.tolist():
            self._finish_row(r, t)
        self._drop(doomed)

    def _drop(self, rows: Sequence[int]) -> None:
        """Compact every column past the finished (already recorded) ``rows``."""
        keep = np.ones(self._cell.size, dtype=bool)
        keep[rows] = False
        keep = np.flatnonzero(keep)
        for attr, _dtype, _width, _fill in _COLUMNS:
            setattr(self, attr, getattr(self, attr)[keep])
        self._cell_count = np.bincount(
            self._cell, minlength=len(self._cells)
        ).tolist()


class _Pair:
    """One pair of an offline batch, as the table injects it.

    Not a tuple: the table keeps messages in an object column, and numpy
    would unpack tuples into a second axis.
    """

    __slots__ = ("source", "destination", "index")
    start_time = 0

    def __init__(self, source: Sequence[int], destination: Sequence[int], index: int):
        self.source = source
        self.destination = destination
        #: Position in the batch, where the result goes.
        self.index = index


class OfflineBatch:
    """A contention-free :class:`TableHost`: one batch of offline routes.

    Every pair is injected at step 0 and classified over the router's
    offline view, the view its :meth:`~repro.routing.Router.route` walks,
    until it finishes.  The table advances a row before it checks expiry,
    so a lifetime of ``limit - 1`` gives each row the ``limit`` steps of
    :func:`~repro.core.routing.route_offline`; a limit of 0 takes no step
    at all and so is not routed here.
    """

    circuits = None

    def __init__(
        self,
        router: Union[AlgorithmRouter, StaticBlockRouter],
        mesh: Mesh,
        labeling: LabelingState,
        pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
        *,
        max_steps: Optional[int] = None,
    ) -> None:
        limit = max_steps if max_steps is not None else probe_step_limit(mesh)
        if limit < 1:
            raise ValueError("an offline batch on the table takes at least one step")
        self.mesh = mesh
        self.router = router
        self.probe_lifetime = limit - 1
        self._view = router.offline_view(mesh, labeling)
        self._pairs = [_Pair(s, d, i) for i, (s, d) in enumerate(pairs)]
        self._results: List[Optional[RouteResult]] = [None] * len(self._pairs)

    def decision_view(self) -> InformationProvider:
        return self._view

    def poll(self, t: int) -> Sequence[_Pair]:
        return self._pairs if t == 0 else ()

    def finish_message(
        self, message: _Pair, result: RouteResult, *, finish_step: Optional[int]
    ) -> None:
        self._results[message.index] = result

    def route(self) -> List[RouteResult]:
        """Step one table cell until every pair finished; results in pair order."""
        table = ProbeTable(self.mesh)
        cell = table.attach(self)
        t = 0
        while t == 0 or table.cell_rows(cell):
            table.run_step(t, (cell,))
            t += 1
        return self._results
