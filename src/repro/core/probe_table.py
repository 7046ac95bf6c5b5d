"""Probe table: the message phase's fast path.

This is the simulator's one fast path for Algorithm-3 path setup.  Its
parity oracle is the scalar loop (``Simulator._step_messages``), which
keeps one :class:`~repro.core.routing.RoutingProbe` object per in-flight
message and steps it through the scalar decision.  The table keeps one
:class:`_Row` per in-flight probe instead, a ``__slots__`` object whose
fields are plain Python values over linear node indices:

* the PCS stack (the source at position 0), the link slot entered at each
  push (so a backtrack releases by slot) and the reversed entry direction
  per position (-1 at the source): the INCOMING surface index, so
  classification never reconstructs it from coordinate diffs;
* used-direction bits per node it forwarded from (bit ``j`` = direction
  column ``j`` of :attr:`Mesh.directions`);
* the traversal log (source first; every forward hop pushes and every
  backtrack pops, and both append to the log, so its length and the stack
  depth give the forward and backtrack hop counts);
* blocked-hop and setup-retry counters, the WAIT state and the carryover
  candidates of its last classification.

One :meth:`ProbeTable.run_step` call is one batched decision and one loop.
Every row needing a decision is classified in a single
:func:`~repro.core.decision.classify_rows` call; then one loop walks every
row in table order, contended and contention-free cells alike, moving each
probe one hop forward or back (or WAITing, or restarting its setup) and
finishing it inline.  The walk is sequential because Algorithm 3's PCS
setup is: a probe reserves or releases one link per hop, and a reservation
or release by row *i* must be visible to row *i + 1* of the same cell
within the same step — exactly the scalar loop's semantics.  (Rows were
once numpy columns.  The contended walk read them one row at a time
anyway, so for contended cells the columns only added a per-step round
trip to Python values and back; every cell also paid a concatenation per
injection and a compaction per finish.  Contention-free rows used to
advance by masked column writes; as objects each costs Python work per
step, which is cheaper up to a few hundred rows a step and dearer at
thousands.)  Decisions, per-message paths and statistics are
byte-identical to the scalar oracle; the parity suite holds the two to
that.

:func:`table_eligible` says which routers the table hosts: every
:class:`~repro.routing.AlgorithmRouter`, whose probes classify per direction
over one information view — the simulator's own information for most
policies (offline: the router's distributed or bare view), the
adjacent-only view for ``static-block``.  ``global-information`` (a BFS
planner), the scalar backend and meshes above 16 dimensions step the scalar
objects online and route pair by pair offline.

The table is multi-cell: several runs sharing one mesh shape can attach
to one table (the stacked sweep runner does), each with its own
information state, traffic and ledger.  The table owns one
:class:`~repro.core.decision.DecisionTables` store laid out cell after cell
on one node axis; each cell's
:class:`~repro.core.decision.VectorDecisionEngine` compiles into its own
slice, the first engine of a step whose information moved refreshes every
stale slice in one pass, and the whole stack classifies in one
:func:`~repro.core.decision.classify_rows` pass.

A delivered contended row is finished by link slot: the host receives the
row's index stack and entry slots, cuts loop excursions on indices and
holds exactly the remaining slots (:meth:`TableHost.hold_circuit`), so no
finish goes back to coordinates to rebuild a
:class:`~repro.pcs.circuit.Circuit`.

A cell reads its run only through :class:`TableHost`.  The contract has two
hosts: :class:`~repro.simulator.engine.Simulator`, whose message phase the
table runs, and :class:`OfflineBatch`, one batch of offline routes
classified over a router's offline view without contention (what
:meth:`~repro.routing.Router.route_batch` runs for the routers the table
hosts).
"""

from __future__ import annotations

import weakref
from typing import (
    TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple,
)

import numpy as np

from repro.backend import VECTOR, resolve_backend
from repro.core.block_construction import LabelingState
from repro.core.decision import DecisionTables, VectorDecisionEngine, classify_rows
from repro.core.routing import InformationProvider, RouteOutcome, RouteResult, probe_step_limit
from repro.mesh.topology import Mesh
from repro.obs.profile import NULL_PROFILER
from repro.routing import AlgorithmRouter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.pcs.circuit import ArrayCircuitLedger

Coord = Tuple[int, ...]


def table_eligible(router: object, n_dims: int) -> bool:
    """Whether a :class:`ProbeTable` runs a simulator's message phase or
    an offline batch.

    The one gate :class:`~repro.simulator.engine.Simulator`, the shard
    planner and :meth:`~repro.routing.Router.route_batch` share.  It takes
    the vector backend (decision engine and array ledger), a used-direction
    bitmask within 32 bits (at most 16 dimensions), and an
    :class:`~repro.routing.AlgorithmRouter`, whose probes are plain
    Algorithm-3 probes deciding against one information view
    (``online_view`` and ``offline_view``).
    """
    return (
        resolve_backend() == VECTOR
        and 2 * n_dims <= 32
        and isinstance(router, AlgorithmRouter)
    )


class TableHost(Protocol):
    """What one :class:`ProbeTable` cell reads of the run it steps probes for.

    :class:`~repro.simulator.engine.Simulator` and :class:`OfflineBatch`
    implement it.  Ledger holder ids are the table's own, counted per cell
    from 0 in injection order.
    """

    mesh: Mesh
    #: A router :func:`table_eligible` admits; rows classify under its policy.
    router: AlgorithmRouter
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
        self, holder: int, stack: Sequence[int], slots: Sequence[int],
        message: Any, t: int,
    ) -> None:
        """Contended cells only: hold a delivered row's circuit for the
        message's data transfer.

        ``stack`` is the row's PCS stack as node indices (the source
        first) and ``slots`` the link slot entered at each position (-1 at
        the source); ``holder`` still holds every link of the stack.  The
        host cuts each loop excursion back to its first visit (as
        :meth:`~repro.pcs.circuit.Circuit.from_stack` does on coordinates),
        makes the holder hold exactly the remaining slots and holds them for
        the transfer.
        """
        ...

    def record_occupancy(self) -> None:
        """Contended cells only: sample the reserved links after a step."""
        ...


class _CellState:
    """One attached host: its router's view, classifier, ledger and rows."""

    __slots__ = (
        "host", "router", "view", "classifier", "store", "ledger", "lifetime",
        "index", "offset", "carry_token", "carry_gen", "next_holder", "rows",
        "blocked", "retries", "waiting",
    )

    def __init__(self, host: TableHost, index: int, store: DecisionTables) -> None:
        # Non-owning: a simulator owns its table, so a strong reference
        # back would make every finished simulator wait for the cycle
        # collector instead of being freed when its last user drops it.
        self.host = weakref.proxy(host)
        self.router = host.router
        self.view: Optional[object] = None
        self.classifier: Optional[VectorDecisionEngine] = None
        #: The table's decision store; the classifier compiles into slice
        #: ``index``.
        self.store = store
        self.ledger = host.circuits
        self.lifetime = host.probe_lifetime
        #: Cell id, and where its nodes start in the store.
        self.index = index
        self.offset = index * host.mesh.size
        #: Information token of the last classification, and a counter
        #: bumped whenever it changes: a WAITing row's candidates carry
        #: over only while the counter is the one it was classified under
        #: (a WAIT changes no probe state).
        self.carry_token: Optional[Tuple[int, int]] = None
        self.carry_gen = 0
        self.next_holder = 0
        #: In-flight rows of this cell and the sums of their blocked hops,
        #: setup retries and WAIT flags, kept as the rows move and finish.
        self.rows = 0
        self.blocked = 0
        self.retries = 0
        self.waiting = 0

    def engine(self) -> VectorDecisionEngine:
        """The classifier over the view this cell's router decides against.

        Built once per view: once per run for the Algorithm-3 policies, once
        per labeling change for static-block's adjacent-only view.
        """
        view = self.host.decision_view()
        if view is not self.view:
            self.view = view
            self.classifier = VectorDecisionEngine(
                view, self.router.policy, self.store, self.index
            )
        return self.classifier


class _Row:
    """One in-flight probe: its message, PCS state and counters."""

    __slots__ = (
        "cs", "message", "dest", "expiry", "holder", "outcome",
        "stack", "slots", "rdirs", "used", "path",
        "blocked", "retries", "waited", "wepoch", "wslots", "cdirs", "count",
        "carry_gen",
    )

    def __init__(
        self, cs: _CellState, message: Any, src: int, dest: int, holder: int
    ) -> None:
        self.cs = cs
        self.message = message
        self.dest = dest
        #: The step the probe expires at (start + lifetime).
        self.expiry = message.start_time + cs.lifetime
        #: Ledger holder id.
        self.holder = holder
        #: ``None`` while the probe is in flight.
        self.outcome = RouteOutcome.DELIVERED if src == dest else None
        # The PCS stack, the link slot entered at each push and the
        # reversed entry direction per position.
        self.stack = [src]
        self.slots = [-1]
        self.rdirs = [-1]
        #: Used-direction bits per node index.
        self.used: Dict[int, int] = {}
        #: Traversal log.
        self.path = [src]
        self.blocked = 0
        self.retries = 0
        self.waited = False
        #: Ledger release epoch at which the row's candidates were last known
        #: all blocked (its last full WAIT scan, or a later check of their
        #: slots; -1 = must scan), and the link slots of those candidates.
        #: While none of the slots was freed after the epoch, a parked
        #: waiter's candidates are provably still all blocked.
        self.wepoch = -1
        self.wslots: Sequence[int] = ()
        #: Candidates of the last classification, in priority order, and
        #: how many are real (-1 = a rule-1 backtrack; zero is a genuine
        #: empty candidate list).
        self.cdirs: List[int] = []
        self.count = 0
        self.carry_gen = -1


class ProbeTable:
    """All in-flight probes of one or more same-shape cells, one row each."""

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        n = mesh.n_dims
        self._n = n
        self._two_n = 2 * n
        if self._two_n > 32:
            raise ValueError("used-direction bitmask supports at most 16 dimensions")
        # Per node index, per direction column: the neighbor and the link
        # slot (-1 off-mesh), as lists the row walk indexes directly.
        self._neighbors = mesh.neighbor_table.tolist()
        self._slots = mesh.link_slot_table.tolist()
        self._coord_tuples = tuple(mesh.nodes())

        self._cells: List[_CellState] = []
        #: Every in-flight row, in table (injection) order.
        self._rows: List[_Row] = []
        #: Every cell's decision tables, one slice per cell.
        self._store = DecisionTables(mesh)

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
        self._cells.append(_CellState(host, cell, self._store))
        return cell

    @property
    def _cell(self) -> np.ndarray:
        """Each row's cell id, in table order (its size is the row count).

        Built on demand for instrumentation: perfbench's tracer reads the
        row count off it when a step starts.
        """
        return np.array([row.cs.index for row in self._rows], dtype=np.int32)

    def cell_rows(self, cell: int) -> int:
        """Number of in-flight probes of ``cell`` (O(1), so per-step
        ``_work_remaining`` polls stay cheap)."""
        return self._cells[cell].rows

    def cell_counters(self, cell: int) -> Tuple[int, int, int, int]:
        """``(in_flight, blocked_hops, setup_retries, waiting)`` over the
        in-flight probes of ``cell`` — the step recorder's counter read
        (O(1): running sums kept as rows move and finish)."""
        cs = self._cells[cell]
        return cs.rows, cs.blocked, cs.retries, cs.waiting

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
        if self._rows:
            with profiler.span("decision_batch"):
                self._classify()
            with profiler.span("probe_advance"):
                self._advance(t)
        with profiler.span("occupancy"):
            for c in cells:
                cs = self._cells[c]
                if cs.ledger is not None:
                    cs.host.record_occupancy()

    def _inject(self, c: int, t: int) -> None:
        cs = self._cells[c]
        messages = cs.host.poll(t)
        if not messages:
            return
        index = self.mesh.coord_index
        rows = self._rows
        holder = cs.next_holder
        for m in messages:
            try:
                src, dest = index[m.source], index[m.destination]
            except (KeyError, TypeError):
                # Not a coordinate tuple of this mesh: index_of validates
                # (an off-mesh endpoint raises) and takes any sequence.
                src, dest = self.mesh.index_of(m.source), self.mesh.index_of(m.destination)
            rows.append(_Row(cs, m, src, dest, holder))
            holder += 1
        cs.next_holder = holder
        cs.rows += len(messages)

    # ------------------------------------------------------------------ #
    # classification
    # ------------------------------------------------------------------ #
    def _tables(self) -> Tuple[DecisionTables, List[Tuple[int, int]]]:
        """The store and every cell's information token for this step.

        Every cell's engine is resolved first (a new view binds a new engine
        to its slice), so the first ``tables()`` call that finds a token
        moved refreshes every stale slice in one pass and the other calls
        find theirs current.
        """
        engines = [cs.engine() for cs in self._cells]
        return self._store, [engine.tables()[1] for engine in engines]

    def _classify(self) -> None:
        """One classification pass over every row needing a decision.

        Rows that WAITed last step reuse their stored candidates while the
        cell's information token is unchanged: a WAIT changes neither the
        row nor the information, so its classification still holds.
        """
        tables, tokens = self._tables()
        for cs, token in zip(self._cells, tokens):
            if token != cs.carry_token:
                cs.carry_token = token
                cs.carry_gen += 1

        # Finished rows (src == dst injections) classify harmlessly — the
        # advance checks the outcome first — so the only skip worth testing
        # for is the WAIT carry.
        rows = [
            row for row in self._rows
            if not row.waited or row.carry_gen != row.cs.carry_gen
        ]
        if not rows:
            return
        cur = [row.stack[-1] for row in rows]
        cur_idx = np.array(cur)
        if len(self._cells) > 1:
            node_idx = np.array([row.cs.offset + c for row, c in zip(rows, cur)])
        else:
            node_idx = cur_idx
        backtrack, sorted_dirs, counts, _keys = classify_rows(
            tables,
            node_idx,
            cur_idx,
            np.array([row.dest for row in rows]),
            np.array([row.rdirs[-1] for row in rows]),
            np.array([row.used.get(c, 0) for row, c in zip(rows, cur)], dtype=np.uint32),
            # Rule 1 compares positions, not stack depth: a probe that
            # looped forward back onto its source coordinate is "at
            # source" here.
            np.array([row.stack[0] == c for row, c in zip(rows, cur)]),
        )
        for row, dirs, count, bt in zip(
            rows, sorted_dirs.tolist(), counts.tolist(), backtrack.tolist()
        ):
            row.cdirs = dirs
            row.count = -1 if bt else count
            row.carry_gen = row.cs.carry_gen
            # Fresh candidates: a parked waiter here must do a full scan.
            row.wepoch = -1

    # ------------------------------------------------------------------ #
    # the advance
    # ------------------------------------------------------------------ #
    def _advance(self, t: int) -> None:
        """Move every row one step in table order, finishing rows inline.

        A finishing row releases its links at once (a delivery's excursion
        links, or a failure's whole circuit), so rows later in the walk see
        them, as they see every hop's reservation or release.
        """
        kept: List[_Row] = []
        for row in self._rows:
            if row.outcome is None:
                cs = row.cs
                parked = False
                if row.waited:
                    epoch = cs.ledger._epoch
                    wepoch = row.wepoch
                    if wepoch != epoch and wepoch >= 0:
                        # Links of the cell were freed since the row's last
                        # full scan; only a free of its own candidates can
                        # unblock it.
                        freed = cs.ledger._freed
                        for slot in row.wslots:
                            if freed[slot] > wepoch:
                                break
                        else:
                            row.wepoch = wepoch = epoch
                    parked = wepoch == epoch
                if parked:
                    # Parked waiter: none of its candidate links was freed
                    # since its last full scan (and its candidates are
                    # unchanged), so every candidate is provably still
                    # blocked.  The scalar scan would re-count the same
                    # blocks and wait again.
                    row.retries += 1
                    row.blocked += row.count
                    cs.retries += 1
                    cs.blocked += row.count
                else:
                    self._move(row, cs)
            if row.outcome is not None or row.expiry <= t:
                self._finish(row, t)
            else:
                kept.append(row)
        self._rows = kept

    def _move(self, row: _Row, cs: _CellState) -> None:
        """One Algorithm-3 decision of a row that is not parked.

        A contended row (its cell has a ledger) skips, and counts as
        blocked, every candidate whose link another holder has, and reserves
        or releases the link it moves over; a contention-free row takes its
        first candidate.
        """
        ledger = cs.ledger
        if row.waited:
            row.waited = False
            cs.waiting -= 1
        stack = row.stack
        count = row.count
        if count > 0:
            cur = stack[-1]
            dirs = row.cdirs
            j = 0
            if ledger is not None:
                holders = ledger._holder
                links = self._slots[cur]
                for j in range(count):
                    owner = holders[links[dirs[j]]]
                    if owner < 0 or owner == row.holder:
                        break
                else:
                    j = count
                row.blocked += j
                cs.blocked += j
            if j < count:
                d = dirs[j]
                nxt = self._neighbors[cur][d]
                slot = self._slots[cur][d]
                row.used[cur] = row.used.get(cur, 0) | 1 << d
                stack.append(nxt)
                row.slots.append(slot)
                row.rdirs.append((d + self._n) % self._two_n)
                row.path.append(nxt)
                if ledger is not None:
                    ledger.reserve_slot(row.holder, slot)
                if nxt == row.dest:
                    row.outcome = RouteOutcome.DELIVERED
                return
            row.retries += 1
            cs.retries += 1
            if len(stack) == 1:
                # WAIT: nothing to release; park until one of the blocked
                # candidate links is freed.
                row.waited = True
                cs.waiting += 1
                row.wepoch = ledger._epoch
                row.wslots = [links[d] for d in dirs[:count]]
                return
        elif len(stack) == 1:
            if count == 0 and (row.blocked or row.retries):
                # RESTART: exhaustion contaminated by reservations.
                row.used.clear()
                row.retries += 1
                cs.retries += 1
            else:
                row.outcome = RouteOutcome.UNREACHABLE
            return
        # BACKTRACK one hop, releasing the link retreated over.
        stack.pop()
        row.rdirs.pop()
        slot = row.slots.pop()
        row.path.append(stack[-1])
        if ledger is not None:
            ledger.release_slot(row.holder, slot)

    # ------------------------------------------------------------------ #
    # finishing
    # ------------------------------------------------------------------ #
    def _result(self, row: _Row) -> RouteResult:
        coords = self._coord_tuples
        depth, plen = len(row.stack), len(row.path)
        path = [coords[i] for i in row.path]
        source = path[0]
        destination = coords[row.dest]
        return RouteResult(
            outcome=row.outcome or RouteOutcome.EXHAUSTED,
            path=path,
            source=source,
            destination=destination,
            min_distance=self.mesh.distance(source, destination),
            # depth - 1 = forward - backtrack; plen - 1 = forward + backtrack.
            forward_hops=(plen + depth) // 2 - 1,
            backtrack_hops=(plen - depth) // 2,
            blocked_hops=row.blocked,
            setup_retries=row.retries,
        )

    def _finish(self, row: _Row, t: int) -> None:
        """Record one finished row, mirroring the scalar finish order."""
        cs = row.cs
        cs.host.finish_message(row.message, self._result(row), finish_step=t)
        ledger = cs.ledger
        if ledger is not None:
            if row.outcome is RouteOutcome.DELIVERED:
                cs.host.hold_circuit(row.holder, row.stack, row.slots, row.message, t)
            else:
                ledger.release(row.holder)
        cs.rows -= 1
        cs.blocked -= row.blocked
        cs.retries -= row.retries
        cs.waiting -= row.waited

    def flush_cell(self, cell: int) -> None:
        """Flush ``cell``'s in-flight probes (step budget ran out).

        Mirrors the scalar :meth:`Simulator.run` tail: each probe is
        recorded with no finish step (no source feedback), its reservations
        released, and its row removed.
        """
        cs = self._cells[cell]
        flushed = [row for row in self._rows if row.cs is cs]
        if not flushed:
            return
        for row in flushed:
            cs.host.finish_message(row.message, self._result(row), finish_step=None)
            if cs.ledger is not None:
                cs.ledger.release(row.holder)
        self._rows = [row for row in self._rows if row.cs is not cs]
        cs.rows = cs.blocked = cs.retries = cs.waiting = 0

    def teardown_node(self, cell: int, node: Coord, t: int) -> None:
        """Tear down ``cell``'s rows standing on or routed through ``node``.

        The fault-event counterpart of the scalar oracle's probe sweep
        (``Simulator._teardown_node``): rows whose stack crosses the failed
        node finish EXHAUSTED in insertion order, with the usual source
        feedback and ledger release through the normal finish path — so the
        table stays byte-identical to the scalar loop.
        """
        cs = self._cells[cell]
        node_idx = self.mesh.index_of(node)
        kept: List[_Row] = []
        doomed: List[_Row] = []
        for row in self._rows:
            (doomed if row.cs is cs and node_idx in row.stack else kept).append(row)
        if not doomed:
            return
        for row in doomed:
            self._finish(row, t)
        self._rows = kept


class _Pair(NamedTuple):
    """One pair of an offline batch, as the table injects it."""

    source: Sequence[int]
    destination: Sequence[int]
    #: Position in the batch, where the result goes.
    index: int
    start_time: int = 0


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
        router: AlgorithmRouter,
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
