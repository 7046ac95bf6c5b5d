"""Vectorized Algorithm-3 direction classification (the probe table's kernel).

The scalar decision path (:func:`repro.core.routing.classify_directions` /
:func:`~repro.core.routing.decision_candidates`) classifies one probe's
outgoing directions with Python loops over the node's neighbors, the known
detour constraints and the known extent frames.  It is the parity oracle.

The fast path re-expresses the whole classification as numpy array
operations over flat representations:

* node statuses — :attr:`LabelingState.codes` (flat ``int8`` code array),
* adjacency — :attr:`Mesh.neighbor_table` / :attr:`Mesh.neighbor_gather_table`
  (the ``(size, 2n)`` surface-order neighbor stencil),
* routing geometry — the per-node detour constraints and extent frames,
  compiled from the records' integer bounds into flat constraint tables.

:class:`DecisionTables` is the *store*: the per-node tables of every cell
of one :class:`~repro.core.probe_table.ProbeTable`, laid out cell after
cell on one node axis.  Each cell's :class:`VectorDecisionEngine` (one
information view and policy) owns one slice of it; a standalone engine
owns a store of one cell.  :func:`classify_rows` classifies every row of
the table in one pass: per-node masks (usable, disabled-neighbor,
spare-along-block) are gathered by node index, the destination-dependent
parts (preferred directions, detour demotion, remaining-offset ordering)
are computed for the whole batch at once, and a single stable argsort
recovers exactly the scalar priority order.  The output is
**byte-identical** to the scalar
:func:`~repro.core.routing.decision_candidates` per probe — the randomized
parity suite holds the two to that.

Each engine is keyed on its information's validity token (labeling
mutation counter + record mutation counter).  The first engine of a step
that finds its token moved refreshes every stale slice of the store in one
pass: one status-mask gather for the relabeled cells, one compile of the
nodes :meth:`~repro.core.state.InformationState.changed_nodes` reports for
every changed cell, and one derive.  At steady state nothing is recompiled
for a whole run.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.faulty_block import dangerous_prism_of_extent
from repro.core.routing import DirectionClass, RoutingPolicy
from repro.core.state import InformationState
from repro.faults.status import NodeStatus
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh

_DISABLED = NodeStatus.DISABLED.code
_FAULTY = NodeStatus.FAULTY.code

#: Pseudo-class for directions excluded from the candidate list (off-mesh,
#: faulty neighbor, or already used); sorts after every real class.
_SKIP = len(DirectionClass)

_PREFERRED = int(DirectionClass.PREFERRED)
_SPARE_ALONG_BLOCK = int(DirectionClass.SPARE_ALONG_BLOCK)
_PREFERRED_DETOUR = int(DirectionClass.PREFERRED_DETOUR)
_SPARE = int(DirectionClass.SPARE)
_DISABLED_NEIGHBOR = int(DirectionClass.DISABLED_NEIGHBOR)
_INCOMING = int(DirectionClass.INCOMING)


class _Geometry(NamedTuple):
    """Read-only per-shape constants every store of that shape shares."""

    shape: Tuple[int, ...]
    nodes: Tuple[Tuple[int, ...], ...]
    #: ``(size, n)`` node coordinates, and the same pre-permuted to
    #: surface order and pre-signed, so the preferred test is a single
    #: subtraction.
    coords: np.ndarray
    coords_s: np.ndarray
    #: ``(n, 2n, size)``: coordinate ``d`` of every node's neighbor in
    #: every surface-order direction, dimension-major so box tests reduce
    #: over the leading axis, node-minor so they run along the rows.
    nb_coords: np.ndarray
    #: ``(n, 1, size)`` destination coordinates, dimension-major.
    dest_coords: np.ndarray
    on_mesh: np.ndarray
    gather: np.ndarray
    dims: np.ndarray
    signs: np.ndarray
    #: Direction indices re-ordered by ``(dim, sign)``, the scalar
    #: tie-break order inside one priority class.
    perm: np.ndarray
    dir_weights: np.ndarray


@lru_cache(maxsize=32)
def _geometry(shape: Tuple[int, ...]) -> _Geometry:
    """The per-shape constants, built once per mesh shape.

    Keyed on the shape, like :func:`_extent_rows`, so the cache keeps no
    caller's mesh alive.
    """
    mesh = Mesh(shape)
    n = mesh.n_dims
    two_n = 2 * n
    dirs = mesh.directions
    offsets = np.zeros((two_n, n), dtype=np.int64)
    for j, d in enumerate(dirs):
        offsets[j, d.dim] = d.sign
    coords = np.stack(
        np.unravel_index(np.arange(mesh.size, dtype=np.int64), shape), axis=1
    )
    dims = np.array([d.dim for d in dirs], dtype=np.int64)
    signs = np.array([d.sign for d in dirs], dtype=np.int64)
    geometry = _Geometry(
        shape=mesh.shape,
        nodes=tuple(mesh.nodes()),
        coords=coords,
        coords_s=coords[:, dims] * signs,
        nb_coords=np.ascontiguousarray(
            (coords[:, None, :] + offsets[None, :, :]).transpose(2, 1, 0)
        ),
        dest_coords=np.ascontiguousarray(coords.T[:, None, :]),
        on_mesh=mesh.neighbor_table >= 0,
        gather=mesh.neighbor_gather_table,
        dims=dims,
        signs=signs,
        perm=np.array(
            sorted(range(two_n), key=lambda j: (dirs[j].dim, dirs[j].sign)),
            dtype=np.int64,
        ),
        dir_weights=np.uint32(1) << np.arange(two_n, dtype=np.uint32),
    )
    for array in geometry[2:]:
        array.setflags(write=False)
    return geometry


class DecisionTables:
    """Flat per-node classification tables of every cell of one probe table.

    The store.  Everything :func:`classify_rows` reads: the node-row tables
    (``usable``, ``disabled_nb``, ``along``, the CSR constraint rows), their
    packed derivatives, and the mesh-geometry constants.  Cell ``c`` owns
    node rows ``c * size .. (c + 1) * size - 1``, compiled by the
    :class:`VectorDecisionEngine` bound to it; every lookup is keyed by a
    flat node index, so one :func:`classify_rows` pass serves every cell.
    The constraint rows are one store-wide CSR, grouped by owner row.

    The packed derivatives are recomputed by :meth:`derive` whenever a
    refresh rewrites the raw rows they come from, so they never go stale:

    * ``base_key[node, dir]`` — the composite sort key of the direction's
      class ignoring the per-row preferred/incoming/used overrides (the
      scalar class precedence folded into one gatherable int);
    * ``disabled_flag`` / ``usable_bits`` — the rule-1 flag and the usable
      directions as one bit word per node;
    * ``detour_bits[node, dest] >> dir & 1`` — while store rows x mesh size
      stays within :attr:`DETOUR_TABLE_CAP`, the detour test (direction
      enters a dangerous prism while ``dest`` lies in the constraint's
      target), precompiled per (node, destination); ``None`` beyond the
      cap, where :func:`classify_rows` tests the CSR constraint rows
      directly.
    """

    __slots__ = (
        "node_codes",
        "usable",
        "disabled_nb",
        "along",
        "c_start",
        "c_count",
        "c_prism",
        "c_target_lo",
        "c_target_hi",
        "dims",
        "signs",
        "perm",
        "span",
        "n",
        "two_n",
        "size",
        "coords",
        "base_key",
        "disabled_flag",
        "has_constraints",
        "detour_bits",
        "bit_range",
        "keys",
        "usable_bits",
        "coords_s",
        "rows",
        "_geometry",
        "_engines",
        "_c_owner",
        "_c_target",
    )

    #: Largest ``store rows x destinations`` product for which the detour
    #: bit table is kept (4 bytes per entry).
    DETOUR_TABLE_CAP = 1 << 22

    def __init__(self, mesh: Mesh) -> None:
        geometry = _geometry(mesh.shape)
        self._geometry = geometry
        n = mesh.n_dims
        two_n = 2 * n
        span = max(mesh.shape)
        self.n = n
        self.two_n = two_n
        self.span = span
        #: Destination-index domain and its coordinate rows (they key the
        #: pre-signed coordinate and per-(node, destination) detour tables).
        self.size = mesh.size
        self.coords = geometry.coords
        self.dims = geometry.dims
        self.signs = geometry.signs
        self.perm = geometry.perm
        self.coords_s = geometry.coords_s
        self.bit_range = np.arange(two_n, dtype=np.uint32)
        unit = span + 1
        self.keys = (
            _DISABLED_NEIGHBOR * unit + span,  # DN_KEY
            _PREFERRED * unit + span,  # PREF_BASE (minus remaining-offset)
            _PREFERRED_DETOUR * unit + span,  # PD_KEY
            _INCOMING * unit + span,  # INC_KEY
            _SKIP * unit + span,  # SKIP_KEY
            _SKIP * unit,  # SKIP_BASE (every real class sorts below it)
        )
        #: Node rows allocated so far (cells are added as engines bind).
        self.rows = 0
        self.node_codes = np.zeros(0, dtype=np.int8)
        self.usable = np.zeros((0, two_n), dtype=bool)
        self.disabled_nb = np.zeros((0, two_n), dtype=bool)
        self.along = np.zeros((0, two_n), dtype=bool)
        self.base_key = np.zeros((0, two_n), dtype=np.int64)
        self.disabled_flag = np.zeros(0, dtype=bool)
        self.usable_bits = np.zeros(0, dtype=np.uint32)
        self.c_count = np.zeros(0, dtype=np.int64)
        self.c_start = np.zeros(0, dtype=np.int64)
        self.detour_bits: Optional[np.ndarray] = np.zeros(
            (0, self.size), dtype=np.uint32
        )
        #: Owner row and target bounds (``lo + hi``) of each constraint
        #: row, rows grouped by owner.
        self._c_owner = np.zeros(0, dtype=np.int64)
        self._c_target = np.zeros((0, two_n), dtype=np.int64)
        self.c_prism = np.zeros((0, two_n), dtype=bool)
        self.c_target_lo = self._c_target[:, :n]
        self.c_target_hi = self._c_target[:, n:]
        self.has_constraints = False
        #: The engine bound to each cell.  Weak: an engine keeps its store
        #: alive, not the reverse, so no cycle outlives the table.
        self._engines: Dict[int, "weakref.ref[VectorDecisionEngine]"] = {}

    def bind(self, cell: int, engine: "VectorDecisionEngine") -> None:
        """Make ``engine`` the compiler of ``cell``'s slice.

        The engine starts without a token, so the next refresh compiles the
        whole slice (a new static-block view replaces its cell's engine).
        """
        self._engines[cell] = weakref.ref(engine)

    def _grow(self, cells: int) -> None:
        """Extend the node-row tables to ``cells`` cells of zero rows."""
        rows = cells * self.size
        if rows <= self.rows:
            return
        names = [
            "node_codes", "usable", "disabled_nb", "along", "base_key",
            "disabled_flag", "usable_bits", "c_count",
        ]
        if self.detour_bits is not None and rows * self.size > self.DETOUR_TABLE_CAP:
            self.detour_bits = None
        if self.detour_bits is not None:
            names.append("detour_bits")
        for name in names:
            old = getattr(self, name)
            new = np.zeros((rows,) + old.shape[1:], dtype=old.dtype)
            new[: self.rows] = old
            setattr(self, name, new)
        self.c_start = np.cumsum(self.c_count) - self.c_count
        self.rows = rows

    # ------------------------------------------------------------------ #
    # the refresh pass
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Bring every bound cell's slice to its information's token.

        One pass over every stale cell: their status masks in one gather,
        the touched nodes of every cell whose records changed in one
        compile, and one derive over all rewritten rows.
        """
        stale = []
        for cell, ref in self._engines.items():
            engine = ref()
            if engine is not None:
                token = engine.token()
                if token != engine._token:
                    stale.append((cell, engine, token))
        if not stale:
            return
        self._grow(max(self._engines) + 1)
        size = self.size
        relabeled: List[Tuple[int, "VectorDecisionEngine"]] = []
        jobs: List[Tuple[int, "VectorDecisionEngine", np.ndarray, np.ndarray]] = []
        rows: List[object] = []  # each stale cell's rewritten rows
        for cell, engine, token in stale:
            old = engine._token
            engine._token = token
            offset = cell * size
            if old is None:
                touched = None
            elif token[1] == old[1]:
                touched = np.zeros(0, dtype=np.int64)
            else:
                touched = engine.info.changed_nodes(old[1])
            if touched is None:
                touched = np.arange(size, dtype=np.int64)
            compiled = None
            if touched.size and engine.uses_geometry:
                compiled = touched + offset
                jobs.append((offset, engine, touched, compiled))
            if old is None or token[0] != old[0]:
                relabeled.append((cell, engine))
                rows.append(slice(offset, offset + size))
            elif compiled is not None:
                rows.append(compiled)
        if relabeled:
            self._relabel(relabeled)
        if jobs:
            self._compile(jobs)
        if len(rows) > 1:
            rows = [np.concatenate([
                np.arange(r.start, r.stop) if isinstance(r, slice) else r for r in rows
            ])]
        if rows:
            self.derive(rows[0], statuses=bool(relabeled))

    def derive(self, rows, *, statuses: bool = True) -> None:
        """Recompute the packed derivatives of ``rows`` from the raw tables.

        ``statuses=False`` skips the two that depend on node statuses only
        (``disabled_flag``, ``usable_bits``), for a change of geometry rows.
        """
        span = self.span
        base_cls = np.where(
            self.disabled_nb[rows],
            _DISABLED_NEIGHBOR,
            np.where(self.along[rows], _SPARE_ALONG_BLOCK, _SPARE),
        )
        self.base_key[rows] = base_cls * (span + 1) + span
        if statuses:
            self.disabled_flag[rows] = self.node_codes[rows] == _DISABLED
            self.usable_bits[rows] = (
                self.usable[rows].astype(np.uint32) << self.bit_range
            ).sum(axis=1, dtype=np.uint32)

    def _relabel(self, cells: Sequence[Tuple[int, "VectorDecisionEngine"]]) -> None:
        """Recompute the status-derived masks (usable, disabled neighbor) of
        ``cells`` from their labelings, in one gather."""
        size = self.size
        padded = np.zeros((len(cells), size + 1), dtype=np.int8)
        for row, (_cell, engine) in zip(padded, cells):
            # The last column stays 0, the off-mesh sentinel: an
            # always-enabled neighbor.
            row[:size] = engine.info.labeling.codes
        neighbor_codes = padded[:, self._geometry.gather]
        usable = self._geometry.on_mesh & (neighbor_codes != _FAULTY)
        for i, (cell, engine) in enumerate(cells):
            rows = slice(cell * size, (cell + 1) * size)
            self.node_codes[rows] = padded[i, :size]
            self.usable[rows] = usable[i]
            if engine.policy.avoid_known_disabled:
                self.disabled_nb[rows] = usable[i] & (neighbor_codes[i] == _DISABLED)
            else:
                self.disabled_nb[rows] = False

    def _compile(
        self, jobs: Sequence[Tuple[int, "VectorDecisionEngine", np.ndarray, np.ndarray]]
    ) -> None:
        """Recompile the geometry rows of every job's touched nodes in one pass.

        A job is ``(offset, engine, touched, rows)``: a cell's first row,
        its engine and its touched nodes, cell-local and as store rows.
        Reads each touched node's records as integer bound rows
        (deduplicated like :func:`~repro.core.state.resolve_routing_geometry`),
        then derives the along-block masks, constraint rows and detour bit
        rows of every touched node with one set of array operations.
        """
        geometry = self._geometry
        nodes = geometry.nodes
        n = self.n
        two_n = self.two_n
        shape = geometry.shape
        known: Dict[Region, _ExtentRows] = {}
        a_own: List[int] = []  # owner row of each frame row and extent row
        a_rows: List[bytes] = []
        a_nodes: List[int] = []  # rows holding records, first extent each
        a_first: List[int] = []
        c_own: List[int] = []  # owner row of each constraint
        p_rows: List[bytes] = []  # each constraint's dangerous prism
        # Each constraint's target (the opposite prism) as an index into
        # the distinct target rows: the nodes around a block share its few.
        t_base: Dict[bytes, int] = {}
        t_rows: List[bytes] = []
        t_total = 0
        t_which: List[int] = []
        for offset, engine, touched, _rows in jobs:
            info = engine.info
            blocks = info.node_blocks if engine.policy.use_block_info else {}
            bounds = info.node_boundaries if engine.policy.use_boundary_info else {}
            for idx in touched.tolist():
                coord = nodes[idx]
                held_r = blocks.get(coord)
                held_b = bounds.get(coord)
                if not held_r and not held_b:
                    continue
                # A block record contributes every dimension and side of its
                # extent, which covers any boundary record of the same extent.
                full = dict.fromkeys([r.extent for r in held_r]) if held_r else {}
                part: Dict[Tuple[Region, int], None] = {}
                for b in held_b or ():
                    if b.extent not in full:
                        part[(b.extent, 2 * b.dim + (b.dangerous_side > 0))] = None
                owner = offset + idx
                a_nodes.append(owner)
                a_first.append(len(a_rows))
                groups = []
                for e in full:
                    ext = known.get(e)
                    if ext is None:
                        ext = known[e] = _extent_rows(e, shape)
                    a_own += (owner, owner)
                    a_rows.append(ext.along)
                    if ext.count:
                        groups.append((ext.prisms, ext.targets, ext.count))
                if part:
                    for e in dict.fromkeys([e for e, _k in part]):
                        ext = known.get(e)
                        if ext is None:
                            ext = known[e] = _extent_rows(e, shape)
                        a_own += (owner, owner)
                        a_rows.append(ext.along)
                    for e, k in part:
                        pair = known[e].pairs[k]
                        if pair is not None:
                            groups.append((pair[0], pair[1], 1))
                for prisms, targets, count in groups:
                    p_rows.append(prisms)
                    base = t_base.get(targets)
                    if base is None:
                        base = t_base[targets] = t_total
                        t_rows.append(targets)
                        t_total += count
                    t_which.extend(range(base, base + count))
                    c_own += [owner] * count

        # One box test over every frame, extent and prism row: does the
        # owner's neighbor in each direction lie inside the row's box?
        touched = np.concatenate([job[3] for job in jobs])
        self.along[touched] = False
        n_a = len(a_own)
        owner = np.array(a_own + c_own, dtype=np.int64)
        prism = np.zeros((0, two_n), dtype=bool)
        if n_a:
            box = np.frombuffer(b"".join(a_rows + p_rows), dtype=np.int64)
            box = box.reshape(-1, two_n).T
            nb = geometry.nb_coords[:, :, owner % self.size]
            inside = (
                (nb >= box[:n, None, :]) & (nb <= box[n:, None, :])
            ).all(axis=0).T.copy()
            # Along-block: the neighbor is in a known frame but not in its
            # extent, for any extent the node knows.
            self.along[a_nodes] = np.logical_or.reduceat(
                inside[:n_a:2] & ~inside[1:n_a:2], a_first, axis=0
            )
            prism = inside[n_a:]
        # Only rows that held constraint rows have detour bits to clear.
        held = touched[self.c_count[touched] > 0]
        if not c_own and not held.size:
            return
        boxes = np.frombuffer(b"".join(t_rows), dtype=np.int64).reshape(-1, two_n)
        which = np.array(t_which, dtype=np.intp)
        self._splice(touched, owner[n_a:], prism, boxes[which])

        bits = self.detour_bits
        if bits is None:
            return
        bits[held] = 0
        # Most constraints let no direction of their node enter the prism;
        # only the others set bits.
        weight = prism.astype(np.uint32) @ geometry.dir_weights
        live = np.flatnonzero(weight)
        if live.size:
            dest = geometry.dest_coords
            in_target = (
                (dest >= boxes[:, :n].T[:, :, None])
                & (dest <= boxes[:, n:].T[:, :, None])
            ).all(axis=0)
            holders = owner[n_a:][live]
            first = np.flatnonzero(np.concatenate(([True], holders[1:] != holders[:-1])))
            contrib = in_target[which[live]] * weight[live, None]
            bits[holders[first]] = np.bitwise_or.reduceat(contrib, first, axis=0)

    def _splice(self, touched, owner, prism, target) -> None:
        """Replace the touched rows' CSR constraint rows with new ones."""
        n = self.n
        hit = np.zeros(self.rows, dtype=bool)
        hit[touched] = True
        keep = ~hit[self._c_owner]
        all_owner = np.concatenate([self._c_owner[keep], owner])
        order = np.argsort(all_owner, kind="stable")
        self._c_owner = all_owner[order]
        self.c_prism = np.concatenate([self.c_prism[keep], prism])[order]
        self._c_target = np.concatenate([self._c_target[keep], target])[order]
        self.c_target_lo = self._c_target[:, :n]
        self.c_target_hi = self._c_target[:, n:]
        self.c_count = np.bincount(self._c_owner, minlength=self.rows)
        self.c_start = np.cumsum(self.c_count) - self.c_count
        self.has_constraints = bool(self._c_owner.size)


def classify_rows(
    tables: DecisionTables,
    node_idx: np.ndarray,
    cur_idx: np.ndarray,
    dest_idx: np.ndarray,
    rev_col: np.ndarray,
    used_bits: np.ndarray,
    at_source: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classify and order a batch of decision rows in one pass.

    Every input holds one value per row of the
    :class:`~repro.core.probe_table.ProbeTable`.  ``node_idx`` indexes
    into ``tables`` (already cell-offset for stacked runs);
    ``cur_idx``/``dest_idx`` are the
    *cell-local* linear indices of the current node and the destination
    (keying the pre-signed coordinate and detour bit tables); ``rev_col`` is
    the reversed incoming direction (surface index, ``-1`` for probes
    holding no link); ``used_bits`` the packed used-direction word at the
    current node; ``at_source`` the rule-1 source check (position equality,
    *not* stack depth).

    Returns ``(backtrack, sorted_dirs, counts, keys)``: rule-1
    unconditional backtracks, direction indices in priority order, how many
    of them are real candidates, and each direction's composite sort key in
    surface order — ``keys // (tables.span + 1)`` is its
    :class:`~repro.core.routing.DirectionClass` value (``len(DirectionClass)``
    for skipped directions).
    """
    dn_key, pref_base, pd_key, inc_key, skip_key, skip_base = tables.keys

    # Preferred directions and the remaining-offset ordering key.  The
    # composite sort key is class * (span+1) + within-class offset (the
    # offset is ``span - remaining`` for PREFERRED, ``span`` otherwise), so
    # a direction's key orders by class first, then farther-to-go first.
    dd = tables.coords_s[dest_idx] - tables.coords_s[cur_idx]
    pref = dd > 0
    remaining = np.abs(dd)

    comp = tables.base_key[node_idx]
    # Preferred overrides the spare classes but not a disabled neighbor.
    pref_ok = pref & (comp != dn_key)
    pref_val = pref_base - remaining

    # Detour demotion: preferred directions entering a dangerous prism
    # while the destination lies in the opposite prism.  Only probes at
    # constraint-holding nodes contribute rows.
    if tables.has_constraints:
        if tables.detour_bits is not None:
            dt = tables.detour_bits[node_idx, dest_idx]
            detour = (dt[:, None] >> tables.bit_range) & np.uint32(1)
        else:
            # Beyond the detour table cap: test the constraint rows of the
            # probes' nodes directly (CSR segments, one reduceat).
            counts = tables.c_count[node_idx]
            detour = np.zeros((node_idx.shape[0], tables.two_n), dtype=bool)
            if counts.any():
                sel = np.flatnonzero(counts)
                cnts = counts[sel]
                total = int(cnts.sum())
                seg_starts = np.cumsum(cnts) - cnts
                reps = np.repeat(np.arange(sel.size), cnts)
                rows_c = np.repeat(tables.c_start[node_idx[sel]], cnts) + (
                    np.arange(total) - np.repeat(seg_starts, cnts)
                )
                d_sel = tables.coords[dest_idx[sel]][reps]
                in_target = np.all(
                    d_sel >= tables.c_target_lo[rows_c], axis=1
                ) & np.all(d_sel <= tables.c_target_hi[rows_c], axis=1)
                hit = in_target[:, None] & tables.c_prism[rows_c]
                detour[sel] = np.logical_or.reduceat(hit, seg_starts, axis=0)
        pref_val = np.where(detour, pd_key, pref_val)
    comp = np.where(pref_ok, pref_val, comp)

    # Incoming direction, reversed: the link the probe arrived over.  It
    # outranks every class except the used/unusable skip applied last.
    entered = np.flatnonzero(rev_col >= 0)
    comp[entered, rev_col[entered]] = inc_key

    avail = ~used_bits & tables.usable_bits[node_idx]
    comp = np.where((avail[:, None] >> tables.bit_range) & np.uint32(1), comp, skip_key)

    # Priority order: (class, -remaining within PREFERRED, dim, sign).
    # The (dim, sign) tie-break comes from pre-permuting the columns and
    # using a stable sort on the composite scalar key.
    perm = tables.perm
    order = np.argsort(comp[:, perm], axis=1, kind="stable")
    sorted_dirs = perm[order]
    valid = (comp < skip_base).sum(axis=1)

    backtrack = tables.disabled_flag[node_idx] & ~at_source
    return backtrack, sorted_dirs, valid, comp


class _ExtentRows(NamedTuple):
    """The integer bound rows one known extent contributes at a node.

    Rows are ``lo + hi`` as packed ``int64`` bytes, so a refresh joins the
    rows of every touched node into one array without converting each.
    """

    #: The extent's one-hop frame row, then the extent row.
    along: bytes
    #: The (dangerous prism, opposite prism) rows of every dimension and
    #: side, as a block record contributes them; ``count`` pairs.
    prisms: bytes
    targets: bytes
    count: int
    #: Per ``2 * dim + (side > 0)``, one boundary record's ``(prism,
    #: target)`` rows; ``None`` where either prism is empty in the mesh.
    pairs: Tuple[Optional[Tuple[bytes, bytes]], ...]


@lru_cache(maxsize=4096)
def _extent_rows(extent: Region, shape: Tuple[int, ...]) -> _ExtentRows:
    """Bound rows of ``extent`` in a mesh of ``shape``: its frame
    (``Region.expand(1)``) and the prisms of
    :func:`~repro.core.faulty_block.dangerous_prism_of_extent`.

    Keyed on the shape, not a :class:`Mesh`, so the cache keeps no mesh
    (and its lazily built tables) alive.
    """
    mesh = Mesh(shape)

    def row(*regions: Region) -> bytes:
        return np.array(
            [r.lo + r.hi for r in regions], dtype=np.int64
        ).tobytes()

    pairs: List[Optional[Tuple[bytes, bytes]]] = []
    for dim in range(mesh.n_dims):
        for side in (-1, +1):
            prism = dangerous_prism_of_extent(extent, mesh, dim, side)
            target = dangerous_prism_of_extent(extent, mesh, dim, -side)
            ok = prism is not None and target is not None
            pairs.append((row(prism), row(target)) if ok else None)
    valid = [pair for pair in pairs if pair is not None]
    return _ExtentRows(
        along=row(extent.expand(1), extent),
        prisms=b"".join(p for p, _t in valid),
        targets=b"".join(t for _p, t in valid),
        count=len(valid),
        pairs=tuple(pairs),
    )


class VectorDecisionEngine:
    """The classification tables of one information view and policy.

    Built over one :class:`~repro.core.state.InformationState` and one
    policy, exactly like the scalar oracle's
    :class:`~repro.core.routing.DecisionCache`.  It compiles into its
    ``cell``'s slice of a :class:`DecisionTables` store: the owning
    :class:`~repro.core.probe_table.ProbeTable`'s, shared by every cell of
    the table, or a store of its own (cell 0) when built standalone.  Each
    :class:`~repro.core.probe_table.ProbeTable` cell owns one over the view
    its router decides against and feeds :meth:`tables` to
    :func:`classify_rows`.

    The slice persists between refreshes and is refreshed by what changed:
    the labeling-derived masks only when ``labeling.mutations`` moved, the
    geometry rows only for the nodes the state reports through
    :meth:`~repro.core.state.InformationState.changed_nodes`.  A new engine
    compiles its whole slice.
    """

    def __init__(
        self,
        info: InformationState,
        policy: RoutingPolicy,
        store: Optional[DecisionTables] = None,
        cell: int = 0,
    ) -> None:
        self.info = info
        self.policy = policy
        self.mesh = info.mesh
        self.uses_geometry = policy.use_block_info or policy.use_boundary_info
        self.store = store if store is not None else DecisionTables(info.mesh)
        self.cell = cell
        #: Information token the slice was last compiled at (``None``:
        #: never).
        self._token: Optional[Tuple[int, int]] = None
        self.store.bind(cell, self)

    def token(self) -> Tuple[int, int]:
        """The information's validity key: labeling and record mutations."""
        return (self.info.labeling.mutations, self.info.record_mutations)

    def tables(self) -> Tuple[DecisionTables, Tuple[int, int]]:
        """The (refreshed-on-demand) store plus this view's token.

        A moved token refreshes every stale slice of the store at once, so
        the other cells' calls in the same step find theirs current.  The
        token is the information's validity key, so callers can cache
        derived state.
        """
        info = self.info
        token = (info.labeling.mutations, info.record_mutations)
        if token != self._token:
            self.store.refresh()
        return self.store, token
