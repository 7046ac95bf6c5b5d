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

:class:`VectorDecisionEngine` compiles those per-node tables for one
information view and policy; :func:`classify_rows` classifies every row of
the :class:`~repro.core.probe_table.ProbeTable` in one pass: per-node
masks (usable, disabled-neighbor, spare-along-block) are
gathered by node index, the destination-dependent parts (preferred
directions, detour demotion, remaining-offset ordering) are computed for the
whole batch at once, and a single stable argsort recovers exactly the scalar
priority order.  The output is **byte-identical** to the scalar
:func:`~repro.core.routing.decision_candidates` per probe — the randomized
parity suite holds the two to that.

The engine is keyed on the information's validity token (labeling mutation
counter + record mutation counter) and refreshes by what changed: a
labeling change recomputes the status masks, a record change recompiles
only the nodes :meth:`~repro.core.state.InformationState.changed_nodes`
reports, all of them in one vectorized pass.  At steady state nothing is
recompiled for a whole run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

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


class DecisionTables:
    """Flat per-node classification tables of one information view.

    Everything :func:`classify_rows` reads: the per-node state tables kept
    by :class:`VectorDecisionEngine`, their packed derivatives, and the
    mesh-geometry constants.  The stacked multi-cell runner concatenates
    several engines' tables along the node axis (shifting ``c_start`` by
    the per-cell constraint-row offsets), which works because every lookup
    here is keyed by a flat node index.

    The packed derivatives are built with the tables and recomputed by
    :meth:`derive` whenever the engine rewrites the raw rows they come
    from, so they never go stale:

    * ``base_key[node, dir]`` — the composite sort key of the direction's
      class ignoring the per-row preferred/incoming/used overrides (the
      scalar class precedence folded into one gatherable int);
    * ``disabled_flag`` / ``usable_bits`` — the rule-1 flag and the usable
      directions as one bit word per node;
    * ``detour_bits[node, dest] >> dir & 1`` — within
      :attr:`DETOUR_TABLE_CAP`, the detour test (direction enters a
      dangerous prism while ``dest`` lies in the constraint's target),
      precompiled per (node, destination); ``None`` beyond the cap, where
      :func:`classify_rows` tests the CSR constraint rows directly (and for
      a policy that reads no records).
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
    )

    #: Largest ``nodes x destinations`` product for which the detour bit
    #: table is kept (4 bytes per entry).
    DETOUR_TABLE_CAP = 1 << 22

    def __init__(
        self,
        *,
        node_codes,
        usable,
        disabled_nb,
        along,
        c_start,
        c_count,
        c_prism,
        c_target_lo,
        c_target_hi,
        dims,
        signs,
        perm,
        span,
        n,
        two_n,
        size,
        coords,
        detour_bits=None,
    ) -> None:
        self.node_codes = node_codes
        self.usable = usable
        self.disabled_nb = disabled_nb
        self.along = along
        self.c_start = c_start
        self.c_count = c_count
        self.c_prism = c_prism
        self.c_target_lo = c_target_lo
        self.c_target_hi = c_target_hi
        self.dims = dims
        self.signs = signs
        self.perm = perm
        self.span = span
        self.n = n
        self.two_n = two_n
        #: Destination-index domain and its coordinate rows (they key the
        #: pre-signed coordinate and per-(node, destination) detour tables).
        self.size = size
        self.coords = coords
        self.detour_bits = detour_bits
        self.has_constraints = bool(c_count.any())
        self.bit_range = np.arange(two_n, dtype=np.uint32)
        # Per-node coordinates pre-permuted to surface order and pre-signed,
        # so the preferred test is a single subtraction.
        self.coords_s = coords[:, dims] * signs
        unit = span + 1
        self.keys = (
            _DISABLED_NEIGHBOR * unit + span,  # DN_KEY
            _PREFERRED * unit + span,  # PREF_BASE (minus remaining-offset)
            _PREFERRED_DETOUR * unit + span,  # PD_KEY
            _INCOMING * unit + span,  # INC_KEY
            _SKIP * unit + span,  # SKIP_KEY
            _SKIP * unit,  # SKIP_BASE (every real class sorts below it)
        )
        rows = node_codes.shape[0]
        self.base_key = np.empty((rows, two_n), dtype=np.int64)
        self.disabled_flag = np.empty(rows, dtype=bool)
        self.usable_bits = np.empty(rows, dtype=np.uint32)
        self.derive()

    def derive(self, rows=slice(None), *, statuses: bool = True) -> None:
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
    """Per-node classification tables of one information view and policy.

    Built over one :class:`~repro.core.state.InformationState` and one
    policy, exactly like the scalar oracle's
    :class:`~repro.core.routing.DecisionCache`.  Each
    :class:`~repro.core.probe_table.ProbeTable` cell owns one over the view
    its router decides against and feeds :meth:`tables` to
    :func:`classify_rows`.

    The tables persist between refreshes and are refreshed by what
    changed: the labeling-derived masks only when ``labeling.mutations``
    moved, the geometry rows only for the nodes the state reports through
    :meth:`~repro.core.state.InformationState.changed_nodes`.  A new engine
    runs the same pass with every node touched.
    """

    def __init__(self, info: InformationState, policy: RoutingPolicy) -> None:
        self.info = info
        self.policy = policy
        mesh = info.mesh
        self.mesh = mesh
        self._labeling = info.labeling

        n = mesh.n_dims
        size = mesh.size
        two_n = 2 * n
        self._n = n
        dirs = mesh.directions
        offsets = np.zeros((two_n, n), dtype=np.int64)
        for j, d in enumerate(dirs):
            offsets[j, d.dim] = d.sign
        coords = np.stack(
            np.unravel_index(np.arange(size, dtype=np.int64), mesh.shape), axis=1
        )
        #: ``(n, size, 2n)``: coordinate ``d`` of every node's neighbor in
        #: every surface-order direction, dimension-major so box tests
        #: reduce over the leading axis.
        self._nb_coords = np.ascontiguousarray(
            (coords[:, None, :] + offsets[None, :, :]).transpose(2, 0, 1)
        )
        #: ``(n, 1, size)`` destination coordinates, dimension-major.
        self._dest_coords = np.ascontiguousarray(coords.T[:, None, :])
        self._dir_weights = np.uint32(1) << np.arange(two_n, dtype=np.uint32)
        self._all_nodes = np.arange(size, dtype=np.int64)
        self._uses_geometry = policy.use_block_info or policy.use_boundary_info
        #: Owner node and target bounds (``lo + hi``) of each constraint
        #: row, rows grouped by owner.
        self._c_owner = np.zeros(0, dtype=np.int64)
        self._c_target = np.zeros((0, two_n), dtype=np.int64)
        self._tables_obj = DecisionTables(
            node_codes=np.asarray(self._labeling.codes),
            usable=np.zeros((size, two_n), dtype=bool),
            disabled_nb=np.zeros((size, two_n), dtype=bool),
            along=np.zeros((size, two_n), dtype=bool),
            c_start=np.zeros(size, dtype=np.int64),
            c_count=np.zeros(size, dtype=np.int64),
            c_prism=np.zeros((0, two_n), dtype=bool),
            c_target_lo=self._c_target[:, :n],
            c_target_hi=self._c_target[:, n:],
            dims=np.array([d.dim for d in dirs], dtype=np.int64),
            signs=np.array([d.sign for d in dirs], dtype=np.int64),
            # Direction indices re-ordered by ``(dim, sign)`` — the scalar
            # tie-break order inside one priority class.
            perm=np.array(
                sorted(range(two_n), key=lambda j: (dirs[j].dim, dirs[j].sign)),
                dtype=np.int64,
            ),
            span=max(mesh.shape),
            n=n,
            two_n=two_n,
            size=size,
            coords=coords,
            detour_bits=(
                np.zeros((size, size), dtype=np.uint32)
                if self._uses_geometry
                and size * size <= DecisionTables.DETOUR_TABLE_CAP
                else None
            ),
        )
        self._token: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # refresh by what changed
    # ------------------------------------------------------------------ #
    def tables(self) -> Tuple[DecisionTables, Tuple[int, int]]:
        """The (refreshed-on-demand) classification tables plus their token.

        The probe table classifies against these (via
        :func:`classify_rows`), concatenating the tables of its cells; the
        token is the information's validity key, so callers can cache
        derived state.
        """
        token = (self._labeling.mutations, self.info.record_mutations)
        if token != self._token:
            self._refresh(token)
        return self._tables_obj, token

    def _refresh(self, token: Tuple[int, int]) -> None:
        """Bring the tables from the last token to ``token``."""
        old = self._token
        if old is None:
            touched = self._all_nodes
        elif token[1] != old[1]:
            touched = self.info.changed_nodes(old[1])
            if touched is None:
                touched = self._all_nodes
        else:
            touched = self._all_nodes[:0]
        relabeled = old is None or token[0] != old[0]
        if relabeled:
            self._refresh_labeling()
        if touched.size and self._uses_geometry:
            self._compile(touched)
        if relabeled:
            self._tables_obj.derive()
        else:
            self._tables_obj.derive(touched, statuses=False)
        self._token = token

    def _refresh_labeling(self) -> None:
        """Recompute the status-derived masks (usable, disabled neighbor)."""
        mesh = self.mesh
        tb = self._tables_obj
        codes = np.asarray(self._labeling.codes)
        tb.node_codes = codes
        padded = np.empty(mesh.size + 1, dtype=codes.dtype)
        padded[:-1] = codes
        padded[-1] = 0  # off-mesh sentinel: an always-enabled neighbor
        neighbor_codes = padded[mesh.neighbor_gather_table]
        tb.usable = (mesh.neighbor_table >= 0) & (neighbor_codes != _FAULTY)
        if self.policy.avoid_known_disabled:
            tb.disabled_nb = tb.usable & (neighbor_codes == _DISABLED)

    def _compile(self, touched: np.ndarray) -> None:
        """Recompile the geometry rows of the ``touched`` nodes in one pass.

        Reads each touched node's records as integer bound rows
        (deduplicated like :func:`~repro.core.state.resolve_routing_geometry`),
        then derives the along-block masks, constraint rows and detour bit
        rows of all touched nodes with one set of array operations.
        """
        tb = self._tables_obj
        info = self.info
        mesh = self.mesh
        n = self._n
        shape = mesh.shape
        blocks = info.node_blocks if self.policy.use_block_info else {}
        bounds = info.node_boundaries if self.policy.use_boundary_info else {}
        a_own: List[int] = []  # owner of each frame row and extent row
        a_rows: List[bytes] = []
        c_own: List[int] = []  # owner of each (prism, opposite prism) pair
        p_rows: List[bytes] = []
        t_rows: List[bytes] = []
        c_nodes: List[int] = []  # constraint-holding nodes, first row each
        c_first: List[int] = []
        for idx in touched.tolist():
            coord = mesh.coord_of(idx)
            held_r = blocks.get(coord)
            held_b = bounds.get(coord)
            if not held_r and not held_b:
                continue
            # A block record contributes every dimension and side of its
            # extent, which covers any boundary record of the same extent.
            full = dict.fromkeys(r.extent for r in held_r or ())
            extents = dict(full)
            part: Dict[Tuple[Region, int], None] = {}
            for b in held_b or ():
                extents[b.extent] = None
                if b.extent not in full:
                    part[(b.extent, 2 * b.dim + (b.dangerous_side > 0))] = None
            count = 0
            for e in extents:
                rows = _extent_rows(e, shape)
                a_own += (idx, idx)
                a_rows.append(rows.along)
                if e in full and rows.count:
                    p_rows.append(rows.prisms)
                    t_rows.append(rows.targets)
                    count += rows.count
            for e, k in part:
                pair = _extent_rows(e, shape).pairs[k]
                if pair is not None:
                    p_rows.append(pair[0])
                    t_rows.append(pair[1])
                    count += 1
            if count:
                c_nodes.append(idx)
                c_first.append(len(c_own))
                c_own += [idx] * count

        # One box test over every frame, extent and prism row: does the
        # owner's neighbor in each direction lie inside the row's box?
        two_n = tb.two_n
        tb.along[touched] = False
        n_a = len(a_own)
        prism = np.zeros((0, two_n), dtype=bool)
        if n_a:
            owner = np.array(a_own + c_own, dtype=np.int64)
            box = np.frombuffer(b"".join(a_rows + p_rows), dtype=np.int64)
            box = box.reshape(-1, two_n)
            nb = self._nb_coords[:, owner]
            inside = (
                (nb >= box[:, :n].T[:, :, None]) & (nb <= box[:, n:].T[:, :, None])
            ).all(axis=0)
            # Along-block: the neighbor is in a known frame but not in its
            # extent.
            np.logical_or.at(
                tb.along, owner[:n_a:2], inside[:n_a:2] & ~inside[1:n_a:2]
            )
            prism = inside[n_a:]
        # Only nodes that held constraint rows have detour bits to clear;
        # leaving the rest untouched keeps never-set rows unallocated.
        held = touched[tb.c_count[touched] > 0]
        if not c_own and not held.size:
            return
        target = np.frombuffer(b"".join(t_rows), dtype=np.int64).reshape(-1, two_n)
        self._splice_constraints(touched, np.array(c_own, dtype=np.int64), prism, target)

        bits = tb.detour_bits
        if bits is None:
            return
        bits[held] = 0
        if c_own:
            dest = self._dest_coords
            in_target = (
                (dest >= target[:, :n].T[:, :, None])
                & (dest <= target[:, n:].T[:, :, None])
            ).all(axis=0)
            contrib = in_target * (prism.astype(np.uint32) @ self._dir_weights)[:, None]
            bits[c_nodes] = np.bitwise_or.reduceat(contrib, c_first, axis=0)

    def _splice_constraints(self, touched, owner, prism, target) -> None:
        """Replace the touched nodes' CSR constraint rows with new ones."""
        tb = self._tables_obj
        n = self._n
        hit = np.zeros(self.mesh.size, dtype=bool)
        hit[touched] = True
        keep = ~hit[self._c_owner]
        all_owner = np.concatenate([self._c_owner[keep], owner])
        order = np.argsort(all_owner, kind="stable")
        self._c_owner = all_owner[order]
        tb.c_prism = np.concatenate([tb.c_prism[keep], prism])[order]
        self._c_target = np.concatenate([self._c_target[keep], target])[order]
        tb.c_target_lo = self._c_target[:, :n]
        tb.c_target_hi = self._c_target[:, n:]
        tb.c_count = np.bincount(self._c_owner, minlength=self.mesh.size)
        tb.c_start = np.cumsum(tb.c_count) - tb.c_count
        tb.has_constraints = bool(self._c_owner.size)
