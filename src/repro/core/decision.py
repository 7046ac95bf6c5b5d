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
  compiled once per information generation into flat constraint tables.

:class:`VectorDecisionEngine` compiles those per-node tables for one
information view and policy; :func:`classify_rows` classifies every row of
the struct-of-arrays :class:`~repro.core.probe_table.ProbeTable` in one
pass: per-node masks (usable, disabled-neighbor, spare-along-block) are
gathered by node index, the destination-dependent parts (preferred
directions, detour demotion, remaining-offset ordering) are computed for the
whole batch at once, and a single stable argsort recovers exactly the scalar
priority order.  The output is **byte-identical** to the scalar
:func:`~repro.core.routing.decision_candidates` per probe — the randomized
parity suite holds the two to that.

The engine is keyed on the information's validity token (labeling mutation
counter + record mutation counter): the per-node tables are rebuilt only
when the fault information actually changes, which at steady state means
once for a whole run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.routing import (
    DirectionClass,
    InformationProvider,
    RoutingPolicy,
    _routing_geometry,
)
from repro.faults.status import NodeStatus

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
    """Flat per-node classification tables of one information generation.

    Everything :func:`classify_rows` reads: the per-node state tables built
    by :meth:`VectorDecisionEngine._refresh` plus the mesh-geometry
    constants.  The stacked multi-cell runner concatenates several engines'
    tables along the node axis (shifting ``c_start`` by the per-cell
    constraint-row offsets), which works because every lookup here is keyed
    by a flat node index.
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

    #: Largest ``nodes x destinations`` product for which the per-generation
    #: detour bit table is precomputed (4 bytes per entry).
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
        # Lazily packed derivatives (built on first classify_rows call).
        self.base_key = None
        self.disabled_flag = None
        self.has_constraints = None
        self.detour_bits = None
        self.bit_range = None
        self.keys = None
        self.usable_bits = None
        self.coords_s = None

    def packed(self):
        """Build (once) the packed composite-key tables classify_rows uses.

        ``base_key[node, dir]`` is the composite sort key of the direction's
        class ignoring the per-row preferred/incoming/used overrides — the
        scalar class precedence folded into one gatherable int.  Within
        :attr:`DETOUR_TABLE_CAP`, the detour test (a per-destination prism
        membership) is also precompiled into ``detour_bits[node, dest]``.
        """
        if self.base_key is not None:
            return self
        span = self.span
        unit = span + 1
        base_cls = np.where(
            self.disabled_nb,
            _DISABLED_NEIGHBOR,
            np.where(self.along, _SPARE_ALONG_BLOCK, _SPARE),
        )
        self.base_key = base_cls * unit + span
        self.disabled_flag = self.node_codes == _DISABLED
        self.has_constraints = bool(self.c_count.any())
        self.bit_range = np.arange(self.two_n, dtype=np.uint32)
        self.usable_bits = (
            (self.usable.astype(np.uint32) << self.bit_range).sum(axis=1)
        ).astype(np.uint32)
        # Per-node coordinates pre-permuted to surface order and pre-signed,
        # so the preferred test is a single subtraction.
        self.coords_s = self.coords[:, self.dims] * self.signs
        self.keys = (
            _DISABLED_NEIGHBOR * unit + span,  # DN_KEY
            _PREFERRED * unit + span,  # PREF_BASE (minus remaining-offset)
            _PREFERRED_DETOUR * unit + span,  # PD_KEY
            _INCOMING * unit + span,  # INC_KEY
            _SKIP * unit + span,  # SKIP_KEY
            _SKIP * unit,  # SKIP_BASE (every real class sorts below it)
        )
        if (
            self.detour_bits is None  # may be pre-seeded by the engine
            and self.has_constraints
            and self.node_codes.shape[0] * self.size <= self.DETOUR_TABLE_CAP
        ):
            self.detour_bits = self._build_detour_bits()
        return self

    def _build_detour_bits(self):
        """``detour_bits[node, dest] >> dir & 1``: direction enters a
        dangerous prism while ``dest`` lies in the constraint's target."""
        cnt = self.c_count
        nodes_c = np.flatnonzero(cnt)
        reps = cnt[nodes_c]
        total = int(reps.sum())
        starts = np.cumsum(reps) - reps
        row_ids = np.repeat(self.c_start[nodes_c], reps) + (
            np.arange(total) - np.repeat(starts, reps)
        )
        owner = np.repeat(nodes_c, reps)
        dest_coords = self.coords
        lo = self.c_target_lo[row_ids]
        hi = self.c_target_hi[row_ids]
        in_target = (dest_coords[None, :, :] >= lo[:, None, :]).all(axis=2) & (
            dest_coords[None, :, :] <= hi[:, None, :]
        ).all(axis=2)
        prism_bits = (
            (self.c_prism[row_ids].astype(np.uint32) << self.bit_range).sum(axis=1)
        ).astype(np.uint32)
        contrib = in_target.astype(np.uint32) * prism_bits[:, None]
        bits = np.zeros((self.node_codes.shape[0], self.size), dtype=np.uint32)
        np.bitwise_or.at(bits, owner, contrib)
        return bits


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

    Every input is a column the :class:`~repro.core.probe_table.ProbeTable`
    keeps per probe.  ``node_idx`` indexes into ``tables`` (already
    cell-offset for stacked runs); ``cur_idx``/``dest_idx`` are the
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
    pk = tables.packed()
    dn_key, pref_base, pd_key, inc_key, skip_key, skip_base = pk.keys

    # Preferred directions and the remaining-offset ordering key.  The
    # composite sort key is class * (span+1) + within-class offset (the
    # offset is ``span - remaining`` for PREFERRED, ``span`` otherwise), so
    # a direction's key orders by class first, then farther-to-go first.
    dd = pk.coords_s[dest_idx] - pk.coords_s[cur_idx]
    pref = dd > 0
    remaining = np.abs(dd)

    comp = pk.base_key[node_idx]
    # Preferred overrides the spare classes but not a disabled neighbor.
    pref_ok = pref & (comp != dn_key)
    pref_val = pref_base - remaining

    # Detour demotion: preferred directions entering a dangerous prism
    # while the destination lies in the opposite prism.  Only probes at
    # constraint-holding nodes contribute rows.
    if pk.has_constraints:
        if pk.detour_bits is not None:
            dt = pk.detour_bits[node_idx, dest_idx]
            detour = (dt[:, None] >> pk.bit_range) & np.uint32(1)
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

    avail = ~used_bits & pk.usable_bits[node_idx]
    comp = np.where((avail[:, None] >> pk.bit_range) & np.uint32(1), comp, skip_key)

    # Priority order: (class, -remaining within PREFERRED, dim, sign).
    # The (dim, sign) tie-break comes from pre-permuting the columns and
    # using a stable sort on the composite scalar key.
    perm = tables.perm
    order = np.argsort(comp[:, perm], axis=1, kind="stable")
    sorted_dirs = perm[order]
    valid = (comp < skip_base).sum(axis=1)

    backtrack = pk.disabled_flag[node_idx] & ~at_source
    return backtrack, sorted_dirs, valid, comp


class VectorDecisionEngine:
    """Per-node classification tables of one information view and policy.

    Built over one information provider and one policy, exactly like the
    scalar oracle's :class:`~repro.core.routing.DecisionCache`.  Each
    :class:`~repro.core.probe_table.ProbeTable` cell owns one over the view
    its router decides against and feeds :meth:`tables` to
    :func:`classify_rows`.  Requires the provider to expose a
    code-array-backed ``labeling`` and ``nodes_holding_information()``
    (:class:`~repro.core.state.InformationState` does).
    """

    def __init__(self, info: InformationProvider, policy: RoutingPolicy) -> None:
        self.info = info
        self.policy = policy
        mesh = info.mesh
        self.mesh = mesh
        self._labeling = info.labeling  # type: ignore[attr-defined]
        self._has_record_mutations = hasattr(info, "record_mutations")

        n = mesh.n_dims
        self._n = n
        self._two_n = 2 * n
        dirs = mesh.directions
        #: Per surface-order direction: its dimension and sign, as columns.
        self._dims = np.array([d.dim for d in dirs], dtype=np.int64)
        self._signs = np.array([d.sign for d in dirs], dtype=np.int64)
        #: Direction indices re-ordered by ``(dim, sign)`` — the scalar
        #: tie-break order inside one priority class.
        self._perm = np.array(
            sorted(range(2 * n), key=lambda j: (dirs[j].dim, dirs[j].sign)),
            dtype=np.int64,
        )
        self._span = max(mesh.shape)
        #: Coordinate row per linear node index (feeds the detour bit table).
        self._coords = np.stack(
            np.unravel_index(np.arange(mesh.size, dtype=np.int64), mesh.shape),
            axis=1,
        )
        #: Per surface-order direction: its coordinate offset row, so a
        #: node's ``2n`` neighbor coordinates are one broadcast add.
        self._dir_offsets = np.zeros((self._two_n, n), dtype=np.int64)
        for j, d in enumerate(dirs):
            self._dir_offsets[j, d.dim] = d.sign
        self._bit_range32 = np.arange(self._two_n, dtype=np.uint32)

        #: Per-node compiled geometry rows (along-block mask, prism rows,
        #: target bounds), keyed by linear node index and validated against
        #: the provider's identity-stable geometry tuples — a refresh only
        #: recompiles the nodes whose records actually changed.
        self._geom_cache: Dict[int, Tuple] = {}

        self._token: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # per-information-generation tables
    # ------------------------------------------------------------------ #
    def _validity_token(self) -> Tuple[int, int]:
        return (
            self._labeling.mutations,
            self.info.record_mutations if self._has_record_mutations else -1,  # type: ignore[attr-defined]
        )

    def _refresh(self) -> None:
        """Rebuild the per-node tables for the current information state."""
        mesh = self.mesh
        info = self.info
        policy = self.policy
        size = mesh.size
        two_n = self._two_n

        codes = np.asarray(self._labeling.codes)
        self._node_codes = codes
        padded = np.empty(size + 1, dtype=codes.dtype)
        padded[:size] = codes
        padded[size] = 0  # off-mesh sentinel: an always-enabled neighbor
        neighbor_codes = padded[mesh.neighbor_gather_table]
        in_mesh = mesh.neighbor_table >= 0
        usable = in_mesh & (neighbor_codes != _FAULTY)
        self._usable = usable
        if policy.avoid_known_disabled:
            self._disabled_nb = usable & (neighbor_codes == _DISABLED)
        else:
            self._disabled_nb = np.zeros((size, two_n), dtype=bool)

        # Routing geometry, compiled flat.  Only nodes holding records have
        # any: ``along_block`` marks directions whose neighbor walks along a
        # known block's frame, and the constraint table packs every node's
        # (dangerous prism, opposite prism) pairs as contiguous rows.
        along = np.zeros((size, two_n), dtype=bool)
        c_start = np.zeros(size, dtype=np.int64)
        c_count = np.zeros(size, dtype=np.int64)
        prism_chunks: List[np.ndarray] = []
        lo_chunks: List[np.ndarray] = []
        hi_chunks: List[np.ndarray] = []
        detour_rows: List[Tuple[int, np.ndarray]] = []
        n_rows = 0
        if policy.use_block_info or policy.use_boundary_info:
            cache = self._geom_cache
            geom_fn = getattr(info, "routing_geometry", None)
            use_blk = policy.use_block_info
            use_bnd = policy.use_boundary_info
            offsets = self._dir_offsets
            coords = self._coords
            want_detour = size * size <= DecisionTables.DETOUR_TABLE_CAP
            for node in sorted(info.nodes_holding_information()):  # type: ignore[attr-defined]
                if geom_fn is not None:
                    constraints, frames = geom_fn(
                        node, use_block_info=use_blk, use_boundary_info=use_bnd
                    )
                else:
                    constraints, frames = _routing_geometry(info, node, policy)
                if not constraints and not frames:
                    continue
                idx = mesh.index_of(node)
                ent = cache.get(idx)
                if ent is None or ent[0] is not constraints or ent[1] is not frames:
                    # The provider's geometry tuples are identity-stable
                    # until the node's records change, so ``is`` mismatches
                    # exactly when this node needs recompiling.  Region
                    # membership is two inclusive bounds checks (off-mesh
                    # neighbor coordinates fail them naturally).
                    nb = np.asarray(node, dtype=np.int64) + offsets
                    along_row = None
                    if frames:
                        flo = np.array([f.lo for _e, f in frames], dtype=np.int64)
                        fhi = np.array([f.hi for _e, f in frames], dtype=np.int64)
                        elo = np.array([e.lo for e, _f in frames], dtype=np.int64)
                        ehi = np.array([e.hi for e, _f in frames], dtype=np.int64)
                        in_frame = (nb >= flo[:, None, :]).all(2) & (
                            nb <= fhi[:, None, :]
                        ).all(2)
                        in_extent = (nb >= elo[:, None, :]).all(2) & (
                            nb <= ehi[:, None, :]
                        ).all(2)
                        along_row = (in_frame & ~in_extent).any(0)
                    prism_arr = lo_arr = hi_arr = detour_row = None
                    if constraints:
                        plo = np.array([p.lo for p, _t in constraints], dtype=np.int64)
                        phi = np.array([p.hi for p, _t in constraints], dtype=np.int64)
                        prism_arr = (nb[None, :, :] >= plo[:, None, :]).all(2) & (
                            nb[None, :, :] <= phi[:, None, :]
                        ).all(2)
                        lo_arr = np.array(
                            [target.lo for _prism, target in constraints],
                            dtype=np.int64,
                        )
                        hi_arr = np.array(
                            [target.hi for _prism, target in constraints],
                            dtype=np.int64,
                        )
                        if want_detour:
                            # This node's detour bit row over every
                            # destination, compiled once per record change.
                            in_target = (coords[None, :, :] >= lo_arr[:, None, :]).all(
                                2
                            ) & (coords[None, :, :] <= hi_arr[:, None, :]).all(2)
                            pbits = (
                                (prism_arr.astype(np.uint32) << self._bit_range32).sum(
                                    axis=1
                                )
                            ).astype(np.uint32)
                            detour_row = np.bitwise_or.reduce(
                                in_target.astype(np.uint32) * pbits[:, None], axis=0
                            )
                    ent = (
                        constraints,
                        frames,
                        along_row,
                        prism_arr,
                        lo_arr,
                        hi_arr,
                        detour_row,
                    )
                    cache[idx] = ent
                if ent[2] is not None:
                    along[idx] = ent[2]
                if ent[3] is not None:
                    c_start[idx] = n_rows
                    c_count[idx] = ent[3].shape[0]
                    prism_chunks.append(ent[3])
                    lo_chunks.append(ent[4])
                    hi_chunks.append(ent[5])
                    n_rows += ent[3].shape[0]
                    if ent[6] is not None:
                        detour_rows.append((idx, ent[6]))
        self._along = along
        self._c_start = c_start
        self._c_count = c_count
        if prism_chunks:
            self._c_prism = np.concatenate(prism_chunks)
            self._c_target_lo = np.concatenate(lo_chunks)
            self._c_target_hi = np.concatenate(hi_chunks)
        else:
            self._c_prism = np.zeros((0, two_n), dtype=bool)
            self._c_target_lo = np.zeros((0, self._n), dtype=np.int64)
            self._c_target_hi = np.zeros((0, self._n), dtype=np.int64)
        self._tables_obj = DecisionTables(
            node_codes=self._node_codes,
            usable=self._usable,
            disabled_nb=self._disabled_nb,
            along=self._along,
            c_start=self._c_start,
            c_count=self._c_count,
            c_prism=self._c_prism,
            c_target_lo=self._c_target_lo,
            c_target_hi=self._c_target_hi,
            dims=self._dims,
            signs=self._signs,
            perm=self._perm,
            span=self._span,
            n=self._n,
            two_n=self._two_n,
            size=self.mesh.size,
            coords=self._coords,
        )
        if detour_rows:
            # Assemble the per-(node, destination) detour table from the
            # cached rows so ``packed`` never rebuilds it from scratch.
            bits = np.zeros((size, size), dtype=np.uint32)
            for idx, row in detour_rows:
                bits[idx] = row
            self._tables_obj.detour_bits = bits

    def tables(self) -> Tuple[DecisionTables, Tuple[int, int]]:
        """The (refreshed-on-demand) classification tables plus their token.

        The struct-of-arrays probe table classifies against these (via
        :func:`classify_rows`), concatenating the tables of its cells; the
        token is the information's validity key, so callers can cache
        derived state.
        """
        token = self._validity_token()
        if token != self._token:
            self._refresh()
            self._token = token
        return self._tables_obj, token
