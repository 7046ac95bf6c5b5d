"""Per-node fault-information state.

The limited-global model stores three kinds of information, each held only by
a *limited* set of nodes:

* node *status* (enabled / disabled / clean / faulty) — kept by every node
  for itself and refreshed from neighbors each round
  (:class:`repro.core.block_construction.LabelingState`);
* *block information* (the extent of an identified faulty block) — kept by
  the block's adjacent nodes, edge nodes and corners after the
  identification process;
* *boundary information* — kept by the nodes on the boundaries enclosing
  each dangerous area, so that a routing message is warned before it enters
  a detour region.

:class:`InformationState` bundles the three and is the single mutable object
the distributed protocols (identification, boundary construction) and the
routing algorithm operate on.  It also supports the memory-footprint
accounting used by the comparison experiments (information cells held per
node, versus a global fault table at every node).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.block_construction import LabelingState
from repro.core.faulty_block import dangerous_prism_of_extent
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh

Coord = Tuple[int, ...]

#: Resolved critical-routing constraint: (dangerous prism, opposite prism).
PrismPair = Tuple[Region, Region]

#: Known extent plus its one-hop frame (``extent.expand(1)``).
ExtentFrame = Tuple[Region, Region]


def resolve_routing_geometry(
    mesh: Mesh,
    boundaries: Iterable["BoundaryInfo"],
    blocks: Iterable["BlockRecord"],
) -> Tuple[Tuple[PrismPair, ...], Tuple[ExtentFrame, ...]]:
    """Resolve records into the geometry the routing classification checks.

    Returns the deduplicated (dangerous prism, opposite prism) pairs of
    every record — boundary records contribute their single dimension/side,
    block records every dimension and side — plus each known extent paired
    with its one-hop frame.  Single source of truth for the scalar
    derivation: the per-node cache on :class:`InformationState` and the
    provider-agnostic fallback in :mod:`repro.core.routing` both call it
    (the vectorized engine compiles the same geometry from the records'
    integer bounds).
    """
    triples: List[Tuple[Region, int, int]] = []
    extents: Set[Region] = set()
    for b in boundaries:
        triples.append((b.extent, b.dim, b.dangerous_side))
        extents.add(b.extent)
    for r in blocks:
        extents.add(r.extent)
        for dim in range(r.extent.n_dims):
            for side in (-1, +1):
                triples.append((r.extent, dim, side))
    pairs: Dict[PrismPair, None] = {}
    for extent, dim, side in triples:
        prism = dangerous_prism_of_extent(extent, mesh, dim, side)
        target = dangerous_prism_of_extent(extent, mesh, dim, -side)
        if prism is not None and target is not None:
            pairs[(prism, target)] = None
    frames = tuple((e, e.expand(1)) for e in sorted(extents))
    return tuple(pairs), frames


@dataclass(frozen=True)
class BlockRecord:
    """Block information as held by a node: the block's extent and a version.

    The version is a monotonically increasing generation number assigned by
    the identification process; it lets nodes discard out-of-date information
    when a block is reconstructed after a new fault or a recovery (the
    paper's cancellation of old boundaries).
    """

    extent: Region
    version: int = 0


@dataclass(frozen=True)
class BoundaryInfo:
    """Boundary information as held by a node on a block's boundary.

    Attributes
    ----------
    extent:
        The extent of the faulty block this boundary belongs to.
    dim:
        The axis of the dangerous prism enclosed by this boundary.
    dangerous_side:
        ``-1`` or ``+1``: the side of the block (along ``dim``) on which the
        dangerous prism lies.  A message in the prism whose destination lies
        beyond the block on the *other* side has no minimal path.
    version:
        Generation number matching the originating :class:`BlockRecord`.
    """

    extent: Region
    dim: int
    dangerous_side: int
    version: int = 0

    def __post_init__(self) -> None:
        if self.dangerous_side not in (-1, +1):
            raise ValueError("dangerous_side must be ±1")
        if not 0 <= self.dim < self.extent.n_dims:
            raise ValueError(f"dim {self.dim} out of range for extent {self.extent}")


@dataclass
class InformationState:
    """All fault information held across the mesh at one instant.

    Change-reporting contract: block/boundary records change only through
    :meth:`add_block_info` / :meth:`add_block_info_at`, :meth:`add_boundary`
    / :meth:`add_boundary_at`, :meth:`cancel_stale` or
    :meth:`clear_information`.  Each bumps :attr:`record_mutations` and
    stamps the nodes it touched, which is what :meth:`changed_nodes`
    reports to consumers holding per-node derived state (the vectorized
    decision engine).  Writing :attr:`node_blocks` / :attr:`node_boundaries`
    directly is only safe right after :meth:`clear_information`, before any
    consumer refreshes: the clear already reports every node as changed.
    """

    mesh: Mesh
    labeling: LabelingState
    node_blocks: Dict[Coord, Set[BlockRecord]] = field(default_factory=dict)
    node_boundaries: Dict[Coord, Set[BoundaryInfo]] = field(default_factory=dict)
    version: int = 0

    #: Count of effective record changes (adds, cancellations, clears).
    #: Together with ``labeling.mutations`` it forms the validity token the
    #: per-node decision caches key on: any information change bumps one of
    #: the two counters.
    record_mutations: int = field(default=0, compare=False)

    #: Per-node cache of the resolved routing geometry (detour constraints
    #: and extent frames), invalidated whenever the node's records change.
    #: The routing algorithm reads through :meth:`detour_constraints` /
    #: :meth:`known_extent_frames` so it stops rebuilding dangerous prisms
    #: at every hop.
    _route_cache: Dict[
        Coord, Dict[Tuple[bool, bool], Tuple[Tuple[PrismPair, ...], Tuple[ExtentFrame, ...]]]
    ] = field(default_factory=dict, repr=False, compare=False)

    #: ``record_mutations`` value of each node's last record change, by
    #: linear node index (bounded by the mesh size, not the run length).
    _stamps: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``record_mutations`` value of the last :meth:`clear_information`.
    _cleared_at: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._stamps = np.zeros(self.mesh.size, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def fresh(cls, mesh: Mesh, faults: Iterable[Sequence[int]] = ()) -> "InformationState":
        """A state with the given faults and no distributed information yet."""
        return cls(mesh=mesh, labeling=LabelingState.from_faults(mesh, faults))

    # ------------------------------------------------------------------ #
    # status (routing's adjacent-fault detection reads through this)
    # ------------------------------------------------------------------ #
    def status(self, node: Sequence[int]):
        """Current labeling status of ``node`` (see :class:`NodeStatus`)."""
        return self.labeling.status(node)

    # ------------------------------------------------------------------ #
    # block information
    # ------------------------------------------------------------------ #
    def add_block_info(self, node: Sequence[int], record: BlockRecord) -> bool:
        """Store ``record`` at ``node``; returns True if it was new there."""
        return self._store(self.node_blocks, self.mesh.index_of(node), record)

    def add_block_info_at(self, index: int, record: BlockRecord) -> bool:
        """:meth:`add_block_info` for a node given by a valid linear index."""
        return self._store(self.node_blocks, index, record)

    def blocks_known_at(self, node: Sequence[int]) -> FrozenSet[BlockRecord]:
        """Block records currently held by ``node``."""
        return frozenset(self.node_blocks.get(tuple(node), set()))

    def has_block_info(self, node: Sequence[int], extent: Region) -> bool:
        """True iff ``node`` holds a record for a block with this extent."""
        return any(r.extent == extent for r in self.node_blocks.get(tuple(node), set()))

    # ------------------------------------------------------------------ #
    # boundary information
    # ------------------------------------------------------------------ #
    def add_boundary(self, node: Sequence[int], info: BoundaryInfo) -> bool:
        """Store boundary ``info`` at ``node``; returns True if it was new."""
        return self._store(self.node_boundaries, self.mesh.index_of(node), info)

    def add_boundary_at(self, index: int, info: BoundaryInfo) -> bool:
        """:meth:`add_boundary` for a node given by a valid linear index."""
        return self._store(self.node_boundaries, index, info)

    def boundaries_at(self, node: Sequence[int]) -> FrozenSet[BoundaryInfo]:
        """Boundary records currently held by ``node``."""
        return frozenset(self.node_boundaries.get(tuple(node), set()))

    # ------------------------------------------------------------------ #
    # cached routing geometry
    # ------------------------------------------------------------------ #
    def _route_entry(
        self, node: Coord, use_block_info: bool, use_boundary_info: bool
    ) -> Tuple[Tuple[PrismPair, ...], Tuple[ExtentFrame, ...]]:
        per_node = self._route_cache.get(node)
        if per_node is None:
            per_node = self._route_cache[node] = {}
        key = (use_block_info, use_boundary_info)
        entry = per_node.get(key)
        if entry is None:
            boundaries = self.node_boundaries.get(node, ()) if use_boundary_info else ()
            blocks = self.node_blocks.get(node, ()) if use_block_info else ()
            entry = per_node[key] = resolve_routing_geometry(self.mesh, boundaries, blocks)
        return entry

    def detour_constraints(
        self,
        node: Sequence[int],
        *,
        use_block_info: bool = True,
        use_boundary_info: bool = True,
    ) -> Tuple[PrismPair, ...]:
        """Resolved (dangerous prism, opposite prism) pairs known at ``node``.

        This is the critical-routing geometry of every block/boundary record
        the node holds, with the prisms already materialized; results are
        cached per node and invalidated when the node's records change (or
        wholesale on :meth:`clear_information`), so a probe re-deciding at
        the node does not rebuild prisms.
        """
        return self._route_entry(tuple(node), use_block_info, use_boundary_info)[0]

    def known_extent_frames(
        self,
        node: Sequence[int],
        *,
        use_block_info: bool = True,
        use_boundary_info: bool = True,
    ) -> Tuple[ExtentFrame, ...]:
        """Known block extents at ``node`` paired with their one-hop frames.

        Cached alongside :meth:`detour_constraints`; the frame
        (``extent.expand(1)``) is what the routing algorithm checks to rank
        spare directions that walk along a known block.
        """
        return self._route_entry(tuple(node), use_block_info, use_boundary_info)[1]

    # ------------------------------------------------------------------ #
    # cancellation / garbage collection
    # ------------------------------------------------------------------ #
    def cancel_stale(self, current_extents: Iterable[Region]) -> int:
        """Remove block/boundary records whose extent no longer exists.

        Models the paper's deletion process that propagates along old
        boundaries after a block shrinks or disappears.  Returns the number
        of records removed.  Every call counts as one record change, but
        only the nodes that lost records are reported as changed.
        """
        live = set(current_extents)
        removed = 0
        self.record_mutations += 1
        for records in (self.node_blocks, self.node_boundaries):
            for node in list(records):
                held = records[node]
                keep = {r for r in held if r.extent in live}
                if len(keep) == len(held):
                    continue
                removed += len(held) - len(keep)
                if keep:
                    records[node] = keep
                else:
                    del records[node]
                self._touch(node)
        return removed

    def clear_information(self) -> None:
        """Drop every distributed record (labeling is kept)."""
        self.node_blocks.clear()
        self.node_boundaries.clear()
        self._route_cache.clear()
        self.record_mutations += 1
        self._cleared_at = self.record_mutations

    # ------------------------------------------------------------------ #
    # change reporting
    # ------------------------------------------------------------------ #
    def _store(self, records: Dict[Coord, Set], index: int, record) -> bool:
        """Add ``record`` to node ``index``'s set in ``records`` if it is new.

        A new record counts as one record change and stamps the node.
        """
        node = self.mesh.coord_of(index)
        existing = records.setdefault(node, set())
        if record in existing:
            return False
        existing.add(record)
        self.record_mutations += 1
        self._stamps[index] = self.record_mutations
        self._route_cache.pop(node, None)
        return True

    def _touch(self, node: Coord) -> None:
        """Stamp ``node`` as changed at the current record change."""
        self._stamps[self.mesh.index_of(node)] = self.record_mutations
        self._route_cache.pop(node, None)

    def changed_nodes(self, since: int) -> Optional[np.ndarray]:
        """Linear indices of the nodes whose records changed after ``since``.

        ``since`` is an earlier :attr:`record_mutations` value.  Returns
        ``None`` when :meth:`clear_information` ran after it, since then
        any node may have changed.
        """
        if self._cleared_at > since:
            return None
        return np.flatnonzero(self._stamps > since)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def information_cells(self) -> int:
        """Total number of block/boundary records stored across the mesh.

        Used by the memory-footprint comparison: the limited-global model
        stores a handful of records near each block, whereas a global fault
        table would store (number of blocks) records at *every* node.
        """
        return sum(len(v) for v in self.node_blocks.values()) + sum(
            len(v) for v in self.node_boundaries.values()
        )

    def nodes_holding_information(self) -> Set[Coord]:
        """Nodes holding at least one block or boundary record."""
        return set(self.node_blocks) | set(self.node_boundaries)

    def bump_version(self) -> int:
        """Advance and return the information generation counter."""
        self.version += 1
        return self.version
