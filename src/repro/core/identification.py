"""The n-level identification process (Algorithm 2, Figures 5 and 6).

When block construction creates or enlarges a block, the nodes around it
must learn the block's extent before they can build boundaries.  The paper
identifies the extent with a three-phase, corner-to-corner message exchange:

* **phase 1** — ``n-1`` identification messages start at an *initialization
  corner* (an n-level corner of the new block) and travel along the block's
  edge nodes;
* **phase 2** — every edge node activates a down-level identification that
  travels around its cross-section of the block;
* **phase 3** — the identified partial information is collected at the
  n-level corner *opposite* the initialization corner, where the two corner
  positions determine the block extent.

Afterwards the identified block information is propagated back from the
opposite corner to *all* adjacent nodes, edge nodes and corners of the block
(Figure 6), which in turn triggers boundary construction.

Implementation note (documented substitution).  The protocol here performs
the same corner-to-corner information flow over the block's adjacency frame
— messages advance one hop per round, carry the partial extent observed so
far, terminate at the opposite corner and are then redistributed over the
frame — but the recursive per-section bookkeeping of phases 2/3 is folded
into a single wavefront that accumulates partial extents.  The identified
result is identical (the block's bounding extent), the initiating and
terminating nodes are identical, and the number of rounds grows with the
block perimeter exactly as in the paper's phased description, so the
quantities the evaluation uses (``b_i`` and the set of informed nodes) are
preserved.  Instability handling is also preserved: if a relay node turns
faulty or disabled while the process runs, the affected message is
discarded and the process reports the block as unstable; a TTL bounds the
lifetime of every message.

Everything about a frame that does not depend on the labeling — its node
indices, its neighbour table, the Chebyshev stencil and the default
corners — depends only on the block extent and the mesh shape, and every
fault and repair re-identifies blocks whose extents the process has seen
before.  :func:`frame_geometry` builds it once per ``(extent, shape)`` and
shares it read-only through a small bounded cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.faulty_block import FaultyBlock, frame_coords
from repro.core.state import BlockRecord, InformationState
from repro.faults.status import NodeStatus
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh

Coord = Tuple[int, ...]

#: The empty bound of a merged ``[lo, -hi]`` partial extent, and the flag
#: value of a row that sends nothing.
_BIG = 1 << 40
_DISABLED = NodeStatus.DISABLED.code

#: What :func:`frame_geometry` may keep: each frame is charged its arrays'
#: bytes plus :data:`_FRAME_OVERHEAD` for its Python objects.
FRAME_CACHE_BYTES = 2 << 20
_FRAME_OVERHEAD = 1024


@lru_cache(maxsize=None)
def _chebyshev_offsets(n_dims: int) -> np.ndarray:
    """The ``3^n - 1`` offsets of a node's Chebyshev-1 neighbourhood."""
    offsets = np.array(list(product((-1, 0, 1), repeat=n_dims)), dtype=np.int64)
    offsets = offsets[np.abs(offsets).sum(axis=1) > 0]
    offsets.setflags(write=False)
    return offsets


@lru_cache(maxsize=32)
def _node_bounds(shape: Tuple[int, ...]) -> np.ndarray:
    """Every node's own merged bound ``[c, -c, _BIG]`` in a mesh of ``shape``.

    ``(size + 1, 2n + 1)``: row ``size`` (the off-mesh sentinel) is empty,
    and the last column is the no-sender flag, so an observation gathered
    from it merges into a protocol's bound rows as they are.
    """
    coords = np.indices(shape).reshape(len(shape), -1).T
    size, n = coords.shape
    bounds = np.full((size + 1, 2 * n + 1), _BIG, dtype=np.int64)
    bounds[:size, :n] = coords
    bounds[:size, n:2 * n] = -coords
    bounds.setflags(write=False)
    return bounds


def _index_dtype(limit: int) -> np.dtype:
    """The narrowest unsigned integer dtype holding ``0 .. limit``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if limit <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


class FrameGeometry(NamedTuple):
    """The labeling-independent geometry of one extent's adjacency frame.

    Shared read-only by every :class:`IdentificationProtocol` on the same
    extent and mesh shape; index arrays use the narrowest dtype that holds
    their sentinel.
    """

    #: Frame nodes as linear indices, in row-major order.
    nodes: np.ndarray
    #: ``(frame, 2n)`` frame position of each node's neighbour per
    #: direction; ``len(nodes)`` (the off-frame sentinel) where the
    #: neighbour is off the mesh or off the frame.
    nb: np.ndarray
    #: ``(frame, 3^n - 1)`` Chebyshev-1 neighbours as linear indices; the
    #: mesh size (the off-mesh sentinel) where a neighbour is off the mesh.
    stencil: np.ndarray
    #: Frame positions of the default initialization corner and of the
    #: corner opposite it (``-1`` for an empty frame).
    init: int
    opposite: int


class _FrameCache:
    """Frames by ``(extent, mesh shape)``, least recently used dropped first
    once their charge passes ``limit`` bytes.  Keyed on the shape, so it
    holds neither a mesh nor a state; safe to share between threads."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        #: Bytes charged for the frames held.
        self.size = 0
        self._frames: "OrderedDict[Tuple[Region, Tuple[int, ...]], FrameGeometry]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def get(self, extent: Region, mesh: Mesh) -> FrameGeometry:
        key = (extent, mesh.shape)
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                self._frames.move_to_end(key)
                return frame
        frame = _build_frame(extent, mesh)
        with self._lock:
            if key not in self._frames:
                self._frames[key] = frame
                self.size += _charge(frame)
                while self.size > self.limit:
                    self.size -= _charge(self._frames.popitem(last=False)[1])
        return frame


def _charge(frame: FrameGeometry) -> int:
    return _FRAME_OVERHEAD + frame.nodes.nbytes + frame.nb.nbytes + frame.stencil.nbytes


_FRAME_CACHE = _FrameCache(FRAME_CACHE_BYTES)


def frame_geometry(extent: Region, mesh: Mesh) -> FrameGeometry:
    """The frame geometry of ``extent`` in ``mesh``.

    Built once per ``(extent, mesh shape)`` and shared through a bounded
    cache (:data:`FRAME_CACHE_BYTES`); a miss builds from ``mesh``'s own
    tables.
    """
    return _FRAME_CACHE.get(extent, mesh)


def _build_frame(extent: Region, mesh: Mesh) -> FrameGeometry:
    shape = mesh.shape
    coords = frame_coords(extent, shape)
    size = len(coords)
    nodes = np.ravel_multi_index(tuple(coords.T), shape).astype(np.int64)
    local = np.full(mesh.size + 1, size, dtype=np.int64)
    local[nodes] = np.arange(size)
    # Off-mesh neighbours are -1 and read local[-1], the sentinel.
    nb = local[mesh.neighbor_table[nodes]]
    around = coords[:, None, :] + _chebyshev_offsets(mesh.n_dims)[None, :, :]
    on_mesh = ((around >= 0) & (around < np.array(shape))).all(axis=2)
    stencil = np.where(
        on_mesh, np.ravel_multi_index(tuple(around.T), shape, mode="clip").T, mesh.size
    )
    init = opposite = -1
    if size:
        corners = [p for p in extent.block_corner_points() if mesh.contains(p)]
        # Block touches the mesh surface everywhere diagonally; fall back
        # to an arbitrary frame node as the initiator.
        corner = max(corners) if corners else tuple(coords[-1].tolist())
        init = _position(nodes, mesh, corner)
        opposite = _position(nodes, mesh, _opposite_of(extent, corner, nodes, mesh))
    frame = FrameGeometry(
        nodes=nodes.astype(_index_dtype(mesh.size)),
        nb=nb.astype(_index_dtype(size)),
        stencil=stencil.astype(_index_dtype(mesh.size)),
        init=init,
        opposite=opposite,
    )
    for array in frame[:3]:
        array.setflags(write=False)
    return frame


def _position(nodes: np.ndarray, mesh: Mesh, node: Coord) -> Optional[int]:
    """Frame position of ``node``, or ``None`` when it is not on the frame."""
    if not mesh.contains(node):
        return None
    index = mesh.index_of(node)
    position = int(np.searchsorted(nodes, index))
    if position < len(nodes) and int(nodes[position]) == index:
        return position
    return None


def _opposite_of(extent: Region, corner: Coord, nodes: np.ndarray, mesh: Mesh) -> Coord:
    """The n-level corner diagonally opposite ``corner`` (clipped to mesh)."""
    opposite = []
    for c, a, b in zip(corner, extent.lo, extent.hi):
        if c <= a - 1:
            opposite.append(b + 1)
        elif c >= b + 1:
            opposite.append(a - 1)
        else:
            # Initiator not a full corner in this dimension; mirror within
            # the span (keeps the node on the frame).
            opposite.append(a + b - c)
    candidate = tuple(opposite)
    if _position(nodes, mesh, candidate) is not None:
        return candidate
    # Clipped by the mesh surface: fall back to the frame node farthest
    # from the initiator.  Ties go to the first in the iteration order of
    # the frame *set* built in row-major order, which is part of the
    # protocol's output contract.
    frame = set(map(mesh.coord_of, nodes.tolist()))
    return max(frame, key=lambda p: mesh.distance(corner, p))


def oracle_identify(nodes: Iterable[Sequence[int]]) -> Region:
    """Directly compute the extent a completed identification would produce.

    This is the centralized "oracle" counterpart of the distributed process:
    the bounding hyper-rectangle of the block's member nodes.  Tests use it
    to check that the distributed protocol converges to the same answer.
    """
    return Region.from_points(nodes)


@dataclass(frozen=True)
class IdentificationResult:
    """Outcome of one identification process for one block."""

    #: The identified block extent (``None`` when the process aborted).
    extent: Optional[Region]

    #: The n-level corner at which the process was initiated.
    initialization_corner: Coord

    #: The opposite n-level corner at which the block information formed.
    opposite_corner: Coord

    #: Rounds until the block information formed at the opposite corner
    #: (phases 1–3).  Together with :attr:`distribution_rounds` this is the
    #: paper's ``b_i``.
    identification_rounds: int

    #: Rounds of the back-propagation that delivered the identified record
    #: to every adjacent node, edge node and corner (Figure 6).
    distribution_rounds: int

    #: False when a message was discarded because the block changed while
    #: the process was running (the paper's "not stable" case) or a TTL
    #: expired.
    stable: bool

    #: Generation number stamped on the distributed :class:`BlockRecord`.
    version: int = 0

    @property
    def total_rounds(self) -> int:
        """``b_i`` — rounds of the whole stabilizing identifying construction."""
        return self.identification_rounds + self.distribution_rounds


class IdentificationProtocol:
    """Round-driven distributed identification for a single block.

    The protocol operates on an :class:`InformationState`: it reads node
    statuses from ``state.labeling`` (so concurrent status changes make the
    process unstable, as in the paper) and, when it completes, writes a
    :class:`BlockRecord` to every frame node of the block.

    Use :meth:`round` to advance one exchange round (the simulator calls it
    ``λ`` times per step) or :meth:`run` to iterate to completion.

    The frame runs on linear node indices over the shared
    :class:`FrameGeometry`.  What each frame node knows is one row of a
    merged bound array: its partial extent as ``[lo, -hi]``, then a sender
    flag, 0 while the node is active and relaying.  Inactive rows and the
    off-frame sentinel row hold the empty bound ``_BIG``, so a round's merge
    is one gather through the frame's neighbour table and one ``min``: the
    sender column of the result says which nodes the wave reached.
    """

    def __init__(
        self,
        state: InformationState,
        block: FaultyBlock,
        *,
        initialization_corner: Optional[Sequence[int]] = None,
        version: int = 0,
        ttl: Optional[int] = None,
    ) -> None:
        self.state = state
        self.mesh = mesh = state.mesh
        self.block = block
        self.version = version
        self.ttl = ttl if ttl is not None else 4 * (mesh.diameter + 1)
        extent = block.extent
        self._record = BlockRecord(extent, version)
        self._frame = frame = frame_geometry(extent, mesh)
        size = len(frame.nodes)
        if not size:
            raise ValueError("block has no adjacency frame inside the mesh")
        self._nb = frame.nb.astype(np.intp)

        if initialization_corner is not None:
            init = tuple(initialization_corner)
            start = _position(frame.nodes, mesh, init)
            if start is None:
                raise ValueError(f"{init} is not on the adjacency frame of {extent}")
            self.initialization_corner: Coord = init
            self.opposite_corner: Coord = _opposite_of(extent, init, frame.nodes, mesh)
            self._opposite = _position(frame.nodes, mesh, self.opposite_corner)
        else:
            start, self._opposite = frame.init, frame.opposite
            self.initialization_corner = mesh.coord_of(int(frame.nodes[start]))
            self.opposite_corner = mesh.coord_of(int(frame.nodes[self._opposite]))

        #: Column of the sender flag, and the identified extent as the
        #: opposite corner's bound must read it.
        self._w = w = 2 * mesh.n_dims
        self._target = list(extent.lo) + [-h for h in extent.hi]
        self._bounds = np.full((size + 1, w + 1), _BIG, dtype=np.int64)
        self._head = self._bounds[:size]
        self._active = np.zeros(size, dtype=bool)
        self._informed = np.zeros(size, dtype=bool)
        #: Distribution front, with a False off-frame sentinel.
        self._front = np.zeros(size + 1, dtype=bool)

        self._identifying = True
        self._identification_rounds = 0
        self._distribution_rounds = 0
        self._elapsed = 0
        self._stable = True
        self._result: Optional[IdentificationResult] = None

        self._observe()
        self._head[start] = self._obs[start]
        self._head[start, w] = 0 if self._relay[start] else _BIG
        self._active[start] = True

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _observe(self) -> None:
        """Re-derive the relay mask and observed extents from the labeling.

        A frame node learns the positions of the block members in its
        immediate (Chebyshev-1) neighbourhood: adjacent nodes see them
        directly through the status exchanges, and edge nodes/corners learn
        the same positions from their adjacent neighbours one exchange later
        (the paper's phase-2 messages are "sent to two neighbors ... which
        are adjacent to the section of this block"); folding that single
        extra hop into the observation keeps the protocol's round count
        proportional to the block perimeter without tracking the per-section
        sub-messages explicitly.  A frame node can relay only while it stays
        enabled or clean.

        Runs at set-up and whenever the labeling moved.  Only then can an
        active node stop relaying, so the next identification round checks
        for it (:attr:`_check_relay`).
        """
        labeling = self.state.labeling
        self._observed_at = labeling.mutations
        frame = self._frame
        codes = labeling.codes
        self._relay = relay = codes[frame.nodes] < _DISABLED
        self._all_relay = bool(relay.all())
        self._check_relay = not self._all_relay
        stencil = frame.stencil.astype(np.intp)
        # Off-mesh entries hold the mesh size: ``take`` clips them onto a
        # real node, and the sentinel row of the bounds reads empty anyway.
        seen = np.where(codes.take(stencil, mode="clip") >= _DISABLED, stencil, len(codes))
        self._obs = _node_bounds(self.mesh.shape)[seen].min(axis=1)
        self._head[:, self._w] = np.where(self._active & relay, 0, _BIG)

    # ------------------------------------------------------------------ #
    # public protocol surface
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """True once the process finished (successfully or not)."""
        return self._result is not None

    @property
    def result(self) -> Optional[IdentificationResult]:
        """The final result, or ``None`` while still running."""
        return self._result

    def round(self) -> bool:
        """Advance the protocol by one exchange round.

        Returns ``True`` while the protocol still has work to do.
        """
        if self._result is not None:
            return False
        self._elapsed += 1
        if self._elapsed > self.ttl:
            self._finish(stable=False)
            return False
        if self.state.labeling.mutations != self._observed_at:
            self._observe()
        if self._identifying:
            self._identification_round()
        else:
            self._distribution_round()
        return self._result is None

    def run(self, max_rounds: Optional[int] = None) -> IdentificationResult:
        """Run rounds until completion and return the result."""
        limit = max_rounds if max_rounds is not None else self.ttl + 1
        for _ in range(limit):
            if not self.round():
                break
        if self._result is None:
            self._finish(stable=False)
        assert self._result is not None
        return self._result

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #
    def _identification_round(self) -> None:
        self._identification_rounds += 1
        w, head = self._w, self._head
        if self._check_relay:
            # An active node that stopped relaying discards its message.
            self._check_relay = False
            if (self._active & ~self._relay).any():
                self._stable = False
        # Every node merges what its neighbours knew at the start of the
        # round (synchronous one-hop information flow): inactive rows and
        # the sentinel are empty, and a zero in the sender column means an
        # active relaying neighbour handed the message on.
        heard = self._bounds[self._nb].min(axis=1)
        np.minimum(heard, head, out=heard)
        update = heard[:, w] == 0
        if not self._all_relay:
            relay = self._relay
            if (update & ~self._active & ~relay).any():
                # A node the wave reached cannot relay it.
                self._stable = False
            update &= relay
            np.copyto(heard, head, where=~update[:, None])
        # Every active node also merges its own observation; elsewhere
        # ``heard`` already equals the old row (empty while all relay).
        np.minimum(heard, self._obs, out=heard, where=update[:, None])
        progressed = bool((heard != head).any())
        head[...] = heard
        self._active |= update

        if self._bounds[self._opposite].tolist()[:w] == self._target:
            # Block information is formed at the opposite corner; start the
            # back-propagation of the identified record (Figure 6).
            self._identifying = False
            self._front[self._opposite] = True
            self._deliver(self._front[:-1])
            return
        if not progressed:
            # The wave has covered everything it can and no partial extent is
            # still improving, yet the opposite corner never formed the full
            # block — the block changed shape mid-flight (unstable).
            self._finish(stable=False)

    def _deliver(self, nodes: np.ndarray) -> None:
        """Hand the identified record to the frame nodes of the ``nodes`` mask."""
        self._informed |= nodes
        store = self.state.add_block_info_at
        for index in self._frame.nodes[nodes].tolist():
            store(index, self._record)

    def _distribution_round(self) -> None:
        self._distribution_rounds += 1
        fresh = self._front[self._nb].any(axis=1)
        fresh &= ~self._informed
        if not self._all_relay:
            relay = self._relay
            if (fresh & ~relay).any():
                self._stable = False
            fresh &= relay
        self._deliver(fresh)
        self._front[:-1] = fresh
        if not fresh.any():
            self._finish(
                stable=self._stable and not (self._relay & ~self._informed).any()
            )

    def _finish(self, stable: bool) -> None:
        if stable:
            extent: Optional[Region] = self.block.extent
        else:
            lo = self._head[self._opposite].tolist()
            n = self.mesh.n_dims
            extent = None if lo[0] == _BIG else Region(
                tuple(lo[:n]), tuple(-h for h in lo[n:2 * n])
            )
        self._result = IdentificationResult(
            extent=extent,
            initialization_corner=self.initialization_corner,
            opposite_corner=self.opposite_corner,
            identification_rounds=self._identification_rounds,
            distribution_rounds=self._distribution_rounds,
            stable=stable,
            version=self.version,
        )

    # ------------------------------------------------------------------ #
    # introspection used by tests and the simulator
    # ------------------------------------------------------------------ #
    @property
    def informed_nodes(self) -> Set[Coord]:
        """Frame nodes that already hold the identified block record."""
        return set(map(self.mesh.coord_of, self._frame.nodes[self._informed].tolist()))

    @property
    def frame(self) -> Set[Coord]:
        """The block's adjacency frame inside the mesh."""
        return set(map(self.mesh.coord_of, self._frame.nodes.tolist()))
