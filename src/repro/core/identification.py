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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.faulty_block import FaultyBlock, frame_coords
from repro.core.state import BlockRecord, InformationState
from repro.faults.status import NodeStatus
from repro.mesh.regions import Region

Coord = Tuple[int, ...]

#: Bound of an empty partial extent: ``lo = +_BIG``, ``hi = -_BIG``.
_BIG = 1 << 40
_DISABLED = NodeStatus.DISABLED.code


@lru_cache(maxsize=None)
def _chebyshev_offsets(n_dims: int) -> np.ndarray:
    """The ``3^n - 1`` offsets of a node's Chebyshev-1 neighbourhood."""
    offsets = np.array(list(product((-1, 0, 1), repeat=n_dims)), dtype=np.int64)
    offsets = offsets[np.abs(offsets).sum(axis=1) > 0]
    offsets.setflags(write=False)
    return offsets


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

    The frame runs on linear node indices: it is an index array in row-major
    order with a frame-local neighbour table, the active, informed and front
    sets are boolean masks over it, and the partial extents are ``(frame, n)``
    lo/hi arrays, an empty extent being the inverted box ``(+BIG, -BIG)`` so
    that merging is a plain min/max.
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
        self._record = BlockRecord(block.extent, version)
        self._ext_lo = np.array(block.extent.lo, dtype=np.int64)
        self._ext_hi = np.array(block.extent.hi, dtype=np.int64)

        coords = frame_coords(block.extent, mesh.shape)
        if not len(coords):
            raise ValueError("block has no adjacency frame inside the mesh")
        #: Frame nodes as linear indices, in row-major order.
        self._nodes = np.ravel_multi_index(tuple(coords.T), mesh.shape)
        self._coords = coords
        size = len(self._nodes)
        local = np.full(mesh.size, -1, dtype=np.int64)
        local[self._nodes] = np.arange(size)
        table = mesh.neighbor_table[self._nodes]
        #: Frame-local neighbour table: position of each node's neighbour in
        #: every direction, or -1 when the neighbour is off-mesh or off-frame.
        self._nb = np.where(table >= 0, local[table], -1)

        corners = block.corners(mesh)
        if not corners:
            # Block touches the mesh surface everywhere diagonally; fall back
            # to an arbitrary frame node as the initiator.
            corners = [tuple(coords[-1].tolist())]
        if initialization_corner is not None:
            init = tuple(initialization_corner)
            if self._position(init) is None:
                raise ValueError(
                    f"{init} is not on the adjacency frame of {block.extent}"
                )
        else:
            init = max(corners)
        self.initialization_corner: Coord = init
        self.opposite_corner: Coord = self._opposite_of(init)
        self._opposite = self._position(self.opposite_corner)

        # Identification-wave state: which frame nodes the wave activated and
        # the best partial extent each one currently knows.
        n = mesh.n_dims
        self._lo = np.full((size, n), _BIG, dtype=np.int64)
        self._hi = np.full((size, n), -_BIG, dtype=np.int64)
        self._active = np.zeros(size, dtype=bool)
        self._front = np.zeros(size, dtype=bool)
        self._informed = np.zeros(size, dtype=bool)
        #: Chebyshev-1 stencil around every frame node: neighbour coordinates
        #: ``(frame, 3^n - 1, n)`` and a gather index into the status codes
        #: (clipped into the mesh where the neighbour is off it, which
        #: ``_on_mesh`` masks out).
        around = coords[:, None, :] + _chebyshev_offsets(n)[None, :, :]
        self._on_mesh = ((around >= 0) & (around < np.array(mesh.shape))).all(axis=2)
        self._around = around
        self._around_index = np.ravel_multi_index(tuple(around.T), mesh.shape, mode="clip").T
        #: Labeling mutation stamp the relay mask and observations belong to.
        self._observed_at = -1

        self._phase = "identify"
        self._identification_rounds = 0
        self._distribution_rounds = 0
        self._elapsed = 0
        self._stable = True
        self._result: Optional[IdentificationResult] = None

        start = self._position(init)
        self._observe()
        self._lo[start] = self._obs_lo[start]
        self._hi[start] = self._obs_hi[start]
        self._active[start] = True

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _position(self, node: Coord) -> Optional[int]:
        """Frame position of ``node``, or ``None`` when it is not on the frame."""
        if not self.mesh.contains(node):
            return None
        index = self.mesh.index_of(node)
        position = int(np.searchsorted(self._nodes, index))
        if position < len(self._nodes) and self._nodes[position] == index:
            return position
        return None

    def _opposite_of(self, corner: Coord) -> Coord:
        """The n-level corner diagonally opposite ``corner`` (clipped to mesh)."""
        lo, hi = self.block.extent.lo, self.block.extent.hi
        opposite = []
        for c, a, b in zip(corner, lo, hi):
            if c <= a - 1:
                opposite.append(b + 1)
            elif c >= b + 1:
                opposite.append(a - 1)
            else:
                # Initiator not a full corner in this dimension; mirror within
                # the span (keeps the node on the frame).
                opposite.append(a + b - c)
        candidate = tuple(opposite)
        if self._position(candidate) is not None:
            return candidate
        # Clipped by the mesh surface: fall back to the frame node farthest
        # from the initiator.  Ties go to the first in the iteration order of
        # the frame *set* built in row-major order, which is part of the
        # protocol's output contract.
        frame = set(map(tuple, self._coords.tolist()))
        return max(frame, key=lambda p: self.mesh.distance(corner, p))

    def _observe(self) -> None:
        """Refresh the relay mask and observed extents if the labeling moved.

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
        """
        labeling = self.state.labeling
        if labeling.mutations == self._observed_at:
            return
        self._observed_at = labeling.mutations
        codes = labeling.codes
        self._relay = codes[self._nodes] < _DISABLED
        member = (codes[self._around_index] >= _DISABLED) & self._on_mesh
        seen = member[:, :, None]
        self._obs_lo = np.where(seen, self._around, _BIG).min(axis=1)
        self._obs_hi = np.where(seen, self._around, -_BIG).max(axis=1)

    def _reached(self, senders: np.ndarray) -> np.ndarray:
        """Mask of frame nodes one hop from a node of the ``senders`` mask."""
        hit = self._nb[senders].ravel()
        reached = np.zeros(len(self._nodes), dtype=bool)
        reached[hit[hit >= 0]] = True
        return reached

    def _extent_at(self, position: int) -> Optional[Region]:
        lo = self._lo[position]
        if lo[0] == _BIG:
            return None
        return Region(tuple(lo.tolist()), tuple(self._hi[position].tolist()))

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
        if self.done:
            return False
        self._elapsed += 1
        if self._elapsed > self.ttl:
            self._finish(stable=False)
            return False
        self._observe()
        if self._phase == "identify":
            self._identification_round()
        else:
            self._distribution_round()
        return not self.done

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
        relay = self._relay
        active = self._active
        # Activation wave: an inactive frame node becomes active when an
        # active neighbour relays the identification message to it.
        if (active & ~relay).any():
            self._stable = False
        fresh = self._reached(active & relay) & ~active
        if (fresh & ~relay).any():
            self._stable = False
        fresh &= relay
        progressed = bool(fresh.any())
        # Partial-extent exchange: every active node merges its own
        # observation with what its active neighbours knew at the start of
        # the round (synchronous one-hop information flow).  All new values
        # are computed from the old arrays before any is written.
        update = np.flatnonzero((active | fresh) & relay)
        if update.size:
            lo, hi = self._lo, self._hi
            nb = self._nb[update]
            src = np.where(nb >= 0, nb, 0)
            heard = ((nb >= 0) & active[src])[:, :, None]
            new_lo = np.minimum(
                np.minimum(lo[update], self._obs_lo[update]),
                np.where(heard, lo[src], _BIG).min(axis=1),
            )
            new_hi = np.maximum(
                np.maximum(hi[update], self._obs_hi[update]),
                np.where(heard, hi[src], -_BIG).max(axis=1),
            )
            if (new_lo != lo[update]).any() or (new_hi != hi[update]).any():
                progressed = True
            lo[update] = new_lo
            hi[update] = new_hi
        active |= fresh

        o = self._opposite
        if (self._lo[o] == self._ext_lo).all() and (self._hi[o] == self._ext_hi).all():
            # Block information is formed at the opposite corner; start the
            # back-propagation of the identified record (Figure 6).
            self._phase = "distribute"
            self._front[o] = True
            self._deliver(self._front)
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
        for index in self._nodes[nodes].tolist():
            store(index, self._record)

    def _distribution_round(self) -> None:
        self._distribution_rounds += 1
        relay = self._relay
        fresh = self._reached(self._front) & ~self._informed
        if (fresh & ~relay).any():
            self._stable = False
        fresh &= relay
        self._deliver(fresh)
        self._front = fresh
        if not fresh.any():
            self._finish(stable=self._stable and not (relay & ~self._informed).any())

    def _finish(self, stable: bool) -> None:
        self._result = IdentificationResult(
            extent=self.block.extent if stable else self._extent_at(self._opposite),
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
        return set(map(tuple, self._coords[self._informed].tolist()))

    @property
    def frame(self) -> Set[Coord]:
        """The block's adjacency frame inside the mesh."""
        return set(map(tuple, self._coords.tolist()))


def identify_block(
    state: InformationState,
    block: FaultyBlock,
    *,
    version: int = 0,
) -> IdentificationResult:
    """Run a full identification process for ``block`` on ``state``."""
    protocol = IdentificationProtocol(state, block, version=version)
    return protocol.run()
