"""Boundary construction: distributing block information along boundaries.

For every identified block and every pair of opposite adjacent surfaces
``(S_i, S_{i+n})`` the paper builds a *boundary* enclosing the dangerous
area below ``S_i``: the prism from which all minimal paths to destinations
beyond ``S_{i+n}`` are cut by the block.  The boundary starts from the edge
nodes of ``S_i`` (excluding the corners) and propagates away from the block,
one hop per round, until it reaches the outmost surface of the mesh; when it
runs into another block it merges into that block's boundary for the same
surface and continues beyond it (Figure 3).

One implementation, two entry points:

* :class:`BoundaryProtocol` — the round-driven distributed propagation used
  by the simulator, whose round count is the paper's ``c_i``;
* :func:`compute_boundaries` — that protocol run to convergence for a set
  of stabilized blocks: which nodes end up holding which
  :class:`~repro.core.state.BoundaryInfo` records.

Merging note (documented simplification): when a propagation column hits a
second block, the paper routes the information along the second block's
other adjacent surfaces before it resumes travelling away from the original
block.  Here the merge re-seeds the propagation at the second block's
corresponding boundary-start nodes carrying the original block's
information; the set of informed nodes is the same, the hand-off is counted
as a single round instead of the lateral walk around the second block, which
slightly under-counts ``c_i`` in multi-block configurations (never by more
than the second block's half-perimeter).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.block_construction import extract_blocks
from repro.core.faulty_block import FaultyBlock, dangerous_prism_of_extent
from repro.core.state import BoundaryInfo, InformationState
from repro.faults.status import NodeStatus
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh

Coord = Tuple[int, ...]

_DISABLED = NodeStatus.DISABLED.code
_NO_WALKERS = np.zeros(0, dtype=np.int64)


# ---------------------------------------------------------------------- #
# prism geometry on a bare extent (routing works from extents carried in
# records)
# ---------------------------------------------------------------------- #
def dangerous_prism(
    extent: Region, mesh: Mesh, dim: int, side: int
) -> Optional[Region]:
    """The dangerous area of ``extent`` on ``side`` of dimension ``dim``.

    See :func:`repro.core.faulty_block.dangerous_prism_of_extent`.
    """
    return dangerous_prism_of_extent(extent, mesh, dim, side)


def opposite_prism(
    extent: Region, mesh: Mesh, dim: int, side: int
) -> Optional[Region]:
    """The prism on the other side of ``extent`` from :func:`dangerous_prism`."""
    return dangerous_prism_of_extent(extent, mesh, dim, -side)


def boundary_start_nodes(
    block: FaultyBlock, mesh: Mesh, dim: int, dangerous_side: int
) -> List[Coord]:
    """Edge nodes of the adjacent surface from which the boundary starts.

    These are the nodes of the adjacent surface on ``dangerous_side`` of
    ``dim`` that sit one hop outside the block's span in exactly one *other*
    dimension (the surface's edges, corners excluded), exactly as in
    Figure 3(a).
    """
    if dangerous_side not in (-1, +1):
        raise ValueError("dangerous_side must be ±1")
    extent = block.extent
    level = extent.lo[dim] - 1 if dangerous_side < 0 else extent.hi[dim] + 1
    if level < 0 or level >= mesh.shape[dim]:
        return []
    # The surface's coordinates per dimension: the level along ``dim``, the
    # block's span clipped to the mesh along every other dimension.
    spans: List[Sequence[int]] = [
        range(max(a, 0), min(b, s - 1) + 1)
        for a, b, s in zip(extent.lo, extent.hi, mesh.shape)
    ]
    spans[dim] = (level,)
    out: Set[Coord] = set()
    for other in range(extent.n_dims):
        if other == dim:
            continue
        for edge in (extent.lo[other] - 1, extent.hi[other] + 1):
            if 0 <= edge < mesh.shape[other]:
                out.update(product(*spans[:other], (edge,), *spans[other + 1:]))
    return sorted(out)


# ---------------------------------------------------------------------- #
# converged boundary computation
# ---------------------------------------------------------------------- #
def compute_boundaries(
    mesh: Mesh,
    blocks: Sequence[FaultyBlock],
    *,
    version: int = 0,
) -> Dict[Coord, Set[BoundaryInfo]]:
    """Converged boundary information for a set of stabilized blocks.

    Returns, for every node that ends up on some boundary, the set of
    :class:`BoundaryInfo` records it holds once every propagation has
    terminated.
    """
    protocol = BoundaryProtocol.for_blocks(
        InformationState(mesh=mesh, labeling=_labeling_from_blocks(mesh, blocks)),
        blocks,
        version=version,
    )
    protocol.run()
    return protocol.informed


def _labeling_from_blocks(mesh: Mesh, blocks: Sequence[FaultyBlock]):
    """A labeling state whose block membership matches ``blocks`` exactly."""
    from repro.core.block_construction import LabelingState
    from repro.faults.status import NodeStatus

    state = LabelingState(mesh=mesh)
    for block in blocks:
        for node in block.nodes:
            status = (
                NodeStatus.FAULTY if node in block.faulty_nodes else NodeStatus.DISABLED
            )
            state.set_status(node, status)
    return state


# ---------------------------------------------------------------------- #
# round-driven distributed propagation
# ---------------------------------------------------------------------- #
class BoundaryProtocol:
    """Distributed boundary construction, one hop per round.

    The protocol is seeded from the boundary-start nodes of one or more
    blocks (normally right after the identification back-propagation
    delivered the block record to the block's edge nodes).  Each round every
    active walker deposits its information and advances one hop away from
    the block; walkers stop at the outmost surface of the mesh and merge
    into other blocks' boundaries when they hit them.

    Walkers (the columns of Figure 3) are two parallel index arrays: the
    linear node index each one stands on and the id of the
    :class:`BoundaryInfo` it carries, which also fixes its direction.  A
    round steps them all through :attr:`Mesh.neighbor_table` at once; the
    deposits then run in walker order, with each merge's deposits and
    re-seeded walkers at the walker that hit the block, and the re-seeded
    walkers take their first step in the same round.
    """

    def __init__(self, state: InformationState) -> None:
        self.state = state
        self.mesh = state.mesh
        self._rounds = 0
        self._pos = self._info = _NO_WALKERS
        #: Walkers seeded or re-seeded since the last step, in seeding order.
        self._seeded: List[Tuple[int, int]] = []
        #: Interned records: walkers carry an index into ``_infos``; equal
        #: records share one id.  ``_steps[id]`` is the neighbour-table
        #: column of the record's walking direction.
        self._infos: List[BoundaryInfo] = []
        self._info_ids: Dict[BoundaryInfo, int] = {}
        self._steps = np.zeros(0, dtype=np.int64)
        #: (node index, record id) pairs this protocol deposited, in order.
        self._deposited: Dict[Tuple[int, int], None] = {}
        #: (block extent, dim, side) combinations already merged into, used to
        #: avoid re-seeding the same boundary twice.
        self._merged: Set[Tuple[Region, Region, int, int]] = set()

    # ------------------------------------------------------------------ #
    # seeding
    # ------------------------------------------------------------------ #
    @classmethod
    def for_blocks(
        cls,
        state: InformationState,
        blocks: Sequence[FaultyBlock],
        *,
        version: int = 0,
    ) -> "BoundaryProtocol":
        """A protocol seeded with every boundary of every block in ``blocks``."""
        protocol = cls(state)
        for block in blocks:
            protocol.seed_block(block, version=version)
        return protocol

    def seed_block(self, block: FaultyBlock, *, version: int = 0) -> None:
        """Seed the propagation for every (dimension, side) boundary of ``block``."""
        for dim in range(block.n_dims):
            for side in (-1, +1):
                self.seed_boundary(block, dim, side, version=version)

    def seed_boundary(
        self, block: FaultyBlock, dim: int, dangerous_side: int, *, version: int = 0
    ) -> None:
        """Seed the propagation of one boundary of ``block``.

        The boundary for destinations beyond the block on side
        ``-dangerous_side`` encloses the dangerous prism on ``dangerous_side``;
        its walkers move away from the block (in direction
        ``(dim, dangerous_side)``).
        """
        info = BoundaryInfo(
            extent=block.extent, dim=dim, dangerous_side=dangerous_side, version=version
        )
        self._spawn(boundary_start_nodes(block, self.mesh, dim, dangerous_side), info)

    def _spawn(self, starts: Sequence[Coord], info: BoundaryInfo) -> None:
        if starts:
            info_id = self._intern(info)
            indices = np.ravel_multi_index(tuple(zip(*starts)), self.mesh.shape).tolist()
            self._seeded.extend((index, info_id) for index in indices)

    def _intern(self, info: BoundaryInfo) -> int:
        info_id = self._info_ids.get(info)
        if info_id is None:
            info_id = self._info_ids[info] = len(self._infos)
            self._infos.append(info)
            step = info.dim + (self.mesh.n_dims if info.dangerous_side > 0 else 0)
            self._steps = np.append(self._steps, step)
        return info_id

    # ------------------------------------------------------------------ #
    # protocol surface
    # ------------------------------------------------------------------ #
    @property
    def rounds(self) -> int:
        """Rounds executed so far (``c_i`` once :meth:`done`)."""
        return self._rounds

    @property
    def done(self) -> bool:
        """True when no walker is active any more."""
        return not (len(self._pos) or self._seeded)

    @property
    def informed(self) -> Dict[Coord, Set[BoundaryInfo]]:
        """Nodes informed so far and the records they hold."""
        coord_of = self.mesh.coord_of
        out: Dict[Coord, Set[BoundaryInfo]] = {}
        for index, info_id in self._deposited:
            out.setdefault(coord_of(index), set()).add(self._infos[info_id])
        return out

    def round(self) -> bool:
        """Advance every walker by one hop; returns True while active."""
        if self.done:
            return False
        self._rounds += 1
        pos, info = self._pos, self._info
        moved: List[Tuple[np.ndarray, np.ndarray]] = []
        # Walkers seeded since the last round step after those already out;
        # walkers a merge re-seeds take their first step in this round too,
        # after every walker ahead of them.
        while len(pos) or self._seeded:
            if self._seeded:
                seeded = np.array(self._seeded, dtype=np.int64)
                self._seeded = []
                pos = np.concatenate([pos, seeded[:, 0]])
                info = np.concatenate([info, seeded[:, 1]])
            moved.append(self._step(pos, info))
            pos = info = _NO_WALKERS
        self._pos = np.concatenate([p for p, _ in moved])
        self._info = np.concatenate([i for _, i in moved])
        return bool(len(self._pos))

    def _step(self, pos: np.ndarray, info: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Deposit and step a batch of walkers; returns the ones still walking.

        Deposits and merges run in walker order.  A walker standing in a
        block merges into it without depositing; one whose next hop is in a
        block deposits, then merges there.  Either way it stops.
        """
        codes = self.state.labeling.codes
        nxt = self.mesh.neighbor_table[pos, self._steps[info]]
        on_mesh = nxt >= 0
        member = codes[pos] >= _DISABLED
        blocked = on_mesh & ~member & (codes[np.where(on_mesh, nxt, 0)] >= _DISABLED)
        keep = ~member
        start = 0
        for w in np.flatnonzero(member | blocked).tolist():
            upto = slice(start, w + 1)
            self._deposit(pos[upto][keep[upto]], info[upto][keep[upto]])
            self._merge_into_block(int(nxt[w] if blocked[w] else pos[w]), int(info[w]))
            start = w + 1
        self._deposit(pos[start:][keep[start:]], info[start:][keep[start:]])
        moves = on_mesh & ~member & ~blocked
        return nxt[moves].astype(np.int64), info[moves]

    def run(self, max_rounds: Optional[int] = None) -> int:
        """Run rounds to completion; returns the total number of rounds."""
        limit = max_rounds if max_rounds is not None else 4 * (self.mesh.diameter + 1)
        for _ in range(limit):
            if not self.round():
                break
        return self._rounds

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _deposit(self, nodes: np.ndarray, info_ids: np.ndarray) -> None:
        """Deposit each record at its node, in order, once per protocol."""
        deposited = self._deposited
        store = self.state.add_boundary_at
        infos = self._infos
        for key in zip(nodes.tolist(), info_ids.tolist()):
            if key not in deposited:
                deposited[key] = None
                store(key[0], infos[key[1]])

    def _member_block(self, index: int) -> Optional[FaultyBlock]:
        """The block containing node ``index`` (if any), from the labeling's
        shared extraction."""
        node = self.mesh.coord_of(index)
        for block in extract_blocks(self.state.labeling):
            if node in block.nodes:
                return block
        return None

    def _merge_into_block(self, blocked_node: int, info_id: int) -> None:
        second = self._member_block(blocked_node)
        if second is None:
            return
        info = self._infos[info_id]
        key = (info.extent, second.extent, info.dim, info.dangerous_side)
        if key in self._merged:
            return
        self._merged.add(key)
        # The original block's information joins the second block's boundary
        # for the same surface: re-seed walkers at the second block's
        # boundary-start nodes, carrying the original info, and also deposit
        # the info on the second block's adjacent surface facing the incoming
        # propagation so routing at those nodes sees both blocks.  A walker
        # moving in +dim enters the second block through its low face; one
        # moving in -dim through its high face.
        facing = self.mesh.clip_region(
            second.extent.adjacent_surface(info.dim, -info.dangerous_side)
        )
        if facing is not None:
            nodes = np.ravel_multi_index(tuple(zip(*facing.iter_points())), self.mesh.shape)
            nodes = nodes[self.state.labeling.codes[nodes] < _DISABLED]
            self._deposit(nodes, np.full(len(nodes), info_id, dtype=np.int64))
        self._spawn(
            boundary_start_nodes(second, self.mesh, info.dim, info.dangerous_side), info
        )
