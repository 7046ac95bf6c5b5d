"""Block construction: the enabled/disabled/clean labeling scheme.

This implements Definition 1 (Wu's enabled/disabled labeling), Definition 4
(the extended scheme with the *clean* state for fault recovery) and
Algorithm 1 of the paper.  The scheme is a purely local, reactive protocol:
each node repeatedly exchanges its status with its neighbors and applies the
five rules until no status changes.  Connected faulty/disabled nodes form
*faulty blocks*; for node faults away from the mesh surface the stabilized
blocks are disjoint hyper-rectangles.

The implementation keeps only non-enabled nodes in memory (everything else
is implicitly enabled) and, per round, re-evaluates only nodes adjacent to a
non-enabled node — matching the paper's claim that *only the affected nodes
update their status*.  The number of synchronous rounds needed to stabilize
after the ``i``-th fault change is the paper's ``a_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.backend import VECTOR, resolve_backend
from repro.faults.status import STATUS_BY_CODE, NodeStatus
from repro.core.faulty_block import FaultyBlock
from repro.mesh.topology import Mesh

Coord = Tuple[int, ...]

#: Safety valve for the fixpoint iteration; the labeling provably converges
#: in at most O(diameter) rounds, so hitting this limit indicates a bug.
DEFAULT_MAX_ROUNDS = 10_000

_ENABLED = NodeStatus.ENABLED.code
_CLEAN = NodeStatus.CLEAN.code
_DISABLED = NodeStatus.DISABLED.code
_FAULTY = NodeStatus.FAULTY.code


@dataclass(eq=False)
class LabelingState:
    """Per-node status map for the labeling scheme.

    Statuses live in a flat ``int8`` numpy array of status *codes* indexed by
    :meth:`Mesh.index_of` (row-major linear index), so the routing hot
    path's status lookups avoid tuple hashing and the vectorized labeling
    engine can gather neighbor statuses in one stencil pass; the indices of
    non-enabled nodes are tracked on the side, since only those (and their
    neighbors) participate in the labeling rounds.  The scalar accessors
    (:meth:`status`, :meth:`set_status`, …) are thin views over the codes
    array, so both the scalar and vectorized round implementations share one
    representation.
    """

    mesh: Mesh
    _statuses: object = field(default=None)
    _non_enabled: Set[int] = field(default_factory=set)

    #: Count of effective status changes; lets observers (e.g. the
    #: identification protocol) cache derived views and re-derive them only
    #: when the labeling actually moved.
    mutations: int = field(default=0, compare=False)

    #: :func:`extract_blocks`' result and the ``mutations`` value it was
    #: extracted at, so every consumer of one labeling shares one walk.
    _blocks: Optional[Tuple[int, Tuple[FaultyBlock, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self._statuses is None:
            import numpy as np

            self._statuses = np.zeros(self.mesh.size, dtype=np.int8)

    @property
    def codes(self):
        """The backing ``int8`` status-code array (shared, not a copy)."""
        return self._statuses

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_faults(cls, mesh: Mesh, faults: Iterable[Sequence[int]]) -> "LabelingState":
        """Initial state: the given nodes faulty, every other node enabled."""
        state = cls(mesh=mesh)
        for node in faults:
            state.make_faulty(node)
        return state

    def copy(self) -> "LabelingState":
        """Deep copy of the state (status codes are plain integers)."""
        return LabelingState(
            mesh=self.mesh,
            _statuses=self._statuses.copy(),
            _non_enabled=set(self._non_enabled),
            mutations=self.mutations,
        )

    # ------------------------------------------------------------------ #
    # status access
    # ------------------------------------------------------------------ #
    def status(self, node: Sequence[int]) -> NodeStatus:
        """Current status of ``node`` (enabled when never recorded).

        Coordinates outside the mesh (wrong rank included) read as enabled,
        matching the historic "never recorded" semantics.
        """
        shape = self.mesh.shape
        if len(node) != len(shape):
            return NodeStatus.ENABLED
        idx = 0
        for c, s in zip(node, shape):
            if 0 <= c < s:
                idx = idx * s + c
            else:
                return NodeStatus.ENABLED
        return STATUS_BY_CODE[self._statuses[idx]]

    def set_status(self, node: Sequence[int], status: NodeStatus) -> None:
        """Set ``node``'s status, dropping the entry when it becomes enabled."""
        idx = self.mesh.index_of(node)
        code = status.code
        if self._statuses[idx] == code:
            return
        self._statuses[idx] = code
        if code == _ENABLED:
            self._non_enabled.discard(idx)
        else:
            self._non_enabled.add(idx)
        self.mutations += 1

    def make_faulty(self, node: Sequence[int]) -> None:
        """Mark ``node`` faulty (a new fault occurrence)."""
        self.set_status(node, NodeStatus.FAULTY)

    def recover(self, node: Sequence[int]) -> None:
        """Apply rule 5: a recovered faulty node is labeled clean."""
        node = self.mesh.validate(node)
        if self.status(node) is not NodeStatus.FAULTY:
            raise ValueError(f"cannot recover {node}: it is not faulty")
        self.set_status(node, NodeStatus.CLEAN)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def nodes_with_status(self, status: NodeStatus) -> Set[Coord]:
        """All nodes currently holding ``status`` (not usable for ENABLED)."""
        if status is NodeStatus.ENABLED:
            raise ValueError("enabled nodes are implicit; enumerate the mesh instead")
        coord_of = self.mesh.coord_of
        code = status.code
        return {coord_of(i) for i in self._non_enabled if self._statuses[i] == code}

    @property
    def faulty_nodes(self) -> Set[Coord]:
        """Currently faulty nodes."""
        return self.nodes_with_status(NodeStatus.FAULTY)

    @property
    def disabled_nodes(self) -> Set[Coord]:
        """Currently disabled (non-faulty, block-member) nodes."""
        return self.nodes_with_status(NodeStatus.DISABLED)

    @property
    def block_nodes(self) -> Set[Coord]:
        """Faulty and disabled nodes (the members of faulty blocks)."""
        coord_of = self.mesh.coord_of
        return {coord_of(i) for i in self._non_enabled if self._statuses[i] >= _DISABLED}

    def non_enabled_nodes(self) -> Dict[Coord, NodeStatus]:
        """Mapping of every explicitly-tracked (non-enabled) node."""
        coord_of = self.mesh.coord_of
        return {
            coord_of(i): STATUS_BY_CODE[self._statuses[i]]
            for i in sorted(self._non_enabled)
        }

    def is_operational(self, node: Sequence[int]) -> bool:
        """True iff ``node`` is not faulty."""
        return self.status(node) is not NodeStatus.FAULTY


# ---------------------------------------------------------------------- #
# Algorithm 1 rules
# ---------------------------------------------------------------------- #
def _has_neighbors_in_different_dims(
    mesh: Mesh, node: Coord, state: LabelingState, statuses: Tuple[NodeStatus, ...]
) -> bool:
    """True iff ``node`` has neighbors with a status in ``statuses`` along
    two or more *different* dimensions."""
    dims: Set[int] = set()
    for direction in mesh.directions:
        neighbor = mesh.neighbor(node, direction)
        if neighbor is None:
            continue
        if state.status(neighbor) in statuses:
            dims.add(direction.dim)
            if len(dims) >= 2:
                return True
    return False


def _has_clean_neighbor(mesh: Mesh, node: Coord, state: LabelingState) -> bool:
    return any(
        state.status(nb) is NodeStatus.CLEAN for nb in mesh.neighbors(node)
    )


def _next_status(mesh: Mesh, node: Coord, state: LabelingState) -> NodeStatus:
    """New status of ``node`` after one application of rules 1–4.

    Rule 5 (faulty→clean on recovery) is event-driven and applied through
    :meth:`LabelingState.recover`, matching the paper where recovery is an
    external occurrence rather than a labeling rule evaluated every round.
    """
    current = state.status(node)
    if current is NodeStatus.FAULTY:
        return current
    if current is NodeStatus.ENABLED:
        # rule 1
        if _has_neighbors_in_different_dims(
            mesh, node, state, (NodeStatus.DISABLED, NodeStatus.FAULTY)
        ):
            return NodeStatus.DISABLED
        return current
    if current is NodeStatus.DISABLED:
        # rule 2
        if _has_clean_neighbor(mesh, node, state) and not _has_neighbors_in_different_dims(
            mesh, node, state, (NodeStatus.FAULTY,)
        ):
            return NodeStatus.CLEAN
        return current
    if current is NodeStatus.CLEAN:
        # rule 3 takes precedence over rule 4
        if _has_neighbors_in_different_dims(mesh, node, state, (NodeStatus.FAULTY,)):
            return NodeStatus.DISABLED
        # rule 4: by synchronous-round semantics every neighbor has observed
        # the clean status during the exchange of this round.
        return NodeStatus.ENABLED
    raise AssertionError(f"unhandled status {current}")  # pragma: no cover


def _candidate_nodes(state: LabelingState) -> Set[Coord]:
    """Nodes whose status could change this round.

    Only non-enabled nodes and their neighbors can change (every rule's
    precondition involves a non-enabled neighbor or a non-enabled self).
    """
    mesh = state.mesh
    candidates: Set[Coord] = set()
    for node, status in state.non_enabled_nodes().items():
        if status is not NodeStatus.FAULTY:
            candidates.add(node)
        for neighbor in mesh.neighbors(node):
            candidates.add(neighbor)
    return candidates


def _labeling_round_scalar(state: LabelingState) -> int:
    """Pure-Python reference round (the parity oracle for the vector engine)."""
    mesh = state.mesh
    updates: List[Tuple[Coord, NodeStatus]] = []
    for node in _candidate_nodes(state):
        old = state.status(node)
        if old is NodeStatus.FAULTY:
            continue
        new = _next_status(mesh, node, state)
        if new is not old:
            updates.append((node, new))
    for node, status in updates:
        state.set_status(node, status)
    return len(updates)


def _labeling_round_vector(state: LabelingState) -> int:
    """One synchronous round as stencil gathers over the flat status array.

    Rules 1–4 only depend on each node's own status and, per dimension,
    on whether *some* neighbor along that dimension is clean / faulty /
    disabled-or-faulty — so one gather through the mesh's neighbor-index
    table plus a per-dimension OR-reduction evaluates every rule for every
    node at once.  Evaluating the whole mesh (instead of the scalar path's
    candidate set) changes nothing: a node with no non-enabled neighbor
    satisfies no rule precondition, which is exactly why the scalar path may
    skip it.
    """
    if not state._non_enabled:
        return 0
    import numpy as np

    mesh = state.mesh
    codes = state._statuses
    n = mesh.n_dims
    # Gather neighbor statuses; the sentinel row (index == size) reads the
    # trailing ENABLED pad, matching the scalar "off-mesh is enabled" view.
    padded = np.empty(mesh.size + 1, dtype=np.int8)
    padded[:-1] = codes
    padded[-1] = _ENABLED
    nb = padded[mesh.neighbor_gather_table]  # (size, 2n), surface order

    # Per-dimension presence masks: columns d and d+n are the two sides of
    # dimension d, so one OR folds them into "dimension d has such a neighbor".
    block_nb = nb >= _DISABLED
    df_dims = (block_nb[:, :n] | block_nb[:, n:]).sum(axis=1, dtype=np.int16)
    faulty_nb = nb == _FAULTY
    f_dims = (faulty_nb[:, :n] | faulty_nb[:, n:]).sum(axis=1, dtype=np.int16)
    has_clean = (nb == _CLEAN).any(axis=1)

    new = codes.copy()
    # rule 1: enabled + disabled/faulty neighbors along >= 2 dimensions.
    new[(codes == _ENABLED) & (df_dims >= 2)] = _DISABLED
    # rule 2: disabled + a clean neighbor + faulty neighbors along < 2 dims.
    new[(codes == _DISABLED) & has_clean & (f_dims < 2)] = _CLEAN
    # rules 3/4: clean goes disabled on >= 2 faulty dimensions, else enabled.
    clean = codes == _CLEAN
    new[clean] = np.where(f_dims[clean] >= 2, _DISABLED, _ENABLED)

    changed = np.flatnonzero(new != codes)
    if changed.size == 0:
        return 0
    codes[changed] = new[changed]
    non_enabled = state._non_enabled
    for i in changed.tolist():
        if codes[i] == _ENABLED:
            non_enabled.discard(i)
        else:
            non_enabled.add(i)
    state.mutations += int(changed.size)
    return int(changed.size)


def labeling_round(state: LabelingState) -> int:
    """Run one synchronous round of Algorithm 1 in place.

    Every candidate node reads its neighbors' *old* statuses and computes its
    new status; all updates are then applied simultaneously.  Returns the
    number of nodes whose status changed.

    The backend (:func:`repro.backend.resolve_backend`) selects the scalar
    reference loop or the numpy-vectorized engine; both produce
    byte-identical statuses, change counts and mutation stamps.
    """
    if resolve_backend() == VECTOR:
        return _labeling_round_vector(state)
    return _labeling_round_scalar(state)


@dataclass(frozen=True)
class BlockConstructionResult:
    """Outcome of running block construction to the fixpoint."""

    #: Number of synchronous rounds until no status changed (the paper's
    #: ``a_i`` for the fault change that triggered the construction).
    rounds: int

    #: Total number of individual status changes applied.
    status_changes: int

    #: The stabilized labeling state.
    state: LabelingState

    @property
    def blocks(self) -> List[FaultyBlock]:
        """The faulty blocks of the stabilized state."""
        return extract_blocks(self.state)


def run_block_construction(
    state: LabelingState, max_rounds: int = DEFAULT_MAX_ROUNDS
) -> BlockConstructionResult:
    """Iterate :func:`labeling_round` until no status changes (Algorithm 1)."""
    round_fn = (
        _labeling_round_vector
        if resolve_backend() == VECTOR
        else _labeling_round_scalar
    )
    rounds = 0
    total_changes = 0
    while True:
        changed = round_fn(state)
        if changed == 0:
            break
        rounds += 1
        total_changes += changed
        if rounds > max_rounds:
            raise RuntimeError(
                f"block construction did not converge within {max_rounds} rounds"
            )
    return BlockConstructionResult(rounds=rounds, status_changes=total_changes, state=state)


def build_blocks(mesh: Mesh, faults: Iterable[Sequence[int]]) -> BlockConstructionResult:
    """Convenience wrapper: label from scratch for a static fault set."""
    return run_block_construction(LabelingState.from_faults(mesh, faults))


def extract_blocks(state: LabelingState) -> List[FaultyBlock]:
    """Connected components of faulty∪disabled nodes as :class:`FaultyBlock`\\ s.

    Connectivity is mesh adjacency.  For a stabilized labeling each component
    is a filled hyper-rectangle; the function does not assume it so callers
    can also inspect transient states.  Blocks come ordered by their first
    member in row-major order.

    The walk runs on linear node indices and is memoized on ``state`` by
    :attr:`LabelingState.mutations`, so the simulator, the information
    distribution, static-block's adjacent view and the boundary merges
    share one extraction per labeling.
    """
    memo = state._blocks
    if memo is None or memo[0] != state.mutations:
        memo = state._blocks = (state.mutations, _walk_blocks(state))
    return list(memo[1])


def _walk_blocks(state: LabelingState) -> Tuple[FaultyBlock, ...]:
    import numpy as np

    mesh = state.mesh
    codes = state.codes
    members = np.flatnonzero(codes >= _DISABLED)
    if not members.size:
        return ()
    # Each member's neighbour indices (-1 off-mesh, never a member).
    adjacent = dict(zip(members.tolist(), mesh.neighbor_table[members].tolist()))
    faulty = set(np.flatnonzero(codes == _FAULTY).tolist())
    coord_of = mesh.coord_of
    seen: Set[int] = set()
    blocks: List[FaultyBlock] = []
    for start in adjacent:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        frontier = [start]
        while frontier:
            for neighbor in adjacent[frontier.pop()]:
                if neighbor in adjacent and neighbor not in seen:
                    seen.add(neighbor)
                    component.append(neighbor)
                    frontier.append(neighbor)
        component.sort()
        blocks.append(
            FaultyBlock.from_nodes(
                [coord_of(i) for i in component],
                faulty_nodes=[coord_of(i) for i in component if i in faulty],
            )
        )
    return tuple(blocks)
