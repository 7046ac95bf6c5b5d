"""Fault-information-based PCS routing (Algorithm 3).

The routing process is the *path-setup* phase of pipelined circuit
switching: a probe carries a header containing the destination address and,
for every forwarding node along the path, the list of outgoing directions
already tried there.  At each step the current node either forwards the
probe along the unused outgoing direction with the highest priority or
backtracks; a probe backtracked all the way to the source with no unused
direction reports the destination unreachable.

Direction priority (Algorithm 3): *preferred* directions first, then *spare*
directions along a block (used to walk around a block), then *preferred but
detour* directions (preferred directions that the node's boundary/block
information says would lead into a dangerous area), and the *incoming*
direction last.  A preferred direction is demoted to preferred-but-detour at
a node exactly when the node holds information about a block such that the
next hop would enter the block's dangerous prism while the destination lies
in the opposite prism — the *critical routing* situation of Section 2.2.

Two extra, deliberately conservative refinements keep the implementation
faithful while fully specified (the paper leaves them implicit):

* spare directions *not* adjacent to any known block are ranked below
  preferred-but-detour directions (they move away from the destination with
  no block to skirt);
* a neighbor known to be *faulty* (adjacent-fault detection) is never
  selected, and a neighbor known to be *disabled* is only selected when no
  better class remains (stepping onto a disabled node forces an immediate
  backtrack by rule 1 of Algorithm 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import (
    AbstractSet,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.core.block_construction import LabelingState
from repro.core.state import ExtentFrame, PrismPair
from repro.faults.status import NodeStatus
from repro.mesh.directions import Direction
from repro.mesh.topology import Mesh

Coord = Tuple[int, ...]

#: Predicate deciding whether the link from the first node to the second is
#: currently unavailable (reserved by another in-flight circuit).  ``None``
#: everywhere means contention-free routing — the historical behavior.
LinkBlocked = Callable[[Coord, Coord], bool]


class DirectionClass(IntEnum):
    """Priority classes of outgoing directions (lower value = higher priority)."""

    PREFERRED = 0
    SPARE_ALONG_BLOCK = 1
    PREFERRED_DETOUR = 2
    SPARE = 3
    DISABLED_NEIGHBOR = 4
    INCOMING = 5


class RouteOutcome(Enum):
    """Terminal states of a routing probe."""

    DELIVERED = "delivered"
    UNREACHABLE = "unreachable"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class RoutingPolicy:
    """How much fault information the routing decision is allowed to use."""

    name: str
    use_block_info: bool = True
    use_boundary_info: bool = True
    avoid_known_disabled: bool = True

    @classmethod
    def limited_global(cls) -> "RoutingPolicy":
        """The paper's model: block + boundary information where distributed."""
        return cls(name="limited-global")

    @classmethod
    def no_information(cls) -> "RoutingPolicy":
        """Backtracking PCS with adjacent-fault detection only."""
        return cls(
            name="no-information",
            use_block_info=False,
            use_boundary_info=False,
            avoid_known_disabled=False,
        )


class InformationProvider(Protocol):
    """What the routing decision reads at a node.

    :class:`repro.core.state.InformationState` is the provider, offline and
    inside the simulator.  The decision reads a node's status and its
    resolved routing geometry (``detour_constraints`` and
    ``known_extent_frames``, served from the state's per-node cache);
    :class:`DecisionCache` and the vectorized decision engine keep their
    per-node inputs valid on ``labeling.mutations`` and
    ``record_mutations``.
    """

    mesh: Mesh
    labeling: LabelingState
    record_mutations: int

    def status(self, node: Sequence[int]) -> NodeStatus: ...

    def detour_constraints(
        self,
        node: Sequence[int],
        *,
        use_block_info: bool = True,
        use_boundary_info: bool = True,
    ) -> Sequence[PrismPair]: ...

    def known_extent_frames(
        self,
        node: Sequence[int],
        *,
        use_block_info: bool = True,
        use_boundary_info: bool = True,
    ) -> Sequence[ExtentFrame]: ...


# ---------------------------------------------------------------------- #
# probe header
# ---------------------------------------------------------------------- #
@dataclass
class ProbeHeader:
    """The PCS probe header: destination plus per-node used directions.

    The stack records the path currently held by the probe (for
    backtracking); ``used`` persists across revisits of a node so a
    forwarding direction at a participant node is never used twice.
    ``trace`` is the probe's full traversal log — every node visited, in
    order, backtracks included — maintained by :meth:`push` / :meth:`pop`
    themselves so there is exactly one source of truth for the reported
    path of a scalar probe.
    """

    destination: Coord
    stack: List[Coord] = field(default_factory=list)
    used: Dict[Coord, Set[Direction]] = field(default_factory=dict)
    trace: List[Coord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.trace and self.stack:
            self.trace = list(self.stack)

    @property
    def current(self) -> Coord:
        """The node currently holding the probe."""
        return self.stack[-1]

    @property
    def source(self) -> Coord:
        """The node that issued the probe."""
        return self.stack[0]

    @property
    def incoming_direction(self) -> Optional[Direction]:
        """Direction from the previous stack node to the current one."""
        if len(self.stack) < 2:
            return None
        from repro.mesh.directions import direction_between

        return direction_between(self.stack[-2], self.stack[-1])

    _EMPTY_USED: ClassVar[FrozenSet[Direction]] = frozenset()

    def used_at(self, node: Sequence[int]) -> AbstractSet[Direction]:
        """Directions already used when forwarding from ``node``.

        Reading never mutates the header: a node a probe merely inspects
        gets no entry.  :meth:`record_use` is the only writer.
        """
        return self.used.get(tuple(node), self._EMPTY_USED)

    def record_use(self, node: Sequence[int], direction: Direction) -> None:
        """Record that ``direction`` was used at ``node``."""
        self.used.setdefault(tuple(node), set()).add(direction)

    def push(self, node: Sequence[int]) -> None:
        """Advance the probe onto ``node``."""
        node = tuple(node)
        self.stack.append(node)
        self.trace.append(node)

    def pop(self) -> Coord:
        """Backtrack one hop; returns the node the probe retreats to."""
        if len(self.stack) < 2:
            raise RuntimeError("cannot backtrack past the source")
        self.stack.pop()
        retreat = self.stack[-1]
        self.trace.append(retreat)
        return retreat

    @property
    def at_source(self) -> bool:
        """True when the probe currently sits at its source."""
        return len(self.stack) == 1


#: Sentinel decision value meaning "backtrack one hop".
BACKTRACK = "backtrack"

#: Sentinel decision value meaning "stay in place this step" — only produced
#: under contention, when a probe sitting at its source finds every usable
#: direction reserved by another circuit (there is no link to release by
#: backtracking, and the reservations are transient, so the probe waits).
WAIT = "wait"

#: Sentinel decision value meaning "restart the setup from scratch" — only
#: produced under contention.  A probe driven back to its source with every
#: direction marked used has *not* proven the destination unreachable when
#: reservations interfered with its walk (the bookkeeping is contaminated by
#: detours that faults alone would never have forced); it clears its header
#: and retries, like a failed PCS setup being re-issued.
RESTART = "restart"


# ---------------------------------------------------------------------- #
# per-node decision context
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class NodeContext:
    """Decision inputs at one node, shared by every probe deciding there.

    Everything here is a pure function of the information state and the
    policy, never of the individual probe: the node's own status, the usable
    outgoing directions with their neighbor statuses (faulty neighbors
    already filtered out, in :attr:`Mesh.directions` order), and the node's
    resolved routing geometry.  :func:`node_context` builds it; the
    per-probe parts of a decision (used directions, incoming direction,
    destination-dependent ordering) are applied on top by
    :func:`classify_directions`.
    """

    status: NodeStatus
    #: ``(direction, neighbor, neighbor_status)`` for every in-mesh,
    #: non-faulty neighbor, in :attr:`Mesh.directions` order.
    usable: Tuple[Tuple[Direction, Coord, NodeStatus], ...]
    constraints: Tuple[PrismPair, ...]
    extent_frames: Tuple[ExtentFrame, ...]


def node_context(
    info: InformationProvider, node: Coord, policy: RoutingPolicy
) -> NodeContext:
    """The decision inputs at ``node`` under ``policy``."""
    mesh = info.mesh
    usable: List[Tuple[Direction, Coord, NodeStatus]] = []
    for direction in mesh.directions:
        neighbor = mesh.neighbor(node, direction)
        if neighbor is None:
            continue
        status = info.status(neighbor)
        if status is NodeStatus.FAULTY:
            continue  # adjacent-fault detection: never forward into a fault
        usable.append((direction, neighbor, status))
    flags = dict(
        use_block_info=policy.use_block_info,
        use_boundary_info=policy.use_boundary_info,
    )
    return NodeContext(
        status=info.status(node),
        usable=tuple(usable),
        constraints=tuple(info.detour_constraints(node, **flags)),
        extent_frames=tuple(info.known_extent_frames(node, **flags)),
    )


class DecisionCache:
    """Per-node :class:`NodeContext` cache keyed on information mutations.

    The scalar :class:`RoutingProbe` loop — the parity oracle of the
    vectorized :class:`~repro.core.probe_table.ProbeTable` fast path, and
    the path of offline routing — steps every in-flight probe once per
    simulation step; with many probes in flight the per-node inputs of
    Algorithm 3 (neighbor statuses, routing geometry) are recomputed over
    and over.  This cache resolves them once per node and keeps them valid
    *across* steps until the information actually mutates (a labeling
    status change or a block/boundary record change), which at steady state
    means once per node for the whole run.  A cached context is the
    :func:`node_context` an uncached decision builds, so cached and uncached
    decisions are identical.
    """

    def __init__(self, info: InformationProvider, policy: RoutingPolicy) -> None:
        self.info = info
        self.policy = policy
        self._contexts: Dict[Coord, NodeContext] = {}
        self._token: Optional[Tuple[int, int]] = None
        #: Memo of preferred-direction sets keyed by (node, destination) —
        #: a pure function of the mesh, so never invalidated.
        self._preferred: Dict[Tuple[Coord, Coord], FrozenSet[Direction]] = {}

    def context(self, node: Coord) -> NodeContext:
        """The (possibly cached) decision context at ``node``."""
        info = self.info
        token = (info.labeling.mutations, info.record_mutations)
        if token != self._token:
            self._contexts.clear()
            self._token = token
        ctx = self._contexts.get(node)
        if ctx is None:
            ctx = self._contexts[node] = node_context(info, node, self.policy)
        return ctx

    def preferred(self, node: Coord, destination: Coord) -> FrozenSet[Direction]:
        """Memoized preferred-direction set for a (node, destination) pair."""
        key = (node, destination)
        result = self._preferred.get(key)
        if result is None:
            result = frozenset(self.info.mesh.preferred_directions(node, destination))
            self._preferred[key] = result
        return result


# ---------------------------------------------------------------------- #
# direction classification
# ---------------------------------------------------------------------- #
def _is_detour_direction(
    node: Coord,
    destination: Coord,
    direction: Direction,
    constraints: Iterable[PrismPair],
) -> bool:
    """True iff moving in ``direction`` enters a dangerous area.

    The check is the critical-routing condition: the next hop lies inside
    the dangerous prism of a known block while the destination lies in the
    opposite prism, so every minimal path from inside the prism is cut.
    """
    nxt = direction.apply(node)
    for prism, target in constraints:
        if prism.contains(nxt) and target.contains(destination):
            return True
    return False


def classify_directions(
    info: InformationProvider,
    node: Sequence[int],
    destination: Sequence[int],
    *,
    policy: RoutingPolicy,
    incoming: Optional[Direction] = None,
    used: Optional[AbstractSet[Direction]] = None,
    context: Optional[NodeContext] = None,
    preferred: Optional[AbstractSet[Direction]] = None,
) -> List[Tuple[DirectionClass, Direction]]:
    """Classify and order every usable outgoing direction at ``node``.

    The returned list is sorted by increasing :class:`DirectionClass` (i.e.
    decreasing priority); within a class, preferred directions are ordered by
    decreasing remaining offset along their dimension, everything else by
    ``(dim, sign)`` for determinism.  ``context`` (from a
    :class:`DecisionCache`) supplies the per-node inputs, built by
    :func:`node_context` when it is not given.
    """
    node = tuple(node)
    destination = tuple(destination)
    used = used or frozenset()
    if context is None:
        context = node_context(info, node, policy)
    constraints, extent_frames = context.constraints, context.extent_frames
    if preferred is None:
        preferred = set(info.mesh.preferred_directions(node, destination))

    entries: List[Tuple[DirectionClass, Tuple[int, int, int], Direction]] = []
    for direction, neighbor, neighbor_status in context.usable:
        if direction in used:
            continue
        if incoming is not None and direction == incoming.reversed():
            cls = DirectionClass.INCOMING
        elif policy.avoid_known_disabled and neighbor_status is NodeStatus.DISABLED:
            cls = DirectionClass.DISABLED_NEIGHBOR
        elif direction in preferred:
            if _is_detour_direction(node, destination, direction, constraints):
                cls = DirectionClass.PREFERRED_DETOUR
            else:
                cls = DirectionClass.PREFERRED
        else:
            along_block = any(
                frame.contains(neighbor) and not extent.contains(neighbor)
                for extent, frame in extent_frames
            )
            cls = DirectionClass.SPARE_ALONG_BLOCK if along_block else DirectionClass.SPARE
        remaining = abs(destination[direction.dim] - node[direction.dim])
        order_key = (-remaining if cls is DirectionClass.PREFERRED else 0, direction.dim, direction.sign)
        entries.append((cls, order_key, direction))

    entries.sort(key=lambda e: (e[0], e[1]))
    return [(cls, direction) for cls, _, direction in entries]


def decision_candidates(
    info: InformationProvider,
    header: ProbeHeader,
    *,
    policy: RoutingPolicy,
    cache: Optional[DecisionCache] = None,
) -> Optional[List[Tuple[DirectionClass, Direction]]]:
    """The ordered candidate directions of one Algorithm-3 decision step.

    Returns ``None`` when the probe must backtrack unconditionally (rule 1:
    it sits on a disabled node away from its source).  This is the single
    source of truth shared by the contention-free decision and the
    contended variant, so the two can never diverge on the algorithm core.
    ``cache`` batches the per-node inputs across probes and steps without
    changing any decision.
    """
    node = header.current
    preferred: Optional[AbstractSet[Direction]] = None
    if cache is None:
        context = node_context(info, node, policy)
    else:
        context = cache.context(node)
        preferred = cache.preferred(node, header.destination)
    if context.status is NodeStatus.DISABLED and node != header.source:
        return None
    return classify_directions(
        info,
        node,
        header.destination,
        policy=policy,
        incoming=header.incoming_direction,
        used=header.used_at(node),
        context=context,
        preferred=preferred,
    )


def routing_decision(
    info: InformationProvider,
    header: ProbeHeader,
    *,
    policy: RoutingPolicy,
    cache: Optional[DecisionCache] = None,
) -> Direction | str:
    """One application of Algorithm 3 at the probe's current node.

    Returns the chosen outgoing :class:`Direction`, or :data:`BACKTRACK`.
    """
    candidates = decision_candidates(info, header, policy=policy, cache=cache)
    if not candidates:
        return BACKTRACK
    return candidates[0][1]


# ---------------------------------------------------------------------- #
# probe driver
# ---------------------------------------------------------------------- #
def probe_step_limit(mesh: Mesh) -> int:
    """Worst-case probe walk length for ``mesh``.

    Every (node, direction) pair can be used at most once, each with a
    matching backtrack, plus slack for the initial/terminal hops.  Both
    :func:`route_offline` and the simulator's default probe lifetime derive
    from this single helper so offline and simulated probes exhaust
    consistently.
    """
    return 4 * mesh.size * mesh.n_dims + 4


@dataclass
class RouteResult:
    """Outcome and statistics of one routing process."""

    outcome: RouteOutcome
    path: List[Coord]
    source: Coord
    destination: Coord
    min_distance: int
    forward_hops: int
    backtrack_hops: int

    #: Candidate hops skipped because their link was reserved by another
    #: circuit (always 0 for contention-free routing).
    blocked_hops: int = 0

    #: Times the probe was forced to retreat (or wait) because *every*
    #: otherwise-usable direction was reserved by another circuit.
    setup_retries: int = 0

    @property
    def hops(self) -> int:
        """Total steps taken (forward plus backtrack)."""
        return self.forward_hops + self.backtrack_hops

    @property
    def detours(self) -> Optional[int]:
        """Extra steps over the fault-free minimal distance (delivered only)."""
        if self.outcome is not RouteOutcome.DELIVERED:
            return None
        return self.hops - self.min_distance

    @property
    def delivered(self) -> bool:
        """True iff the probe reached its destination."""
        return self.outcome is RouteOutcome.DELIVERED


class RoutingProbe:
    """A PCS path-setup probe that advances one hop per :meth:`step` call.

    The same object is used by the offline driver (static information) and
    by the simulator (information that changes between steps).
    """

    def __init__(
        self,
        mesh: Mesh,
        source: Sequence[int],
        destination: Sequence[int],
        *,
        policy: Optional[RoutingPolicy] = None,
    ) -> None:
        self.mesh = mesh
        self.source = mesh.validate(source)
        self.destination = mesh.validate(destination)
        self.policy = policy or RoutingPolicy.limited_global()
        self.header = ProbeHeader(destination=self.destination, stack=[self.source])
        self.forward_hops = 0
        self.backtrack_hops = 0
        self.blocked_hops = 0
        self.setup_retries = 0
        #: True iff the last step WAITed (fenced in at the source under
        #: contention); the step recorder counts such probes as parked.
        self.waited = False
        self.outcome: Optional[RouteOutcome] = None
        if self.source == self.destination:
            self.outcome = RouteOutcome.DELIVERED

    @property
    def current(self) -> Coord:
        """Node currently holding the probe."""
        return self.header.current

    @property
    def path(self) -> List[Coord]:
        """Every node visited so far, in order (the header's traversal log)."""
        return self.header.trace

    @property
    def circuit_stack(self) -> List[Coord]:
        """Nodes of the partial circuit the probe currently holds.

        In PCS the links along this stack are reserved while the probe is in
        flight; a backtrack releases the last link.  The simulator's live
        reservation table mirrors exactly this sequence.
        """
        return self.header.stack

    @property
    def done(self) -> bool:
        """True when the probe reached a terminal outcome."""
        return self.outcome is not None

    def step(
        self,
        info: InformationProvider,
        *,
        link_blocked: Optional[LinkBlocked] = None,
        decision_cache: Optional[DecisionCache] = None,
    ) -> Optional[RouteOutcome]:
        """Advance the probe by one step (one hop forward or one backtrack).

        ``link_blocked`` enables circuit contention: directions whose link is
        currently reserved by another circuit are skipped for this step only
        (they are *not* recorded as used, so a link freed later may still be
        taken).  The contention-free path is untouched when it is ``None``.
        ``decision_cache`` shares per-node decision inputs across probes and
        steps without changing any decision.
        """
        if self.done:
            return self.outcome
        if link_blocked is None:
            decision = routing_decision(
                info, self.header, policy=self.policy, cache=decision_cache
            )
        else:
            decision = self._contended_decision(info, link_blocked, decision_cache)
        self.waited = decision == WAIT
        if self.waited:
            return None
        if decision == RESTART:
            self.header.used.clear()
            self.setup_retries += 1
            return None
        if decision == BACKTRACK:
            if self.header.at_source:
                self.outcome = RouteOutcome.UNREACHABLE
                return self.outcome
            self.header.pop()
            self.backtrack_hops += 1
            return None
        assert isinstance(decision, Direction)
        node = self.header.current
        self.header.record_use(node, decision)
        nxt = self.mesh.neighbor(node, decision)
        assert nxt is not None
        self.header.push(nxt)
        self.forward_hops += 1
        if nxt == self.destination:
            self.outcome = RouteOutcome.DELIVERED
        return self.outcome

    def _contended_decision(
        self,
        info: InformationProvider,
        link_blocked: LinkBlocked,
        decision_cache: Optional[DecisionCache] = None,
    ) -> Direction | str:
        """Algorithm 3 decision with reserved links filtered out.

        Same candidate core as :func:`routing_decision`
        (:func:`decision_candidates`), but candidate directions whose
        outgoing link is held by another circuit are skipped — and counted —
        for this step only.  When every usable direction is reserved, the
        probe retreats one hop (releasing its last link) so it can walk
        around the contention; at the source there is no link to release and
        the reservations are transient, so it waits instead of reporting the
        destination unreachable.
        """
        candidates = decision_candidates(
            info, self.header, policy=self.policy, cache=decision_cache
        )
        if not candidates:
            if (
                candidates is not None  # None = disabled node, must retreat
                and self.header.at_source
                and (self.blocked_hops or self.setup_retries)
            ):
                # Every direction at the source is used up, but reservations
                # interfered along the way: the exhaustion proves nothing
                # about faults.  Re-issue the setup instead of misreporting
                # UNREACHABLE; the probe lifetime still bounds total effort.
                return RESTART
            return BACKTRACK
        node = self.header.current
        blocked = 0
        for _, direction in candidates:
            if link_blocked(node, direction.apply(node)):
                blocked += 1
                continue
            self.blocked_hops += blocked
            return direction
        self.blocked_hops += blocked
        self.setup_retries += 1
        return WAIT if self.header.at_source else BACKTRACK

    def result(self) -> RouteResult:
        """Snapshot of the probe's statistics (terminal or not)."""
        outcome = self.outcome or RouteOutcome.EXHAUSTED
        return RouteResult(
            outcome=outcome,
            path=list(self.path),
            source=self.source,
            destination=self.destination,
            min_distance=self.mesh.distance(self.source, self.destination),
            forward_hops=self.forward_hops,
            backtrack_hops=self.backtrack_hops,
            blocked_hops=self.blocked_hops,
            setup_retries=self.setup_retries,
        )


def route_offline(
    info: InformationProvider,
    source: Sequence[int],
    destination: Sequence[int],
    *,
    policy: Optional[RoutingPolicy] = None,
    max_steps: Optional[int] = None,
    decision_cache: Optional[DecisionCache] = None,
) -> RouteResult:
    """Run Algorithm 3 to completion against a static information snapshot.

    ``max_steps`` defaults to the worst-case walk length — every
    (node, direction) pair used at most once plus the matching backtracks —
    so a terminating probe is never cut short; hitting the limit yields an
    ``EXHAUSTED`` outcome.  ``decision_cache`` shares per-node decision
    inputs across a batch of routes against the same snapshot.
    """
    mesh = info.mesh
    probe = RoutingProbe(mesh, source, destination, policy=policy)
    limit = max_steps if max_steps is not None else probe_step_limit(mesh)
    for _ in range(limit):
        if probe.step(info, decision_cache=decision_cache) is not None:
            break
    return probe.result()
