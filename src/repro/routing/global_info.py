"""Global-information routing: the idealized baseline, offline and online.

Every node is assumed to know the entire fault configuration at all times,
so the router can always follow a shortest path in the fault-free subgraph.
This is the ideal the traditional "routing table at every node" approach
strives for; the paper's model trades a small number of extra detours for
not having to maintain that table.  Two avoidance levels are provided:

* avoiding *faulty* nodes only (the true shortest usable path);
* avoiding whole *blocks* (faulty + disabled nodes), which is what a
  block-based global scheme would do and is the fairer comparison for the
  limited-global model.

The registry router additionally steps online: its :class:`GlobalPathProbe`
advances one hop per simulation step along the currently shortest path,
replanning whenever the labeling changes — or, under contention, whenever a
reserved circuit fences off the planned link.  A probe with no usable path
left because of *faults* reports the destination unreachable; one fenced in
only by *reservations* waits for a circuit to release.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

from repro.core.block_construction import LabelingState
from repro.core.routing import (
    InformationProvider,
    LinkBlocked,
    RouteOutcome,
    RouteResult,
)
from repro.faults.status import NodeStatus
from repro.mesh.topology import Mesh
from repro.routing.registry import Router

Coord = Tuple[int, ...]


def shortest_usable_path(
    mesh: Mesh,
    blocked: Sequence[bool],
    source: Coord,
    destination: Coord,
    *,
    link_blocked: Optional[LinkBlocked] = None,
) -> Optional[List[Coord]]:
    """BFS shortest path avoiding ``blocked`` nodes (and reserved links).

    ``blocked`` is a mask by node index (:meth:`Mesh.index_of`).  The
    search runs on node indices and expands each node's
    :attr:`Mesh.neighbor_table` row in column order, which is the order of
    :meth:`Mesh.neighbors`, so repeated calls against the same
    configuration pick the same path.  ``link_blocked`` is called with the
    coordinates of the node and of its neighbor, in that order.
    """
    start = mesh.index_of(source)
    goal = mesh.index_of(destination)
    if blocked[start] or blocked[goal]:
        return None
    coord_of = mesh.coord_of
    if start == goal:
        return [coord_of(start)]
    rows = mesh.neighbor_table
    parents = {start: -1}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for neighbor in rows[node].tolist():
            if neighbor < 0 or neighbor in parents or blocked[neighbor]:
                continue
            if link_blocked is not None and link_blocked(coord_of(node), coord_of(neighbor)):
                continue
            parents[neighbor] = node
            if neighbor == goal:
                path = []
                while neighbor >= 0:
                    path.append(coord_of(neighbor))
                    neighbor = parents[neighbor]
                path.reverse()
                return path
            frontier.append(neighbor)
    return None


class GlobalPathProbe:
    """One-hop-per-step follower of the globally-known shortest path.

    Contention-free against a static labeling this reproduces the offline
    BFS route exactly: the plan is computed once at the first step and then
    followed hop by hop.  The plan is recomputed from the probe's current
    node whenever the labeling mutates or a reserved circuit blocks the
    planned link; a global router never backtracks, so its held circuit is
    simply its path so far.

    Under contention a probe can be *fenced in*: no usable direction left
    because every one is reserved by another circuit.  It then waits in
    place — still holding its own reserved links, so two mutually fenced-in
    probes form a deadlock cycle that probe lifetimes alone would break.
    The timeout-and-release policy bounds that wait: after ``wait_timeout``
    consecutive fenced-in steps the probe releases its whole partial
    circuit, retreats to its source and retries (counted in
    ``timeout_releases``, which the simulator folds into
    :class:`~repro.simulator.stats.SimulationStats`).
    """

    def __init__(
        self,
        mesh: Mesh,
        source: Sequence[int],
        destination: Sequence[int],
        *,
        router: Optional["GlobalInfoRouter"] = None,
        wait_timeout: Optional[int] = None,
    ) -> None:
        self.mesh = mesh
        self.source = mesh.validate(source)
        self.destination = mesh.validate(destination)
        #: Whose blocked-node mask the plans avoid: the probes of one
        #: router share its one-slot mask cache.
        self._router = router if router is not None else GlobalInfoRouter()
        #: Consecutive fenced-in steps tolerated before the probe releases
        #: its held links and restarts from the source.
        self.wait_timeout = (
            wait_timeout if wait_timeout is not None else 2 * mesh.diameter + 4
        )
        if self.wait_timeout < 1:
            raise ValueError("wait_timeout must be at least 1")
        self.path: List[Coord] = [self.source]
        self.forward_hops = 0
        self.backtrack_hops = 0
        self.blocked_hops = 0
        self.setup_retries = 0
        #: Times the probe timed out fenced in and released its circuit.
        self.timeout_releases = 0
        self._waits_in_place = 0
        self.outcome: Optional[RouteOutcome] = None
        if self.source == self.destination:
            self.outcome = RouteOutcome.DELIVERED
        #: Remaining nodes to visit (current node excluded); ``None`` forces
        #: a replan at the next step.
        self._plan: Optional[List[Coord]] = None
        self._plan_mutations: Optional[int] = None

    @property
    def current(self) -> Coord:
        """Node currently holding the probe."""
        return self.path[-1]

    @property
    def done(self) -> bool:
        """True when the probe reached a terminal outcome."""
        return self.outcome is not None

    @property
    def circuit_stack(self) -> Sequence[Coord]:
        """The held circuit: the whole path (global probes never backtrack)."""
        return self.path

    def step(
        self,
        info: InformationProvider,
        *,
        link_blocked: Optional[LinkBlocked] = None,
        decision_cache: object = None,
    ) -> Optional[RouteOutcome]:
        """Advance one hop along the current plan, replanning as needed.

        ``decision_cache`` is accepted for interface uniformity with the
        Algorithm-3 probes and ignored: the global probe plans with a BFS,
        not with per-node direction classification, so it has nothing for
        the probe table's classifier either and always steps as an object.
        """
        if self.done:
            return self.outcome
        labeling = info.labeling
        current = self.path[-1]
        if self._plan is None or self._plan_mutations != labeling.mutations:
            if not self._replan(labeling, current, link_blocked):
                if self.outcome is None:
                    self._fenced_in_wait()
                return self.outcome
        assert self._plan is not None
        nxt = self._plan[0]
        if link_blocked is not None and link_blocked(current, nxt):
            # A circuit grabbed the planned link since the last replan.
            self.blocked_hops += 1
            if not self._replan(labeling, current, link_blocked):
                if self.outcome is None:
                    self._fenced_in_wait()
                return self.outcome
            nxt = self._plan[0]
        self._plan.pop(0)
        self.path.append(nxt)
        self.forward_hops += 1
        self._waits_in_place = 0
        if nxt == self.destination:
            self.outcome = RouteOutcome.DELIVERED
        return self.outcome

    def _fenced_in_wait(self) -> None:
        """One fenced-in step: wait, and time out by releasing the circuit.

        A probe that has waited ``wait_timeout`` consecutive steps while
        holding links gives them all up and retreats to its source, breaking
        any reservation deadlock cycle it participates in.  (At the source
        there is nothing to release, so the probe just keeps waiting.)
        """
        self._waits_in_place += 1
        if self._waits_in_place < self.wait_timeout or len(self.path) < 2:
            return
        self.backtrack_hops += len(self.path) - 1
        self.path = [self.source]
        self.timeout_releases += 1
        self._waits_in_place = 0
        self._plan = None
        self._plan_mutations = None

    def _replan(
        self,
        labeling: LabelingState,
        current: Coord,
        link_blocked: Optional[LinkBlocked],
    ) -> bool:
        """Recompute the plan from ``current``; False when no hop is possible.

        Unreachable because of faults is terminal; fenced in only by
        reservations means wait (count a setup retry, keep no plan so the
        next step replans again).
        """
        blocked = self._router.blocked_mask(labeling)
        plan = shortest_usable_path(
            self.mesh, blocked, current, self.destination, link_blocked=link_blocked
        )
        if plan is not None:
            self._plan = plan[1:]
            self._plan_mutations = labeling.mutations
            return True
        if link_blocked is not None and (
            shortest_usable_path(self.mesh, blocked, current, self.destination)
            is not None
        ):
            self.setup_retries += 1
            self._plan = None
            return False
        self.outcome = RouteOutcome.UNREACHABLE
        return False

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


class GlobalInfoRouter(Router):
    """Global-information routing: the shortest usable path, offline and online.

    Offline, :meth:`route` returns a BFS shortest path; online, each
    :class:`GlobalPathProbe` follows one hop by hop.  Both avoid the nodes
    of :meth:`blocked_mask`: every block member with ``avoid_blocks``,
    else the faulty nodes only.
    """

    name = "global-information"

    def __init__(self, *, avoid_blocks: bool = True) -> None:
        self.avoid_blocks = avoid_blocks
        #: One-slot cache of the blocked-node mask, keyed by labeling
        #: identity + mutation counter like the other routers' views, so a
        #: batch over one labeling (or a simulation between fault events)
        #: builds it once.
        self._mask: Optional[Tuple[LabelingState, int, List[bool]]] = None

    def blocked_mask(self, labeling: LabelingState) -> List[bool]:
        """Per node index, whether the router refuses to traverse the node."""
        cached = self._mask
        if (
            cached is not None
            and cached[0] is labeling
            and cached[1] == labeling.mutations
        ):
            return cached[2]
        codes = labeling.codes
        if self.avoid_blocks:
            mask = (codes >= NodeStatus.DISABLED.code).tolist()
        else:
            mask = (codes == NodeStatus.FAULTY.code).tolist()
        self._mask = (labeling, labeling.mutations, mask)
        return mask

    def route(
        self,
        mesh: Mesh,
        labeling: LabelingState,
        source: Sequence[int],
        destination: Sequence[int],
        *,
        max_steps: Optional[int] = None,
    ) -> RouteResult:
        # max_steps is accepted for interface uniformity; a BFS route never
        # wanders, so there is nothing to cut short.
        source = mesh.validate(source)
        destination = mesh.validate(destination)
        path = shortest_usable_path(
            mesh, self.blocked_mask(labeling), source, destination
        )
        outcome = RouteOutcome.DELIVERED
        if path is None:
            outcome, path = RouteOutcome.UNREACHABLE, [source]
        return RouteResult(
            outcome=outcome,
            path=path,
            source=source,
            destination=destination,
            min_distance=mesh.distance(source, destination),
            forward_hops=len(path) - 1,
            backtrack_hops=0,
        )

    def probe(
        self, mesh: Mesh, source: Sequence[int], destination: Sequence[int]
    ) -> GlobalPathProbe:
        return GlobalPathProbe(mesh, source, destination, router=self)
