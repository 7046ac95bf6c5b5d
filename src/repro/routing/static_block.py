"""Static faulty-block routing (Wu, ICPP 2000) as a registry router.

Wu's minimal adaptive routing keeps block information only at the nodes
*adjacent* to a block (its frame), with no boundary propagation.  The
router shares the Algorithm-3 probe with the limited-global model and
differs only in which nodes hold information: an adjacent-only view is
derived from the current labeling — and, online, re-derived whenever the
labeling changes (:meth:`StaticBlockRouter.online_view`), so the simulator's
probe table hosts this policy like the Algorithm-3 ones.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.block_construction import LabelingState, extract_blocks
from repro.core.identification import frame_geometry
from repro.core.routing import (
    DecisionCache,
    LinkBlocked,
    RouteOutcome,
    RouteResult,
    RoutingPolicy,
    RoutingProbe,
    route_offline,
)
from repro.core.state import BlockRecord, InformationState
from repro.mesh.topology import Mesh
from repro.routing.registry import Router, SimulationInfo

Coord = Tuple[int, ...]


def adjacent_only_information(
    mesh: Mesh, labeling: LabelingState, *, version: int = 0
) -> InformationState:
    """Information state with block records at adjacent-frame nodes only.

    This is exactly what the identification back-propagation produces,
    *without* the subsequent boundary construction.
    """
    info = InformationState(mesh=mesh, labeling=labeling, version=version)
    for block in extract_blocks(labeling):
        record = BlockRecord(extent=block.extent, version=version)
        for index in frame_geometry(block.extent, mesh).nodes.tolist():
            info.add_block_info_at(index, record)
    return info


class StaticBlockRouter(Router):
    """Block information at block-adjacent nodes only; no boundaries."""

    name = "static-block"

    def __init__(self) -> None:
        self.policy = RoutingPolicy(name="static-block", use_boundary_info=False)
        self._view: Optional[
            Tuple[LabelingState, int, InformationState, DecisionCache]
        ] = None

    def offline_view(self, mesh: Mesh, labeling: LabelingState) -> InformationState:
        """Adjacent-only information for ``labeling``, rebuilt on mutation.

        The one-slot cache is shared by every probe of one simulation, so a
        labeling change costs one rebuild, not one per in-flight probe.
        """
        return self._view_entry(mesh, labeling)[0]

    def online_view(self, info: SimulationInfo) -> InformationState:
        """The information this router's online probes decide against.

        The adjacent-only view of the simulator's current labeling; the
        probe table classifies this router's cells over it, building one
        classifier per view.
        """
        return self.offline_view(info.mesh, info.labeling)

    def _view_entry(
        self, mesh: Mesh, labeling: LabelingState
    ) -> Tuple[InformationState, DecisionCache]:
        """The cached adjacent-only view plus a decision cache over it."""
        cached = self._view
        if (
            cached is not None
            and cached[0] is labeling
            and cached[1] == labeling.mutations
        ):
            return cached[2], cached[3]
        view = adjacent_only_information(mesh, labeling)
        cache = DecisionCache(view, self.policy)
        self._view = (labeling, labeling.mutations, view, cache)
        return view, cache

    def route(
        self,
        mesh: Mesh,
        labeling: LabelingState,
        source: Sequence[int],
        destination: Sequence[int],
        *,
        max_steps: Optional[int] = None,
    ) -> RouteResult:
        view, cache = self._view_entry(mesh, labeling)
        return route_offline(
            view,
            source,
            destination,
            policy=self.policy,
            max_steps=max_steps,
            decision_cache=cache,
        )

    def probe(
        self, mesh: Mesh, source: Sequence[int], destination: Sequence[int]
    ) -> "StaticBlockProbe":
        return StaticBlockProbe(self, mesh, source, destination)


class StaticBlockProbe:
    """A :class:`RoutingProbe` that sees only adjacent-frame information.

    The simulator hands every probe its own (boundary-propagated)
    information state; this wrapper swaps in the adjacent-only view of the
    same labeling before each decision, leaving everything else — header,
    backtracking, contention handling — to the shared probe machinery.
    """

    def __init__(
        self,
        router: StaticBlockRouter,
        mesh: Mesh,
        source: Sequence[int],
        destination: Sequence[int],
    ) -> None:
        self._router = router
        self._inner = RoutingProbe(mesh, source, destination, policy=router.policy)

    def step(
        self,
        info: SimulationInfo,
        *,
        link_blocked: Optional[LinkBlocked] = None,
        decision_cache: Optional[DecisionCache] = None,
    ) -> Optional[RouteOutcome]:
        # The engine's cache is bound to *its* information state; this probe
        # decides against the adjacent-only view, so it uses the decision
        # cache the router keeps alongside that view instead.
        view, cache = self._router._view_entry(info.mesh, info.labeling)
        return self._inner.step(view, link_blocked=link_blocked, decision_cache=cache)

    def result(self) -> RouteResult:
        return self._inner.result()

    @property
    def outcome(self) -> Optional[RouteOutcome]:
        return self._inner.outcome

    @property
    def done(self) -> bool:
        return self._inner.done

    @property
    def current(self) -> Coord:
        return self._inner.current

    @property
    def circuit_stack(self) -> Sequence[Coord]:
        return self._inner.circuit_stack

    @property
    def blocked_hops(self) -> int:
        return self._inner.blocked_hops

    @property
    def setup_retries(self) -> int:
        return self._inner.setup_retries

    @property
    def waited(self) -> bool:
        return self._inner.waited
