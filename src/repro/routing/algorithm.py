"""Registry adapters for the Algorithm-3 (probe-based) policies.

``limited-global``, ``boundary-only``, ``no-disabled-avoid``,
``no-information`` and ``static-block`` are all the same backtracking PCS
probe run with different :class:`~repro.core.routing.RoutingPolicy` flags
over different information views.  An :class:`AlgorithmRouter` builds the
offline view its flags assume (:meth:`AlgorithmRouter.offline_view`) and
names the view its online probes decide against
(:meth:`AlgorithmRouter.online_view`); the simulator's scalar loop and the
probe table both classify over that view.  A policy that differs only in
which nodes hold information overrides those two views and nothing else
(:class:`~repro.routing.static_block.StaticBlockRouter`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.block_construction import LabelingState
from repro.core.distribution import distribute_information
from repro.core.routing import (
    DecisionCache,
    InformationProvider,
    RouteResult,
    RoutingPolicy,
    RoutingProbe,
    route_offline,
)
from repro.core.state import InformationState
from repro.mesh.topology import Mesh
from repro.routing.registry import Router

Coord = Tuple[int, ...]


class AlgorithmRouter(Router):
    """Algorithm 3 under a specific :class:`RoutingPolicy`."""

    def __init__(self, policy: RoutingPolicy) -> None:
        self.policy = policy
        self.name = policy.name
        #: One-slot cache of the offline information view (plus the per-node
        #: decision cache built over it), keyed by labeling identity +
        #: mutation counter so batch routing over one stabilized
        #: configuration builds the view exactly once.
        self._view: Optional[
            Tuple[LabelingState, int, InformationProvider, DecisionCache]
        ] = None

    def offline_view(self, mesh: Mesh, labeling: LabelingState) -> InformationProvider:
        """The information state this policy routes against offline.

        Built by :meth:`_build_view` once per labeling mutation; the cache
        is shared by every route and probe reading it, so a labeling change
        costs one rebuild.
        """
        return self._view_entry(mesh, labeling)[0]

    def _build_view(self, mesh: Mesh, labeling: LabelingState) -> InformationProvider:
        """The uncached view of ``labeling`` that this policy assumes.

        Policies that read block or boundary records get the full
        distributed information; an information-free policy routes against
        the bare labeling (adjacent-fault detection only).
        """
        if self.policy.use_block_info or self.policy.use_boundary_info:
            return distribute_information(mesh, labeling)
        return InformationState(mesh=mesh, labeling=labeling)

    def _view_entry(
        self, mesh: Mesh, labeling: LabelingState
    ) -> Tuple[InformationProvider, DecisionCache]:
        cached = self._view
        if (
            cached is not None
            and cached[0] is labeling
            and cached[1] == labeling.mutations
        ):
            return cached[2], cached[3]
        info = self._build_view(mesh, labeling)
        cache = DecisionCache(info, self.policy)
        self._view = (labeling, labeling.mutations, info, cache)
        return info, cache

    def route(
        self,
        mesh: Mesh,
        labeling: LabelingState,
        source: Sequence[int],
        destination: Sequence[int],
        *,
        max_steps: Optional[int] = None,
    ) -> RouteResult:
        info, cache = self._view_entry(mesh, labeling)
        return route_offline(
            info,
            source,
            destination,
            policy=self.policy,
            max_steps=max_steps,
            decision_cache=cache,
        )

    def probe(
        self, mesh: Mesh, source: Sequence[int], destination: Sequence[int]
    ) -> RoutingProbe:
        return RoutingProbe(mesh, source, destination, policy=self.policy)

    def online_view(self, info: InformationProvider) -> InformationProvider:
        """The information this router's online probes decide against.

        Plain Algorithm-3 probes read the simulator's own information.
        """
        return info
