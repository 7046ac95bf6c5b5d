"""Static faulty-block routing (Wu, ICPP 2000) as a registry router.

Wu's minimal adaptive routing keeps block information only at the nodes
*adjacent* to a block (its frame), with no boundary propagation.  That is
Algorithm 3 over a different information view, so
:class:`StaticBlockRouter` is an
:class:`~repro.routing.algorithm.AlgorithmRouter` that overrides only how
its view is built and which view its online probes read: the adjacent-only
view of the current labeling, re-derived whenever the labeling changes.
"""

from __future__ import annotations

from repro.core.block_construction import LabelingState, extract_blocks
from repro.core.identification import frame_geometry
from repro.core.routing import InformationProvider, RoutingPolicy
from repro.core.state import BlockRecord, InformationState
from repro.mesh.topology import Mesh
from repro.routing.algorithm import AlgorithmRouter


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


class StaticBlockRouter(AlgorithmRouter):
    """Block information at block-adjacent nodes only; no boundaries."""

    def __init__(self) -> None:
        super().__init__(RoutingPolicy(name="static-block", use_boundary_info=False))

    def _build_view(self, mesh: Mesh, labeling: LabelingState) -> InformationState:
        return adjacent_only_information(mesh, labeling)

    def online_view(self, info: InformationProvider) -> InformationState:
        """The adjacent-only view of the simulator's current labeling."""
        return self.offline_view(info.mesh, info.labeling)
