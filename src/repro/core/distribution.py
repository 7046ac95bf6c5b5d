"""End-to-end information distribution for a stabilized fault configuration.

This is the offline (fully converged) composition of the three construction
procedures of Algorithm 2: block construction has already produced a
stabilized :class:`~repro.core.block_construction.LabelingState`; for every
block an identification process distributes the block record over the
block's adjacency frame, and a boundary construction distributes boundary
records along every boundary.  The result is the steady-state
:class:`~repro.core.state.InformationState` a routing process sees when the
network has been quiet for long enough (the paper's assumption
``d_i > (a_i + b_i + c_i) / λ`` between fault occurrences).

The per-block round counts are returned as well, since they are the
quantities (``b_i``, ``c_i``) the convergence experiments sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.block_construction import LabelingState, extract_blocks
from repro.core.boundary import BoundaryProtocol
from repro.core.identification import IdentificationProtocol, IdentificationResult
from repro.core.state import InformationState
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh

Coord = Tuple[int, ...]


@dataclass(frozen=True)
class DistributionReport:
    """Round counts of a full identification + boundary distribution."""

    #: Identification result per block extent.
    identifications: Dict[Region, IdentificationResult]

    #: Boundary-construction rounds (``c_i``) — a single propagation is run
    #: for all blocks together, as their boundaries interact through merging.
    boundary_rounds: int

    @property
    def identification_rounds(self) -> int:
        """Largest per-block ``b_i`` (the constructions run concurrently)."""
        if not self.identifications:
            return 0
        return max(r.total_rounds for r in self.identifications.values())

    @property
    def total_rounds(self) -> int:
        """``b + c`` — rounds after labeling until all information is in place."""
        return self.identification_rounds + self.boundary_rounds


def distribute_information(
    mesh: Mesh,
    labeling: LabelingState,
    *,
    version: int = 0,
) -> InformationState:
    """Converged information state for a stabilized labeling (records only)."""
    info, _ = distribute_information_with_report(mesh, labeling, version=version)
    return info


def distribute_information_with_report(
    mesh: Mesh,
    labeling: LabelingState,
    *,
    version: int = 0,
) -> Tuple[InformationState, DistributionReport]:
    """Converged information state plus the round counts that produced it."""
    info = InformationState(mesh=mesh, labeling=labeling, version=version)
    blocks = extract_blocks(labeling)
    identifications: Dict[Region, IdentificationResult] = {}
    for block in blocks:
        protocol = IdentificationProtocol(info, block, version=version)
        identifications[block.extent] = protocol.run()
    boundary = BoundaryProtocol.for_blocks(info, blocks, version=version)
    boundary_rounds = boundary.run()
    report = DistributionReport(
        identifications=identifications, boundary_rounds=boundary_rounds
    )
    return info, report


def converged_information(
    mesh: Mesh, faults: Sequence[Sequence[int]], *, version: int = 0
) -> InformationState:
    """Label, identify and distribute for a static fault set in one call."""
    from repro.core.block_construction import build_blocks

    result = build_blocks(mesh, faults)
    return distribute_information(mesh, result.state, version=version)
