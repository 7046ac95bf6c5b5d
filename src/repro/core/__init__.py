"""The paper's contribution: the limited-global fault information model.

Sub-modules map one-to-one onto the paper's sections:

* :mod:`repro.core.block_construction` — the enabled/disabled/clean labeling
  scheme (Definitions 1 and 4, Algorithm 1) that coalesces faults into
  disjoint faulty blocks;
* :mod:`repro.core.faulty_block` — the geometry of a faulty block
  (Definition 2: adjacent nodes, k-level edge nodes and corners;
  Definition 3: adjacent surfaces; dangerous prisms);
* :mod:`repro.core.identification` — the n-level identification process
  (Algorithm 2, phases 1–3) that discovers a new block's extent;
* :mod:`repro.core.boundary` — boundary construction: distributing block
  information to the nodes enclosing each dangerous area;
* :mod:`repro.core.state` — the per-node information state shared by the
  distributed protocols and the routing algorithm;
* :mod:`repro.core.routing` — fault-information-based PCS routing
  (Algorithm 3);
* :mod:`repro.core.safety` — the safe-node condition (Theorem 2) and
  reachability helpers.
"""

from repro.core.block_construction import (
    BlockConstructionResult,
    LabelingState,
    build_blocks,
    extract_blocks,
    labeling_round,
    run_block_construction,
)
from repro.core.boundary import (
    BoundaryInfo,
    BoundaryProtocol,
    compute_boundaries,
    dangerous_prism,
    opposite_prism,
)
from repro.core.distribution import (
    DistributionReport,
    converged_information,
    distribute_information,
    distribute_information_with_report,
)
from repro.core.faulty_block import FaultyBlock, dangerous_prism_of_extent
from repro.core.identification import (
    IdentificationProtocol,
    IdentificationResult,
    oracle_identify,
)
from repro.core.routing import (
    DirectionClass,
    ProbeHeader,
    RouteOutcome,
    RouteResult,
    RoutingPolicy,
    RoutingProbe,
    classify_directions,
    probe_step_limit,
    route_offline,
    routing_decision,
)
from repro.core.safety import (
    is_safe_source,
    minimal_path_exists,
    shortest_path_length,
    source_destination_box,
)
from repro.core.state import BlockRecord, InformationState

__all__ = [
    "BlockConstructionResult",
    "BlockRecord",
    "BoundaryInfo",
    "BoundaryProtocol",
    "DirectionClass",
    "DistributionReport",
    "FaultyBlock",
    "IdentificationProtocol",
    "IdentificationResult",
    "InformationState",
    "LabelingState",
    "ProbeHeader",
    "RouteOutcome",
    "RouteResult",
    "RoutingPolicy",
    "RoutingProbe",
    "build_blocks",
    "classify_directions",
    "compute_boundaries",
    "converged_information",
    "dangerous_prism",
    "dangerous_prism_of_extent",
    "distribute_information",
    "distribute_information_with_report",
    "extract_blocks",
    "is_safe_source",
    "labeling_round",
    "minimal_path_exists",
    "opposite_prism",
    "oracle_identify",
    "probe_step_limit",
    "route_offline",
    "routing_decision",
    "run_block_construction",
    "shortest_path_length",
    "source_destination_box",
]
