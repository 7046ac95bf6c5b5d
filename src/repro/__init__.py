"""repro — limited-global fault information model for dynamic routing in n-D meshes.

Reproduction of Jiang & Wu, *A Limited-Global Fault Information Model for
Dynamic Routing in n-D Meshes*, Proc. 18th IPDPS, 2004.

The public API re-exports the pieces most users need:

* the mesh substrate (:class:`Mesh`, :class:`Region`, :class:`Direction`);
* the fault model (:class:`NodeStatus`, :class:`DynamicFaultSchedule`);
* the limited-global information model (block construction, identification,
  boundary construction, :class:`InformationState`);
* fault-information-based PCS routing (:class:`RoutingPolicy`,
  :func:`route_offline`) and the router registry unifying every policy and
  baseline (:func:`resolve_router`, :func:`available_routers`);
* the step-synchronous simulator (:class:`Simulator`,
  :class:`SimulationConfig`) implementing the paper's execution model;
* the opt-in observability layer (:class:`StepRecorder`,
  :class:`PhaseProfiler`, :mod:`repro.obs`) — per-step time series, phase
  timing and run telemetry, all near-free when not attached.

Quickstart::

    from repro import Mesh, build_blocks, distribute_information, route_offline

    mesh = Mesh.cube(10, 3)
    result = build_blocks(mesh, [(3, 5, 4), (4, 5, 4), (5, 5, 3), (3, 6, 3)])
    info = distribute_information(mesh, result.state)
    route = route_offline(info, source=(0, 0, 0), destination=(9, 9, 9))
    print(route.outcome, route.hops, route.detours)
"""

from repro.core import (
    BlockConstructionResult,
    BoundaryInfo,
    BoundaryProtocol,
    DirectionClass,
    FaultyBlock,
    IdentificationProtocol,
    IdentificationResult,
    InformationState,
    LabelingState,
    ProbeHeader,
    RouteOutcome,
    RouteResult,
    RoutingPolicy,
    build_blocks,
    compute_boundaries,
    extract_blocks,
    is_safe_source,
    minimal_path_exists,
    oracle_identify,
    route_offline,
    run_block_construction,
)
from repro.backend import resolve_backend
from repro.core.distribution import distribute_information
from repro.core.routing import RoutingProbe
from repro.faults import (
    DynamicFaultSchedule,
    FaultEvent,
    FaultEventKind,
    NodeStatus,
    dynamic_schedule,
    uniform_random_faults,
)
from repro.mesh import Direction, Mesh, Region
from repro.obs import PhaseProfiler, StepRecorder
from repro.routing import (
    Router,
    available_routers,
    register_router,
    resolve_router,
)
from repro.simulator import SimulationConfig, Simulator

__version__ = "0.8.0"

__all__ = [
    "BlockConstructionResult",
    "BoundaryInfo",
    "BoundaryProtocol",
    "Direction",
    "DirectionClass",
    "DynamicFaultSchedule",
    "FaultEvent",
    "FaultEventKind",
    "FaultyBlock",
    "IdentificationProtocol",
    "IdentificationResult",
    "InformationState",
    "LabelingState",
    "Mesh",
    "NodeStatus",
    "PhaseProfiler",
    "ProbeHeader",
    "Region",
    "RouteOutcome",
    "RouteResult",
    "Router",
    "RoutingPolicy",
    "RoutingProbe",
    "SimulationConfig",
    "Simulator",
    "StepRecorder",
    "__version__",
    "available_routers",
    "build_blocks",
    "compute_boundaries",
    "distribute_information",
    "dynamic_schedule",
    "extract_blocks",
    "is_safe_source",
    "minimal_path_exists",
    "oracle_identify",
    "register_router",
    "resolve_backend",
    "resolve_router",
    "route_offline",
    "run_block_construction",
    "uniform_random_faults",
]
