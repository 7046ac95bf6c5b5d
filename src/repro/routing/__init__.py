"""Unified router registry.

Every routing policy the paper's evaluation compares — the limited-global
model, its ablation variants, Wu's static faulty-block predecessor, the
information-free baseline and the global-information ideal — is registered
here under one name space.  The CLI, the experiment grids
(:mod:`repro.experiments`) and the simulator resolve any policy by name, in
*every* mode: each router both routes offline against a stabilized labeling
and hands the simulator an online probe stepped against the current,
possibly still-converging information.

Registered names (in registration order):

======================  ====================================================
``limited-global``      the paper's model: block + boundary information
``static-block``        Wu ICPP 2000: block info at adjacent nodes only
``boundary-only``       ablation: boundary information without block records
``no-disabled-avoid``   ablation: never avoids known-disabled neighbors
``no-information``      backtracking PCS, adjacent-fault detection only
``global-information``  idealized shortest path with full fault knowledge
======================  ====================================================

The first five are one :class:`AlgorithmRouter` each: the same Algorithm-3
probe under different :class:`~repro.core.routing.RoutingPolicy` flags.
``static-block`` differs from them only in which nodes hold block
information, so :class:`StaticBlockRouter` subclasses it and overrides the
view it builds.  ``global-information`` is a BFS planner of its own
(:class:`GlobalInfoRouter`).
"""

from repro.core.routing import RoutingPolicy
from repro.routing.algorithm import AlgorithmRouter
from repro.routing.global_info import (
    GlobalInfoRouter,
    GlobalPathProbe,
    shortest_usable_path,
)
from repro.routing.registry import (
    Router,
    SetupProbe,
    available_routers,
    register_router,
    resolve_router,
)
from repro.routing.static_block import StaticBlockRouter, adjacent_only_information

register_router(
    "limited-global", lambda: AlgorithmRouter(RoutingPolicy.limited_global())
)
register_router("static-block", StaticBlockRouter)
register_router(
    "boundary-only",
    lambda: AlgorithmRouter(RoutingPolicy(name="boundary-only", use_block_info=False)),
)
register_router(
    "no-disabled-avoid",
    lambda: AlgorithmRouter(
        RoutingPolicy(name="no-disabled-avoid", avoid_known_disabled=False)
    ),
)
register_router(
    "no-information", lambda: AlgorithmRouter(RoutingPolicy.no_information())
)
register_router("global-information", GlobalInfoRouter)

__all__ = [
    "AlgorithmRouter",
    "GlobalInfoRouter",
    "GlobalPathProbe",
    "Router",
    "SetupProbe",
    "StaticBlockRouter",
    "adjacent_only_information",
    "available_routers",
    "register_router",
    "resolve_router",
    "shortest_usable_path",
]
