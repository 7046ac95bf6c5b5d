"""The router registry: one name space for every routing policy.

A :class:`Router` bundles the two ways a policy is exercised in this repo:

* **offline** — :meth:`Router.route` runs the policy to completion against a
  stabilized labeling (the setting of the paper's comparison tables), and
  :meth:`Router.route_batch` routes a whole batch of pairs that way;
* **online** — :meth:`Router.probe` creates a :class:`SetupProbe` that the
  step-synchronous simulator advances one hop per simulation step against
  whatever (possibly still-converging) information exists at that step.

Routers are looked up by name through :func:`resolve_router`, so the CLI,
the experiment grids and the simulator all accept the same policy names and
new policies become sweepable everywhere by a single :func:`register_router`
call.  ``resolve_router`` returns a *fresh* router instance per call:
routers may cache derived views (e.g. the distributed information for a
labeling) without sharing state across unrelated simulations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.block_construction import LabelingState
from repro.core.routing import (
    DecisionCache,
    InformationProvider,
    LinkBlocked,
    RouteOutcome,
    RouteResult,
)
from repro.mesh.topology import Mesh

Coord = Tuple[int, ...]


@runtime_checkable
class SetupProbe(Protocol):
    """A path-setup probe the simulator advances one hop per step.

    ``blocked_hops`` / ``setup_retries`` accumulate contention statistics and
    stay zero when routing is contention-free; ``circuit_stack`` is the
    partial circuit the probe currently holds, whose links the simulator's
    live reservation table keeps reserved while the probe is in flight.
    """

    outcome: Optional[RouteOutcome]
    blocked_hops: int
    setup_retries: int

    @property
    def done(self) -> bool: ...

    @property
    def circuit_stack(self) -> Sequence[Coord]: ...

    def step(
        self,
        info: InformationProvider,
        *,
        link_blocked: Optional[LinkBlocked] = None,
        decision_cache: Optional["DecisionCache"] = None,
    ) -> Optional[RouteOutcome]: ...

    def result(self) -> RouteResult: ...


class Router(ABC):
    """A named routing policy, usable offline and inside the simulator."""

    #: Registry name of the policy (e.g. ``"limited-global"``).
    name: ClassVar[str]

    @abstractmethod
    def route(
        self,
        mesh: Mesh,
        labeling: LabelingState,
        source: Sequence[int],
        destination: Sequence[int],
        *,
        max_steps: Optional[int] = None,
    ) -> RouteResult:
        """Route one message to completion against a stabilized labeling.

        The router derives whatever information view its policy assumes
        (fully distributed records, adjacent-only records, the raw labeling)
        from ``labeling`` itself, so callers never special-case policies.
        """

    def route_batch(
        self,
        mesh: Mesh,
        labeling: LabelingState,
        pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
        *,
        max_steps: Optional[int] = None,
    ) -> List[RouteResult]:
        """Route every ``(source, destination)`` pair as :meth:`route` does.

        Results come back in pair order and equal :meth:`route`'s.  A
        router the probe table hosts
        (:func:`~repro.core.probe_table.table_eligible`) routes the batch as
        rows of one contention-free table cell; every other router, and
        every router on the scalar backend or above 16 dimensions, calls
        :meth:`route` per pair, the oracle the table is held to.
        """
        # Imported here: the probe table imports the routers of this package.
        from repro.core.probe_table import OfflineBatch, table_eligible

        # A cap of 0 steps takes none, and the table always takes one.
        if (max_steps is None or max_steps > 0) and table_eligible(self, mesh.n_dims):
            return OfflineBatch(self, mesh, labeling, pairs, max_steps=max_steps).route()
        return [self.route(mesh, labeling, s, d, max_steps=max_steps) for s, d in pairs]

    @abstractmethod
    def probe(
        self, mesh: Mesh, source: Sequence[int], destination: Sequence[int]
    ) -> SetupProbe:
        """A fresh online probe for the simulator to step."""


_FACTORIES: Dict[str, Callable[[], Router]] = {}


def register_router(name: str, factory: Callable[[], Router]) -> None:
    """Register ``factory`` under ``name``; a taken name raises :class:`ValueError`."""
    if name in _FACTORIES:
        raise ValueError(f"router {name!r} is already registered")
    _FACTORIES[name] = factory


def resolve_router(name: str) -> Router:
    """A fresh :class:`Router` instance for ``name``.

    Raises :class:`ValueError` (listing the registered names) for unknown
    policies, so CLI/spec validation can surface the full menu.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown routing policy {name!r} (registered: "
            f"{', '.join(available_routers())})"
        )
    router = factory()
    return router


def available_routers() -> Tuple[str, ...]:
    """Every registered policy name, in registration order."""
    return tuple(_FACTORIES)
