"""Routing-quality metrics, policy comparisons and memory accounting.

These helpers produce the rows of the companion-style comparison tables:

* :func:`summarize_routes` — delivery rate, mean/max detours, backtracks for
  a batch of :class:`~repro.core.routing.RouteResult`;
* :func:`compare_policies` — route the same source/destination batch under
  the limited-global model, the no-information baseline, the static-block
  baseline and the global-information ideal, against the same stabilized
  fault configuration;
* :func:`limited_global_cells` / :func:`global_table_cells` — the memory
  footprint comparison the paper argues qualitatively ("our approach reduces
  the memory requirement to store fault information in the whole network").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, Sequence, Tuple

from repro.core.block_construction import LabelingState, extract_blocks
from repro.core.distribution import distribute_information
from repro.core.routing import RouteOutcome, RouteResult
from repro.core.state import InformationState
from repro.mesh.topology import Mesh
from repro.routing import resolve_router
from repro.simulator.stats import SimulationStats

Coord = Tuple[int, ...]
Pair = Tuple[Coord, Coord]


@dataclass(frozen=True)
class RouteSummary:
    """Aggregate statistics over a batch of route results."""

    routes: int
    delivered: int
    delivery_rate: float
    mean_hops: float
    mean_detours: float
    max_detours: int
    mean_backtracks: float

    @classmethod
    def empty(cls) -> "RouteSummary":
        """Summary of an empty batch."""
        return cls(0, 0, 1.0, 0.0, 0.0, 0, 0.0)


def summarize_routes(results: Sequence[RouteResult]) -> RouteSummary:
    """Aggregate a batch of route results into a :class:`RouteSummary`."""
    if not results:
        return RouteSummary.empty()
    delivered = [r for r in results if r.outcome is RouteOutcome.DELIVERED]
    return RouteSummary(
        routes=len(results),
        delivered=len(delivered),
        delivery_rate=len(delivered) / len(results),
        mean_hops=mean(r.hops for r in delivered) if delivered else 0.0,
        mean_detours=mean(r.detours or 0 for r in delivered) if delivered else 0.0,
        max_detours=max((r.detours or 0 for r in delivered), default=0),
        mean_backtracks=mean(r.backtrack_hops for r in delivered) if delivered else 0.0,
    )


@dataclass
class PolicyComparison:
    """Per-policy summaries for the same configuration and traffic."""

    mesh_shape: Tuple[int, ...]
    fault_count: int
    summaries: Dict[str, RouteSummary] = field(default_factory=dict)

    def row(self, metric: str = "mean_detours") -> Dict[str, float]:
        """One table row: the chosen metric for every policy."""
        return {name: getattr(summary, metric) for name, summary in self.summaries.items()}


#: The policies :func:`compare_policies` routes, in table order: the paper's
#: model, the no-information baseline, the static-block baseline and the
#: global-information ideal.  ``repro-mesh compare`` sweeps the same tuple.
COMPARED_POLICIES = (
    "limited-global", "no-information", "static-block", "global-information"
)


def compare_policies(
    mesh: Mesh,
    labeling: LabelingState,
    pairs: Sequence[Pair],
    *,
    include_static_block: bool = True,
    include_global: bool = True,
) -> PolicyComparison:
    """Route every pair under each policy against the same stabilized faults.

    The policies are :data:`COMPARED_POLICIES`, less the static-block and
    global-information baselines when their flags are off.
    """
    comparison = PolicyComparison(
        mesh_shape=mesh.shape, fault_count=len(labeling.faulty_nodes)
    )
    for name in COMPARED_POLICIES:
        if (name == "static-block" and not include_static_block) or (
            name == "global-information" and not include_global
        ):
            continue
        routes = resolve_router(name).route_batch(mesh, labeling, pairs)
        comparison.summaries[name] = summarize_routes(routes)
    return comparison


# ---------------------------------------------------------------------- #
# circuit-contention accounting
# ---------------------------------------------------------------------- #
def contention_row(stats: SimulationStats, mesh: Mesh) -> Dict[str, float]:
    """One row of the circuit-contention table for a finished simulation.

    ``link_utilization`` normalizes the mean circuit hold occupancy by the
    mesh's total (undirected) link count, so rows from differently sized
    meshes are comparable.
    """
    total_links = sum(
        (s - 1) * mesh.size // s for s in mesh.shape
    )
    return {
        "messages": float(len(stats.messages)),
        "delivery_rate": stats.delivery_rate,
        "blocked_hops": float(stats.total_blocked_hops),
        "setup_retries": float(stats.total_setup_retries),
        "circuits_reserved": float(stats.circuits_reserved),
        "mean_reserved_links": stats.mean_reserved_links,
        "peak_reserved_links": float(stats.peak_reserved_links),
        "link_utilization": (
            stats.mean_reserved_links / total_links if total_links else 0.0
        ),
    }


# ---------------------------------------------------------------------- #
# memory footprint accounting
# ---------------------------------------------------------------------- #
def limited_global_cells(info: InformationState) -> int:
    """Information cells stored by the limited-global model."""
    return info.information_cells()


def global_table_cells(mesh: Mesh, labeling: LabelingState) -> int:
    """Cells a per-node global fault table would store for the same faults.

    Every node keeps one entry per faulty block (the conventional
    routing-table-per-node organization the paper contrasts against).
    """
    blocks = extract_blocks(labeling)
    return mesh.size * len(blocks)


def memory_footprint_row(mesh: Mesh, labeling: LabelingState) -> Dict[str, float]:
    """One row of the memory comparison table."""
    info = distribute_information(mesh, labeling)
    limited = limited_global_cells(info)
    table = global_table_cells(mesh, labeling)
    return {
        "mesh_nodes": float(mesh.size),
        "blocks": float(len(extract_blocks(labeling))),
        "limited_global_cells": float(limited),
        "global_table_cells": float(table),
        "reduction_factor": float(table) / limited if limited else float("inf"),
    }
