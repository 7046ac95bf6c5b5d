"""Routing-quality metrics and memory accounting.

These helpers produce the rows of the companion-style comparison tables:

* :func:`summarize_routes` — the offline metric row of a batch of
  :class:`~repro.core.routing.RouteResult` (delivery rate, mean hops,
  mean/max detours, backtracks), the row
  :func:`~repro.experiments.runner.run_cell` lands for an offline cell;
* :data:`COMPARED_POLICIES` — the policies ``repro-mesh compare`` routes
  over one stabilized fault configuration;
* :func:`limited_global_cells` / :func:`global_table_cells` — the memory
  footprint comparison the paper argues qualitatively ("our approach reduces
  the memory requirement to store fault information in the whole network").
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, Sequence

from repro.core.block_construction import LabelingState, extract_blocks
from repro.core.distribution import distribute_information
from repro.core.routing import RouteOutcome, RouteResult
from repro.core.state import InformationState
from repro.mesh.topology import Mesh


def summarize_routes(results: Sequence[RouteResult]) -> Dict[str, float]:
    """The offline metric row of a batch of route results.

    Means are over the delivered routes (0.0 when none delivered) and keep
    :func:`statistics.mean`'s type: an integral mean of integer hops is an
    ``int``.  An empty batch delivers at rate 1.0.
    """
    delivered = [r for r in results if r.outcome is RouteOutcome.DELIVERED]
    return {
        "routes": float(len(results)),
        "delivered": float(len(delivered)),
        "delivery_rate": len(delivered) / len(results) if results else 1.0,
        "mean_hops": mean(r.hops for r in delivered) if delivered else 0.0,
        "mean_detours": mean(r.detours or 0 for r in delivered) if delivered else 0.0,
        "max_detours": float(max((r.detours or 0 for r in delivered), default=0)),
        "mean_backtracks": mean(r.backtrack_hops for r in delivered) if delivered else 0.0,
    }


#: The policies ``repro-mesh compare`` routes, in table order: the paper's
#: model, the no-information baseline, the static-block baseline and the
#: global-information ideal.
COMPARED_POLICIES = (
    "limited-global", "no-information", "static-block", "global-information"
)


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
