"""Workloads: traffic patterns and the paper's worked scenarios.

* :mod:`repro.workloads.traffic` — source/destination pair generators
  (uniform random, hotspot, transpose) and their conversion into
  simulator traffic;
* :mod:`repro.workloads.scenarios` — the concrete configurations used in
  the paper's figures (Figure 1 fault set, Figure 4 recovery, parametric
  blocks for Figures 5/6, two-block configurations for Figure 3(d)) and
  :func:`simulate_scenario`, the one builder of a simulate-mode cell's
  mesh, dynamic fault schedule and closed-batch traffic (the ``random``,
  ``hotspot``, ``transpose`` and ``bursty`` families, the last three
  contending for links in the simulator's PCS circuit phase).
"""

from repro.workloads.scenarios import (
    DynamicRoutingScenario,
    figure1_scenario,
    figure4_recovery_scenario,
    parametric_block_scenario,
    simulate_scenario,
    two_block_scenario,
)
from repro.workloads.traffic import (
    hotspot_pairs,
    random_pairs,
    to_traffic,
    transpose_pairs,
)

__all__ = [
    "DynamicRoutingScenario",
    "figure1_scenario",
    "figure4_recovery_scenario",
    "hotspot_pairs",
    "parametric_block_scenario",
    "random_pairs",
    "simulate_scenario",
    "to_traffic",
    "transpose_pairs",
    "two_block_scenario",
]
