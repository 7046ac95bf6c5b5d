"""Workloads: traffic patterns and the paper's worked scenarios.

* :mod:`repro.workloads.traffic` — source/destination pair generators
  (uniform random, corner-to-corner, transpose) and their conversion into
  simulator traffic;
* :mod:`repro.workloads.scenarios` — the concrete configurations used in
  the paper's figures (Figure 1 fault set, Figure 4 recovery, parametric
  blocks for Figures 5/6, two-block configurations for Figure 3(d)) plus
  composite dynamic-fault experiment builders;
* :mod:`repro.workloads.congestion` — hotspot/transpose/bursty workloads
  that deliberately contend for links, exercising the simulator's PCS
  circuit phase.
"""

from repro.workloads.congestion import (
    bursty_scenario,
    hotspot_pairs,
    hotspot_scenario,
    transpose_scenario,
)
from repro.workloads.scenarios import (
    DynamicRoutingScenario,
    figure1_scenario,
    figure4_recovery_scenario,
    parametric_block_scenario,
    random_dynamic_scenario,
    two_block_scenario,
)
from repro.workloads.traffic import (
    random_pairs,
    to_traffic,
    transpose_pairs,
)

__all__ = [
    "DynamicRoutingScenario",
    "bursty_scenario",
    "figure1_scenario",
    "figure4_recovery_scenario",
    "hotspot_pairs",
    "hotspot_scenario",
    "parametric_block_scenario",
    "random_dynamic_scenario",
    "random_pairs",
    "to_traffic",
    "transpose_pairs",
    "transpose_scenario",
    "two_block_scenario",
]
