"""Analysis utilities: detour bounds, convergence measurement, metrics.

* :mod:`repro.analysis.detour_bounds` — the analytical bounds of
  Theorems 3, 4 and 5 as functions of the dynamic-fault parameters;
* :mod:`repro.analysis.convergence` — measuring ``a_i`` / ``b_i`` / ``c_i``
  for given block sizes and dimensions, plus the closed-form expectations;
* :mod:`repro.analysis.metrics` — the offline metric row of a routed
  batch, the compared policies and the memory-footprint accounting;
* :mod:`repro.analysis.throughput` — load-curve rows over throughput-mode
  experiment batches;
* :mod:`repro.analysis.slo` — per-fault-event recovery SLOs (throughput dip
  depth, time-to-recover, p99 setup-latency excursion) off per-step series.
"""

from repro.analysis.convergence import (
    ConvergenceMeasurement,
    expected_boundary_rounds,
    expected_identification_rounds,
    expected_labeling_rounds,
    measure_convergence,
)
from repro.analysis.detour_bounds import (
    DetourBoundParameters,
    theorem3_distance_bounds,
    theorem4_interval_bound,
    theorem4_max_detours,
    theorem5_interval_bound,
)
from repro.analysis.metrics import (
    global_table_cells,
    limited_global_cells,
    summarize_routes,
)
from repro.analysis.slo import (
    EventSlo,
    RecoverySlo,
    compute_recovery_slo,
    event_transient,
    moving_average,
    p99_excursion,
)
from repro.analysis.throughput import CURVE_COLUMNS, throughput_rows

__all__ = [
    "CURVE_COLUMNS",
    "ConvergenceMeasurement",
    "DetourBoundParameters",
    "EventSlo",
    "RecoverySlo",
    "compute_recovery_slo",
    "event_transient",
    "expected_boundary_rounds",
    "expected_identification_rounds",
    "expected_labeling_rounds",
    "moving_average",
    "p99_excursion",
    "global_table_cells",
    "limited_global_cells",
    "measure_convergence",
    "summarize_routes",
    "throughput_rows",
    "theorem3_distance_bounds",
    "theorem4_interval_bound",
    "theorem4_max_detours",
    "theorem5_interval_bound",
]
