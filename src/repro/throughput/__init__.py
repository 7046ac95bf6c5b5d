"""Open-loop throughput and saturation measurement.

The closed-batch experiments replay fixed message lists; this subsystem
offers load at a *rate* and measures what the network sustains:

* :mod:`repro.throughput.injection` — per-node open-loop message sources
  (Bernoulli and bursty on/off processes crossed with uniform / transpose /
  hotspot spatial patterns) feeding the simulator as it runs, via the
  :class:`~repro.simulator.traffic.TrafficSource` protocol;
* :mod:`repro.throughput.measure` — the warmup / measure / drain windowed
  methodology producing steady-state accepted throughput, mean/p99 setup
  latency and a circuit-occupancy series;
* :mod:`repro.throughput.saturation` — per-policy load–latency curves and
  their knee, plus a binary search for the knee of the latency curve (the
  saturation point).

Curves run through the experiment grid: a ``throughput``-mode
:class:`~repro.experiments.spec.ExperimentSpec` through
:func:`~repro.experiments.run_batch`, read back with
:func:`~repro.analysis.throughput.throughput_rows`.  The ``repro-mesh
throughput`` CLI subcommand builds that spec; its ``--trace-out`` and
``--saturation`` runs measure the spec's cells through
:func:`~repro.experiments.runner.run_throughput_cell`.
"""

from repro.throughput.injection import (
    PATTERNS,
    BernoulliInjection,
    BurstyInjection,
    OpenLoopSource,
    make_injection,
)
from repro.throughput.measure import (
    MeasurementWindows,
    ThroughputResult,
    WindowSample,
    measure_open_loop,
    run_throughput_point,
)
from repro.throughput.saturation import (
    LoadCurve,
    LoadPoint,
    find_saturation,
)

__all__ = [
    "BernoulliInjection",
    "BurstyInjection",
    "LoadCurve",
    "LoadPoint",
    "MeasurementWindows",
    "OpenLoopSource",
    "PATTERNS",
    "ThroughputResult",
    "WindowSample",
    "find_saturation",
    "make_injection",
    "measure_open_loop",
    "run_throughput_point",
]
