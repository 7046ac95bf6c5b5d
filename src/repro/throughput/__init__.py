"""Open-loop throughput and saturation measurement.

The closed-batch experiments replay fixed message lists; this subsystem
offers load at a *rate* and measures what the network sustains:

* :mod:`repro.throughput.injection` — per-node open-loop message sources
  (Bernoulli and bursty on/off processes crossed with uniform / transpose /
  hotspot spatial patterns) feeding the simulator as it runs, via the
  :class:`~repro.simulator.traffic.TrafficSource` protocol;
* :mod:`repro.throughput.measure` — :func:`run_throughput_point`, the one
  entry point of an open-loop run: one throughput-mode
  :class:`~repro.experiments.spec.ExperimentCell` in, its warmup / measure
  / drain windowed metric row (steady-state accepted throughput, mean/p99
  setup latency, recovery SLOs under an MTBF fault workload) out — the row
  :func:`~repro.experiments.runner.run_cell` lands;
* :mod:`repro.throughput.saturation` — the :func:`knee` of a load curve's
  rows, plus a binary search for the knee of the latency curve (the
  saturation point).

Curves run through the experiment grid: a ``throughput``-mode
:class:`~repro.experiments.spec.ExperimentSpec` through
:func:`~repro.experiments.run_batch`, read back with
:func:`~repro.analysis.throughput.throughput_rows`.  The ``repro-mesh
throughput`` CLI subcommand builds that spec; its ``--trace-out`` run
hands the spec's one cell to :func:`run_throughput_point`, and its
``--saturation`` search probes each policy's cell through
:func:`~repro.experiments.runner.run_cell`.
"""

from repro.throughput.injection import (
    PATTERNS,
    BernoulliInjection,
    BurstyInjection,
    OpenLoopSource,
    make_injection,
)
from repro.throughput.measure import run_throughput_point
from repro.throughput.saturation import find_saturation, knee

__all__ = [
    "BernoulliInjection",
    "BurstyInjection",
    "OpenLoopSource",
    "PATTERNS",
    "find_saturation",
    "knee",
    "make_injection",
    "run_throughput_point",
]
