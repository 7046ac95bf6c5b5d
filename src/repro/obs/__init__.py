"""Runtime observability: per-step recording, profiling, telemetry.

The simulator and the experiment runner are instrumented with three
opt-in layers that cost next to nothing when off:

* :mod:`repro.obs.recorder` — :class:`StepRecorder`, a vectorized
  per-step time-series recorder sampling directly from the simulator's
  flat numpy columns (probe-table counters, ledger occupancy, labeling
  status codes) into preallocated growable arrays;
* :mod:`repro.obs.profile` — :class:`PhaseProfiler`, span-based timing of
  the step pipeline (labeling rounds, decision batch, probe advance,
  ledger sweep, source poll) with a nested report;
* :mod:`repro.obs.trace` / :mod:`repro.obs.telemetry` — JSONL trace
  export of step samples and fault/convergence events, and sweep-level
  run telemetry (per-shard wall time, worker utilization, cache hit
  rates) attached to :class:`~repro.experiments.results.BatchResult`.

Everything here is **off by default**: a simulator without a recorder
pays one ``is not None`` check per step, one without a profiler times its
phases with the shared no-op :data:`~repro.obs.profile.NULL_PROFILER`
(a few hundred nanoseconds per phase), and telemetry never enters the
canonical sweep JSON — the byte-identical determinism contract is
unchanged.
"""

from repro.obs.profile import PhaseProfiler
from repro.obs.recorder import StepRecorder
from repro.obs.telemetry import TELEMETRY_VERSION, ShardRecord, SweepTelemetry
from repro.obs.trace import TRACE_SCHEMA, Trace, read_trace, trace_records, write_trace

__all__ = [
    "PhaseProfiler",
    "ShardRecord",
    "StepRecorder",
    "SweepTelemetry",
    "TELEMETRY_VERSION",
    "TRACE_SCHEMA",
    "Trace",
    "read_trace",
    "trace_records",
    "write_trace",
]
