"""Experiment orchestration: declarative grids, sharded runs, caching.

The subsystem sits above the per-probe algorithms and the simulator, so
whole fleets of scenarios can be swept, compared and persisted uniformly:

* :mod:`repro.experiments.spec` — :class:`ExperimentSpec`, a declarative
  grid over mesh shapes, fault counts/intervals, λ, routing policies,
  traffic sizes and seeds, expanded into deterministic
  :class:`ExperimentCell` items;
* :mod:`repro.experiments.runner` — :func:`run_batch`, executing the grid
  through the ``auto`` engine (stacked probe-table groups, sharded across
  a persistent process pool when ``workers > 1``) or its ``serial``
  oracle, with per-cell deterministic seeding (both engines and every
  worker count produce identical results);
* :mod:`repro.experiments.stacked` — the lockstep executor stepping
  same-shape cells on one shared probe table;
* :mod:`repro.experiments.shard` — the planner partitioning cells by
  (shape, probe-table eligibility, mode) into dispatchable
  :class:`Shard` units;
* :mod:`repro.experiments.cache` — :class:`ResultCache`, the
  content-addressed on-disk result store that makes repeated and
  overlapping sweeps cost only cache reads;
* :mod:`repro.experiments.results` — :class:`BatchResult`, aggregating
  per-cell metrics with canonical JSON export and pivot-table helpers.
  Each batch also carries a :class:`~repro.obs.telemetry.SweepTelemetry`
  (shard timings, worker utilization, cache stats) on
  ``BatchResult.telemetry`` — observational only, never part of the
  canonical JSON.

The ``repro-mesh sweep``, ``throughput`` and ``compare`` CLI subcommands,
the HTTP service (:mod:`repro.service`), the comparison benchmarks and
``examples/policy_comparison.py`` all route through this package.

**Stable public surface.** ``__all__`` below *is* the supported API of
this package: specs are built with keyword arguments or parsed from the
versioned ``repro.spec/v1`` payload via :meth:`ExperimentSpec.from_dict`
(which rejects a payload without its ``schema`` tag), batches run through
:func:`run_batch` (keyword options only), and results export as the
``repro.result/v1`` payload via :meth:`BatchResult.to_dict`/``to_json``.
"""

from repro.experiments.cache import CacheStats, ResultCache, cell_fingerprint
from repro.experiments.results import RESULT_SCHEMA, BatchResult, CellResult
from repro.experiments.runner import (
    ENGINES,
    BatchCancelled,
    run_batch,
    run_cell,
    shutdown_pool,
)
from repro.obs.telemetry import ShardRecord, SweepTelemetry
from repro.experiments.shard import Shard, plan_shards, probe_table_eligible
from repro.experiments.spec import (
    MODES,
    SPEC_SCHEMA,
    ExperimentCell,
    ExperimentSpec,
    derive_cell_seed,
)

__all__ = [
    "BatchCancelled",
    "BatchResult",
    "CacheStats",
    "CellResult",
    "ENGINES",
    "ExperimentCell",
    "ExperimentSpec",
    "MODES",
    "RESULT_SCHEMA",
    "ResultCache",
    "SPEC_SCHEMA",
    "Shard",
    "ShardRecord",
    "SweepTelemetry",
    "cell_fingerprint",
    "derive_cell_seed",
    "plan_shards",
    "probe_table_eligible",
    "run_batch",
    "run_cell",
    "shutdown_pool",
]
