"""Experiment service mode: the async HTTP front door for sweeps.

``repro-mesh serve`` exposes :mod:`repro.experiments` over a versioned
JSON API so experiments can be submitted, observed and fetched remotely:

* :mod:`repro.service.http` — a minimal hand-rolled HTTP/1.1 layer on
  asyncio streams (no web framework; stdlib only);
* :mod:`repro.service.jobs` — the job subsystem: registry, priority
  queue, bounded in-flight execution with 429 backpressure, NDJSON
  streaming buffers, cooperative cancellation, drain/shutdown;
* :mod:`repro.service.server` — :class:`ExperimentService`, the routing
  and lifecycle glue (submit/status/stream/result/cancel/health
  endpoints, SIGTERM graceful drain).

The wire formats are exactly the library's versioned schemas: requests
carry a ``repro.spec/v1`` document (the same payload
``ExperimentSpec.to_dict`` emits and ``--spec FILE.json`` reads), and
``GET /v1/jobs/{id}/result`` returns the ``repro.result/v1`` document
byte-identical to what ``repro-mesh sweep --out`` writes for that spec.
"""

from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    Draining,
    InvalidTransition,
    Job,
    JobManager,
    QueueFull,
    SpecTooLarge,
    UnknownJob,
)
from repro.service.server import ExperimentService, make_service

__all__ = [
    "CANCELLED",
    "DONE",
    "Draining",
    "ExperimentService",
    "FAILED",
    "InvalidTransition",
    "Job",
    "JobManager",
    "QUEUED",
    "QueueFull",
    "RUNNING",
    "STATES",
    "SpecTooLarge",
    "TERMINAL_STATES",
    "UnknownJob",
    "make_service",
]
