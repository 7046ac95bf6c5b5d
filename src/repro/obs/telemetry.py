"""Sweep-level run telemetry: shard timings, worker utilization, cache stats.

:func:`~repro.experiments.runner.run_batch` measures each shard's
worker-side wall time and the parent-side timestamp at which its results
landed, and attaches the collection to the
:class:`~repro.experiments.results.BatchResult` as a
:class:`SweepTelemetry`.  Telemetry is *observational only*: it is
excluded from ``BatchResult.to_dict()`` (and therefore from the canonical
sweep JSON), so the byte-identical determinism contract across serial,
stacked, process-pool and cached execution is untouched.  The CLI writes
it to a separate file via ``repro-mesh sweep --telemetry-out``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["TELEMETRY_VERSION", "PoolIncident", "ShardRecord", "SweepTelemetry"]

#: Version of the ``telemetry`` payload layout; bump on shape changes.
#: v2 added the ``incidents`` list (pool crash/timeout recovery records).
TELEMETRY_VERSION = 2


@dataclass(frozen=True)
class ShardRecord:
    """Timing of one executed shard of sweep cells.

    ``seconds`` is worker-side wall time actually spent computing the
    shard; ``landed_seconds`` is the parent-side offset (from batch start)
    at which the shard's results arrived, which for pool execution orders
    shards by completion.
    """

    kind: str  #: "serial" | "stacked" | "cached"
    cells: int
    seconds: float
    landed_seconds: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cells": self.cells,
            "seconds": self.seconds,
            "landed_seconds": self.landed_seconds,
        }


@dataclass(frozen=True)
class PoolIncident:
    """One fault-tolerance intervention during batch execution.

    ``kind`` names what went wrong (``"pool-broken"`` — a worker process
    died and took the executor with it; ``"timeout"`` — no shard completed
    within the inactivity budget; ``"callback-error"`` — an
    ``on_cell_done`` progress hook raised); ``shards`` counts the work
    items affected (for ``callback-error``, the number of failed callback
    invocations); ``action`` is the recovery taken (``"retried"`` — pool
    rebuilt and shards resubmitted, ``"serial"`` — remaining shards
    degraded to in-process execution, ``"suppressed"`` — the callback's
    exception was swallowed and the sweep kept landing cells).
    """

    kind: str  #: "pool-broken" | "timeout" | "callback-error"
    shards: int
    action: str  #: "retried" | "serial" | "suppressed"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "shards": self.shards, "action": self.action}


@dataclass(frozen=True)
class SweepTelemetry:
    """Execution telemetry for one ``run_batch`` invocation."""

    engine: str
    workers: int
    cells: int
    wall_seconds: float
    shards: Tuple[ShardRecord, ...] = ()
    cache: Optional[Dict[str, int]] = field(default=None)
    #: Pool fault-tolerance interventions (empty on an undisturbed run).
    incidents: Tuple[PoolIncident, ...] = ()

    @property
    def busy_seconds(self) -> float:
        """Total worker-side compute time across all shards."""
        return sum(shard.seconds for shard in self.shards)

    @property
    def worker_utilization(self) -> float:
        """Fraction of ``workers × wall_seconds`` spent computing shards.

        1.0 means every worker was busy for the whole batch; low values
        mean workers idled (stragglers, cache-dominated runs, tiny sweeps).
        """
        denominator = self.workers * self.wall_seconds
        if denominator <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / denominator)

    def to_dict(self) -> dict:
        """The versioned ``telemetry`` payload (for ``--telemetry-out``)."""
        payload = {
            "version": TELEMETRY_VERSION,
            "engine": self.engine,
            "workers": self.workers,
            "cells": self.cells,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "worker_utilization": self.worker_utilization,
            "shards": [shard.to_dict() for shard in self.shards],
            "incidents": [incident.to_dict() for incident in self.incidents],
        }
        if self.cache is not None:
            payload["cache"] = dict(self.cache)
        return {"telemetry": payload}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepTelemetry":
        """Parse a payload written by :meth:`to_dict` (v1 has no incidents)."""
        payload = data.get("telemetry", data)
        version = payload.get("version")
        if version not in (1, TELEMETRY_VERSION):
            raise ValueError(
                f"unsupported telemetry version {version!r} "
                f"(expected {TELEMETRY_VERSION})"
            )
        shards: List[ShardRecord] = [
            ShardRecord(
                kind=s["kind"],
                cells=s["cells"],
                seconds=s["seconds"],
                landed_seconds=s["landed_seconds"],
            )
            for s in payload.get("shards", [])
        ]
        incidents = [
            PoolIncident(kind=i["kind"], shards=i["shards"], action=i["action"])
            for i in payload.get("incidents", [])
        ]
        return cls(
            engine=payload["engine"],
            workers=payload["workers"],
            cells=payload["cells"],
            wall_seconds=payload["wall_seconds"],
            shards=tuple(shards),
            cache=payload.get("cache"),
            incidents=tuple(incidents),
        )
