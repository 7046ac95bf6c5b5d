"""The service's job subsystem: registry, priority queue, bounded execution.

A :class:`Job` is one submitted experiment spec moving through the states
``queued → running → done`` (or ``failed`` / ``cancelled``).  The
:class:`JobManager` owns every job and the execution policy around them:

* **priority queue** — queued jobs dispatch highest ``priority`` first
  (ties FIFO by submission order), so a short interactive grid can jump a
  long batch;
* **bounded in-flight work** — at most ``max_running`` jobs execute at
  once on a thread pool, and at most ``max_queued`` may wait; a submit
  beyond that raises :class:`QueueFull`, which the HTTP layer answers
  with ``429 Retry-After`` (backpressure instead of an unbounded queue).
  A spec of more than :data:`~repro.service.http.MAX_SPEC_CELLS` cells
  raises :class:`SpecTooLarge` (HTTP 413) and is never queued;
* **streaming** — each job records an NDJSON line per finished cell, in
  completion order, appended by the ``on_cell_done`` hook of
  :func:`~repro.experiments.runner.run_batch`; streamers replay the
  buffer and then follow live appends;
* **cancellation** — cooperative, at cell boundaries: the hook raises
  :class:`~repro.experiments.runner.BatchCancelled` when a cancel was
  requested, which aborts the batch without touching other jobs;
* **caching** — every job gets its own
  :class:`~repro.experiments.cache.ResultCache` instance rooted at the
  shared cache directory, so overlapping and repeated submissions share
  content-addressed entries (atomic per-cell writes make the sharing
  safe) while each job reports its own clean hit/miss accounting;
* **drain** — :meth:`JobManager.drain` stops admission, lets accepted
  jobs finish, and :meth:`JobManager.shutdown` tears down the thread pool
  plus the persistent process pool (wired to SIGTERM by the server).

Jobs run on *threads* because the heavy lifting already happens in
``run_batch`` — in-process numpy (the default ``workers=1``) or its
process pool — so the thread is mostly waiting; the GIL is not the
bottleneck.  With per-job ``workers > 1`` the manager serializes job
execution (one at a time), because the persistent process pool is shared
module state and must not be driven from two dispatching threads.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.results import RESULT_SCHEMA
from repro.experiments.runner import BatchCancelled, run_batch, shutdown_pool
from repro.experiments.spec import SPEC_SCHEMA, ExperimentSpec
from repro.service.http import MAX_SPEC_CELLS

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class QueueFull(Exception):
    """Admission refused: the queue is at capacity (HTTP 429)."""

    def __init__(self, message: str, retry_after: int) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SpecTooLarge(Exception):
    """Admission refused: the spec exceeds the cell budget (HTTP 413)."""


class Draining(Exception):
    """Admission refused: the service is shutting down (HTTP 503)."""


class UnknownJob(KeyError):
    """No job with that id (HTTP 404)."""


class InvalidTransition(Exception):
    """The requested state change is not legal from the current state."""


class Job:
    """One submitted spec and everything observed about its execution.

    Mutable state is guarded by the owning manager's lock; the streamed
    ``lines`` list is append-only, so streamers may read a snapshot of
    new entries and never see a line twice or miss one.
    """

    def __init__(
        self, job_id: str, spec: ExperimentSpec, *, priority: int, seq: int
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.priority = priority
        self.seq = seq
        self.state = QUEUED
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.cancel_requested = False
        self.cells_total = spec.cell_count
        self.cells_done = 0
        #: NDJSON stream lines (bytes, newline-terminated), completion order.
        self.lines: List[bytes] = []
        #: The canonical ``repro.result/v1`` document — byte-identical to
        #: what ``repro-mesh sweep --out`` writes for the same spec.
        self.result_json: Optional[bytes] = None
        self.cache_stats: Optional[dict] = None
        self.telemetry: Optional[dict] = None
        #: Set in the event loop when lines/state change (streaming wakeup).
        self.updated: Optional[asyncio.Event] = None
        #: Threading-side completion signal (tests and drain wait on it).
        self.done = threading.Event()

    def describe(self) -> dict:
        """The job's status payload (everything but the stream/result)."""
        payload = {
            "id": self.id,
            "state": self.state,
            "priority": self.priority,
            "spec_name": self.spec.name,
            "mode": self.spec.mode,
            "cells": self.cells_total,
            "cells_done": self.cells_done,
            "cancel_requested": self.cancel_requested,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.cache_stats is not None:
            payload["cache"] = self.cache_stats
        return payload


def _encode_line(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class JobManager:
    """Registry + scheduler for every job the service has accepted."""

    def __init__(
        self,
        *,
        max_running: int = 2,
        max_queued: int = 16,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        shard_timeout: Optional[float] = None,
    ) -> None:
        if max_running < 1:
            raise ValueError("max_running must be >= 1")
        if max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        # The persistent process pool is shared module state; only one
        # dispatching thread may drive it at a time.
        if workers > 1:
            max_running = 1
        self.max_running = max_running
        self.max_queued = max_queued
        self.workers = workers
        self.cache_dir = cache_dir
        self.shard_timeout = shard_timeout

        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count(1)
        self._running = 0
        self._draining = False
        self._idle = threading.Event()
        self._idle.set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max_running, thread_name_prefix="repro-job"
        )

    # ------------------------------------------------------------------ #
    # event-loop plumbing
    # ------------------------------------------------------------------ #
    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Tell the manager which loop streams jobs (enables push wakeups).

        Without an attached loop (plain-thread usage in tests) streamers
        fall back to short polling sleeps.
        """
        with self._lock:
            self._loop = loop
            for job in self._jobs.values():
                if job.updated is None:
                    job.updated = asyncio.Event()

    def _notify(self, job: Job) -> None:
        loop, event = self._loop, job.updated
        if loop is not None and event is not None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop already closed during shutdown

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(self, payload: object) -> Job:
        """Validate and enqueue one submission payload.

        ``payload`` is either a bare ``repro.spec/v1`` document or an
        envelope ``{"spec": {...}, "priority": N}``.  Raises
        :class:`ValueError` on malformed payloads (HTTP 400),
        :class:`SpecTooLarge` past the cell budget (HTTP 413),
        :class:`QueueFull` past capacity (HTTP 429) and :class:`Draining`
        during shutdown (HTTP 503).
        """
        priority = 0
        spec_payload = payload
        if isinstance(payload, dict) and "spec" in payload:
            unknown = sorted(set(payload) - {"spec", "priority"})
            if unknown:
                raise ValueError(
                    "unknown submit field(s) "
                    + ", ".join(repr(k) for k in unknown)
                    + "; valid fields: 'priority', 'spec'"
                )
            spec_payload = payload["spec"]
            raw = payload.get("priority", 0)
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise ValueError(
                    f"submit field 'priority': expected an integer, got {raw!r}"
                )
            priority = raw
        spec = ExperimentSpec.from_dict(spec_payload)
        if spec.cell_count > MAX_SPEC_CELLS:
            raise SpecTooLarge(
                f"spec expands to {spec.cell_count} cells; the cell budget is "
                f"{MAX_SPEC_CELLS} cells per job"
            )

        with self._lock:
            if self._draining:
                raise Draining("service is draining; not accepting new jobs")
            queued = sum(1 for j in self._jobs.values() if j.state == QUEUED)
            if queued >= self.max_queued:
                raise QueueFull(
                    f"queue full ({queued} queued, limit {self.max_queued}); "
                    "retry later",
                    retry_after=max(1, queued),
                )
            seq = next(self._seq)
            job = Job(f"j-{seq:06d}", spec, priority=priority, seq=seq)
            if self._loop is not None:
                job.updated = asyncio.Event()
            self._jobs[job.id] = job
            # heapq is a min-heap: negate priority so higher runs first,
            # seq breaks ties first-come-first-served.
            heapq.heappush(self._heap, (-priority, seq, job))
            self._idle.clear()
            self._pump_locked()
        return job

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def _pump_locked(self) -> None:
        """Dispatch queued jobs while capacity allows (lock held)."""
        while self._running < self.max_running and self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state != QUEUED:
                continue  # cancelled while queued; lazily dropped here
            job.state = RUNNING
            self._running += 1
            self._executor.submit(self._execute, job)

    def _execute(self, job: Job) -> None:
        job.started = time.time()
        self._notify(job)
        cache = ResultCache(self.cache_dir) if self.cache_dir is not None else None

        def on_cell(result) -> None:
            if job.cancel_requested:
                raise BatchCancelled(job.id)
            line = _encode_line(
                {"event": "cell", "job": job.id, "cell": result.to_dict()}
            )
            with self._lock:
                job.cells_done += 1
                job.lines.append(line)
            self._notify(job)

        state, error = DONE, None
        try:
            batch = run_batch(
                job.spec,
                workers=self.workers,
                cache=cache,
                on_cell_done=on_cell,
                shard_timeout=self.shard_timeout,
            )
        except BatchCancelled:
            state = CANCELLED
        except Exception as exc:  # surfaced in the job, never the service
            state, error = FAILED, f"{type(exc).__name__}: {exc}"
        else:
            job.result_json = (batch.to_json() + "\n").encode("utf-8")
            job.telemetry = batch.telemetry_dict()

        end = {
            "event": "end",
            "job": job.id,
            "state": state,
            "cells": job.cells_total,
            "cells_done": job.cells_done,
        }
        if error is not None:
            end["error"] = error
        if cache is not None:
            job.cache_stats = cache.stats.to_dict()
            end["cache"] = job.cache_stats
        with self._lock:
            job.state = state
            job.error = error
            job.finished = time.time()
            job.lines.append(_encode_line(end))
            job.done.set()
            self._running -= 1
            self._pump_locked()
            if self._running == 0 and not any(
                j.state == QUEUED for j in self._jobs.values()
            ):
                self._idle.set()
        self._notify(job)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    @property
    def draining(self) -> bool:
        return self._draining

    def describe(self) -> dict:
        """The health payload: capacity, state counts, schema versions."""
        return {
            "status": "draining" if self._draining else "ok",
            "schemas": {"spec": SPEC_SCHEMA, "result": RESULT_SCHEMA},
            "jobs": self.counts(),
            "capacity": {
                "max_running": self.max_running,
                "max_queued": self.max_queued,
                "workers": self.workers,
                "cache_dir": self.cache_dir,
            },
        }

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: str) -> Job:
        """Cancel a job: immediate when queued, cooperative when running.

        A running job stops at its next cell boundary (the stream's
        ``end`` event then reports ``cancelled``).  Cancelling a job that
        already reached a terminal state raises :class:`InvalidTransition`.
        """
        with self._lock:
            job = self.get(job_id)
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished = time.time()
                job.cancel_requested = True
                job.lines.append(
                    _encode_line(
                        {
                            "event": "end",
                            "job": job.id,
                            "state": CANCELLED,
                            "cells": job.cells_total,
                            "cells_done": 0,
                        }
                    )
                )
                job.done.set()
                if self._running == 0 and not any(
                    j.state == QUEUED for j in self._jobs.values()
                ):
                    self._idle.set()
            elif job.state == RUNNING:
                job.cancel_requested = True
            else:
                raise InvalidTransition(
                    f"job {job.id} is already {job.state}; nothing to cancel"
                )
        self._notify(job)
        return job

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    async def stream(self, job: Job):
        """Async-iterate the job's NDJSON lines: replay, then follow live.

        Terminates after the ``end`` event line (every terminal state
        writes one).  Clear-before-snapshot ordering on the wakeup event
        guarantees no append is missed.
        """
        index = 0
        while True:
            event = job.updated
            if event is not None:
                event.clear()
            with self._lock:
                fresh = job.lines[index:]
                index = len(job.lines)
                finished = job.state in TERMINAL_STATES
            for line in fresh:
                yield line
            if finished:
                with self._lock:
                    drained = index == len(job.lines)
                if drained:
                    return
                continue
            if event is not None:
                await event.wait()
            else:
                await asyncio.sleep(0.05)

    # ------------------------------------------------------------------ #
    # drain / shutdown
    # ------------------------------------------------------------------ #
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting jobs and wait until accepted work is finished.

        Returns ``True`` when the queue fully drained within ``timeout``
        (``None`` = wait forever).  Blocking — call off the event loop.
        """
        with self._lock:
            self._draining = True
            if self._running == 0 and not any(
                j.state == QUEUED for j in self._jobs.values()
            ):
                self._idle.set()
        return self._idle.wait(timeout)

    def shutdown(self) -> None:
        """Tear down the job threads and the persistent process pool."""
        self._executor.shutdown(wait=True)
        shutdown_pool()
