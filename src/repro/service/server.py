"""The asyncio HTTP front door: routing, streaming, graceful shutdown.

:class:`ExperimentService` binds a :class:`~repro.service.jobs.JobManager`
to a TCP listener and speaks the versioned JSON API:

====== ============================== ==========================================
Method Path                           Meaning
====== ============================== ==========================================
GET    ``/v1/health``                 liveness + capacity + schema versions
POST   ``/v1/jobs``                   submit a ``repro.spec/v1`` payload (202),
                                      or ``{"spec": ..., "priority": N}``
GET    ``/v1/jobs``                   list every job's status
GET    ``/v1/jobs/{id}``              one job's status
GET    ``/v1/jobs/{id}/stream``       NDJSON: cell results in completion order
                                      (chunked; replays finished jobs)
GET    ``/v1/jobs/{id}/result``       the canonical ``repro.result/v1`` JSON —
                                      byte-identical to ``sweep --out``
POST   ``/v1/jobs/{id}/cancel``       cancel (immediate if queued, cooperative
                                      at the next cell boundary if running)
DELETE ``/v1/jobs/{id}``              alias for cancel
====== ============================== ==========================================

Backpressure: a submit past ``max_queued`` answers ``429`` with a
``Retry-After`` header, and a spec of more cells than
:data:`~repro.service.http.MAX_SPEC_CELLS` answers ``413``.  On
SIGTERM/SIGINT the listener closes, accepted jobs drain, and the
persistent process pool is shut down before exit.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from typing import List, Optional, Tuple

from repro.service.http import (
    ChunkedWriter,
    ProtocolError,
    Request,
    error_response,
    json_body,
    read_request,
    render,
)
from repro.service.jobs import (
    DONE,
    Draining,
    InvalidTransition,
    JobManager,
    QueueFull,
    SpecTooLarge,
    TERMINAL_STATES,
    UnknownJob,
)


class ExperimentService:
    """One listener + one job manager = the experiment service."""

    def __init__(
        self, manager: JobManager, *, host: str = "127.0.0.1", port: int = 8642
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._thread_loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener and attach the running loop to the manager."""
        self.manager.attach_loop(asyncio.get_running_loop())
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        if self.port == 0:  # report the kernel-assigned port
            self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self, *, handle_signals: bool = True) -> None:
        """Run until SIGTERM/SIGINT, then drain and shut down cleanly."""
        await self.start()
        print(
            f"repro-mesh service listening on http://{self.host}:{self.port} "
            f"(schemas: repro.spec/v1, repro.result/v1)",
            file=sys.stderr,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        if handle_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, stop.set)
        try:
            await stop.wait()
        finally:
            print("draining: waiting for accepted jobs...", file=sys.stderr)
            await self.aclose()
            print("service stopped", file=sys.stderr)

    async def aclose(self) -> None:
        """Close the listener, drain accepted jobs, tear the pools down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.manager.drain)
        await loop.run_in_executor(None, self.manager.shutdown)

    # ------------------------------------------------------------------ #
    # background-thread harness (tests, embedding)
    # ------------------------------------------------------------------ #
    def start_background(self) -> Tuple[str, int]:
        """Run the service on a private event loop in a daemon thread.

        Returns the bound ``(host, port)``; use :meth:`stop_background`
        to shut it down.  This is how the test-suite drives real HTTP
        requests against the service without blocking the test process.
        """
        if self._thread is not None:
            raise RuntimeError("service already started")
        ready = threading.Event()
        failure: List[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._thread_loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors to the caller
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-service", daemon=True
        )
        self._thread.start()
        ready.wait()
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self.host, self.port

    def stop_background(self, *, drain: bool = True) -> None:
        """Stop a :meth:`start_background` service (optionally draining)."""
        loop, thread = self._thread_loop, self._thread
        if loop is None or thread is None:
            return
        if drain:
            self.manager.drain()
        server = self._server

        def closer() -> None:
            if server is not None:
                server.close()
            loop.stop()

        loop.call_soon_threadsafe(closer)
        thread.join()
        self._server = None
        self._thread = None
        self._thread_loop = None
        self.manager.shutdown()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                writer.write(error_response(exc.status, exc.message))
                await writer.drain()
                return
            if request is None:
                return
            try:
                await self._route(request, writer)
            except ProtocolError as exc:
                writer.write(error_response(exc.status, exc.message))
                await writer.drain()
            except Exception as exc:  # a handler bug must not kill the loop
                writer.write(
                    error_response(500, f"internal error: {type(exc).__name__}")
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, request: Request, writer: asyncio.StreamWriter) -> None:
        parts = [p for p in request.path.split("/") if p]
        method = request.method.upper()

        if parts == ["v1", "health"]:
            if method != "GET":
                raise ProtocolError(405, "health is GET-only")
            writer.write(render(200, json_body(self.manager.describe())))
            await writer.drain()
            return

        if parts == ["v1", "jobs"]:
            if method == "POST":
                await self._submit(request, writer)
                return
            if method == "GET":
                jobs = [job.describe() for job in self.manager.jobs()]
                writer.write(render(200, json_body({"jobs": jobs})))
                await writer.drain()
                return
            raise ProtocolError(405, "jobs collection supports GET and POST")

        if len(parts) in (3, 4) and parts[:2] == ["v1", "jobs"]:
            job_id = parts[2]
            try:
                job = self.manager.get(job_id)
            except UnknownJob:
                raise ProtocolError(404, f"no job {job_id!r}")
            action = parts[3] if len(parts) == 4 else None

            if action is None and method == "GET":
                writer.write(render(200, json_body({"job": job.describe()})))
                await writer.drain()
                return
            if (action is None and method == "DELETE") or (
                action == "cancel" and method == "POST"
            ):
                try:
                    job = self.manager.cancel(job_id)
                except InvalidTransition as exc:
                    raise ProtocolError(409, str(exc))
                status = 200 if job.state in TERMINAL_STATES else 202
                writer.write(render(status, json_body({"job": job.describe()})))
                await writer.drain()
                return
            if action == "result" and method == "GET":
                await self._result(job, writer)
                return
            if action == "stream" and method == "GET":
                await self._stream(job, writer)
                return
            raise ProtocolError(
                405 if action in (None, "cancel", "result", "stream") else 404,
                f"unsupported {method} on {request.path!r}",
            )

        raise ProtocolError(404, f"no route {request.path!r}")

    # ------------------------------------------------------------------ #
    # endpoint bodies
    # ------------------------------------------------------------------ #
    async def _submit(self, request: Request, writer: asyncio.StreamWriter) -> None:
        payload = request.json()
        try:
            # Parsing/validation is quick; run it on the loop thread.
            job = self.manager.submit(payload)
        except QueueFull as exc:
            writer.write(
                error_response(
                    429, str(exc), extra_headers=[("Retry-After", str(exc.retry_after))]
                )
            )
            await writer.drain()
            return
        except Draining as exc:
            writer.write(
                error_response(503, str(exc), extra_headers=[("Retry-After", "5")])
            )
            await writer.drain()
            return
        except SpecTooLarge as exc:
            raise ProtocolError(413, str(exc))
        except ValueError as exc:
            raise ProtocolError(400, str(exc))
        writer.write(
            render(
                202,
                json_body({"job": job.describe()}),
                extra_headers=[("Location", f"/v1/jobs/{job.id}")],
            )
        )
        await writer.drain()

    async def _result(self, job, writer: asyncio.StreamWriter) -> None:
        if job.state == DONE and job.result_json is not None:
            # The stored bytes ARE the canonical repro.result/v1 document;
            # no re-serialization that could perturb them.
            writer.write(
                render(200, job.result_json, content_type="application/json")
            )
        elif job.state in TERMINAL_STATES:
            writer.write(
                error_response(
                    409, f"job {job.id} finished {job.state}: {job.error or 'no result'}"
                )
            )
        else:
            writer.write(
                error_response(
                    409,
                    f"job {job.id} is {job.state}; stream it or retry once done",
                    extra_headers=[("Retry-After", "1")],
                )
            )
        await writer.drain()

    async def _stream(self, job, writer: asyncio.StreamWriter) -> None:
        chunked = ChunkedWriter(writer)
        await chunked.start(200)
        header = {
            "event": "job",
            "job": job.describe(),
            "schema": {"spec": "repro.spec/v1", "result": "repro.result/v1"},
        }
        await chunked.write(
            (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
        )
        async for line in self.manager.stream(job):
            await chunked.write(line)
        await chunked.end()


def make_service(
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    max_running: int = 2,
    max_queued: int = 16,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    shard_timeout: Optional[float] = None,
) -> ExperimentService:
    """Convenience constructor wiring a manager into a service."""
    manager = JobManager(
        max_running=max_running,
        max_queued=max_queued,
        workers=workers,
        cache_dir=cache_dir,
        shard_timeout=shard_timeout,
    )
    return ExperimentService(manager, host=host, port=port)


__all__ = ["ExperimentService", "make_service"]
