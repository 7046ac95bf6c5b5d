"""The service workload's server process and its one HTTP client.

One connection is open at a time: a job is ``POST /v1/jobs``, then the
NDJSON stream read until its ``end`` event, then ``GET .../result``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import re
import select
import signal
import subprocess
import sys
from http.client import HTTPConnection
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import calibrate

HOST = "127.0.0.1"
TIMEOUT_S = 60.0
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


def _die_with_parent() -> None:
    """Ask Linux to SIGTERM the server if the benchmark process dies first,
    so not even a killed benchmark leaves a server behind."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Server:
    """``repro-mesh serve`` in a child process, through the launcher.

    Defaults are the CLI's, except an ephemeral port and the given fresh
    ``--cache-dir``.  :meth:`stop` sends SIGTERM (the server drains and
    exits) and kills the process if it does not end in time; callers use
    it in ``finally`` so no server outlives its run.
    """

    def __init__(self, root: Path, env: Dict[str, str], cache_dir: Path,
                 trace_out: Optional[Path] = None) -> None:
        args = [sys.executable, "perfbench/serve_launcher.py"]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        args += ["--", "--port", "0", "--cache-dir", str(cache_dir)]
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(
            args, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, preexec_fn=_die_with_parent,
        )
        self.peak_rss_kb: Optional[int] = None
        ready, _, _ = select.select([self.proc.stderr], [], [], TIMEOUT_S)
        line = self.proc.stderr.readline() if ready else ""
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line.strip()!r}")
        self.port = int(match.group(1))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = out.strip().splitlines()
        if self.proc.returncode == 0 and lines:
            self.peak_rss_kb = json.loads(lines[-1])["peak_rss_kb"]


def request(port: int, method: str, path: str, body: Optional[bytes] = None):
    """One request on its own connection: ``(status, body bytes)``."""
    conn = HTTPConnection(HOST, port, timeout=TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Client:
    """Runs jobs against one server and keeps the per-request record."""

    def __init__(self, port: int, digests: Dict[str, str]) -> None:
        self.port = port
        self.digests = digests
        self.requests = 0
        self.non_2xx = 0
        self.refused = 0

    def _request(self, method: str, path: str, body: Optional[bytes] = None):
        status, data = request(self.port, method, path, body)
        self._count(status)
        return status, data

    def _count(self, status: int) -> None:
        self.requests += 1
        if not 200 <= status < 300:
            self.non_2xx += 1
            self.refused += status == 429

    def job(self, kind: str, spec_id: str, payload: bytes) -> dict:
        """One job; ``error`` is set when any check fails."""
        rec: dict = {"kind": kind, "spec": spec_id, "error": None}
        try:
            self._job(rec, kind, spec_id, payload)
        except Exception as exc:  # the job failed; the run goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec

    def _job(self, rec: dict, kind: str, spec_id: str, payload: bytes) -> None:
        start = rec["start"] = perf_counter()
        status, body = self._request("POST", "/v1/jobs", payload)
        submitted = perf_counter()
        rec["submit"] = submitted - start
        if status != 202:
            rec["error"] = f"submit answered {status}"
            return
        job_id = rec["id"] = json.loads(body)["job"]["id"]

        conn = HTTPConnection(HOST, self.port, timeout=TIMEOUT_S)
        end_event = None
        first_byte = first_cell = None
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/stream")
            response = conn.getresponse()
            self._count(response.status)
            if response.status != 200:
                rec["error"] = f"stream answered {response.status}"
                return
            while True:
                line = response.readline()
                if not line:
                    break
                now = perf_counter()
                first_byte = first_byte or now
                event = json.loads(line)
                if event["event"] == "cell":
                    first_cell = first_cell or now
                elif event["event"] == "end":
                    end_event = event
                    break
        finally:
            conn.close()
        streamed = perf_counter()
        status, body = self._request("GET", f"/v1/jobs/{job_id}/result")
        end = rec["end"] = perf_counter()
        rec["total"] = end - start
        rec["first_byte"] = (first_byte or streamed) - submitted
        rec["result"] = end - streamed
        if end_event is None or end_event.get("state") != "done":
            rec["error"] = f"stream ended without done: {end_event}"
            return
        if status != 200:
            rec["error"] = f"result answered {status}"
            return
        cache = end_event.get("cache", {})
        if kind == "warm" and cache.get("misses", 0):
            rec["error"] = f"warm job missed the cache: {cache}"
            return
        if kind == "compute" and cache.get("hits", 0):
            rec["error"] = f"cold job hit the cache: {cache}"
            return
        got = hashlib.sha256(body).hexdigest()
        if got != self.digests.get(spec_id):
            rec["error"] = f"digest {got[:12]} != {str(self.digests.get(spec_id))[:12]}"
            return
        rec["first_cell"] = first_cell - start if first_cell else None
        rec["cells"] = end_event["cells_done"]

    def status(self, job_id: str) -> dict:
        status, body = self._request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            raise RuntimeError(f"job status answered {status}")
        return json.loads(body)["job"]


def run_jobs(client: Client, plan, jobs: List, *, label: str = "",
             reference: bool = True) -> dict:
    """The closed loop over ``jobs``: records and the phase wall time.

    Unless ``reference`` is false, the client also times host-speed
    reference blocks while the server is idle: one before each computing
    job and one after the last job.  A record's ``interval`` is the number
    of blocks before it, minus one; the wall time leaves the blocks out.
    """
    payloads = {k: json.dumps(v).encode("utf-8") for k, v in plan.specs.items()}
    records, ref = [], []
    sampling = 0.0

    def block() -> None:
        nonlocal sampling
        began = perf_counter()
        ref.append(calibrate.samples(plan.ref_samples))
        sampling += perf_counter() - began

    start = perf_counter()
    for kind, spec_id in jobs:
        if reference and kind == "compute":
            block()
        rec = client.job(kind, spec_id, payloads[spec_id])
        rec["interval"] = len(ref) - 1
        records.append(rec)
    if reference:
        block()
    wall = perf_counter() - start - sampling
    for i, rec in enumerate(records):
        rec["label"] = f"{label}{rec['kind']}-{i}"
    return {"records": records, "wall": wall, "ref": ref}


def warm_up(client: Client, plan) -> List[str]:
    """The untimed warm-up jobs; returns their errors."""
    out = run_jobs(client, plan, plan.warmup, label="warm-up ", reference=False)
    return [f"{r['label']} ({r['spec']}): {r['error']}" for r in out["records"] if r["error"]]
