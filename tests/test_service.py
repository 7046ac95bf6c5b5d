"""Tests for the HTTP experiment service (repro.service).

Two layers: :class:`JobManager` unit tests drive the job lifecycle with a
controllable stand-in for ``run_batch`` (deterministic mid-run
cancellation, priority order, backpressure), and the HTTP tests run a
real server on a loopback port, asserting the acceptance contract — the
bytes ``GET /v1/jobs/{id}/result`` serves are identical to what
``repro-mesh sweep --out`` writes for the same spec, cold and cache-warm.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.experiments import SPEC_SCHEMA
from repro.experiments.runner import BatchCancelled
from repro.service import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    Draining,
    InvalidTransition,
    JobManager,
    QueueFull,
    SpecTooLarge,
    UnknownJob,
    make_service,
)
from repro.service.http import MAX_SPEC_CELLS

WAIT = 30.0  # generous; every wait in here normally resolves in ms


def spec_payload(**overrides) -> dict:
    payload = {
        "schema": SPEC_SCHEMA,
        "name": "service-unit",
        "mode": "simulate",
        "mesh_shapes": [[5, 5]],
        "policies": ["limited-global"],
        "fault_counts": [2],
        "fault_intervals": [5],
        "lams": [2],
        "traffic_sizes": [4],
        "seeds": [0, 1],
    }
    payload.update(overrides)
    return payload


# ---------------------------------------------------------------------- #
# controllable run_batch stand-in
# ---------------------------------------------------------------------- #
class FakeCellResult:
    def __init__(self, index: int) -> None:
        self.index = index

    def to_dict(self) -> dict:
        return {"index": self.index, "metrics": {"delivery_rate": 1.0}}


class GatedRunner:
    """A ``run_batch`` stand-in that lands one cell per :meth:`step` call."""

    def __init__(self) -> None:
        self.gate = threading.Semaphore(0)
        self.entered = threading.Event()

    def step(self, n: int = 1) -> None:
        for _ in range(n):
            self.gate.release()

    def __call__(self, spec, *, on_cell_done=None, **kwargs):
        self.entered.set()
        for index in range(spec.cell_count):
            if not self.gate.acquire(timeout=WAIT):  # pragma: no cover
                raise RuntimeError("test gate never released")
            if on_cell_done is not None:
                on_cell_done(FakeCellResult(index))

        class FakeBatch:
            def to_json(self) -> str:
                return json.dumps({"fake": spec.cell_count})

            def telemetry_dict(self):
                return None

        return FakeBatch()


@pytest.fixture
def gated(monkeypatch):
    runner = GatedRunner()
    monkeypatch.setattr("repro.service.jobs.run_batch", runner)
    return runner


# ---------------------------------------------------------------------- #
# JobManager unit tests
# ---------------------------------------------------------------------- #
class TestJobLifecycle:
    def test_submit_runs_to_done(self):
        manager = JobManager(max_running=1)
        try:
            job = manager.submit(spec_payload())
            assert job.done.wait(WAIT)
            assert job.state == DONE
            assert job.cells_done == job.cells_total == 2
            assert job.result_json is not None
            events = [json.loads(line) for line in job.lines]
            assert [e["event"] for e in events] == ["cell", "cell", "end"]
            assert events[-1]["state"] == DONE
            assert all(e["job"] == job.id for e in events)
        finally:
            manager.shutdown()

    def test_submit_envelope_with_priority(self):
        manager = JobManager()
        try:
            job = manager.submit({"spec": spec_payload(), "priority": 7})
            assert job.priority == 7
            assert job.done.wait(WAIT)
        finally:
            manager.shutdown()

    @pytest.mark.parametrize(
        "payload,match",
        [
            ({"spec": spec_payload(), "nice": 1}, "unknown submit field"),
            ({"spec": spec_payload(), "priority": "high"}, "expected an integer"),
            ({"spec": spec_payload(), "priority": True}, "expected an integer"),
            ({"schema": SPEC_SCHEMA, "bogus": 1}, "unknown spec field"),
            ({k: v for k, v in spec_payload().items() if k != "schema"}, "'schema'"),
        ],
    )
    def test_bad_submissions_rejected(self, payload, match):
        manager = JobManager()
        try:
            with pytest.raises(ValueError, match=match):
                manager.submit(payload)
        finally:
            manager.shutdown()

    def test_priority_order_with_fifo_ties(self, gated):
        manager = JobManager(max_running=1)
        try:
            blocker = manager.submit(spec_payload(seeds=[0]))
            assert gated.entered.wait(WAIT)
            low = manager.submit({"spec": spec_payload(seeds=[1]), "priority": 0})
            high = manager.submit({"spec": spec_payload(seeds=[2]), "priority": 5})
            low2 = manager.submit({"spec": spec_payload(seeds=[3]), "priority": 0})
            gated.step(4)  # blocker's cell + the three queued jobs' cells
            assert blocker.done.wait(WAIT)
            assert high.done.wait(WAIT) and low.done.wait(WAIT) and low2.done.wait(WAIT)
            assert high.started < low.started < low2.started
        finally:
            manager.shutdown()

    def test_cancel_queued_is_immediate(self, gated):
        manager = JobManager(max_running=1)
        try:
            manager.submit(spec_payload(seeds=[0]))
            assert gated.entered.wait(WAIT)
            queued = manager.submit(spec_payload(seeds=[1]))
            assert queued.state == QUEUED
            cancelled = manager.cancel(queued.id)
            assert cancelled.state == CANCELLED
            assert json.loads(queued.lines[-1])["state"] == CANCELLED
            gated.step(2)  # let the blocker finish
        finally:
            manager.shutdown()

    def test_cancel_running_stops_at_cell_boundary(self, gated):
        manager = JobManager(max_running=1)
        try:
            job = manager.submit(spec_payload(seeds=[0, 1, 2, 3]))  # 4 cells
            assert gated.entered.wait(WAIT)
            gated.step(1)  # land exactly one cell
            deadline = threading.Event()
            for _ in range(200):
                if job.cells_done >= 1:
                    break
                deadline.wait(0.01)
            assert job.cells_done == 1
            assert manager.cancel(job.id).state == RUNNING  # cooperative
            gated.step(3)  # unblock; the hook raises BatchCancelled next cell
            assert job.done.wait(WAIT)
            assert job.state == CANCELLED
            assert job.cells_done < job.cells_total
            assert json.loads(job.lines[-1])["state"] == CANCELLED
        finally:
            manager.shutdown()

    def test_cancel_terminal_job_rejected(self):
        manager = JobManager()
        try:
            job = manager.submit(spec_payload(seeds=[0]))
            assert job.done.wait(WAIT)
            with pytest.raises(InvalidTransition):
                manager.cancel(job.id)
        finally:
            manager.shutdown()

    def test_unknown_job(self):
        manager = JobManager()
        try:
            with pytest.raises(UnknownJob):
                manager.get("j-999999")
        finally:
            manager.shutdown()

    def test_queue_full_backpressure(self, gated):
        manager = JobManager(max_running=1, max_queued=1)
        try:
            manager.submit(spec_payload(seeds=[0]))
            assert gated.entered.wait(WAIT)
            manager.submit(spec_payload(seeds=[1]))  # fills the queue
            with pytest.raises(QueueFull) as excinfo:
                manager.submit(spec_payload(seeds=[2]))
            assert excinfo.value.retry_after >= 1
            gated.step(2)
        finally:
            manager.shutdown()

    def test_spec_over_cell_budget_refused_and_not_queued(self, gated):
        manager = JobManager(max_running=1, max_queued=1)
        try:
            with pytest.raises(SpecTooLarge, match=f"cell budget is {MAX_SPEC_CELLS} cells"):
                manager.submit(spec_payload(seeds=list(range(MAX_SPEC_CELLS + 1))))
            assert manager.jobs() == []
            job = manager.submit(spec_payload(seeds=list(range(MAX_SPEC_CELLS))))
            assert job.cells_total == MAX_SPEC_CELLS
            assert gated.entered.wait(WAIT)
            manager.cancel(job.id)
            gated.step()
            assert job.done.wait(WAIT)
            assert job.state == CANCELLED
        finally:
            manager.shutdown()

    def test_drain_refuses_new_work(self):
        manager = JobManager()
        try:
            job = manager.submit(spec_payload(seeds=[0]))
            assert manager.drain(WAIT)
            assert job.state == DONE
            with pytest.raises(Draining):
                manager.submit(spec_payload(seeds=[1]))
            assert manager.describe()["status"] == "draining"
        finally:
            manager.shutdown()

    def test_failed_job_reports_error(self, monkeypatch):
        def boom(spec, **kwargs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr("repro.service.jobs.run_batch", boom)
        manager = JobManager()
        try:
            job = manager.submit(spec_payload(seeds=[0]))
            assert job.done.wait(WAIT)
            assert job.state == "failed"
            assert "worker exploded" in job.error
            assert json.loads(job.lines[-1])["state"] == "failed"
        finally:
            manager.shutdown()


# ---------------------------------------------------------------------- #
# HTTP layer against a live server
# ---------------------------------------------------------------------- #
def request(base, method, path, body=None, as_json=True):
    data = json.dumps(body).encode() if isinstance(body, dict) else body
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=WAIT) as resp:
            payload = resp.read()
            return resp.status, dict(resp.headers), (
                json.loads(payload) if as_json else payload
            )
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        return exc.code, dict(exc.headers), (
            json.loads(payload) if as_json else payload
        )


@pytest.fixture(scope="class")
def live(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    service = make_service(port=0, max_running=2, cache_dir=str(cache_dir))
    host, port = service.start_background()
    try:
        yield f"http://{host}:{port}"
    finally:
        service.stop_background()


@pytest.mark.usefixtures("live")
class TestServiceHTTP:
    def test_health(self, live):
        status, _, body = request(live, "GET", "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["schemas"] == {
            "spec": "repro.spec/v1",
            "result": "repro.result/v1",
        }

    def test_submit_stream_result_matches_offline_sweep(self, live, tmp_path):
        payload = spec_payload(name="http-parity")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(payload))
        out_file = tmp_path / "offline.json"
        assert cli_main(["sweep", "--spec", str(spec_file), "--out", str(out_file)]) == 0
        offline = out_file.read_bytes()

        status, headers, body = request(live, "POST", "/v1/jobs", payload)
        assert status == 202
        job_id = body["job"]["id"]
        assert headers["Location"] == f"/v1/jobs/{job_id}"

        # The stream replays from the start and follows to the end event.
        status, headers, raw = request(
            live, "GET", f"/v1/jobs/{job_id}/stream", as_json=False
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        events = [json.loads(line) for line in raw.decode().splitlines()]
        assert events[0]["event"] == "job"
        cells = [e for e in events if e["event"] == "cell"]
        assert len(cells) == 2
        assert all(e["job"] == job_id for e in cells)
        assert events[-1] == {
            "event": "end",
            "job": job_id,
            "state": "done",
            "cells": 2,
            "cells_done": 2,
            "cache": events[-1]["cache"],  # stats asserted below
        }

        # Acceptance: served result bytes == the CLI's --out file, cold...
        status, _, served = request(
            live, "GET", f"/v1/jobs/{job_id}/result", as_json=False
        )
        assert status == 200
        assert served == offline

        # ...and cache-warm: a second submission of the same spec hits for
        # every cell and serves the very same bytes.
        status, _, body = request(live, "POST", "/v1/jobs", payload)
        warm_id = body["job"]["id"]
        request(live, "GET", f"/v1/jobs/{warm_id}/stream", as_json=False)
        status, _, body = request(live, "GET", f"/v1/jobs/{warm_id}")
        assert body["job"]["state"] == "done"
        assert body["job"]["cache"]["hits"] == 2
        assert body["job"]["cache"]["misses"] == 0
        status, _, served_warm = request(
            live, "GET", f"/v1/jobs/{warm_id}/result", as_json=False
        )
        assert served_warm == offline

    def test_concurrent_overlapping_jobs_share_cache_without_crosstalk(self, live):
        # Same spec name => same cell seeds, so the seed-1 cell is shared.
        base = spec_payload(name="overlap", seeds=[0, 1])
        status, _, body = request(live, "POST", "/v1/jobs", base)
        first = body["job"]["id"]
        request(live, "GET", f"/v1/jobs/{first}/stream", as_json=False)

        overlapping = [
            spec_payload(name="overlap", seeds=[1, 2]),
            spec_payload(name="overlap", seeds=[1, 3]),
        ]
        ids, streams = [], {}
        for payload in overlapping:
            status, _, body = request(live, "POST", "/v1/jobs", payload)
            assert status == 202
            ids.append(body["job"]["id"])

        def pull(job_id):
            _, _, raw = request(
                live, "GET", f"/v1/jobs/{job_id}/stream", as_json=False
            )
            streams[job_id] = [json.loads(line) for line in raw.decode().splitlines()]

        threads = [threading.Thread(target=pull, args=(jid,)) for jid in ids]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)

        for jid in ids:
            events = streams[jid]
            # No cross-talk: every line of a job's stream names that job.
            assert all(e["job"] == jid for e in events if e["event"] != "job")
            assert events[-1]["state"] == "done"
            # The overlapping seed-1 cell came from the shared cache.
            assert events[-1]["cache"]["hits"] >= 1

    def test_submit_rejects_bad_spec_naming_field(self, live):
        payload = spec_payload()
        payload["fault_counts"] = "four"
        status, _, body = request(live, "POST", "/v1/jobs", payload)
        assert status == 400
        assert "'fault_counts'" in body["error"]

    def test_submit_rejects_non_json_body(self, live):
        status, _, body = request(live, "POST", "/v1/jobs", b"not json")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_submit_over_cell_budget_413(self, live):
        before = len(request(live, "GET", "/v1/jobs")[2]["jobs"])
        payload = spec_payload(name="too-big", seeds=list(range(MAX_SPEC_CELLS + 1)))
        status, _, body = request(live, "POST", "/v1/jobs", payload)
        assert status == 413
        assert f"{MAX_SPEC_CELLS + 1} cells" in body["error"]
        assert f"cell budget is {MAX_SPEC_CELLS} cells" in body["error"]
        assert len(request(live, "GET", "/v1/jobs")[2]["jobs"]) == before

    def test_unknown_job_404(self, live):
        status, _, body = request(live, "GET", "/v1/jobs/j-999999")
        assert status == 404

    def test_unknown_route_404_and_bad_method_405(self, live):
        assert request(live, "GET", "/nope")[0] == 404
        assert request(live, "DELETE", "/v1/health")[0] == 405

    def test_result_of_unfinished_job_409(self, live):
        # A fresh spec (cold cache) is extremely unlikely to finish between
        # the submit and the immediate result fetch; 409 carries Retry-After.
        payload = spec_payload(name="not-done-yet", seeds=list(range(6)))
        status, _, body = request(live, "POST", "/v1/jobs", payload)
        job_id = body["job"]["id"]
        status, headers, body = request(live, "GET", f"/v1/jobs/{job_id}/result")
        if status == 409:  # job still queued/running
            assert "Retry-After" in headers
        else:  # raced to completion: then the result must simply be there
            assert status == 200
        request(live, "GET", f"/v1/jobs/{job_id}/stream", as_json=False)

    def test_job_listing(self, live):
        status, _, body = request(live, "GET", "/v1/jobs")
        assert status == 200
        assert isinstance(body["jobs"], list) and body["jobs"]


class TestServiceBackpressure:
    def test_429_retry_after_and_http_cancel(self, monkeypatch):
        runner = GatedRunner()
        monkeypatch.setattr("repro.service.jobs.run_batch", runner)
        service = make_service(port=0, max_running=1, max_queued=1)
        host, port = service.start_background()
        base = f"http://{host}:{port}"
        try:
            status, _, body = request(
                base, "POST", "/v1/jobs", spec_payload(seeds=[0, 1])
            )
            assert status == 202
            running_id = body["job"]["id"]
            assert runner.entered.wait(WAIT)

            status, _, body = request(base, "POST", "/v1/jobs", spec_payload(seeds=[2]))
            assert status == 202  # fills the one queue slot
            queued_id = body["job"]["id"]

            status, headers, body = request(
                base, "POST", "/v1/jobs", spec_payload(seeds=[3])
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "queue full" in body["error"]

            # DELETE the queued job: immediate terminal cancel (200).
            status, _, body = request(base, "DELETE", f"/v1/jobs/{queued_id}")
            assert status == 200
            assert body["job"]["state"] == "cancelled"

            # Cancel the running job: accepted (202), lands at the next
            # cell boundary once the gate opens.
            status, _, body = request(
                base, "POST", f"/v1/jobs/{running_id}/cancel"
            )
            assert status == 202
            assert body["job"]["cancel_requested"] is True
            runner.step(2)
            status, _, raw = request(
                base, "GET", f"/v1/jobs/{running_id}/stream", as_json=False
            )
            events = [json.loads(line) for line in raw.decode().splitlines()]
            assert events[-1]["state"] == "cancelled"

            # Cancelling an already-terminal job conflicts.
            status, _, _ = request(base, "POST", f"/v1/jobs/{running_id}/cancel")
            assert status == 409
        finally:
            runner.step(8)  # never leave the executor blocked on the gate
            service.stop_background()


class TestServeCLI:
    def test_serve_subcommand_registered(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--max-queued" in out and "--cache-dir" in out

    def test_sweep_spec_flag_conflicts_with_grid_flags(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec_payload()))
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--spec", str(spec_file), "--radix", "5"])

    def test_sweep_spec_flag_round_trip(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec_payload(seeds=[0])))
        assert cli_main(["sweep", "--spec", str(spec_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.result/v1"
        assert payload["spec"]["name"] == "service-unit"
