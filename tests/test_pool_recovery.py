"""Sweep-pool fault tolerance: crashed workers, wedged pools, telemetry.

A worker process dying mid-shard breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`; the dispatcher must
rebuild the pool, resubmit the lost shards, and still land results
byte-identical to an undisturbed run (cells are deterministic pure
functions, so a retry recomputes the exact same numbers).  The crash is
injected through :data:`~repro.experiments.runner.CRASH_ENV_VAR`: a
sentinel file that the first pool worker consumes before killing itself
with SIGKILL.
"""

import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import ExperimentSpec, run_batch
from repro.experiments import runner
from repro.experiments.runner import CRASH_ENV_VAR, shutdown_pool
from repro.obs.telemetry import PoolIncident, SweepTelemetry


def pool_spec(**overrides) -> ExperimentSpec:
    params = dict(
        name="pool-recovery",
        mode="simulate",
        mesh_shapes=((6, 6),),
        policies=("limited-global", "no-information"),
        fault_counts=(2,),
        fault_intervals=(5,),
        lams=(1, 2),
        traffic_sizes=(4,),
        seeds=(0, 1),
    )
    params.update(overrides)
    return ExperimentSpec(**params)


@pytest.fixture
def fresh_pool():
    """Force pool workers to fork *after* the test's environment is set
    (the persistent pool would otherwise reuse workers forked earlier),
    and leave no crash-armed pool behind for later tests."""
    shutdown_pool()
    yield
    shutdown_pool()


class TestWorkerCrashRecovery:
    def test_killed_worker_is_retried_byte_identical(
        self, tmp_path, monkeypatch, fresh_pool
    ):
        baseline = run_batch(pool_spec(), workers=2).to_json()

        sentinel = tmp_path / "kill-one-worker"
        sentinel.write_text("armed")
        monkeypatch.setenv(CRASH_ENV_VAR, str(sentinel))
        shutdown_pool()  # workers must fork with the sentinel armed
        disturbed = run_batch(pool_spec(), workers=2)

        assert not sentinel.exists(), "a worker must have consumed the crash"
        assert disturbed.to_json() == baseline
        telemetry = disturbed.telemetry
        assert telemetry is not None
        kinds = [(i.kind, i.action) for i in telemetry.incidents]
        assert ("pool-broken", "retried") in kinds
        # Every cell still landed exactly once.
        assert sum(s.cells for s in telemetry.shards) == len(pool_spec().cells())

    def test_incidents_stay_out_of_canonical_json(
        self, tmp_path, monkeypatch, fresh_pool
    ):
        sentinel = tmp_path / "kill"
        sentinel.write_text("armed")
        monkeypatch.setenv(CRASH_ENV_VAR, str(sentinel))
        shutdown_pool()
        disturbed = run_batch(pool_spec(), workers=2)
        assert disturbed.telemetry.incidents
        assert "incidents" not in json.loads(disturbed.to_json())


class TestPoolReuse:
    def test_smaller_batches_reuse_the_live_pool(self, monkeypatch, fresh_pool):
        """A batch planning fewer shards than the live pool has processes
        submits to it as it is; only a batch needing more rebuilds it."""
        built = []

        class Counting(runner.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", Counting)
        small, large = (
            pool_spec(mode="offline", seeds=seeds, lams=(2,))
            for seeds in ((0,), (0, 1, 2, 3))
        )
        assert (len(small.cells()), len(large.cells())) == (2, 8)
        for spec in (small, large) * 3:
            pooled = run_batch(spec, workers=4).to_json()
            assert pooled == run_batch(spec, engine="serial").to_json()
        assert built == [2, 4]

    def test_pool_broken_during_submission_is_retried(self, monkeypatch, fresh_pool):
        """A worker dying while the batch is still being submitted makes
        ``submit`` itself raise; the refused shards are retried like the
        lost ones."""
        baseline = run_batch(pool_spec(), engine="serial").to_json()

        class BreaksOnSecondSubmit(runner.ProcessPoolExecutor):
            submitted = 0

            def submit(self, *args, **kwargs):
                type(self).submitted += 1
                if type(self).submitted == 2:
                    raise BrokenProcessPool("a worker died during submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        disturbed = run_batch(pool_spec(), workers=2)
        assert disturbed.to_json() == baseline
        kinds = [(i.kind, i.action) for i in disturbed.telemetry.incidents]
        assert ("pool-broken", "retried") in kinds
        assert sum(s.cells for s in disturbed.telemetry.shards) == len(pool_spec().cells())


class TestInactivityTimeout:
    def test_zero_budget_degrades_to_serial(self, fresh_pool):
        """An (unrealistically) tiny inactivity budget abandons the pool and
        finishes in-process — completeness and byte-identity still hold."""
        baseline = run_batch(pool_spec(), workers=2).to_json()
        shutdown_pool()
        degraded = run_batch(pool_spec(), workers=2, shard_timeout=1e-6)
        assert degraded.to_json() == baseline
        kinds = [(i.kind, i.action) for i in degraded.telemetry.incidents]
        assert ("timeout", "serial") in kinds


class TestIncidentPayload:
    def test_v2_round_trip_with_incidents(self):
        telemetry = SweepTelemetry(
            engine="auto",
            workers=2,
            cells=8,
            wall_seconds=1.0,
            incidents=(
                PoolIncident(kind="pool-broken", shards=3, action="retried"),
                PoolIncident(kind="timeout", shards=1, action="serial"),
            ),
        )
        payload = telemetry.to_dict()
        assert payload["telemetry"]["incidents"] == [
            {"kind": "pool-broken", "shards": 3, "action": "retried"},
            {"kind": "timeout", "shards": 1, "action": "serial"},
        ]
        assert SweepTelemetry.from_dict(payload) == telemetry

    def test_v1_payload_still_parses(self):
        """Telemetry files written before the incidents field must load."""
        payload = {
            "telemetry": {
                "version": 1,
                "engine": "auto",
                "workers": 2,
                "cells": 4,
                "wall_seconds": 1.5,
                "shards": [],
            }
        }
        telemetry = SweepTelemetry.from_dict(payload)
        assert telemetry.incidents == ()

    def test_report_renders_incidents(self):
        from repro.obs.report import render_telemetry_report

        telemetry = SweepTelemetry(
            engine="auto",
            workers=2,
            cells=8,
            wall_seconds=1.0,
            incidents=(PoolIncident(kind="pool-broken", shards=3, action="retried"),),
        )
        report = render_telemetry_report(telemetry)
        assert "incidents (1)" in report
        assert "pool-broken" in report
        assert "retried" in report
