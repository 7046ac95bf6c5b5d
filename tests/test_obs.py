"""Tests for the observability layer (repro.obs).

The load-bearing contracts:

* attaching a recorder or profiler never changes simulation results
  (enabled-vs-disabled parity, on both probe engines);
* the recorder's cumulative-column deltas sum back to the end-of-run
  ``SimulationStats`` aggregates *exactly* — the acceptance criterion of
  the observability PR;
* the JSONL trace round-trips and preserves those sums;
* sweep telemetry rides on ``BatchResult`` without ever entering the
  canonical JSON, so the determinism contract is untouched.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments import ExperimentSpec, run_batch
from repro.obs import (
    PhaseProfiler,
    ShardRecord,
    StepRecorder,
    SweepTelemetry,
    TRACE_SCHEMA,
    read_trace,
    trace_records,
    write_trace,
)
from repro.obs.recorder import CUMULATIVE_COLUMNS
from repro.obs.report import render_telemetry_report, render_trace_report, sniff_kind
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.stats import percentile
from repro.viz.ascii import sparkline
from repro.workloads.scenarios import simulate_scenario


def _contended_sim(recorder=None, profiler=None, router="limited-global"):
    """A contended 8x8 dynamic-fault scenario (the acceptance scenario)."""
    (cell,) = ExperimentSpec(
        mode="simulate", mesh_shapes=((8, 8),), fault_counts=(4,),
        fault_intervals=(15,), traffic_sizes=(24,),
    ).cells()
    mesh, schedule, traffic = simulate_scenario(replace(cell, cell_seed=1))
    return Simulator(
        mesh,
        schedule=schedule,
        traffic=traffic,
        config=SimulationConfig(lam=2, router=router, contention=True),
        recorder=recorder,
        profiler=profiler,
    )


class TestPhaseProfiler:
    def test_spans_aggregate_by_nested_path(self):
        prof = PhaseProfiler()
        for _ in range(3):
            with prof.span("outer"):
                with prof.span("inner"):
                    pass
        assert prof.count("outer") == 3
        assert prof.count("outer", "inner") == 3
        assert prof.seconds("outer") >= prof.seconds("outer", "inner") >= 0.0
        assert prof.count("missing") == 0
        tree = prof.to_dict()
        assert tree["outer"]["children"]["inner"]["count"] == 3
        report = prof.report()
        assert "outer" in report and "inner" in report

    def test_profiled_run_matches_unprofiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        plain = _contended_sim()
        plain.run()
        prof = PhaseProfiler()
        profiled = _contended_sim(profiler=prof)
        profiled.run()
        assert profiled.stats.summary() == plain.stats.summary()
        assert prof.count("step") == plain.stats.steps
        assert prof.seconds("step") > 0.0
        # The table engine's message phases were timed under "messages".
        assert prof.count("step", "messages", "probe_advance") > 0

    def test_object_path_profiled_run_matches(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        plain = _contended_sim()
        plain.run()
        prof = PhaseProfiler()
        profiled = _contended_sim(profiler=prof)
        profiled.run()
        assert profiled.stats.summary() == plain.stats.summary()
        assert prof.count("step", "information", "labeling_round") > 0


class TestStepRecorder:
    def test_recorder_does_not_change_results(self):
        plain = _contended_sim()
        plain.run()
        recorder = StepRecorder()
        recorded = _contended_sim(recorder=recorder)
        recorded.run()
        assert recorded.stats.summary() == plain.stats.summary()
        assert len(recorder) == plain.stats.steps

    @pytest.mark.parametrize("backend", ["vector", "scalar"])
    def test_series_sums_equal_aggregates(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        recorder = StepRecorder(capacity=16)  # force growth too
        sim = _contended_sim(recorder=recorder)
        sim.run()
        stats = sim.stats

        assert len(recorder) == stats.steps
        sums = {
            name: int(recorder.deltas(name).sum()) for name in CUMULATIVE_COLUMNS
        }
        assert sums["finished_total"] == len(stats.messages)
        assert sums["delivered_total"] == len(stats.delivered_messages)
        assert sums["blocked_hops_total"] == stats.total_blocked_hops
        assert sums["setup_retries_total"] == stats.total_setup_retries
        assert sums["link_steps_total"] == stats.circuit_link_steps
        # Deltas of a cumulative column reconstruct its final value.
        assert recorder.column("finished_total")[-1] == len(stats.messages)
        # Level columns: every node is in exactly one status bucket.
        statuses = (
            recorder.column("nodes_enabled")
            + recorder.column("nodes_clean")
            + recorder.column("nodes_disabled")
            + recorder.column("nodes_faulty")
        )
        assert (statuses == sim.mesh.size).all()
        # All probes finished, so the final in-flight level is zero.
        assert recorder.column("in_flight")[-1] == 0
        # Peak of the sampled occupancy equals the stats' tracked peak.
        assert recorder.column("reserved_links").max() == stats.peak_reserved_links

    @pytest.mark.parametrize("router", ["limited-global", "static-block"])
    def test_series_identical_across_backends(self, router, monkeypatch):
        """The probe table and the scalar probe loop record the same series,
        parked (waiting) probes included."""
        series = {}
        for backend in ("vector", "scalar"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            recorder = StepRecorder()
            _contended_sim(recorder=recorder, router=router).run()
            series[backend] = list(recorder.rows())
        assert series["vector"] == series["scalar"]
        assert sum(row["waiting"] for row in series["scalar"]) > 0

    def test_column_access_guards(self):
        recorder = StepRecorder()
        with pytest.raises(KeyError):
            recorder.column("nope")
        with pytest.raises(KeyError):
            recorder.deltas("in_flight")  # a level, not a cumulative column
        view = recorder.column("step")
        assert not view.flags.writeable

    def test_rows_are_deltas_plus_levels(self):
        recorder = StepRecorder()
        sim = _contended_sim(recorder=recorder)
        sim.run()
        rows = list(recorder.rows())
        assert len(rows) == sim.stats.steps
        assert rows[0]["step"] == 0
        assert sum(r["finished"] for r in rows) == len(sim.stats.messages)
        assert all("in_flight" in r and "reserved_links" in r for r in rows)


class TestTrace:
    def test_round_trip(self, tmp_path):
        recorder = StepRecorder()
        sim = _contended_sim(recorder=recorder)
        sim.run()
        path = str(tmp_path / "run.jsonl")
        lines = write_trace(path, sim)
        assert lines == len(list(trace_records(sim)))

        trace = read_trace(path)
        assert trace.schema == TRACE_SCHEMA
        assert trace.header["shape"] == [8, 8]
        assert trace.header["steps"] == sim.stats.steps
        assert len(trace.steps) == sim.stats.steps
        assert len(trace.events) == len(sim.schedule.events)
        assert len(trace.convergence) == len(sim.stats.convergence)
        assert trace.summary == sim.stats.summary()
        # The per-step series sum to the aggregates through the file too.
        assert sum(trace.series("finished")) == trace.summary["messages"]
        assert sum(trace.series("delivered")) == round(
            trace.summary["messages"] * trace.summary["delivery_rate"]
        )
        assert sum(trace.series("blocked_hops")) == trace.summary["blocked_hops"]

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "step"}\n')
        with pytest.raises(ValueError, match="no trace header"):
            read_trace(str(path))
        path.write_text('{"kind": "header", "schema": "other/v9"}\n')
        with pytest.raises(ValueError, match="unsupported trace schema"):
            read_trace(str(path))

    def test_report_renders_and_checks_totals(self, tmp_path):
        recorder = StepRecorder()
        sim = _contended_sim(recorder=recorder)
        sim.run()
        path = str(tmp_path / "run.jsonl")
        write_trace(path, sim)
        assert sniff_kind(path) == "trace"
        report = render_trace_report(read_trace(path))
        assert "per-step series" in report
        assert "totals check" in report
        assert "MISMATCH" not in report


class TestSummaryLatencies:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7], 0.99) == 7.0
        assert percentile([1, 2, 3, 4], 0.5) == 2.0
        assert percentile([1, 2, 3, 4], 0.99) == 4.0

    def test_summary_latency_keys(self):
        sim = _contended_sim()
        sim.run()
        summary = sim.stats.summary()
        latencies = sim.stats.setup_latencies()
        assert summary["mean_latency"] == pytest.approx(
            sum(latencies) / len(latencies)
        )
        assert summary["p50_latency"] == percentile(latencies, 0.50)
        assert summary["p99_latency"] == percentile(latencies, 0.99)


class TestSweepTelemetry:
    def _spec(self):
        return ExperimentSpec(
            name="telemetry-test",
            mode="simulate",
            mesh_shapes=((5, 5),),
            policies=("limited-global",),
            fault_counts=(2,),
            fault_intervals=(10,),
            lams=(2,),
            traffic_sizes=(6,),
            seeds=(0, 1),
        )

    def test_run_batch_attaches_telemetry(self):
        batch = run_batch(self._spec(), workers=1, engine="auto")
        telemetry = batch.telemetry
        assert telemetry is not None
        assert telemetry.cells == 2
        assert telemetry.wall_seconds > 0.0
        assert telemetry.shards and telemetry.shards[0].kind == "stacked"
        assert 0.0 <= telemetry.worker_utilization <= 1.0
        assert telemetry.cache is None

    def test_telemetry_excluded_from_canonical_json(self):
        auto = run_batch(self._spec(), workers=1, engine="auto")
        serial = run_batch(self._spec(), workers=1, engine="serial")
        # Wall clocks differ; the canonical export must not.
        assert auto.telemetry is not None and serial.telemetry is not None
        assert auto.telemetry.wall_seconds != serial.telemetry.wall_seconds or True
        assert auto.to_json() == serial.to_json()
        assert "telemetry" not in auto.to_dict()
        assert "telemetry" not in json.loads(auto.to_json())

    def test_cache_stats_in_telemetry(self, tmp_path):
        from repro.experiments import ResultCache

        cache = ResultCache(tmp_path)
        cold = run_batch(self._spec(), cache=cache)
        assert cold.telemetry.cache == {
            "hits": 0, "misses": 2, "writes": 2, "invalid": 0,
        }
        warm_cache = ResultCache(tmp_path)
        warm = run_batch(self._spec(), cache=warm_cache)
        assert warm.telemetry.cache == {
            "hits": 2, "misses": 0, "writes": 0, "invalid": 0,
        }
        assert [s.kind for s in warm.telemetry.shards] == ["cached"]
        assert cold.to_json() == warm.to_json()

    def test_payload_round_trip_and_report(self):
        telemetry = SweepTelemetry(
            engine="auto",
            workers=2,
            cells=8,
            wall_seconds=2.0,
            shards=(
                ShardRecord(kind="stacked", cells=6, seconds=1.5, landed_seconds=1.6),
                ShardRecord(kind="serial", cells=2, seconds=1.0, landed_seconds=1.9),
            ),
            cache={"hits": 1, "misses": 7, "writes": 7, "invalid": 0},
        )
        assert telemetry.busy_seconds == 2.5
        assert telemetry.worker_utilization == pytest.approx(2.5 / 4.0)
        payload = telemetry.to_dict()
        assert payload["telemetry"]["version"] == 2
        assert SweepTelemetry.from_dict(payload) == telemetry
        with pytest.raises(ValueError, match="unsupported telemetry version"):
            SweepTelemetry.from_dict({"telemetry": {"version": 99}})
        report = render_telemetry_report(telemetry)
        assert "utilization 62%" in report
        assert "1 hits / 8 lookups" in report

    def test_utilization_caps_and_degenerate(self):
        empty = SweepTelemetry(engine="serial", workers=0, cells=0, wall_seconds=0.0)
        assert empty.worker_utilization == 0.0
        busy = SweepTelemetry(
            engine="serial",
            workers=1,
            cells=1,
            wall_seconds=1.0,
            shards=(ShardRecord("serial", 1, 99.0, 1.0),),
        )
        assert busy.worker_utilization == 1.0  # clamped


class TestSparkline:
    def test_empty_and_constant(self):
        assert sparkline([]) == ""
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_shape_and_downsampling(self):
        line = sparkline(list(range(8)))
        assert len(line) == 8
        assert line[0] == "▁" and line[-1] == "█"
        assert sorted(line) == list(line)  # monotone series, monotone bars
        wide = sparkline(list(range(1000)), width=40)
        assert len(wide) == 40
        with pytest.raises(ValueError):
            sparkline([1], width=0)
