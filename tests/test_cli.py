"""Unit tests for the command-line interface."""

import json

import pytest

from repro.backend import resolve_backend
from repro.cli import main
from repro.routing import available_routers


class TestRouteCommand:
    def test_route_with_explicit_faults(self, capsys):
        code = main(
            [
                "route",
                "--shape",
                "10,10,10",
                "--source",
                "0,4,4",
                "--destination",
                "4,7,4",
                "--fault",
                "3,5,4",
                "--fault",
                "4,5,4",
                "--fault",
                "5,5,3",
                "--fault",
                "3,6,3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delivered" in out
        assert "detours         : 0" in out

    def test_route_policies(self, capsys):
        for policy in ("limited-global", "no-information", "global-information"):
            code = main(
                [
                    "route",
                    "--shape",
                    "8,8",
                    "--source",
                    "0,0",
                    "--destination",
                    "7,7",
                    "--random-faults",
                    "4",
                    "--policy",
                    policy,
                ]
            )
            assert code == 0
            assert policy in capsys.readouterr().out

    def test_route_bad_coordinate(self):
        with pytest.raises(SystemExit):
            main(["route", "--shape", "10,10,10", "--source", "0,0", "--destination", "1,1,1"])

    def test_route_rectangular_shape(self, capsys):
        code = main(
            [
                "route",
                "--shape",
                "16,8,4",
                "--source",
                "0,0,0",
                "--destination",
                "15,7,3",
                "--fault",
                "8,4,2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "16x8x4" in out
        assert "delivered" in out

    def test_default_shape_is_10_cubed(self, capsys):
        assert main(["route", "--source", "0,0,0", "--destination", "9,9,9"]) == 0
        assert "10x10x10" in capsys.readouterr().out

    def test_bad_shape_rejected(self):
        with pytest.raises(SystemExit):
            main(["route", "--shape", "8,1", "--source", "0,0", "--destination", "7,0"])


class TestSimulateCommand:
    def test_simulate_summary(self, capsys):
        code = main(
            [
                "simulate",
                "--shape",
                "10,10",
                "--faults",
                "3",
                "--messages",
                "4",
                "--seed",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delivery_rate" in out
        assert "mean_detours" in out

    @pytest.mark.parametrize("scenario", ["random", "hotspot"])
    def test_flits_reach_every_scenario(self, capsys, scenario):
        """Under contention the message length sets each circuit's hold
        time, so it must change the summary of every traffic family."""
        summaries = []
        for flits in ("16", "400"):
            code = main(
                [
                    "simulate", "--shape", "8,8", "--faults", "3",
                    "--messages", "12", "--contention", "--seed", "1",
                    "--scenario", scenario, "--flits", flits,
                ]
            )
            assert code == 0
            summaries.append(capsys.readouterr().out)
        assert summaries[0] != summaries[1]

    def test_transpose_needs_cubic_mesh(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--shape", "8,6", "--scenario", "transpose"])
        assert exc.value.code == 2


class TestCompareCommand:
    def test_compare_table(self, capsys):
        code = main(
            ["compare", "--shape", "10,10", "--faults", "6", "--messages", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("limited-global", "no-information", "global-information"):
            assert name in out

    def test_compare_rows_equal_the_preset_sweep(self, capsys, tmp_path):
        """``compare`` is the offline preset named ``compare``: each row it
        prints is that cell's metrics from ``sweep --spec``."""
        assert main(
            ["compare", "--shape", "8,8", "--faults", "6", "--messages", "10",
             "--seed", "4"]
        ) == 0
        printed = capsys.readouterr().out.splitlines()[2:]
        spec_path = tmp_path / "compare.json"
        spec_path.write_text(json.dumps({
            "schema": "repro.spec/v1",
            "name": "compare",
            "mode": "offline",
            "mesh_shapes": [[8, 8]],
            "policies": ["limited-global", "no-information", "static-block",
                         "global-information"],
            "fault_counts": [6],
            "traffic_sizes": [10],
            "seeds": [4],
        }))
        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out_path)]) == 0
        cells = json.loads(out_path.read_text())["cells"]
        assert printed == [
            f"{cell['policy']:<20} {cell['metrics']['delivery_rate']:>9.2f} "
            f"{cell['metrics']['mean_hops']:>10.2f} "
            f"{cell['metrics']['mean_detours']:>13.2f}"
            for cell in cells
        ]


class TestSweepCommand:
    SWEEP_ARGS = [
        "sweep",
        "--shape",
        "8,8",
        "--faults",
        "2,3",
        "--lam",
        "1,2",
        "--messages",
        "4",
        "--seeds",
        "0",
        "--policies",
        "limited-global,no-information",
    ]

    def test_sweep_emits_canonical_json(self, capsys):
        code = main(self.SWEEP_ARGS)
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["spec"]["cell_count"] == len(payload["cells"]) == 8
        assert "cells" in captured.err  # human summary goes to stderr

    def test_sweep_workers_do_not_change_output(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.SWEEP_ARGS, "--workers", "1", "--out", str(out_a)]) == 0
        assert main([*self.SWEEP_ARGS, "--workers", "2", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sweep_offline_mode(self, capsys):
        code = main(
            [
                "sweep", "--mode", "offline", "--shape", "10,10",
                "--faults", "4", "--messages", "6",
                "--policies", "limited-global,global-information",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {c["policy"] for c in payload["cells"]} == {
            "limited-global", "global-information",
        }

    def test_sweep_rejects_retired_stacked_engine(self):
        with pytest.raises(SystemExit) as exc:
            main([*self.SWEEP_ARGS, "--engine", "stacked"])
        assert exc.value.code == 2

    def test_serve_takes_no_engine_option(self, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("serve must reject --engine before starting")

        monkeypatch.setattr("repro.service.make_service", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--engine", "auto"])
        assert exc.value.code == 2

    def test_sweep_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--policies", "not-a-policy"])

    def test_sweep_simulate_accepts_every_registered_policy(self, capsys):
        """The registry makes every policy sweepable in simulator mode."""
        code = main(
            [
                "sweep", "--shape", "6,6", "--faults", "2", "--messages", "3",
                "--policies", ",".join(available_routers()),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {c["policy"] for c in payload["cells"]} == set(available_routers())

    def test_sweep_contention_flag(self, capsys):
        code = main(
            [
                "sweep", "--shape", "6,6", "--faults", "2", "--messages", "4",
                "--policies", "limited-global", "--contention", "--flits", "200",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["contention"] is True
        assert payload["spec"]["flits"] == [200]  # flits is a sweepable axis
        for cell in payload["cells"]:
            assert cell["contention"] is True
            assert "blocked_hops" in cell["metrics"]


class TestObservabilityCommands:
    SIMULATE_ARGS = [
        "simulate", "--shape", "8,8", "--faults", "3", "--messages", "8",
        "--contention", "--seed", "2",
    ]

    def test_simulate_trace_out_and_report(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        code = main([*self.SIMULATE_ARGS, "--trace-out", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "trace records" in captured.err
        first = json.loads(trace_path.read_text().splitlines()[0])
        assert first["kind"] == "header"

        assert main(["report", str(trace_path)]) == 0
        report = capsys.readouterr().out
        assert "per-step series" in report
        assert "totals check" in report
        assert "MISMATCH" not in report

    def test_simulate_profile_flag(self, capsys):
        code = main([*self.SIMULATE_ARGS, "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        assert "delivery_rate" in captured.out  # summary untouched
        assert "labeling_round" in captured.err
        if resolve_backend() == "vector":
            # The message-phase sub-spans live in the probe-table engine;
            # the scalar object path reports the phase as one span.
            assert "probe_advance" in captured.err
        else:
            assert "messages" in captured.err

    def test_sweep_telemetry_out_and_report(self, capsys, tmp_path):
        out_plain = tmp_path / "plain.json"
        out_telemetry = tmp_path / "with-telemetry.json"
        telemetry_path = tmp_path / "telemetry.json"
        sweep = [
            "sweep", "--shape", "6,6", "--faults", "2", "--messages", "4",
            "--policies", "limited-global",
        ]
        assert main([*sweep, "--out", str(out_plain)]) == 0
        assert main(
            [*sweep, "--out", str(out_telemetry),
             "--telemetry-out", str(telemetry_path)]
        ) == 0
        capsys.readouterr()
        # Telemetry lands in its own file; the canonical JSON is unchanged.
        assert out_plain.read_bytes() == out_telemetry.read_bytes()
        payload = json.loads(telemetry_path.read_text())
        assert payload["telemetry"]["version"] == 2
        assert payload["telemetry"]["cells"] == 1

        assert main(["report", str(telemetry_path)]) == 0
        report = capsys.readouterr().out
        assert "sweep telemetry" in report
        assert "utilization" in report

    def test_report_rejects_garbage(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"not": "an artifact"}\n')
        with pytest.raises(SystemExit):
            main(["report", str(bogus)])


class TestConvergenceCommand:
    def test_convergence_output(self, capsys):
        code = main(["convergence", "--shape", "10,10,10", "--edge", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "identification rounds" in out
        assert "boundary rounds" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestOneSpellingPerSetting:
    """The mesh is ``--shape``, the backend ``$REPRO_BACKEND`` and the
    sweep cache ``--cache-dir [DIR]``; no second spelling is left."""

    MESH_COMMANDS = ("route", "simulate", "compare", "convergence", "sweep", "throughput")

    @pytest.mark.parametrize("command", MESH_COMMANDS + ("serve",))
    def test_help_shows_one_spelling(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        for retired in ("--backend", "--radix", "--dims", "--resume"):
            assert retired not in out, retired
        if command in self.MESH_COMMANDS:
            assert "--shape" in out
        if command == "sweep":
            assert "--cache-dir" in out
            assert "--no-cache" not in out and "--cache " not in out
        if command == "convergence":
            assert "--seed" not in out

    @pytest.mark.parametrize(
        "command,flag",
        [(command, flag) for command in MESH_COMMANDS for flag in ("--radix", "--dims")]
        + [("sweep", "--resume"), ("sweep", "--no-cache"), ("convergence", "--seed")],
    )
    def test_retired_flags_refused(self, capsys, command, flag):
        endpoints = ["--source", "0,0,0", "--destination", "1,1,1"] if command == "route" else []
        argv = [command, flag] if flag in ("--resume", "--no-cache") else [command, flag, "8"]
        with pytest.raises(SystemExit) as exc:
            main(argv + endpoints)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_bad_shape_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--shape", "8,x"])
        assert exc.value.code == 2
        assert "invalid mesh shape" in capsys.readouterr().err

    def test_throughput_shape_is_single_valued(self, capsys):
        """``--shape`` given twice keeps the last, as every single-valued
        option does; there is no multi-mesh throughput curve."""
        argv = [
            "throughput", "--shape", "9,9", "--shape", "5,5", "--policy",
            "limited-global", "--rates", "0.01", "--faults", "0",
            "--warmup", "4", "--measure", "16", "--drain", "40",
        ]
        assert main(argv) == 0
        once = capsys.readouterr().out
        assert main(argv[:1] + argv[3:]) == 0
        assert capsys.readouterr().out == once


class TestSweepCacheDir:
    SWEEP = [
        "sweep", "--shape", "6,6", "--faults", "2", "--messages", "3",
        "--seeds", "0,1", "--policies", "limited-global",
    ]

    def test_cache_dir_resumes_from_its_entries(self, capsys, tmp_path):
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        cache = tmp_path / "cache"
        assert main([*self.SWEEP, "--cache-dir", str(cache), "--out", str(cold)]) == 0
        assert "0 hits / 2 lookups" in capsys.readouterr().err
        assert main([*self.SWEEP, "--cache-dir", str(cache), "--out", str(warm)]) == 0
        assert "2 hits / 2 lookups (100%)" in capsys.readouterr().err
        assert cold.read_bytes() == warm.read_bytes()

    def test_bare_cache_dir_uses_the_default_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        assert main([*self.SWEEP, "--cache-dir", "--out", str(tmp_path / "a.json")]) == 0
        err = capsys.readouterr().err
        assert f"cache={tmp_path / 'default'}" in err
        assert len(list((tmp_path / "default").rglob("*.json"))) == 2

    def test_uncached_by_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        assert main([*self.SWEEP, "--out", str(tmp_path / "a.json")]) == 0
        err = capsys.readouterr().err
        assert "cache=" not in err and "lookups" not in err
        assert not (tmp_path / "default").exists()


class TestThroughputRefusals:
    """``--saturation`` and ``--trace-out`` refuse the flags they would drop:
    exit 2 naming the flag, before any cell runs, with no file written."""

    BASE = [
        "throughput", "--shape", "5,5", "--policy", "limited-global",
        "--faults", "1", "--warmup", "8", "--measure", "32", "--drain", "60",
    ]

    @pytest.fixture(autouse=True)
    def no_cell_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused command ran a cell")

        for name in ("run_cell", "run_batch", "run_throughput_point"):
            monkeypatch.setattr(f"repro.cli.{name}", refuse)

    def _refused(self, capsys, argv, *named):
        with pytest.raises(SystemExit) as exc:
            main(self.BASE + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for flag in named:
            assert flag in err, (flag, err)

    def test_saturation_refuses_out(self, capsys, tmp_path):
        out = tmp_path / "sat.json"
        self._refused(capsys, ["--saturation", "--out", str(out)], "--saturation", "--out")
        assert not out.exists()

    def test_trace_out_refuses_out(self, capsys, tmp_path):
        out, trace = tmp_path / "curve.json", tmp_path / "trace.jsonl"
        self._refused(
            capsys,
            ["--rates", "0.01", "--trace-out", str(trace), "--out", str(out)],
            "--trace-out", "--out",
        )
        assert not out.exists() and not trace.exists()

    def test_saturation_refuses_rates(self, capsys):
        self._refused(capsys, ["--saturation", "--rates", "0.01,0.05"], "--saturation", "--rates")

    def test_saturation_refuses_workers(self, capsys):
        self._refused(capsys, ["--saturation", "--workers", "2"], "--saturation", "--workers")

    def test_trace_out_refuses_workers(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        self._refused(
            capsys,
            ["--rates", "0.01", "--trace-out", str(trace), "--workers", "4"],
            "--trace-out", "--workers",
        )
        assert not trace.exists()

    def test_saturation_takes_one_worker(self, capsys, monkeypatch):
        """``--workers 1`` is the in-process default, so it is no conflict."""
        monkeypatch.setattr("repro.cli.find_saturation", lambda probe: (0.01, []))
        assert main(self.BASE + ["--saturation", "--workers", "1"]) == 0
        assert "saturation rate ~ 0.0100" in capsys.readouterr().out

    def test_curve_applies_default_rates(self, monkeypatch, capsys):
        """Without ``--rates`` the curve runs its six default rates."""
        specs = []

        class Stop(Exception):
            pass

        def record(spec, **kwargs):
            specs.append(spec)
            raise Stop

        monkeypatch.setattr("repro.cli.run_batch", record)
        with pytest.raises(Stop):
            main(self.BASE)
        assert specs[0].rates == (0.002, 0.005, 0.01, 0.02, 0.04, 0.08)
