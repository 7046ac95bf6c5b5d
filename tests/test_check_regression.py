"""The CI perf-regression gate (benchmarks/check_regression.py).

The gate script lives next to the benchmarks rather than in the package
(it is CI tooling, not library surface), so it is loaded here by file path.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _bench_json(path: Path, means: dict) -> str:
    payload = {
        "machine_info": {"node": "test"},
        "benchmarks": [
            {"name": name, "stats": {"mean": mean}} for name, mean in means.items()
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestCompare:
    def test_within_tolerance(self):
        rows, regressions, uncompared = check_regression.compare(
            {"a": 1.0, "b": 2.0}, {"a": 1.4, "b": 1.0}, tolerance=1.5
        )
        assert [(name, ratio) for name, _, _, ratio in rows] == [("a", 1.4), ("b", 0.5)]
        assert regressions == []
        assert uncompared == []

    def test_regression_flagged(self):
        _, regressions, _ = check_regression.compare(
            {"a": 1.0, "b": 1.0}, {"a": 1.51, "b": 1.49}, tolerance=1.5
        )
        assert regressions == ["a"]

    def test_disjoint_names_not_compared(self):
        rows, regressions, uncompared = check_regression.compare(
            {"old": 1.0}, {"new": 99.0}, tolerance=1.5
        )
        assert rows == [] and regressions == []
        assert uncompared == ["new", "old"]


class TestMain:
    def test_pass_exit_zero(self, tmp_path, capsys):
        baseline = _bench_json(tmp_path / "base.json", {"a": 1.0})
        current = _bench_json(tmp_path / "cur.json", {"a": 1.2})
        assert check_regression.main(["--baseline", baseline, "--current", current]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        baseline = _bench_json(tmp_path / "base.json", {"a": 1.0, "b": 1.0})
        current = _bench_json(tmp_path / "cur.json", {"a": 2.0, "b": 1.0})
        assert check_regression.main(["--baseline", baseline, "--current", current]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "a" in captured.err

    def test_custom_tolerance(self, tmp_path):
        baseline = _bench_json(tmp_path / "base.json", {"a": 1.0})
        current = _bench_json(tmp_path / "cur.json", {"a": 2.0})
        args = ["--baseline", baseline, "--current", current]
        assert check_regression.main(args + ["--tolerance", "2.5"]) == 0
        assert check_regression.main(args + ["--tolerance", "1.1"]) == 1

    def test_empty_overlap_fails(self, tmp_path, capsys):
        baseline = _bench_json(tmp_path / "base.json", {"old": 1.0})
        current = _bench_json(tmp_path / "cur.json", {"new": 1.0})
        assert check_regression.main(["--baseline", baseline, "--current", current]) == 1
        assert "no overlapping benchmarks" in capsys.readouterr().err

    def test_unreadable_input_exit_two(self, tmp_path):
        current = _bench_json(tmp_path / "cur.json", {"a": 1.0})
        missing = str(tmp_path / "nope.json")
        assert check_regression.main(["--baseline", missing, "--current", current]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"bench json\"}", encoding="utf-8")
        assert (
            check_regression.main(["--baseline", str(bad), "--current", current]) == 2
        )

    def test_committed_baselines_are_loadable(self):
        """The baselines the CI gate reads must stay valid bench JSON, and
        every name in them must be a bench that still exists: the gate
        silently skips a name no run reports."""
        benches = set()
        for bench_file in _SCRIPT.parent.glob("bench_*.py"):
            benches.update(re.findall(r"^def (test_bench_\w+)\(", bench_file.read_text(), re.M))
        baselines = _SCRIPT.parent / "baselines"
        paths = sorted(baselines.glob("BENCH_*.json"))
        assert len(paths) >= 3  # labeling, throughput, decision
        for path in paths:
            means = check_regression.load_means(str(path))
            assert means and all(m > 0 for m in means.values())
            stale = sorted(name for name in means if name.split("[")[0] not in benches)
            assert not stale, f"{path.name} names benches that no longer exist: {stale}"

    def test_rejects_nonpositive_tolerance(self, tmp_path):
        baseline = _bench_json(tmp_path / "base.json", {"a": 1.0})
        with pytest.raises(SystemExit):
            check_regression.main(
                ["--baseline", baseline, "--current", baseline, "--tolerance", "0"]
            )
