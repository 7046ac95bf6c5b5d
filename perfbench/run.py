"""Benchmark of the repro-mesh reproduction: three closed-loop workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_stacked --seed 0 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs a prefix
of the same jobs untraced and then traced, and prints the per-layer
metrics.  Every job's canonical result is checked against a SHA-256 digest:
the digests stored in ``expected.json`` for the default seed, or those the
repo's named oracles compute, outside the timed region, for any other seed.
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import fmean, median
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

#: Set-up intervals measured per untraced run (fresh processes each).
SETUP_SAMPLES = 3

#: Host-speed reference samples (``calibrate.py``) in each block around a
#: set-up interval.
SETUP_REF_SAMPLES = 6

#: Environment variables that would steer the program off its default path.
SCRUBBED_ENV = ("REPRO_BACKEND", "REPRO_CACHE_DIR", "REPRO_TEST_KILL_SHARD",
                "PYTHONDONTWRITEBYTECODE")

#: End-to-end metric -> (sample it is taken over, its quantile).
SAMPLES_OF = {
    "setup_s": ("setup", None),
    "job_p50_ms": ("job", 0.5),
    "job_p90_ms": ("job", 0.9),
    "first_cell_p50_ms": ("first_cell", 0.5),
    "warm_job_p50_ms": ("warm_job", 0.5),
    "warm_job_p90_ms": ("warm_job", 0.9),
}

#: Counts a traced run must repeat exactly for the same seed.
COUNT_METRICS = (
    "block_construction.rounds", "identification.rounds", "boundary.rounds",
    "distribution.calls", "decision.tables_calls", "decision.rows_classified",
    "probe_table.steps", "circuit.reserved", "circuit.blocked_hops",
    "circuit.setup_attempts", "routing.routes", "routing.hops",
    "engine.cells", "engine.sim_steps", "throughput.points", "slo.calls",
    "runner.jobs", "stacked.groups", "cache.hits", "cache.misses",
    "cache.lookups", "results.bytes", "http.requests", "http.non_2xx",
    "jobs.refused", "trace.jobs",
)

#: Span names each workload must record at least once; a zero means a
#: wrapper sits on a module the workload's calls do not go through.
EXERCISED = {
    "sweep_stacked": (
        "block_construction", "identification", "boundary", "decision.tables",
        "decision.classify", "probe_table", "circuit", "engine", "runner",
        "stacked", "stacked.group", "cache.get", "results.to_json",
    ),
    "open_loop_faults": (
        "block_construction", "identification", "boundary", "decision.tables",
        "decision.classify", "probe_table", "circuit", "engine", "throughput",
        "slo", "runner", "runner.cell", "stacked", "cache.get", "results.to_json",
    ),
    "service_mixed": (
        "block_construction", "identification", "boundary", "distribution",
        "routing", "runner", "cache.get", "cache.put", "results.to_json",
        "spec.from_dict",
    ),
}


def _load_units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def host_record(when: str) -> None:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    if when == "start":
        cpu = platform.processor() or "unknown"
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("model name"):
                        cpu = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
        import numpy

        print(f"# host: cpu={cpu!r} nproc={os.cpu_count()} "
              f"python={platform.python_version()} numpy={numpy.__version__}")
    print(f"# load average at {when}: {load}")


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p
    )
    return env


def _overhead(untraced: tuple, traced: tuple) -> float:
    """Tracing overhead: untraced over traced ``cells_per_s``, minus 1, each
    phase ``(cells, (interval, seconds) job times, reference blocks)`` at
    nominal host speed."""
    from calibrate import at_nominal

    def cps(cells, times, ref):
        return cells / sum(at_nominal(times, ref))

    return cps(*untraced) / cps(*traced) - 1.0


def p(values: List[float], q: float) -> float:
    """Percentile of the jobs that passed; 0.0 when none did (the run then
    already reports ``correct: false``)."""
    from stats import percentile

    return percentile(values, q) if values else 0.0


class Run:
    """One benchmark run: its plan, digests, scratch directory and verdict."""

    def __init__(self, args: argparse.Namespace, run_dir: Path) -> None:
        from workloads import make_plan

        self.args = args
        self.workload = args.workload
        self.run_dir = run_dir
        self.env = child_env()
        self.plan = make_plan(args.workload, args.seed, args.seconds,
                              traced=bool(args.trace))
        self.failures: List[str] = []
        self.attempted = 0
        self.samples: Dict[str, int] = {}
        #: Metrics as measured, before host scaling (end-to-end runs only).
        self.raw: Dict[str, float] = {}
        #: Phase -> (host factor, reference samples it rests on).
        self.factors: Dict[str, tuple] = {}
        self.digests = self._digests()

    # ------------------------------------------------------------------ #
    # output check
    # ------------------------------------------------------------------ #
    def _digests(self) -> Dict[str, str]:
        """Expected digest of every spec of the plan: stored in
        ``expected.json`` (the default seed and the warm-up), else from the
        named oracle, computed here, before anything is timed."""
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        stored = {} if self.args.record else expected.get(self.workload, {}).get("digests", {})
        known = {k: stored[k] for k in self.plan.specs if k in stored}
        if len(known) == len(self.plan.specs):
            return known
        known_file = self.run_dir / "known-digests.json"
        known_file.write_text(json.dumps(known))
        env = dict(self.env)
        if self.workload == "open_loop_faults":
            env["REPRO_BACKEND"] = "scalar"
        # --record stores the untraced plan's digests, which cover the
        # traced plan's too.
        traced = ["--traced"] if self.args.trace and not self.args.record else []
        start = perf_counter()
        out = subprocess.run(
            [sys.executable, "perfbench/worker.py", "oracle",
             "--workload", self.workload, "--seed", str(self.args.seed),
             "--seconds", str(self.args.seconds), "--digests", str(known_file),
             *traced],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True,
            timeout=170,
        ).stdout
        oracle = json.loads(out.strip().splitlines()[-1])
        print(f"# oracle digests for {len(oracle)} specs in "
              f"{perf_counter() - start:.1f} s (outside the timed region)")
        known.update(oracle)
        if self.args.record:
            expected.setdefault(self.workload, {})["digests"] = known
            EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        return known

    # ------------------------------------------------------------------ #
    # in-process workloads
    # ------------------------------------------------------------------ #
    def _worker(self, mode: str, extra=()) -> tuple:
        digests = self.run_dir / "digests.json"
        digests.write_text(json.dumps(self.digests))
        cmd = [sys.executable, "perfbench/worker.py", mode,
               "--workload", self.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--digests", str(digests),
               "--cache-root", str(self.run_dir), *extra]
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            ready = perf_counter() - start
            rest = proc.stdout.read()
            proc.wait(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or first.strip() != "ready":
            raise RuntimeError(f"worker {mode} failed (exit {proc.returncode})")
        out = json.loads(rest.strip().splitlines()[-1])
        self.attempted += len(self.plan.warmup)
        self.failures += out["failed"]
        return ready, out

    def _end_to_end(self, setups, ref, job, first_cell, warm_job, busy,
                    cells: int, peak_rss_kb: int) -> Dict[str, float]:
        """Every end-to-end metric at nominal host speed (``calibrate.py``);
        ``self.raw`` keeps them as measured.

        ``setups`` are ``(seconds, reference samples around it)``.  ``job``,
        ``first_cell``, ``warm_job`` and ``busy`` (the job times
        ``cells_per_s`` divides ``cells`` by) are ``(interval, seconds)``
        pairs of the timed phase, whose reference blocks are ``ref``.
        """
        from calibrate import NOMINAL_S, at_nominal, bracket_factors

        self.samples = {"job": len(job), "first_cell": len(first_cell),
                        "warm_job": len(warm_job), "setup": len(setups)}
        setup_factors = [fmean(r) / NOMINAL_S for _, r in setups]
        self.factors = {
            "set-up": (median(setup_factors), sum(len(r) for _, r in setups)),
            "timed": (median(bracket_factors(ref)), sum(len(b) for b in ref)),
        }

        def metrics(seconds, setup):
            return {
                "setup_s": median(setup),
                "cells_per_s": cells / sum(seconds(busy)),
                "job_p50_ms": p(seconds(job), 0.5) * 1e3,
                "job_p90_ms": p(seconds(job), 0.9) * 1e3,
                "first_cell_p50_ms": p(seconds(first_cell), 0.5) * 1e3,
                "warm_job_p50_ms": p(seconds(warm_job), 0.5) * 1e3,
                "warm_job_p90_ms": p(seconds(warm_job), 0.9) * 1e3,
                "peak_rss_mb": peak_rss_kb / 1024.0,
            }

        self.raw = metrics(lambda pairs: [t for _, t in pairs], [t for t, _ in setups])
        return metrics(lambda pairs: at_nominal(pairs, ref),
                       [t / f for (t, _), f in zip(setups, setup_factors)])

    def in_process(self) -> Dict[str, float]:
        from calibrate import samples

        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            before = samples(SETUP_REF_SAMPLES)
            seconds = self._worker("setup")[0]
            setups.append((seconds, before + samples(SETUP_REF_SAMPLES)))
        # The run's worker goes on to the timed jobs: no block after it.
        before = samples(SETUP_REF_SAMPLES)
        seconds, out = self._worker("run")
        setups.append((seconds, before))
        self.attempted += out["attempted"]
        timed = out["timed"]
        return self._end_to_end(
            setups, timed["ref"], timed["times"], timed["firsts"], timed["replays"],
            timed["times"], timed["cells"], out["peak_rss_kb"])

    def in_process_traced(self) -> Dict[str, float]:
        import tracing

        spans_file = self.run_dir / "spans.jsonl"
        _, out = self._worker("trace", ["--trace-out", str(spans_file)])
        self.attempted += out["attempted"]
        spans, sims = tracing.load(spans_file)
        metrics = self._layers(spans, sims)
        untraced, traced = out["untraced"], out["timed"]
        metrics["engine.sim_steps_per_s"] = metrics["engine.sim_steps"] / untraced["wall"]
        metrics["trace.overhead_share"] = _overhead(
            *((phase["cells"], phase["times"], phase["ref"]) for phase in (untraced, traced)))
        for name in ("http.requests", "http.non_2xx", "http.submit_p50_ms",
                     "http.stream_first_byte_p50_ms", "http.result_p50_ms",
                     "jobs.queue_wait_p50_ms", "jobs.run_p50_ms", "jobs.refused"):
            metrics[name] = 0
        self._check_counts({k: metrics[k] for k in COUNT_METRICS})
        self._keep_trace(spans_file)
        return metrics

    # ------------------------------------------------------------------ #
    # service workload
    # ------------------------------------------------------------------ #
    def _server(self, trace_out: Optional[Path] = None):
        from client import Server

        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.run_dir))
        return Server(ROOT, self.env, cache_dir, trace_out)

    def _stop(self, server) -> None:
        server.stop()
        if server.peak_rss_kb is None:
            self.failures.append(f"server exited with code {server.proc.returncode}")

    def _warm_up(self, client) -> None:
        from client import warm_up

        self.attempted += len(self.plan.warmup)
        self.failures += warm_up(client, self.plan)

    def _jobs(self, client, *, label: str) -> dict:
        from client import run_jobs

        out = run_jobs(client, self.plan, self.plan.jobs, label=label)
        self.attempted += len(out["records"])
        self.failures += [f"{r['label']} ({r['spec']}): {r['error']}"
                          for r in out["records"] if r["error"]]
        return out

    def service(self) -> Dict[str, float]:
        from calibrate import samples
        from client import Client

        setups = []
        for i in range(SETUP_SAMPLES):
            before = samples(SETUP_REF_SAMPLES)
            server = self._server()
            try:
                client = Client(server.port, self.digests)
                self._warm_up(client)
                seconds = perf_counter() - server.spawned
                # The server is idle again: the block after it.
                setups.append((seconds, before + samples(SETUP_REF_SAMPLES)))
                if i == SETUP_SAMPLES - 1:
                    out = self._jobs(client, label="")
            finally:
                self._stop(server)
        ok = [r for r in out["records"] if not r["error"]]
        cold = [r for r in ok if r["kind"] == "compute"]

        def timings(records, key="total"):
            return [(r["interval"], r[key]) for r in records if r[key] is not None]

        return self._end_to_end(
            setups, out["ref"], timings(cold), timings(cold, "first_cell"),
            timings([r for r in ok if r["kind"] == "warm"]), timings(ok),
            sum(r["cells"] for r in ok), server.peak_rss_kb or 0)

    def service_traced(self) -> Dict[str, float]:
        import tracing
        from client import Client

        server = self._server()
        try:
            client = Client(server.port, self.digests)
            self._warm_up(client)
            untraced = self._jobs(client, label="untraced-")
        finally:
            self._stop(server)

        spans_file = self.run_dir / "spans.jsonl"
        server = self._server(trace_out=spans_file)
        try:
            client = Client(server.port, self.digests)
            self._warm_up(client)
            client.requests = client.non_2xx = client.refused = 0
            traced = self._jobs(client, label="")
            statuses = [client.status(r["id"]) for r in traced["records"] if "id" in r]
        finally:
            self._stop(server)

        spans, sims = tracing.load(spans_file)
        windows, roots = [], []
        for i, rec in enumerate(traced["records"]):
            if "end" in rec:
                root = -(i + 1)
                windows.append((rec["label"], root, rec["start"], rec["end"]))
                roots.append([root, tracing.ROOT, rec["start"], rec["end"], None,
                              rec["label"], 0])
        tracing.attribute_by_time(spans, sims, windows)
        spans += roots
        metrics = self._layers(spans, sims)
        records = [r for r in traced["records"] if not r["error"]]
        metrics.update({
            "engine.sim_steps_per_s": metrics["engine.sim_steps"] / untraced["wall"],
            "http.requests": client.requests,
            "http.non_2xx": client.non_2xx,
            "http.submit_p50_ms": tracing.p50_ms([r["submit"] for r in records]),
            "http.stream_first_byte_p50_ms": tracing.p50_ms([r["first_byte"] for r in records]),
            "http.result_p50_ms": tracing.p50_ms([r["result"] for r in records]),
            "jobs.queue_wait_p50_ms": tracing.p50_ms(
                [s["started"] - s["created"] for s in statuses]),
            "jobs.run_p50_ms": tracing.p50_ms(
                [s["finished"] - s["started"] for s in statuses]),
            "jobs.refused": client.refused,
        })

        def phase(out):
            ok = [r for r in out["records"] if not r["error"]]
            return (sum(r["cells"] for r in ok),
                    [(r["interval"], r["total"]) for r in ok], out["ref"])

        metrics["trace.overhead_share"] = _overhead(phase(untraced), phase(traced))
        self._check_counts({k: metrics[k] for k in COUNT_METRICS})
        self._keep_trace(spans_file)
        return metrics

    # ------------------------------------------------------------------ #
    # traced-run checks
    # ------------------------------------------------------------------ #
    def _layers(self, spans: list, sims: list) -> Dict[str, float]:
        import tracing

        metrics, balance, by_class = tracing.summarize(spans, sims)
        names = sorted({n for _, table in by_class.values() for n in table})
        classes = sorted(by_class)
        print("# self time per job, ms (job = unattributed remainder):")
        print("#   " + f"{'span':22s}" + "".join(
            f"{c + ' (n=' + str(by_class[c][0]) + ')':>20s}" for c in classes))
        for name in names:
            print("#   " + f"{name:22s}" + "".join(
                f"{by_class[c][1].get(name, 0.0) / by_class[c][0] * 1e3:20.3f}"
                for c in classes))
        calls: Dict[str, int] = {}
        for record in spans:
            if record[tracing.JOB] is not None:
                calls[record[tracing.NAME]] = calls.get(record[tracing.NAME], 0) + 1
        for name in EXERCISED[self.workload]:
            if not calls.get(name):
                self.failures.append(f"layer {name!r} recorded no calls")
        worst = 0.0
        for job, (wall, total) in balance.items():
            worst = max(worst, abs(wall - total))
            if abs(wall - total) > 1e-6:
                self.failures.append(
                    f"{job}: self times sum to {total:.6f} s, wall is {wall:.6f} s")
        print(f"# trace: {len(spans)} spans; worst |wall - sum of self times| "
              f"over {len(balance)} jobs = {worst:.2e} s")
        return metrics

    def _check_counts(self, counts: Dict[str, float]) -> None:
        from workloads import DEFAULT_SEED

        seconds = f"{self.args.seconds:g}"
        state = HERE / ".state" / f"{self.workload}-seed{self.args.seed}-s{seconds}.json"
        earlier = {}
        if state.exists():
            earlier["an earlier traced run"] = json.loads(state.read_text())
        if self.args.seed == DEFAULT_SEED:
            expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
            stored = expected.get(self.workload, {}).get("counts", {}).get(seconds)
            if self.args.record:
                expected.setdefault(self.workload, {}).setdefault("counts", {})[
                    seconds] = counts
                EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
            elif stored is not None:
                earlier["expected.json"] = stored
        for source, seen in earlier.items():
            diff = sorted(k for k in set(seen) | set(counts) if seen.get(k) != counts.get(k))
            if diff:
                self.failures.append(f"counts differ from {source}: {', '.join(diff)}")
        state.parent.mkdir(exist_ok=True)
        state.write_text(json.dumps(counts, sort_keys=True))

    def _keep_trace(self, spans_file: Path) -> None:
        kept = HERE / ".traces" / f"{self.workload}-seed{self.args.seed}.jsonl"
        kept.parent.mkdir(exist_ok=True)
        shutil.copyfile(spans_file, kept)
        print(f"# spans written to {kept.relative_to(ROOT)}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="default seed only: store the oracle digests (and, "
                        "with --trace 1, the counts) in expected.json")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's source (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, IN_PROCESS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {WORKLOADS}")
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record stores the default seed ({DEFAULT_SEED}) only")
    signal.signal(signal.SIGTERM, _terminate)
    units = _load_units()
    host_record("start")

    runs = HERE / ".runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src/repro", "perfbench"],
                       cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        run = Run(args, run_dir)
        in_process = args.workload in IN_PROCESS
        if args.trace:
            metrics = run.in_process_traced() if in_process else run.service_traced()
        else:
            metrics = run.in_process() if in_process else run.service()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    host_record("end")

    from calibrate import NOMINAL_S
    from stats import samples_beyond

    for phase, (factor, n) in run.factors.items():
        print(f"# host factor, {phase}: median {factor:.4f} over its intervals "
              f"({n} reference samples; nominal kernel {NOMINAL_S * 1e3:g} ms)")
    for name, value in metrics.items():
        sample, q = SAMPLES_OF.get(name, (None, None))
        n = run.samples.get(sample)
        notes = []
        if name in run.raw and run.raw[name] != value:
            notes.append(f"raw {run.raw[name]:.6g}")
        if n is not None:
            notes.append(f"n={n}" if q is None else f"n={n}, {samples_beyond(n, q)} beyond")
        tail = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{name:34s} {value:14.6g} {units.get(name, '')}{tail}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(f"# {run.attempted} jobs attempted, {len(run.failures)} failed")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
