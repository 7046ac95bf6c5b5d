"""Child process that runs an in-process workload, or computes oracle digests.

``run.py`` spawns it from the checkout root and times it from the spawn:
the worker prints ``ready`` once its untimed warm-up job has finished,
which ends the set-up interval.  Modes:

* ``setup``  — warm up, print ``ready``, exit;
* ``run``    — warm up, then the timed computing jobs with cache-warm
  replays between them, untraced;
* ``trace``  — warm up, time a prefix of those jobs untraced, then install
  the layer wrappers and time the same prefix traced;
* ``oracle`` — write the digest of each spec not in ``--digests`` as the repo's named
  oracle computes it (serial engine for the stacked sweep, the scalar
  backend for the fault workload, plain in-process ``run_batch`` for the
  service's specs).

The last stdout line is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
from workloads import make_plan  # noqa: E402


def digest(text: str) -> str:
    """SHA-256 of a canonical result document as ``sweep --out`` writes it."""
    return hashlib.sha256((text + "\n").encode("utf-8")).hexdigest()


class Runner:
    """Runs one plan's jobs and checks every output against its digest."""

    def __init__(self, plan, digests, cache_root: Path) -> None:
        from repro.experiments import ExperimentSpec, ResultCache, runner

        self.plan = plan
        self.digests = digests
        self.cache_root = cache_root
        self.runner = runner
        self.ResultCache = ResultCache
        self.specs = {k: ExperimentSpec.from_dict(v) for k, v in plan.specs.items()}
        self.failed = []

    def job(self, spec_id: str, *, cache=None):
        """One job, submit to result: ``(seconds, first_cell_s, text, batch)``."""
        first = []
        start = perf_counter()

        def on_cell(_result) -> None:
            if not first:
                first.append(perf_counter())

        batch = self.runner.run_batch(
            self.specs[spec_id], engine="auto", workers=1, cache=cache,
            on_cell_done=on_cell,
        )
        text = batch.to_json()
        end = perf_counter()
        return end - start, first[0] - start, text, batch

    def check(self, label: str, spec_id: str, text: str) -> bool:
        want = self.digests.get(spec_id)
        got = digest(text)
        if got != want:
            self.failed.append(f"{label} ({spec_id}): digest {got[:12]} != {str(want)[:12]}")
            return False
        return True

    def timed(self, tracer=None, prefix: str = ""):
        """The timed jobs: computing jobs, with the cache-warm replays
        spread between them so both classes sample the whole run.

        A computing job's results go into the replay cache right after it,
        outside any timing, so the computing jobs never touch the cache.
        Returns per-job times as ``(interval, seconds)``, the computing
        jobs' cells and their summed wall time (a closed loop: the
        computing phase without the replays), and the host-speed reference
        blocks: one before each computing job and one after the last, so
        computing job ``i`` and the replays after it run in interval ``i``.
        """
        root = Path(tempfile.mkdtemp(prefix="replay-", dir=self.cache_root))
        fill = self.ResultCache(root)
        cached = set()
        replays = {}
        for k, (i, spec_id) in enumerate(self.plan.replays):
            replays.setdefault(i, []).append((k, spec_id))
        out = {"times": [], "firsts": [], "cells": 0, "wall": 0.0, "replays": [],
               "ref": []}
        gc.collect()
        for i, (_, spec_id) in enumerate(self.plan.jobs):
            out["ref"].append(calibrate.samples(self.plan.ref_samples))
            label = f"{prefix}compute-{i}"
            if tracer is None:
                seconds, first, text, batch = self.job(spec_id)
            else:
                seconds, first, text, batch = tracer.run_root(label, self.job, spec_id)
            if self.check(label, spec_id, text):
                out["times"].append((i, seconds))
                out["firsts"].append((i, first))
                out["cells"] += len(batch)
                out["wall"] += seconds
            if spec_id not in cached:
                cached.add(spec_id)
                for result in batch.results:
                    fill.put(result.cell, result.metrics)
            for k, replay_id in replays.get(i, ()):
                out["replays"] += [(i, seconds) for seconds in self.replay(
                    tracer, f"{prefix}warm-{k}", replay_id, root)]
        out["ref"].append(calibrate.samples(self.plan.ref_samples))
        return out

    def replay(self, tracer, label: str, spec_id: str, root: Path) -> list:
        """One job served from the cache; ``[seconds]``, or ``[]`` if it failed."""
        cache = self.ResultCache(root)
        if tracer is None:
            seconds, _, text, _ = self.job(spec_id, cache=cache)
        else:
            seconds, _, text, _ = tracer.run_root(label, self.job, spec_id, cache=cache)
        if cache.stats.misses:
            self.failed.append(f"{label} ({spec_id}): {cache.stats.misses} cache misses")
            return []
        return [seconds] if self.check(label, spec_id, text) else []


def oracle_digests(plan, known) -> dict:
    """Digests of the plan's specs not in ``known``, from the named oracle."""
    from repro.experiments import ExperimentSpec, run_batch

    engine = "serial" if plan.workload == "sweep_stacked" else "auto"
    return {
        spec_id: digest(run_batch(ExperimentSpec.from_dict(payload), engine=engine).to_json())
        for spec_id, payload in plan.specs.items()
        if spec_id not in known
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace", "oracle"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--digests", required=True,
                        help="JSON file of expected (oracle mode: known) digests by spec id")
    parser.add_argument("--cache-root", help="directory for replay caches")
    parser.add_argument("--trace-out", help="where the traced mode writes its spans")
    parser.add_argument("--traced", action="store_true",
                        help="oracle mode: the traced run's plan")
    args = parser.parse_args()

    plan = make_plan(args.workload, args.seed, args.seconds,
                     traced=args.mode == "trace" or args.traced)
    with open(args.digests, encoding="utf-8") as handle:
        digests = json.load(handle)
    if args.mode == "oracle":
        print(json.dumps(oracle_digests(plan, digests)))
        return 0

    runner = Runner(plan, digests, Path(args.cache_root))
    for _, spec_id in plan.warmup:
        _, _, text, _ = runner.job(spec_id)
        runner.check("warm-up", spec_id, text)
    print("ready", flush=True)
    if args.mode == "setup":
        print(json.dumps({"failed": runner.failed}))
        return 0

    if args.mode == "run":
        out = {"timed": runner.timed()}
    else:
        import tracing

        out = {"untraced": runner.timed(prefix="untraced-")}
        tracer = tracing.Tracer()
        tracing.install(tracer)
        out["timed"] = runner.timed(tracer)
        tracer.uninstall()
        tracer.dump(args.trace_out)
    out["failed"] = runner.failed
    passes = 2 if args.mode == "trace" else 1
    out["attempted"] = passes * (len(plan.jobs) + len(plan.replays))
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
