"""The three workloads as fixed job sequences derived from a seed.

A job is one ``repro.spec/v1`` payload run to its canonical
``repro.result/v1`` document.  The number of jobs follows from
``--seconds`` and a nominal job cost fixed here, never from how fast the
host happens to be: a time-bounded loop would change the job mix from run
to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.spec import SPEC_SCHEMA

WORKLOADS = ("sweep_stacked", "open_loop_faults", "service_mixed")
IN_PROCESS = ("sweep_stacked", "open_loop_faults")

#: Seed whose result digests ship in ``expected.json``.
DEFAULT_SEED = 0

#: Spec id of the untimed warm-up job.  It is the same for every seed, so
#: ``setup_s`` measures the host and the program, not the seed's specs.
WARMUP = "warmup"

#: Distinct specs an in-process workload cycles through (0: every job its
#: own spec).  More distinct specs make a run's median depend less on the
#: seed; each costs one oracle run for a seed without stored digests.  The
#: fault workload's cells differ by up to 2x in cost with their fault
#: events, the stacked sweep's by about 10%.
SPEC_PERIOD = {"sweep_stacked": 8, "open_loop_faults": 0}

#: Fewest computing jobs in a run.
MIN_JOBS = 4

#: Nominal seconds per job, measured on a 2-vCPU Xeon VM; they only fix the
#: job count for a given ``--seconds``.
NOMINAL_JOB_S = {"sweep_stacked": 0.9, "open_loop_faults": 0.75, "service_mixed": 0.2}

#: A p90 rests on at least this many jobs of its class (ten beyond it).
MIN_P90_JOBS = 100

#: Cache-warm replays timed after an in-process workload's computing jobs.
WARM_REPLAYS = 300

#: Share of the jobs a traced run times twice (untraced, then traced).
TRACE_FRACTION = 0.5

#: Host-speed reference samples (``calibrate.py``) taken before each
#: computing job, outside its timing: 3-8% of a run.
REF_SAMPLES = {"sweep_stacked": 3, "open_loop_faults": 3, "service_mixed": 2}

OFFLINE_POLICIES = ["limited-global", "static-block", "global-information"]


def _sweep(seed: int, j: int) -> dict:
    base = (seed * 1000 + j) * 12
    return {
        "schema": SPEC_SCHEMA,
        "name": "perfbench-sweep",
        "mode": "simulate",
        "mesh_shapes": [[8, 8], [5, 5, 5]],
        "scenarios": ["transpose"],
        "fault_counts": [1],
        "lams": [2],
        "traffic_sizes": [28],
        "flits": [32],
        "contention": True,
        "seeds": list(range(base, base + 12)),
    }


def _open_loop(seed: int, j: int) -> dict:
    base = (seed * 1000 + j) * 4
    return {
        "schema": SPEC_SCHEMA,
        "name": "perfbench-open-loop",
        "mode": "throughput",
        "mesh_shapes": [[8, 8]],
        "scenarios": ["uniform"],
        "injection": "bernoulli",
        "rates": [0.02],
        "fault_counts": [2],
        "fault_rates": [0.04],
        "repair_after": 24,
        "warmup": 32,
        "measure": 128,
        "drain": 256,
        "seeds": list(range(base, base + 4)),
    }


def _offline(name: str, seed_value: int) -> dict:
    return {
        "schema": SPEC_SCHEMA,
        "name": name,
        "mode": "offline",
        # 3-D first: the first cell to land is the slower one, so the
        # thread hand-offs on the way to it are a smaller share of
        # first_cell_p50_ms.
        "mesh_shapes": [[5, 5, 5], [8, 8]],
        "fault_counts": [6],
        "traffic_sizes": [24],
        "policies": list(OFFLINE_POLICIES),
        "seeds": [seed_value],
    }


@dataclass
class Plan:
    """Every spec of one run and the order its jobs use them in."""

    workload: str
    seed: int
    specs: Dict[str, dict] = field(default_factory=dict)
    #: Untimed warm-up jobs, as ``(class, spec id)``.
    warmup: List[Tuple[str, str]] = field(default_factory=list)
    #: Timed jobs, as ``(class, spec id)``; class ``compute`` or ``warm``.
    jobs: List[Tuple[str, str]] = field(default_factory=list)
    #: In-process workloads: cache-warm replays, as ``(i, spec id)`` to run
    #: after computing job ``i``, of a spec some job up to ``i`` computed.
    replays: List[Tuple[int, str]] = field(default_factory=list)
    #: Reference samples before each computing job.
    ref_samples: int = 1


def job_count(workload: str, seconds: float) -> int:
    """Computing jobs (service: cold/warm pairs) in a ``seconds`` run."""
    n = round(seconds / NOMINAL_JOB_S[workload])
    floor = MIN_P90_JOBS if workload == "service_mixed" else MIN_JOBS
    return max(floor, n)


def make_plan(workload: str, seed: int, seconds: float, *, traced: bool = False) -> Plan:
    """The job sequence of one run; a traced run uses a prefix of it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    plan = Plan(workload=workload, seed=seed, ref_samples=REF_SAMPLES[workload])
    n = job_count(workload, seconds)
    if traced:
        n = max(MIN_JOBS, round(n * TRACE_FRACTION))
    if workload in IN_PROCESS:
        build = _sweep if workload == "sweep_stacked" else _open_loop
        ids = [f"s{seed}-{j}" for j in range(min(SPEC_PERIOD[workload] or n, n))]
        for j, sid in enumerate(ids):
            plan.specs[sid] = build(seed, j)
        plan.specs[WARMUP] = build(DEFAULT_SEED, 0)
        plan.warmup = [("compute", WARMUP)]
        plan.jobs = [("compute", ids[i % len(ids)]) for i in range(n)]
        replays = round(WARM_REPLAYS * (TRACE_FRACTION if traced else 1))
        for i in range(n):
            cached = ids[: i + 1]
            for k in range(replays * i // n, replays * (i + 1) // n):
                plan.replays.append((i, cached[k % len(cached)]))
        return plan
    plan.specs[WARMUP] = _offline("perfbench-warmup", DEFAULT_SEED)
    plan.warmup = [("compute", WARMUP), ("warm", WARMUP)]
    rng = random.Random(f"perfbench-service-{seed}")
    cold: List[str] = []
    for k in range(n):
        cid = f"s{seed}-{k}"
        plan.specs[cid] = _offline("perfbench-cold", seed * 100_000 + k)
        cold.append(cid)
        plan.jobs.append(("compute", cid))
        plan.jobs.append(("warm", cold[rng.randrange(len(cold))]))
    return plan
