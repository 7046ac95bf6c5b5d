"""Spans around each layer's public entry points, and what they add up to.

The tracer patches attributes from outside the program: a module-level
function is replaced on the module that *calls* it (the name the caller
looks up at call time), a method on its class.  Each call becomes one span
``[span_id, name, start, end, parent_id, job, n]`` kept in memory, where
``n`` is the work count the call contributes (rows classified, hops routed,
bytes serialized ...).  Nothing is written until the run ends.

Timestamps are ``time.perf_counter()``, which on Linux reads
``CLOCK_MONOTONIC``: spans recorded inside the service process line up with
the client's job windows, so server spans are attributed to jobs by time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import percentile, self_times

#: Span name of the benchmark's own per-job root span; its self time is the
#: job's unattributed remainder.
ROOT = "job"

# Field positions of a span record.
SID, NAME, START, END, PARENT, JOB, N = range(7)


def _one(args, result) -> int:
    return 1


def _build_blocks_rounds(args, result) -> int:
    # run_block_construction executes one more round than it reports: the
    # final round that changes nothing and ends the fixpoint iteration.
    return result.rounds + 1


def _rows(args, result) -> int:
    return len(args[1])  # classify_rows(tables, node_idx, ...)


def _table_rows(args) -> int:
    return int(args[0]._cell.size)  # rows in the table when the step starts


def _hops(args, result) -> int:
    return int(result.hops)


def _hit(args, result) -> int:
    return int(result is not None)


def _text_bytes(args, result) -> int:
    return len(result.encode("utf-8"))


def _group_cells(args, result) -> int:
    return len(args[1])  # _run_group(table, members, land)


class Tracer:
    """In-memory span recorder with thread-local parent stacks."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Label of the job in progress (set by the in-process worker; the
        #: service attributes its spans to jobs by time instead).
        self.job: Optional[str] = None
        #: Per-simulator totals harvested when each batch ends:
        #: ``[time, job, steps, reserved, blocked_hops, delivered,
        #: messages, setup_retries]``.
        self.sims: List[list] = []
        self._live_sims: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        count: Optional[Callable] = None,
        pre: Optional[Callable] = None,
        after: Optional[Callable[[], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call."""
        spans, ids, tracer = self.spans, self._ids, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(ids)
            record = [sid, name, 0.0, 0.0, stack[-1] if stack else None,
                      tracer.job, pre(args) if pre is not None else 0]
            stack.append(sid)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
                spans.append(record)
            if count is not None:
                record[N] = count(args, result)
            if after is not None:
                after()
            return result

        return traced

    def run_root(self, job: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span of ``job``."""
        self.job = job
        try:
            return self.wrap(ROOT, fn)(*args, **kwargs)
        finally:
            self.job = None

    def patch(self, owner: object, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` with a traced version (classmethods kept)."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            replacement: object = classmethod(self.wrap(name, static.__func__, **hooks))
        else:
            replacement = self.wrap(name, getattr(owner, attr), **hooks)
        self._patches.append((owner, attr, static))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, static = self._patches.pop()
            setattr(owner, attr, static)

    def _harvest_sims(self) -> None:
        now = perf_counter()
        for sim in self._live_sims:
            st = sim.stats
            self.sims.append([
                now, self.job, st.steps, st.circuits_reserved,
                st.total_blocked_hops, len(st.delivered_messages),
                len(st.messages), st.total_setup_retries,
            ])
        self._live_sims.clear()

    def dump(self, path: str) -> None:
        """Write spans and simulator totals as JSON lines (see :func:`load`)."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({"span": record}) + "\n")
            for record in self.sims:
                handle.write(json.dumps({"sim": record}) + "\n")


def load(path) -> Tuple[List[list], List[list]]:
    """The ``(spans, simulator totals)`` a :meth:`Tracer.dump` wrote."""
    spans: List[list] = []
    sims: List[list] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "span" in record:
                spans.append(record["span"])
            else:
                sims.append(record["sim"])
    return spans, sims


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Patch every layer's public entry points on the modules that call them.

    ``service`` selects the service-side batch entry point
    (``repro.service.jobs.run_batch``) over the in-process one.
    """
    from repro.core import boundary, decision, identification, probe_table
    from repro.experiments import cache, results, runner, spec, stacked
    from repro.pcs.circuit import ArrayCircuitLedger
    from repro.routing import algorithm, global_info, static_block
    from repro.simulator import engine
    from repro.throughput import measure

    P = tracer.patch
    P(engine, "labeling_round", "block_construction", count=_one)
    P(runner, "build_blocks", "block_construction", count=_build_blocks_rounds)
    P(measure, "build_blocks", "block_construction", count=_build_blocks_rounds)
    P(identification.IdentificationProtocol, "round", "identification")
    P(boundary.BoundaryProtocol, "round", "boundary")
    P(algorithm, "distribute_information", "distribution")
    P(decision.VectorDecisionEngine, "tables", "decision.tables")
    P(decision, "classify_rows", "decision.classify", count=_rows)
    P(probe_table, "classify_rows", "decision.classify", count=_rows)
    P(probe_table.ProbeTable, "run_step", "probe_table", pre=_table_rows)
    for method in ("sync", "hold_until", "release", "release_expired",
                   "release_crossing"):
        P(ArrayCircuitLedger, method, "circuit")
    for router in (algorithm.AlgorithmRouter, static_block.StaticBlockRouter,
                   global_info.GlobalInfoRouter):
        P(router, "route", "routing", count=_hops)
    P(engine.Simulator, "run", "engine")
    P(engine.Simulator, "step", "engine")
    P(measure, "run_throughput_point", "throughput")
    P(measure, "compute_recovery_slo", "slo")
    P(runner, "run_cell", "runner.cell")
    P(stacked, "run_cells_stacked", "stacked")
    P(stacked, "_run_group", "stacked.group", count=_group_cells)
    P(cache.ResultCache, "get", "cache.get", count=_hit)
    P(cache.ResultCache, "put", "cache.put")
    P(results.BatchResult, "to_json", "results.to_json", count=_text_bytes)
    P(spec.ExperimentSpec, "from_dict", "spec.from_dict")
    if service:
        from repro.service import jobs

        P(jobs, "run_batch", "runner", after=tracer._harvest_sims)
    else:
        P(runner, "run_batch", "runner", after=tracer._harvest_sims)

    # Every simulator built during a batch reports its totals when the
    # batch ends (no span: construction is not a layer boundary).
    original_init = engine.Simulator.__init__
    live = tracer._live_sims

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        live.append(self)

    tracer._patches.append((engine.Simulator, "__init__", original_init))
    engine.Simulator.__init__ = init


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
#: Self-time metrics: metric name -> the span names whose self time it sums.
SELF_METRICS: Dict[str, Tuple[str, ...]] = {
    "block_construction.self_s": ("block_construction",),
    "identification.self_s": ("identification",),
    "boundary.self_s": ("boundary",),
    "distribution.self_s": ("distribution",),
    "decision.tables_self_s": ("decision.tables",),
    "decision.classify_self_s": ("decision.classify",),
    "probe_table.self_s": ("probe_table",),
    "circuit.self_s": ("circuit",),
    "routing.self_s": ("routing",),
    "engine.self_s": ("engine",),
    "throughput.self_s": ("throughput",),
    "slo.self_s": ("slo",),
    "runner.self_s": ("runner", "runner.cell"),
    "stacked.self_s": ("stacked", "stacked.group"),
    "cache.get_self_s": ("cache.get",),
    "cache.put_self_s": ("cache.put",),
    "results.to_json_self_s": ("results.to_json",),
    "spec.from_dict_self_s": ("spec.from_dict",),
}

#: Call-count metrics: metric name -> span name.
CALL_METRICS: Dict[str, str] = {
    "identification.rounds": "identification",
    "boundary.rounds": "boundary",
    "distribution.calls": "distribution",
    "decision.tables_calls": "decision.tables",
    "probe_table.steps": "probe_table",
    "routing.routes": "routing",
    "throughput.points": "throughput",
    "slo.calls": "slo",
    "runner.jobs": "runner",
    "stacked.groups": "stacked.group",
    "cache.lookups": "cache.get",
}

#: Work-count metrics: metric name -> span name whose ``n`` it sums.
WORK_METRICS: Dict[str, str] = {
    "block_construction.rounds": "block_construction",
    "decision.rows_classified": "decision.classify",
    "routing.hops": "routing",
    "cache.hits": "cache.get",
    "results.bytes": "results.to_json",
}


def attribute_by_time(
    spans: List[list],
    sims: List[list],
    windows: Sequence[Tuple[str, int, float, float]],
) -> None:
    """Give spans recorded in another process their job and root parent.

    ``windows`` are ``(job, root_span_id, start, end)`` of the client's
    jobs.  A top-level span inside a window becomes a child of that job's
    root; nested spans inherit the job of their parent; simulator totals
    go to the window their harvest time falls in.  Anything outside every
    window (warm-up jobs) keeps ``job = None``.
    """

    def window(start: float, end: float):
        for w in windows:
            if w[2] <= start and end <= w[3]:
                return w
        return None

    job_of: Dict[int, Optional[str]] = {}
    for record in sorted(spans, key=lambda r: r[SID]):
        if record[PARENT] is None:
            w = window(record[START], record[END])
            if w is not None:
                record[JOB], record[PARENT] = w[0], w[1]
        else:
            record[JOB] = job_of.get(record[PARENT])
        job_of[record[SID]] = record[JOB]
    for record in sims:
        w = window(record[0], record[0])
        record[1] = None if w is None else w[0]


def summarize(spans: List[list], sims: List[list]) -> Tuple[dict, dict, dict]:
    """What the spans of traced jobs add up to.

    Returns ``(metrics, balance, by_class)``:

    * ``metrics`` — per-layer counts, and self seconds per traced job;
    * ``balance`` — per job, ``(wall, sum of every span's self time)``; the
      root span's self time is the unattributed remainder, so the two agree
      whenever child spans nest inside their parents;
    * ``by_class`` — per job class (the label before its last ``-``):
      ``(jobs, {span name: self seconds})``.
    """
    traced = [r for r in spans if r[JOB] is not None]
    selfs = self_times([(r[SID], r[START], r[END], r[PARENT]) for r in traced])
    calls: Dict[str, int] = {}
    work: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    balance: Dict[str, List[float]] = {}
    by_class: Dict[str, list] = {}
    for record, own in zip(traced, selfs):
        name, job = record[NAME], record[JOB]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + record[N]
        self_s[name] = self_s.get(name, 0.0) + own
        entry = balance.setdefault(job, [0.0, 0.0])
        entry[1] += own
        cls = by_class.setdefault(job.rsplit("-", 1)[0], [0, {}])
        cls[1][name] = cls[1].get(name, 0.0) + own
        if name == ROOT:
            entry[0] += record[END] - record[START]
            cls[0] += 1
    wall = sum(w for w, _ in balance.values())
    njobs = max(1, len(balance))
    out: Dict[str, float] = {"trace.jobs": len(balance)}
    for metric, names in SELF_METRICS.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names) / njobs
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(name, 0)
    for metric, name in WORK_METRICS.items():
        out[metric] = work.get(name, 0)
    out["cache.misses"] = out["cache.lookups"] - out["cache.hits"]
    out["cache.hit_ratio"] = (
        out["cache.hits"] / out["cache.lookups"] if out["cache.lookups"] else 0.0
    )
    steps = calls.get("probe_table", 0)
    out["probe_table.rows_per_step"] = work.get("probe_table", 0) / steps if steps else 0.0
    groups = calls.get("stacked.group", 0)
    out["stacked.cells_per_group"] = (
        work.get("stacked.group", 0) / groups if groups else 0.0
    )
    mine = [s for s in sims if s[1] is not None]
    out["engine.cells"] = len(mine)
    out["engine.sim_steps"] = sum(s[2] for s in mine)
    out["circuit.reserved"] = sum(s[3] for s in mine)
    out["circuit.blocked_hops"] = sum(s[4] for s in mine)
    delivered = sum(s[5] for s in mine)
    attempts = sum(s[6] + s[7] for s in mine)
    out["circuit.setup_attempts"] = attempts
    out["circuit.setup_success_ratio"] = delivered / attempts if attempts else 0.0
    out["trace.unattributed_share"] = self_s.get(ROOT, 0.0) / wall if wall else 0.0
    return (
        out,
        {job: (w, total) for job, (w, total) in balance.items()},
        {cls: (n, table) for cls, (n, table) in by_class.items()},
    )


def p50_ms(values: Sequence[float]) -> float:
    """Median in milliseconds of seconds, 0.0 for an empty sample."""
    return percentile(values, 0.5) * 1e3 if values else 0.0
