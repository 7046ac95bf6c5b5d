"""ASCII reports over observability artifacts.

``repro-mesh report FILE`` renders either artifact the toolchain writes:

* a **JSONL trace** (``repro-mesh simulate --trace-out``) — run header,
  fault events, per-step series as sparklines, convergence records, and
  the end-of-run summary with a totals cross-check (the per-step delta
  series must sum to the summary aggregates exactly);
* a **telemetry JSON** (``repro-mesh sweep --telemetry-out``) — the shard
  table, worker utilization and cache accounting of one sweep run.

:func:`sniff_kind` keeps the CLI honest about which it got.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from repro.analysis.slo import compute_recovery_slo
from repro.obs.telemetry import SweepTelemetry
from repro.obs.trace import Trace, read_trace
from repro.viz.ascii import sparkline

__all__ = [
    "render_telemetry_report",
    "render_trace_report",
    "report_file",
    "sniff_kind",
]

#: Step-row series rendered as sparklines, in display order.
_TRACE_SERIES: Tuple[str, ...] = (
    "injected",
    "delivered",
    "in_flight",
    "reserved_links",
    "blocked_hops",
    "setup_retries",
    "fault_dropped",
)

#: (delta series in the trace, aggregate key in the summary) pairs whose
#: sums must match exactly — the recorder's cumulative-column contract.
_TOTALS_CHECKS: Tuple[Tuple[str, str], ...] = (
    ("finished", "messages"),
    ("blocked_hops", "blocked_hops"),
    ("setup_retries", "setup_retries"),
    ("link_steps", "mean_reserved_links"),  # summed vs mean x steps
    ("fault_dropped", "fault_dropped"),
)


def sniff_kind(path: str) -> str:
    """``"trace"`` (JSONL, header line) or ``"telemetry"`` (one JSON doc)."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline().strip()
    if not first:
        raise ValueError(f"{path}: empty file")
    try:
        record = json.loads(first)
    except json.JSONDecodeError:
        # A pretty-printed telemetry document opens with a bare "{" line;
        # a JSONL trace's first line is always a complete record.
        record = None
    if isinstance(record, dict) and record.get("kind") == "header":
        return "trace"
    if isinstance(record, dict) and "telemetry" in record:
        return "telemetry"
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError:
            document = None
    if isinstance(document, dict) and "telemetry" in document:
        return "telemetry"
    raise ValueError(f"{path}: neither a repro trace nor a telemetry file")


def _check_totals(trace: Trace) -> List[str]:
    """Cross-check delta-series sums against the summary aggregates."""
    lines: List[str] = []
    summary = trace.summary
    steps = int(summary.get("steps", len(trace.steps)))
    for series_name, summary_key in _TOTALS_CHECKS:
        if not trace.steps or series_name not in trace.steps[0]:
            continue
        total = sum(trace.series(series_name))
        expected = summary.get(summary_key)
        if expected is None:
            continue
        if summary_key == "mean_reserved_links":
            expected = expected * steps
        ok = abs(total - expected) < 1e-6
        lines.append(
            f"  sum({series_name:<14}) = {total:>10} "
            f"{'==' if ok else '!='} {summary_key} ({expected:g}) "
            f"{'ok' if ok else 'MISMATCH'}"
        )
    delivered = sum(trace.series("delivered")) if trace.steps else 0
    messages = summary.get("messages")
    rate = summary.get("delivery_rate")
    if messages is not None and rate is not None:
        expected_delivered = round(messages * rate)
        ok = delivered == expected_delivered
        lines.append(
            f"  sum({'delivered':<14}) = {delivered:>10} "
            f"{'==' if ok else '!='} messages x delivery_rate "
            f"({expected_delivered}) {'ok' if ok else 'MISMATCH'}"
        )
    return lines


def _event_marker_line(trace: Trace, width: int) -> Optional[str]:
    """Markers aligned under the sparklines: ``^`` fault, ``+`` recovery.

    Positions follow the sparkline's downsampling (step ``i`` of ``n``
    lands in glyph ``i * width // n`` once the series is wider than
    ``width``), so a marker sits under the glyph averaging its step.
    """
    n = len(trace.steps)
    if not n or not trace.events:
        return None
    first = trace.steps[0].get("step", 0)
    chars = min(n, width)
    row = [" "] * chars
    for event in trace.events:
        i = event.get("t", 0) - first
        if not 0 <= i < n:
            continue
        pos = i if n <= width else i * width // n
        mark = "^" if event.get("event") == "fault" else "+"
        if row[pos] != "^":  # faults win a shared glyph
            row[pos] = mark
    if not any(c != " " for c in row):
        return None
    return "".join(row)


def _slo_section(trace: Trace) -> List[str]:
    """Recovery SLOs recomputed from the trace's own per-step series."""
    faults = [e for e in trace.events if e.get("event") == "fault"]
    if not faults or not trace.steps or "delivered" not in trace.steps[0]:
        return []
    first = trace.steps[0].get("step", 0)
    delivered = [float(v) for v in trace.series("delivered")]
    dropped = (
        [float(v) for v in trace.series("fault_dropped")]
        if "fault_dropped" in trace.steps[0]
        else [0.0] * len(delivered)
    )
    slo = compute_recovery_slo(
        delivered,
        dropped,
        [(e.get("t", 0) - first, tuple(e.get("node", ()))) for e in faults],
    )
    lines = ["", f"recovery SLOs ({len(slo.events)} fault events)"]
    for event in slo.events:
        node = ",".join(str(c) for c in event.node)
        recover = (
            f"recovered in {event.time_to_recover} steps"
            if event.recovered
            else "never recovered"
        )
        lines.append(
            f"  t={event.time + first:>5}  ({node})  "
            f"dip {event.dip_depth:.0%} of baseline {event.baseline:.2f}  "
            f"{recover}  dropped {event.fault_dropped}"
        )
    worst_ttr = (
        f"{slo.time_to_recover}" if slo.time_to_recover >= 0 else "never"
    )
    lines.append(
        f"  worst: dip {slo.dip_depth:.0%}  time-to-recover {worst_ttr}  "
        f"dropped {slo.fault_dropped} circuits"
    )
    return lines


def render_trace_report(trace: Trace, *, width: int = 60) -> str:
    """The full ASCII report of one parsed trace."""
    header = trace.header
    shape = "x".join(str(s) for s in header.get("shape", []))
    lines = [
        f"trace {header.get('schema', '?')}",
        f"  mesh {shape}  policy {header.get('policy', '?')}  "
        f"lam {header.get('lam', '?')}  "
        f"contention {header.get('contention', '?')}  "
        f"steps {header.get('steps', len(trace.steps))}",
    ]

    if trace.events:
        lines.append("")
        lines.append(f"events ({len(trace.events)})")
        for event in trace.events:
            node = ",".join(str(c) for c in event.get("node", []))
            lines.append(f"  t={event.get('t'):>5}  {event.get('event'):<9} ({node})")

    if trace.steps:
        lines.append("")
        lines.append(f"per-step series ({len(trace.steps)} steps)")
        for name in _TRACE_SERIES:
            if name not in trace.steps[0]:
                continue
            series = trace.series(name)
            lines.append(
                f"  {name:<15} {sparkline(series, width=width)}  "
                f"min {min(series):g} max {max(series):g}"
            )
        markers = _event_marker_line(trace, width)
        if markers is not None:
            lines.append(f"  {'events':<15} {markers}  (^ fault, + recovery)")
        lines.extend(_slo_section(trace))

    if trace.convergence:
        lines.append("")
        lines.append(f"convergence ({len(trace.convergence)} fault changes)")
        for record in trace.convergence:
            node = ",".join(str(c) for c in record.get("node", []))
            stabilized = record.get("stabilized_step")
            lines.append(
                f"  {record.get('event'):<9} ({node})  "
                f"detected {record.get('detected_step')}  "
                f"stabilized {stabilized if stabilized is not None else 'never'}  "
                f"rounds a={record.get('labeling_rounds')} "
                f"b={record.get('identification_rounds')} "
                f"c={record.get('boundary_rounds')}"
            )

    if trace.summary:
        lines.append("")
        lines.append("summary")
        for key in sorted(trace.summary):
            lines.append(f"  {key:<24} {trace.summary[key]:g}")
        checks = _check_totals(trace)
        if checks:
            lines.append("")
            lines.append("totals check (series sums vs aggregates)")
            lines.extend(checks)

    return "\n".join(lines)


def render_telemetry_report(telemetry: SweepTelemetry) -> str:
    """The ASCII report of one sweep's execution telemetry."""
    lines = [
        "sweep telemetry",
        f"  engine {telemetry.engine}  workers {telemetry.workers}  "
        f"cells {telemetry.cells}  wall {telemetry.wall_seconds:.3f}s  "
        f"busy {telemetry.busy_seconds:.3f}s  "
        f"utilization {telemetry.worker_utilization:.0%}",
    ]
    if telemetry.shards:
        lines.append("")
        lines.append(
            f"  {'shard':<7} {'kind':<8} {'cells':>5} {'seconds':>9} {'landed':>9}"
        )
        for i, shard in enumerate(telemetry.shards):
            lines.append(
                f"  {i:<7} {shard.kind:<8} {shard.cells:>5} "
                f"{shard.seconds:>9.3f} {shard.landed_seconds:>9.3f}"
            )
        landings = [s.landed_seconds for s in telemetry.shards]
        if len(landings) > 1:
            lines.append(f"  landing order: {sparkline(landings, width=40)}")
    if telemetry.incidents:
        lines.append("")
        lines.append(f"  incidents ({len(telemetry.incidents)})")
        for incident in telemetry.incidents:
            lines.append(
                f"    {incident.kind:<12} {incident.shards} shard(s) -> "
                f"{incident.action}"
            )
    cache = telemetry.cache
    if cache is not None:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        rate = cache.get("hits", 0) / lookups if lookups else 0.0
        lines.append("")
        lines.append(
            f"  cache: {cache.get('hits', 0)} hits / {lookups} lookups "
            f"({rate:.0%}), {cache.get('writes', 0)} written, "
            f"{cache.get('invalid', 0)} invalid entries recomputed"
        )
    return "\n".join(lines)


def report_file(path: str, *, width: int = 60) -> str:
    """Render whichever observability artifact ``path`` holds."""
    kind = sniff_kind(path)
    if kind == "trace":
        return render_trace_report(read_trace(path), width=width)
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return render_telemetry_report(SweepTelemetry.from_dict(payload))
