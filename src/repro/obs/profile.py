"""Span-based phase profiling of the simulator step pipeline.

A :class:`PhaseProfiler` times named spans — ``with profiler.span("x")``
— and aggregates wall time and call counts per *span path*, so nested
phases report as a tree::

    step                          1.234s  100.0%  x500
      fault_detect                0.010s    0.8%  x500
      labeling_round              0.480s   38.9%  x730
      protocols                   0.120s    9.7%  x1000
      messages                    0.600s   48.6%  x500
        source_poll               0.040s    3.2%  x500
        decision_batch            0.310s   25.1%  x480
        probe_advance             0.200s   16.2%  x480
        ledger_sweep              0.030s    2.4%  x500

The profiler is opt-in.  A run without one times its spans with
:data:`NULL_PROFILER`, whose spans do nothing, so the step pipeline has one
code path either way; a detached span costs one method call and an empty
``with`` block (a few hundred nanoseconds, well under 1% of a step).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Tuple

__all__ = ["NULL_PROFILER", "PhaseProfiler"]

#: One span-path's aggregate: (total seconds, entry count).
_Totals = Dict[Tuple[str, ...], List[float]]


class _Span:
    """Context manager timing one entry of one named phase."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Span":
        profiler = self._profiler
        profiler._stack.append(self._name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = perf_counter() - self._start
        profiler = self._profiler
        path = tuple(profiler._stack)
        profiler._stack.pop()
        entry = profiler._totals.get(path)
        if entry is None:
            profiler._totals[path] = [elapsed, 1]
        else:
            entry[0] += elapsed
            entry[1] += 1


class _NullSpan:
    """A detached span: entering and leaving it does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _NullProfiler:
    """The profiler of a run nobody profiles: every span is one shared no-op."""

    __slots__ = ()

    def span(self, name: str) -> _NullSpan:
        """The shared no-op span (``name`` is ignored)."""
        return _NULL_SPAN


#: The detached profiler every step pipeline uses when none is attached.
NULL_PROFILER = _NullProfiler()


class PhaseProfiler:
    """Aggregated wall time and call counts per nested span path."""

    def __init__(self) -> None:
        self._stack: List[str] = []
        self._totals: _Totals = {}

    def span(self, name: str) -> _Span:
        """A context manager timing one entry of phase ``name``."""
        return _Span(self, name)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def seconds(self, *path: str) -> float:
        """Total seconds spent in the span at ``path`` (0.0 if never entered)."""
        entry = self._totals.get(tuple(path))
        return entry[0] if entry is not None else 0.0

    def count(self, *path: str) -> int:
        """Times the span at ``path`` was entered."""
        entry = self._totals.get(tuple(path))
        return int(entry[1]) if entry is not None else 0

    def to_dict(self) -> Dict[str, dict]:
        """Nested ``{name: {seconds, count, children}}`` tree."""
        root: Dict[str, dict] = {}
        for path in sorted(self._totals):
            seconds, count = self._totals[path]
            level = root
            for name in path[:-1]:
                level = level.setdefault(
                    name, {"seconds": 0.0, "count": 0, "children": {}}
                )["children"]
            node = level.setdefault(
                path[-1], {"seconds": 0.0, "count": 0, "children": {}}
            )
            node["seconds"] += seconds
            node["count"] += int(count)
        return root

    def report(self) -> str:
        """The indented timing tree, one line per span path."""
        total = sum(
            entry[0] for path, entry in self._totals.items() if len(path) == 1
        )
        lines = [f"{'phase':<34} {'seconds':>10} {'share':>7} {'calls':>9}"]

        def emit(tree: Dict[str, dict], depth: int) -> None:
            for name, node in tree.items():
                label = "  " * depth + name
                share = (node["seconds"] / total * 100.0) if total else 0.0
                lines.append(
                    f"{label:<34} {node['seconds']:>10.4f} {share:>6.1f}% "
                    f"{node['count']:>9}"
                )
                emit(node["children"], depth + 1)

        emit(self.to_dict(), 0)
        return "\n".join(lines)
