"""Aggregation and export of experiment-batch results.

A :class:`CellResult` pairs one :class:`~repro.experiments.spec.ExperimentCell`
with the flat metric dictionary its run produced (delivery rate, detours,
convergence rounds, ...).  A :class:`BatchResult` holds every cell result of
one :func:`~repro.experiments.runner.run_batch` invocation and knows how to

* export itself as canonical JSON (sorted keys, fixed cell order) — two runs
  of the same spec produce byte-identical output regardless of worker count;
* pivot any metric into rows/columns over cell attributes, which is what the
  comparison tables in the benchmarks and examples are made of.

:func:`canonical_json` is the one writer of indented JSON: result
documents, the HTTP service's bodies and the sweep telemetry file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.spec import ExperimentCell, ExperimentSpec
from repro.obs.telemetry import SweepTelemetry

#: Version tag of the batch-result wire/file payload.  The JSON a
#: ``repro-mesh sweep --out`` file holds and the body the HTTP service
#: serves for a finished job are the same ``repro.result/v1`` document —
#: byte for byte.
RESULT_SCHEMA = "repro.result/v1"

#: ``float.__repr__`` spells the non-finite values ``nan``, ``inf`` and
#: ``-inf``; JSON (as :mod:`json` writes it) spells them as below.
_FLOAT_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_json(payload: object) -> str:
    """The text of ``json.dumps(payload, sort_keys=True, indent=2)``.

    :mod:`json` takes its C encoder only for unindented one-shot calls, so
    every indented dump runs its generator-based Python encoder.  This
    writer builds the same text directly: each container is one
    ``str.join``, strings go through json's C ``encode_basestring_ascii``,
    and numbers are written as json writes them (``int.__repr__`` and
    ``float.__repr__`` for subclasses too, so ``numpy.float64`` and
    ``IntEnum`` values match; ``NaN``/``Infinity`` spellings; ``bool``
    before ``int``).  ``payload`` must be a tree: a cycle raises
    :class:`RecursionError` where json raises :class:`ValueError`.
    ``json.dumps`` stays the named oracle (``tests/test_canonical_json.py``).
    """
    return _encode(payload, "\n")


def _encode(value: object, newline: str) -> str:
    """``value`` as JSON text; ``newline`` is the line break and indent of
    the line ``value`` starts on."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_SPELLINGS.get(text, text)
    if isinstance(value, str):
        return _escape(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            (_escape(key) if isinstance(key, str) else _key(key))
            + ": "
            + _encode(item, inner)
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key(key: object) -> str:
    """A non-string dict key, quoted as json coerces it: the key's own JSON
    text (``bool`` is an ``int``)."""
    if isinstance(key, (float, int)) or key is None:
        return '"' + _encode(key, "") + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


@dataclass(frozen=True)
class CellResult:
    """Metrics produced by running one experiment cell."""

    cell: ExperimentCell
    metrics: Dict[str, float]

    def to_dict(self) -> dict:
        return {
            "index": self.cell.index,
            "mode": self.cell.mode,
            "shape": list(self.cell.shape),
            "policy": self.cell.policy,
            "faults": self.cell.faults,
            "interval": self.cell.interval,
            "lam": self.cell.lam,
            "messages": self.cell.messages,
            "seed": self.cell.seed,
            "cell_seed": self.cell.cell_seed,
            "contention": self.cell.contention,
            "flits": self.cell.flits,
            "scenario": self.cell.scenario,
            "rate": self.cell.rate,
            "fault_rate": self.cell.fault_rate,
            "repair_after": self.cell.repair_after,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }


@dataclass(frozen=True)
class BatchResult:
    """Every cell result of one batch run, in cell order."""

    spec: ExperimentSpec
    results: Tuple[CellResult, ...]

    #: Execution telemetry of the batch run (shard timings, worker
    #: utilization, cache stats) — observational only: excluded from
    #: equality and from :meth:`to_dict`, so the canonical JSON stays
    #: byte-identical across engines, worker counts and cache states.
    telemetry: Optional[SweepTelemetry] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "results", tuple(sorted(self.results, key=lambda r: r.cell.index))
        )

    def __len__(self) -> int:
        return len(self.results)

    @classmethod
    def assemble(
        cls,
        spec: ExperimentSpec,
        results: Sequence[Optional[CellResult]],
        telemetry: Optional[SweepTelemetry] = None,
    ) -> "BatchResult":
        """Build a batch from sparse per-index results, validating coverage.

        The sharded/cached executor lands results out of order into an
        index-addressed list (cache hits first, then shard completions);
        assembling through here turns a scheduling bug — a cell that never
        landed — into a loud error instead of a ``None`` buried in a tuple.
        """
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise ValueError(
                f"batch incomplete: {len(missing)} of {len(results)} cells "
                f"never produced a result (first missing index {missing[0]})"
            )
        return cls(
            spec=spec,
            results=tuple(results),  # type: ignore[arg-type]
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """The canonical ``repro.result/v1`` payload."""
        return {
            "schema": RESULT_SCHEMA,
            "spec": self.spec.to_dict(),
            "cells": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        """Canonical JSON (:func:`canonical_json`): sorted keys, two-space
        indent, cells in grid order.

        Contains nothing run-dependent (no timestamps, no wall-clock), so
        serial and parallel runs of the same spec serialize byte-identically.
        """
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: object) -> "BatchResult":
        """Parse the canonical ``repro.result/v1`` payload back into a batch.

        The embedded spec goes through
        :meth:`~repro.experiments.spec.ExperimentSpec.from_dict` — the same
        parser every other door uses — and each cell entry is re-attached
        to the spec's own expansion at its grid index, with the stored
        ``cell_seed`` cross-checked so a payload whose cells do not belong
        to its spec is rejected rather than silently re-labeled.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"result payload must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema != RESULT_SCHEMA:
            raise ValueError(
                f"unsupported result schema {schema!r} "
                f"(this build speaks {RESULT_SCHEMA!r})"
            )
        spec = ExperimentSpec.from_dict(data.get("spec"))
        cells = spec.cells()
        entries = data.get("cells")
        if not isinstance(entries, list):
            raise ValueError("result field 'cells': expected a list")
        results = []
        for entry in entries:
            if not isinstance(entry, dict) or "index" not in entry:
                raise ValueError("result cell entries need an 'index' field")
            index = entry["index"]
            if not isinstance(index, int) or not 0 <= index < len(cells):
                raise ValueError(
                    f"result cell index {index!r} outside the spec's "
                    f"{len(cells)}-cell grid"
                )
            cell = cells[index]
            if entry.get("cell_seed") != cell.cell_seed:
                raise ValueError(
                    f"result cell {index} does not match the embedded spec "
                    "(cell_seed mismatch)"
                )
            metrics = entry.get("metrics")
            if not isinstance(metrics, dict):
                raise ValueError(f"result cell {index}: 'metrics' must be an object")
            results.append(CellResult(cell=cell, metrics=dict(metrics)))
        return cls(spec=spec, results=tuple(results))

    @classmethod
    def from_json(cls, text: str) -> "BatchResult":
        """Parse the JSON text :meth:`to_json` produced."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"result payload is not valid JSON: {exc}")
        return cls.from_dict(payload)

    def telemetry_dict(self) -> Optional[dict]:
        """The versioned telemetry payload, or ``None`` when none was
        collected.  Kept out of :meth:`to_dict` by design — telemetry is
        wall-clock-dependent and must never enter the canonical export."""
        if self.telemetry is None:
            return None
        return self.telemetry.to_dict()

    # ------------------------------------------------------------------ #
    # table helpers
    # ------------------------------------------------------------------ #
    def select(self, **attrs: object) -> List[CellResult]:
        """Cell results whose cell attributes match every given value."""
        out = []
        for result in self.results:
            if all(getattr(result.cell, k) == v for k, v in attrs.items()):
                out.append(result)
        return out

    def pivot(
        self, metric: str, *, rows: str, cols: str = "policy"
    ) -> Dict[object, Dict[object, float]]:
        """Pivot ``metric`` into a ``{row_value: {col_value: mean}}`` table.

        ``rows``/``cols`` name :class:`ExperimentCell` attributes (e.g.
        ``"faults"``, ``"lam"``, ``"shape"``, ``"policy"``).  Cells sharing a
        (row, col) coordinate — replicate seeds, say — are averaged.
        """
        sums: Dict[object, Dict[object, List[float]]] = {}
        for result in self.results:
            row = getattr(result.cell, rows)
            col = getattr(result.cell, cols)
            sums.setdefault(row, {}).setdefault(col, []).append(result.metrics[metric])
        return {
            row: {col: sum(vals) / len(vals) for col, vals in by_col.items()}
            for row, by_col in sums.items()
        }
