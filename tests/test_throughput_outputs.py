"""Replay pinned open-loop throughput rows.

``tests/fixtures/throughput_outputs.json`` holds the exact metric row
:func:`~repro.experiments.runner.run_cell` produced for every cell of a
small throughput grid.  The grid crosses every axis an open-loop run
reads:

* the ``uniform``, ``transpose`` and ``hotspot`` patterns, under both
  the ``bernoulli`` and the ``bursty`` injection process;
* static faults alone, and static faults plus a seeded MTBF workload with
  repairs (those rows carry ``fault_events`` and the SLO columns);
* the ``limited-global``, ``static-block`` and ``global-information``
  policies;
* a 2-D, a 3-D and a 4-D mesh (``transpose`` needs a cubic one, so the
  4-D mesh runs the other two patterns).

Rows must match on both backends.  Regenerate only for a deliberate
behaviour change::

    PYTHONPATH=src python tests/test_throughput_outputs.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.experiments import SPEC_SCHEMA, ExperimentSpec
from repro.experiments.runner import run_cell

FIXTURE = Path(__file__).parent / "fixtures" / "throughput_outputs.json"

POLICIES = ["limited-global", "static-block", "global-information"]
WINDOWS = {"warmup": 8, "measure": 32, "drain": 48}


def _spec(name: str, shape, scenarios, injection: str, fault_rates) -> Dict[str, Any]:
    return {
        "schema": SPEC_SCHEMA,
        "name": name,
        "mode": "throughput",
        "mesh_shapes": [shape],
        "policies": POLICIES,
        "scenarios": scenarios,
        "injection": injection,
        "fault_counts": [2],
        "rates": [0.04],
        "fault_rates": fault_rates,
        "repair_after": 12,
        "flits": [16],
        **WINDOWS,
    }


#: The grid, as ``repro.spec/v1`` payloads keyed by test id.
SPECS: Dict[str, Dict[str, Any]] = {
    "6x6-bernoulli": _spec(
        "pin-6x6", [6, 6], ["uniform", "transpose", "hotspot"], "bernoulli",
        [0.0, 0.08],
    ),
    "4x4x4-bursty": _spec(
        "pin-4x4x4", [4, 4, 4], ["uniform", "transpose", "hotspot"], "bursty",
        [0.0, 0.08],
    ),
    "4x4x3x3-bernoulli": _spec(
        "pin-4d-static", [4, 4, 3, 3], ["uniform", "hotspot"], "bernoulli", [0.0],
    ),
    "4x4x3x3-bursty": _spec(
        "pin-4d-mtbf", [4, 4, 3, 3], ["uniform", "hotspot"], "bursty", [0.08],
    ),
}


def _label(cell) -> str:
    shape = "x".join(map(str, cell.shape))
    return f"{shape} {cell.scenario} fault_rate={cell.fault_rate} {cell.policy}"


def spec_rows(key: str) -> List[List[Any]]:
    """``[label, metrics]`` for every cell of ``SPECS[key]``, in grid order."""
    spec = ExperimentSpec.from_dict(SPECS[key])
    return [[_label(cell), run_cell(cell).metrics] for cell in spec.cells()]


def _load() -> Dict[str, List[List[Any]]]:
    return json.loads(FIXTURE.read_text())["rows"]


@pytest.mark.parametrize("key", list(SPECS))
def test_throughput_rows_match_fixture(key):
    expected = _load()[key]
    got = spec_rows(key)
    assert [label for label, _ in got] == [label for label, _ in expected]
    moved = []
    for (label, metrics), (_, pinned) in zip(got, expected):
        keys = sorted(set(metrics) | set(pinned))
        diff = [
            f"{k}: {pinned.get(k)} -> {metrics.get(k)}"
            for k in keys
            if metrics.get(k) != pinned.get(k)
        ]
        if diff:
            moved.append(f"{label}: " + "; ".join(diff))
    assert not moved, f"{len(moved)} of {len(got)} cells moved:\n" + "\n".join(moved)


def test_fixture_covers_faults_and_slo():
    rows = [metrics for rows in _load().values() for _, metrics in rows]
    with_events = [m for m in rows if m.get("fault_events", 0) > 0]
    assert with_events and any("slo_dip_depth" in m for m in with_events)
    assert any("fault_events" not in m for m in rows)
    assert all(m["injected"] > 0 for m in rows)


def _write() -> None:
    body = ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(
            json.dumps(row, separators=(",", ":")) for row in spec_rows(key)
        ) + "\n]"
        for key in SPECS
    )
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(f'{{"rows": {{\n{body}\n}}}}\n')


if __name__ == "__main__":
    _write()
