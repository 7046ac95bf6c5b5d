"""Replay pinned closed-batch simulate rows.

``tests/fixtures/simulate_outputs.json`` holds the exact metric row
:func:`~repro.experiments.runner.run_cell` produced for every cell of a
small simulate grid.  The grid crosses every axis a closed-batch run
reads:

* the ``random``, ``hotspot``, ``transpose`` and ``bursty`` traffic
  families, each with two dynamic faults arriving mid-run;
* the circuit phase off and on;
* the ``limited-global``, ``static-block``, ``no-information`` and
  ``global-information`` policies;
* a 2-D and a 3-D mesh (both cubic, so ``transpose`` runs on each);
* seeds 0, 1 and 6 — seed 6 schedules the 4x4x4 mesh centre to fail
  under the hotspot family, the one configuration where the hotspot
  cannot be the centre.

Rows must match on both backends.  Regenerate only for a deliberate
behaviour change::

    PYTHONPATH=src python tests/test_simulate_outputs.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.experiments import SPEC_SCHEMA, ExperimentSpec
from repro.experiments.runner import run_cell

FIXTURE = Path(__file__).parent / "fixtures" / "simulate_outputs.json"

POLICIES = ["limited-global", "static-block", "no-information", "global-information"]


def _spec(shape, contention: bool) -> Dict[str, Any]:
    return {
        "schema": SPEC_SCHEMA,
        "name": "simulate-outputs",
        "mode": "simulate",
        "mesh_shapes": [shape],
        "policies": POLICIES,
        "scenarios": ["random", "hotspot", "transpose", "bursty"],
        "fault_counts": [2],
        "fault_intervals": [4],
        "lams": [2],
        "traffic_sizes": [12],
        "seeds": [0, 1, 6],
        "contention": contention,
    }


#: The grid, as ``repro.spec/v1`` payloads keyed by test id.
SPECS: Dict[str, Dict[str, Any]] = {
    "6x6-free": _spec([6, 6], False),
    "6x6-contended": _spec([6, 6], True),
    "4x4x4-free": _spec([4, 4, 4], False),
    "4x4x4-contended": _spec([4, 4, 4], True),
}


def _label(cell) -> str:
    shape = "x".join(map(str, cell.shape))
    return f"{shape} {cell.scenario} seed={cell.seed} {cell.policy}"


def spec_rows(key: str) -> List[List[Any]]:
    """``[label, metrics]`` for every cell of ``SPECS[key]``, in grid order."""
    spec = ExperimentSpec.from_dict(SPECS[key])
    return [[_label(cell), run_cell(cell).metrics] for cell in spec.cells()]


def _load() -> Dict[str, List[List[Any]]]:
    return json.loads(FIXTURE.read_text())["rows"]


@pytest.mark.parametrize("key", list(SPECS))
def test_simulate_rows_match_fixture(key):
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


def test_fixture_covers_contention_and_faults():
    rows = _load()
    for key in SPECS:
        assert all(m["messages"] > 0 for _, m in rows[key])
    contended = [m for _, m in rows["6x6-contended"] + rows["4x4x4-contended"]]
    assert any(m["blocked_hops"] > 0 for m in contended)
    assert any(m["circuits_reserved"] > 0 for m in contended)
    free = [m for _, m in rows["6x6-free"] + rows["4x4x4-free"]]
    assert all(m["circuits_reserved"] == 0 for m in free)
    assert all(m["fault_changes"] > 0 for m in free + contended)


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
