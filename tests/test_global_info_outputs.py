"""Replay pinned global-information routes.

``tests/fixtures/global_info_outputs.json`` pins what the
``global-information`` router produced on the coordinate-tuple BFS it
started from:

* the offline route of every pair of ``test_offline_batch``'s
  configurations, with ``avoid_blocks`` true and false: the outcome, the
  four hop counters and the path, nodes as row-major indices;
* a few contended simulate cells: the statistics summary and one digest
  of every message's record, so that the replans around reserved links
  (``link_blocked``) and the fenced-in timeouts are pinned too.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_global_info_outputs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, List

import pytest

from repro.core.block_construction import build_blocks
from repro.experiments import ExperimentSpec
from repro.experiments.runner import build_simulator
from repro.mesh.topology import Mesh
from repro.routing import GlobalInfoRouter, resolve_router
from test_offline_batch import SHAPES, configs

FIXTURE = Path(__file__).parent / "fixtures" / "global_info_outputs.json"

#: One pinned route: outcome, the four hop counters, the path's node indices.
ROUTE = ("outcome", "forward", "backtrack", "blocked", "retries", "path")
#: Contended simulate cells: shape, traffic scenario, seed, fault count.
CELLS = (
    ((6, 6), "transpose", 0, 2),
    ((6, 6), "hotspot", 1, 3),
    ((8, 8), "transpose", 2, 2),
    ((8, 8), "bursty", 3, 1),
    ((8, 8), "random", 4, 3),
    ((5, 5, 5), "transpose", 5, 2),
    ((5, 5, 5), "hotspot", 6, 2),
)


def _digest(obj: Any) -> str:
    blob = json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _router(avoid_blocks: bool):
    if avoid_blocks:
        return resolve_router("global-information")
    return GlobalInfoRouter(avoid_blocks=False)


def route_rows(shape) -> List[Any]:
    """``[config index, avoid_blocks, routes]`` for every configuration."""
    rows = []
    for index, config in enumerate(configs(shape)):
        mesh = Mesh(config["shape"])
        labeling = build_blocks(mesh, config["faults"]).state
        for avoid_blocks in (True, False):
            router = _router(avoid_blocks)
            routes = []
            for s, d in config["pairs"]:
                r = router.route(mesh, labeling, s, d)
                routes.append([
                    r.outcome.value, r.forward_hops, r.backtrack_hops,
                    r.blocked_hops, r.setup_retries,
                    [mesh.index_of(node) for node in r.path],
                ])
            rows.append([index, avoid_blocks, routes])
    return rows


def _spec_cell(shape, scenario, seed, faults):
    spec = ExperimentSpec(
        name="global-info-outputs",
        mode="simulate",
        mesh_shapes=(shape,),
        policies=("global-information",),
        scenarios=(scenario,),
        fault_counts=(faults,),
        fault_intervals=(4,),
        lams=(2,),
        traffic_sizes=(16,),
        seeds=(seed,),
        contention=True,
        flits=(32,),
    )
    (cell,) = spec.cells()
    return cell


def cell_row(shape, scenario, seed, faults) -> List[Any]:
    """``[summary, message digest]`` of one contended simulate cell."""
    stats = build_simulator(_spec_cell(shape, scenario, seed, faults)).run().stats
    messages = [
        [
            list(m.message.source), list(m.message.destination), m.message.start_time,
            m.result.outcome.value, [list(node) for node in m.result.path],
            m.result.forward_hops, m.result.backtrack_hops, m.result.blocked_hops,
            m.result.setup_retries, m.finish_step,
        ]
        for m in stats.messages
    ]
    return [stats.summary(), _digest(messages)]


def _load():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_offline_routes_match_fixture(shape):
    key = "x".join(map(str, shape))
    expected = _load()["routes"][key]
    got = route_rows(shape)
    assert len(got) == len(expected)
    moved = [
        f"config {e[0]} avoid_blocks={e[1]} pair {k}: {dict(zip(ROUTE, er))} -> "
        f"{dict(zip(ROUTE, gr))}"
        for e, g in zip(expected, got)
        for k, (er, gr) in enumerate(zip(e[2], g[2]))
        if er != gr
    ]
    assert not moved, f"{len(moved)} routes moved:\n" + "\n".join(moved[:5])


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{'x'.join(map(str, c[0]))}-{c[1]}")
def test_contended_cells_match_fixture(cell):
    expected = _load()["cells"][CELLS.index(cell)]
    assert cell_row(*cell) == expected


def test_fixture_covers_unreachable_routes_and_contention():
    data = _load()
    outcomes = [
        r[0] for rows in data["routes"].values() for row in rows for r in row[2]
    ]
    assert outcomes.count("unreachable") >= len(outcomes) // 20
    assert outcomes.count("delivered") >= len(outcomes) // 2
    summaries = [summary for summary, _ in data["cells"]]
    assert sum(s["blocked_hops"] > 0 for s in summaries) >= len(CELLS) // 2
    assert sum(s["setup_retries"] > 0 for s in summaries) >= 2
    assert any(s["timeout_releases"] > 0 for s in summaries)


def _write() -> None:
    routes = {"x".join(map(str, shape)): route_rows(shape) for shape in SHAPES}
    cells = [cell_row(*cell) for cell in CELLS]
    header = json.dumps({"route": ROUTE, "cells": CELLS})
    body = ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(
            json.dumps(row, separators=(",", ":")) for row in rows
        ) + "\n]"
        for key, rows in routes.items()
    )
    cell_body = ",\n".join(json.dumps(row, separators=(",", ":")) for row in cells)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        f'{{"columns": {header},\n"routes": {{\n{body}\n}},\n"cells": [\n{cell_body}\n]}}\n'
    )


if __name__ == "__main__":
    _write()
