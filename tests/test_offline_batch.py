"""Differential test: offline batches on the probe table equal the oracle.

:meth:`~repro.routing.Router.route_batch` routes the pairs of a router the
probe table hosts (:func:`~repro.core.probe_table.table_eligible`) as rows
of one contention-free :class:`~repro.core.probe_table.ProbeTable` cell.
Its oracle is :meth:`~repro.routing.Router.route` per pair, the scalar
:class:`~repro.core.routing.RoutingProbe` loop.  Every registered policy
is held to whole-:class:`~repro.core.routing.RouteResult` equality, in pair
order, over seeded configurations on 2-, 3- and 4-D meshes with 0-8 faults
anywhere (mesh surface included).  Pairs come from every node, block nodes
and ``src == dst`` included, under a ``max_steps`` of ``None``, 0, 1 or a
cap that cuts some walks short.  Under ``REPRO_BACKEND=scalar`` the gate
routes every batch on the oracle and the test still holds.

``tests/test_global_info_outputs.py`` pins the global-information routes
of the same configurations.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.block_construction import build_blocks, extract_blocks
from repro.core.probe_table import ProbeTable, table_eligible
from repro.core.routing import RouteOutcome
from repro.mesh.topology import Mesh
from repro.routing import available_routers, resolve_router

SHAPES = ((6, 6), (8, 8), (5, 5, 5), (4, 4, 3, 3))
CONFIGS_PER_SHAPE = 50
PAIRS_PER_CONFIG = 10
#: Cycled over the configurations; ``"cap"`` draws a cap of 2 to the mesh
#: diameter steps, short enough to cut some walks.  One configuration in
#: four is uncapped: a pair that cannot be delivered searches the whole
#: mesh, and the table still steps such a lone row several times slower
#: than the oracle does, so the uncapped ones dominate the run time.
#: Caps of 0 and 1 are the rarest (``route_batch`` routes a cap of 0 on
#: the oracle, so it never reaches the table).
MAX_STEPS = (None, "cap", 0, "cap", None, "cap", 1, "cap", None, 0, "cap", 1)

Coord = Tuple[int, ...]


def make_config(index: int, shape) -> Dict[str, Any]:
    """Draw configuration ``index`` on ``shape`` (deterministic)."""
    rng = random.Random(f"offline-batch/{index}")
    mesh = Mesh(tuple(shape))
    while True:
        faults = [mesh.coord_of(i) for i in rng.sample(range(mesh.size), rng.randint(0, 8))]
        labeling = build_blocks(mesh, faults).state
        # A block filling the whole mesh has no frame to hold information.
        if all(b.extent != mesh.extent for b in extract_blocks(labeling)):
            break
    blocked = sorted(labeling.block_nodes)

    def node() -> Coord:
        return mesh.coord_of(rng.randrange(mesh.size))

    pairs = [(node(), node()) for _ in range(PAIRS_PER_CONFIG - 2)]
    same = node()
    pairs.append((same, same))
    if blocked:
        inside = blocked[rng.randrange(len(blocked))]
        pairs.append((inside, node()) if rng.random() < 0.5 else (node(), inside))
    else:
        pairs.append((node(), node()))
    rng.shuffle(pairs)
    kind = MAX_STEPS[index % len(MAX_STEPS)]
    return {
        "shape": tuple(shape),
        "faults": faults,
        "pairs": pairs,
        "max_steps": rng.randint(2, mesh.diameter) if kind == "cap" else kind,
    }


def configs(shape) -> List[Dict[str, Any]]:
    """Every configuration drawn on ``shape``."""
    base = SHAPES.index(tuple(shape)) * CONFIGS_PER_SHAPE
    return [make_config(base + i, shape) for i in range(CONFIGS_PER_SHAPE)]


def _setting(config):
    mesh = Mesh(config["shape"])
    return mesh, build_blocks(mesh, config["faults"]).state


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_route_batch_equals_per_message_route(shape):
    moved = []
    for index, config in enumerate(configs(shape)):
        mesh, labeling = _setting(config)
        pairs, max_steps = config["pairs"], config["max_steps"]
        for name in available_routers():
            # One router for both sides: the batch reuses the offline view
            # the oracle derived (the gate test below starts from scratch).
            router = resolve_router(name)
            expected = [
                router.route(mesh, labeling, s, d, max_steps=max_steps) for s, d in pairs
            ]
            batch = router.route_batch(mesh, labeling, pairs, max_steps=max_steps)
            assert len(batch) == len(expected)
            for k, (got, want) in enumerate(zip(batch, expected)):
                if got != want:
                    moved.append(
                        f"config {index} {name} pair {k} (max_steps {max_steps}):"
                        f"\n  table  {got}\n  oracle {want}"
                    )
    assert not moved, f"{len(moved)} routes differ:\n" + "\n".join(moved[:5])


@pytest.mark.parametrize("name", available_routers())
def test_gate_picks_the_table_for_eligible_routers(name, monkeypatch):
    steps = []
    run_step = ProbeTable.run_step

    def counting(self, *args, **kwargs):
        steps.append(args[0])
        return run_step(self, *args, **kwargs)

    monkeypatch.setattr(ProbeTable, "run_step", counting)
    config = make_config(3, (8, 8))
    mesh, labeling = _setting(config)
    router = resolve_router(name)
    batch = router.route_batch(mesh, labeling, config["pairs"])
    assert bool(steps) == table_eligible(router, mesh.n_dims)
    oracle = resolve_router(name)
    assert batch == [oracle.route(mesh, labeling, s, d) for s, d in config["pairs"]]
    # max_steps=0 runs no step at all, so no table is stepped either.
    steps.clear()
    batch = router.route_batch(mesh, labeling, config["pairs"], max_steps=0)
    assert not steps
    assert batch == [
        oracle.route(mesh, labeling, s, d, max_steps=0) for s, d in config["pairs"]
    ]
    assert router.route_batch(mesh, labeling, []) == []


def test_configurations_cover_the_edge_cases():
    every = [c for shape in SHAPES for c in configs(shape)]
    assert len(every) >= 200
    assert {len(c["faults"]) for c in every} >= {0, 8}
    assert {c["max_steps"] for c in every} >= {None, 0, 1}
    assert sum(any(s == d for s, d in c["pairs"]) for c in every) == len(every)
    block_endpoints = 0
    capped = []
    for config in every:
        mesh, labeling = _setting(config)
        block_endpoints += any(
            s in labeling.block_nodes or d in labeling.block_nodes
            for s, d in config["pairs"]
        )
        if config["max_steps"] not in (None, 0, 1):
            router = resolve_router("limited-global")
            capped += [
                router.route(mesh, labeling, s, d, max_steps=config["max_steps"]).outcome
                for s, d in config["pairs"]
            ]
    assert block_endpoints >= len(every) // 2
    # The caps cut some walks short and let others finish.
    assert capped.count(RouteOutcome.EXHAUSTED) >= len(capped) // 10
    assert capped.count(RouteOutcome.DELIVERED) >= len(capped) // 4
