"""Replay pinned identification and boundary outputs.

``tests/fixtures/protocol_outputs.json`` holds seeded configurations on
small 2-, 3- and 4-D meshes (1-4 faults anywhere, mesh surface included)
with what the protocols produced for them.  Stored readably, per block:
every :class:`~repro.core.identification.IdentificationResult` field and
the number of informed frame nodes; per run: each boundary protocol's
round count and the final ``record_mutations``.  One digest covers the
bulky parts: the informed nodes and frames, every boundary deposit, every
node's block and boundary records in set iteration order, and, after each
protocol round, the mutation count and the nodes
:meth:`~repro.core.state.InformationState.changed_nodes` reports for it.

About a fifth of the cases turn a frame node faulty after the first
identification round, and a tenth turn a node faulty after the first
boundary round, so unstable identifications and walker merges are pinned
too.  A fifth start identification at a drawn frame node.  Half the cases
run the offline order (:func:`~repro.core.distribution.distribute_information`:
each block identified in turn, then one boundary protocol for all blocks),
half the simulator's lockstep order (every protocol advanced one round at
a time, a boundary protocol seeded per stable block).

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/test_protocol_outputs.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.core.block_construction import build_blocks, extract_blocks
from repro.core.boundary import BoundaryProtocol
from repro.core.identification import IdentificationProtocol
from repro.core.state import InformationState
from repro.mesh.topology import Mesh

FIXTURE = Path(__file__).parent / "fixtures" / "protocol_outputs.json"
SHAPES = ((6, 6), (8, 8), (5, 5, 5), (4, 4, 4), (4, 4, 3, 3))
CASES_PER_SHAPE = 220

#: A fixture row: the configuration, then what the protocols produced.
CONFIG = ("shape", "faults", "mode", "init", "ttl", "version", "perturb")
OUTPUT = ("identifications", "boundary_rounds", "record_mutations", "digest")
#: One entry of ``identifications`` (an error string when construction fails).
IDENTIFICATION = (
    "extent",
    "initialization_corner",
    "opposite_corner",
    "identification_rounds",
    "distribution_rounds",
    "stable",
    "version",
    "informed",
)


def _digest(obj: Any) -> str:
    blob = json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _region(region) -> Any:
    return None if region is None else [list(region.lo), list(region.hi)]


def _identification(protocol: IdentificationProtocol) -> List[Any]:
    result = protocol.result
    return [
        _region(result.extent),
        list(result.initialization_corner),
        list(result.opposite_corner),
        result.identification_rounds,
        result.distribution_rounds,
        result.stable,
        result.version,
        len(protocol.informed_nodes),
    ]


def _records(records) -> List[Any]:
    """Every node's records, each set in its iteration order."""
    return [[list(node), [repr(r) for r in held]] for node, held in sorted(records.items())]


def run_case(config: Dict[str, Any]) -> List[Any]:
    """Run one configuration; returns the values named by :data:`OUTPUT`."""
    mesh = Mesh(tuple(config["shape"]))
    labeling = build_blocks(mesh, [tuple(f) for f in config["faults"]]).state
    version = config["version"]
    info = InformationState(mesh=mesh, labeling=labeling, version=version)
    blocks = extract_blocks(labeling)
    perturb = config["perturb"]

    def perturb_now(kind: str) -> None:
        if perturb is not None and perturb[0] == kind:
            node = tuple(perturb[1])
            if not labeling.status(node).in_block:
                labeling.make_faulty(node)

    protocols = []
    for i, block in enumerate(blocks):
        kwargs: Dict[str, Any] = {"version": version, "ttl": config["ttl"]}
        if i == 0 and config["init"] is not None:
            kwargs["initialization_corner"] = tuple(config["init"])
        try:
            protocols.append(IdentificationProtocol(info, block, **kwargs))
        except ValueError as exc:
            return [str(exc), [], info.record_mutations, ""]

    # Which nodes' records changed in each protocol round, and the mutation
    # count after it: what a decision-table refresh between rounds sees.
    trail: List[Any] = []

    def advance(protocol) -> bool:
        active = protocol.round()
        changed = info.changed_nodes(trail[-1][0] if trail else 0)
        trail.append([info.record_mutations, changed.tolist()])
        return active

    boundaries: List[BoundaryProtocol] = []
    if config["mode"] == "distribute":
        for i, protocol in enumerate(protocols):
            active = advance(protocol)
            if i == 0:
                perturb_now("frame")
            while active:
                active = advance(protocol)
        boundary = BoundaryProtocol.for_blocks(info, blocks, version=version)
        boundaries.append(boundary)
        # BoundaryProtocol.run's round limit.
        for r in range(4 * (mesh.diameter + 1)):
            if not advance(boundary):
                break
            if r == 0:
                perturb_now("walker")
    else:
        running = list(protocols)
        lockstep = 0
        walker_pending = True
        while running or any(not b.done for b in boundaries):
            lockstep += 1
            still = []
            for protocol in running:
                advance(protocol)
                if not protocol.done:
                    still.append(protocol)
                elif protocol.result.stable:
                    boundary = BoundaryProtocol(info)
                    boundary.seed_block(protocol.block, version=protocol.result.version)
                    boundaries.append(boundary)
            running = still
            had_boundary = bool(boundaries)
            for boundary in boundaries:
                advance(boundary)
            if lockstep == 1:
                perturb_now("frame")
            if walker_pending and had_boundary:
                walker_pending = False
                perturb_now("walker")
            assert lockstep < 1000, "lockstep run did not terminate"

    bulky = [
        [[sorted(p.informed_nodes), sorted(p.frame)] for p in protocols],
        [
            sorted((node, sorted(map(repr, infos))) for node, infos in b.informed.items())
            for b in boundaries
        ],
        _records(info.node_blocks),
        _records(info.node_boundaries),
        trail,
    ]
    return [
        [_identification(p) for p in protocols],
        [b.rounds for b in boundaries],
        info.record_mutations,
        _digest(bulky),
    ]


def make_config(index: int, shape) -> List[Any]:
    """Draw configuration ``index`` on ``shape`` (deterministic)."""
    rng = random.Random(f"protocol-outputs/{index}")
    mesh = Mesh(tuple(shape))
    faults = [mesh.coord_of(i) for i in rng.sample(range(mesh.size), rng.randint(1, 4))]
    labeling = build_blocks(mesh, faults).state
    frame = sorted(extract_blocks(labeling)[0].frame_nodes(mesh))
    init = None
    if frame and rng.random() < 0.2:
        init = list(frame[rng.randrange(len(frame))])
    perturb = None
    draw = rng.random()
    if draw < 0.3:
        pool = frame if draw < 0.2 else list(mesh.nodes())
        targets = [n for n in pool if not labeling.status(n).in_block]
        if targets:
            kind = "frame" if draw < 0.2 else "walker"
            perturb = [kind, list(targets[rng.randrange(len(targets))])]
    return [
        list(shape),
        [list(f) for f in faults],
        rng.choice(("distribute", "engine")),
        init,
        rng.randint(1, 8) if rng.random() < 0.05 else None,
        rng.randint(0, 3),
        perturb,
    ]


def _load() -> List[List[Any]]:
    return json.loads(FIXTURE.read_text())["cases"]


def _differences(expected: List[Any], got: List[Any]) -> List[str]:
    """Readable field-by-field differences between two output rows."""
    out = []
    exp, act = dict(zip(OUTPUT, expected)), dict(zip(OUTPUT, got))
    e_ids, a_ids = exp.pop("identifications"), act.pop("identifications")
    if isinstance(e_ids, str) or isinstance(a_ids, str) or len(e_ids) != len(a_ids):
        out.append(f"identifications: {e_ids} -> {a_ids}")
    else:
        for b, (e_row, a_row) in enumerate(zip(e_ids, a_ids)):
            for name, e, a in zip(IDENTIFICATION, e_row, a_row):
                if e != a:
                    out.append(f"block {b} {name}: {e} -> {a}")
    out.extend(f"{name}: {exp[name]} -> {act[name]}" for name in exp if exp[name] != act[name])
    return out


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_protocol_outputs_match_fixture(shape):
    rows = [(i, row) for i, row in enumerate(_load()) if tuple(row[0]) == shape]
    assert len(rows) == CASES_PER_SHAPE
    moved = []
    for i, row in rows:
        config = dict(zip(CONFIG, row))
        got = run_case(config)
        expected = row[len(CONFIG):]
        if got != expected:
            moved.append(f"case {i} (faults {config['faults']}): " + "; ".join(
                _differences(expected, got)
            ))
    assert not moved, f"{len(moved)} of {len(rows)} cases moved:\n" + "\n".join(moved[:5])


def test_fixture_covers_perturbations_surface_faults_and_instability():
    rows = _load()
    configs = [dict(zip(CONFIG, row)) for row in rows]
    kinds = [c["perturb"][0] for c in configs if c["perturb"] is not None]
    assert kinds.count("frame") >= len(rows) // 6
    assert kinds.count("walker") >= len(rows) // 15
    assert sum(c["init"] is not None for c in configs) >= len(rows) // 6
    assert any(
        c == 0 or c == s - 1 for cfg in configs for f in cfg["faults"]
        for c, s in zip(f, cfg["shape"])
    )
    results = [r for row in rows if not isinstance(row[7], str) for r in row[7]]
    assert sum(not r[IDENTIFICATION.index("stable")] for r in results) >= len(rows) // 10


def _write() -> None:
    rows = []
    for shape in SHAPES:
        for _ in range(CASES_PER_SHAPE):
            config = make_config(len(rows), shape)
            rows.append(config + run_case(dict(zip(CONFIG, config))))
    body = ",\n".join(json.dumps(row, separators=(",", ":")) for row in rows)
    header = json.dumps({"config": CONFIG, "output": OUTPUT, "identification": IDENTIFICATION})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(f'{{"columns": {header},\n"cases": [\n{body}\n]}}\n')


if __name__ == "__main__":
    _write()
