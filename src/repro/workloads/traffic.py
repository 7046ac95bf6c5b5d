"""Source/destination traffic generators.

The companion evaluations route batches of messages between random or
structured node pairs while faults occur; these helpers generate the pairs
and convert them into :class:`~repro.simulator.traffic.TrafficMessage`
lists.  All random generation takes a :class:`numpy.random.Generator` for
reproducibility.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mesh.topology import Mesh
from repro.simulator.traffic import TrafficMessage

Coord = Tuple[int, ...]
Pair = Tuple[Coord, Coord]


def random_pairs(
    mesh: Mesh,
    count: int,
    rng: np.random.Generator,
    *,
    min_distance: int = 1,
    exclude: Optional[Iterable[Sequence[int]]] = None,
) -> List[Pair]:
    """``count`` random source/destination pairs at least ``min_distance`` apart.

    Nodes in ``exclude`` (e.g. nodes that the fault schedule will make
    faulty) are never used as endpoints.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if min_distance < 1:
        raise ValueError("min_distance must be at least 1")
    excluded: Set[Coord] = {tuple(e) for e in (exclude or [])}
    candidates = [node for node in mesh.nodes() if node not in excluded]
    if len(candidates) < 2:
        raise ValueError("not enough non-excluded nodes to build pairs")
    pairs: List[Pair] = []
    attempts = 0
    max_attempts = 200 * max(count, 1)
    while len(pairs) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not generate {count} pairs with min_distance={min_distance}"
            )
        i, j = rng.integers(0, len(candidates), size=2)
        source, destination = candidates[int(i)], candidates[int(j)]
        if mesh.distance(source, destination) < min_distance:
            continue
        pairs.append((source, destination))
    return pairs


def transpose_pairs(mesh: Mesh, *, limit: Optional[int] = None) -> List[Pair]:
    """Transpose traffic: node ``(u_1, ..., u_n)`` sends to ``(u_n, ..., u_1)``.

    Only meaningful for uniform (cubic) meshes; nodes on the main diagonal
    (which would send to themselves) are skipped.
    """
    if len(set(mesh.shape)) != 1:
        raise ValueError("transpose traffic requires a uniform (cubic) mesh")
    pairs: List[Pair] = []
    for node in mesh.nodes():
        destination = tuple(reversed(node))
        if destination == node:
            continue
        pairs.append((node, destination))
        if limit is not None and len(pairs) >= limit:
            break
    return pairs


def to_traffic(
    pairs: Sequence[Pair],
    *,
    start_time: int = 0,
    spacing: int = 0,
    tag: Optional[str] = None,
    flits: int = 64,
) -> List[TrafficMessage]:
    """Convert pairs into simulator traffic.

    ``spacing`` injects successive messages that many steps apart (0 injects
    them all at ``start_time``); ``flits`` sets every message's data-phase
    length (circuit hold time under contention).
    """
    messages: List[TrafficMessage] = []
    time = start_time
    for source, destination in pairs:
        messages.append(
            TrafficMessage(
                source=source,
                destination=destination,
                start_time=time,
                tag=tag,
                flits=flits,
            )
        )
        time += spacing
    return messages
