"""Source/destination traffic generators.

The companion evaluations route batches of messages between random or
structured node pairs while faults occur; these helpers generate the pairs
(uniform random, hotspot, transpose) and convert them into
:class:`~repro.simulator.traffic.TrafficMessage` lists.  All random
generation takes a :class:`numpy.random.Generator` for reproducibility.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mesh.topology import Mesh
from repro.simulator.traffic import TrafficMessage

Coord = Tuple[int, ...]
Pair = Tuple[Coord, Coord]

#: Share of hotspot traffic (closed-batch and open-loop) that targets the
#: hotspot node.
HOTSPOT_FRACTION = 0.5


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


def hotspot_node(mesh: Mesh, exclude: Iterable[Sequence[int]] = ()) -> Coord:
    """The node hotspot traffic targets: the mesh centre unless excluded,
    else the non-excluded node nearest to it (ties broken by coordinate)."""
    centre = tuple(s // 2 for s in mesh.shape)
    excluded = {tuple(e) for e in exclude}
    if centre not in excluded:
        return centre
    return min(
        (node for node in mesh.nodes() if node not in excluded),
        key=lambda node: (mesh.distance(node, centre), node),
    )


def hotspot_pairs(
    mesh: Mesh,
    count: int,
    rng: np.random.Generator,
    *,
    min_distance: int = 1,
    exclude: Optional[Iterable[Sequence[int]]] = None,
) -> List[Pair]:
    """``count`` pairs of which :data:`HOTSPOT_FRACTION` target the hotspot.

    The hotspot is :func:`hotspot_node` and no endpoint is excluded.
    Hotspot messages use random far-enough sources; the remainder is
    uniform random traffic, so the contention concentrates on the links
    around the hotspot.
    """
    excluded = {tuple(e) for e in (exclude or [])}
    hot = hotspot_node(mesh, excluded)
    hot_count = round(count * HOTSPOT_FRACTION)
    candidates = [
        node
        for node in mesh.nodes()
        if node not in excluded
        and node != hot
        and mesh.distance(node, hot) >= min_distance
    ]
    if hot_count and not candidates:
        raise ValueError(
            f"no usable hotspot sources at distance >= {min_distance} from {hot}"
        )
    pairs: List[Pair] = [
        (candidates[int(i)], hot)
        for i in rng.integers(0, len(candidates), size=hot_count)
    ]
    pairs += random_pairs(
        mesh, count - len(pairs), rng, min_distance=min_distance, exclude=excluded
    )
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
                flits=flits,
            )
        )
        time += spacing
    return messages
