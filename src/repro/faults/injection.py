"""Fault injection generators.

All generators honour the paper's standing assumption that *no fault occurs
on the outmost surface of the mesh* (which, combined with the block fault
model, guarantees the enabled portion of the mesh stays connected).  They
take a :class:`numpy.random.Generator` so experiments are reproducible from
a seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mesh.regions import Region
from repro.mesh.topology import Mesh
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind

Coord = Tuple[int, ...]


class FaultInjectionError(RuntimeError):
    """Raised when a generator cannot satisfy its constraints."""


def _interior_candidates(
    mesh: Mesh, margin: int, exclude: Set[Coord]
) -> List[Coord]:
    region = mesh.interior_region(margin)
    return [p for p in region.iter_points() if p not in exclude]


def uniform_random_faults(
    mesh: Mesh,
    count: int,
    rng: np.random.Generator,
    *,
    margin: int = 1,
    exclude: Optional[Sequence[Sequence[int]]] = None,
) -> List[Coord]:
    """``count`` distinct faulty nodes drawn uniformly from the mesh interior.

    Parameters
    ----------
    margin:
        Minimum distance from the outmost surface (the paper assumes faults
        never occur on the surface itself, i.e. ``margin >= 1``).
    exclude:
        Nodes that must stay non-faulty (e.g. sources/destinations of the
        traffic workload).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    excluded = {tuple(e) for e in (exclude or [])}
    candidates = _interior_candidates(mesh, margin, excluded)
    if count > len(candidates):
        raise FaultInjectionError(
            f"cannot place {count} faults in mesh {mesh.shape} "
            f"(only {len(candidates)} interior candidates)"
        )
    picks = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[int(i)] for i in picks]


def clustered_faults(
    mesh: Mesh,
    count: int,
    rng: np.random.Generator,
    *,
    spread: int = 2,
    margin: int = 1,
    seed_node: Optional[Sequence[int]] = None,
    exclude: Optional[Sequence[Sequence[int]]] = None,
) -> List[Coord]:
    """``count`` faults clustered within ``spread`` hops of a seed node.

    Clustered faults are the interesting case for the faulty-block model:
    they coalesce into a single block whose extent grows with ``spread``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    excluded = {tuple(e) for e in (exclude or [])}
    interior = mesh.interior_region(margin)
    if seed_node is None:
        candidates = _interior_candidates(mesh, margin, excluded)
        if not candidates:
            raise FaultInjectionError("mesh interior is empty")
        seed_node = candidates[int(rng.integers(len(candidates)))]
    seed = mesh.validate(seed_node)
    cluster_region = Region.single(seed).expand(spread).intersection(interior)
    if cluster_region is None:
        raise FaultInjectionError("cluster region falls outside the mesh interior")
    candidates = [p for p in cluster_region.iter_points() if p not in excluded]
    if count > len(candidates):
        raise FaultInjectionError(
            f"cannot place {count} clustered faults with spread {spread} "
            f"around {seed} (only {len(candidates)} candidates)"
        )
    picks = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[int(i)] for i in picks]


def dynamic_schedule(
    faults: Sequence[Sequence[int]],
    *,
    start_time: int = 0,
    interval: int | Sequence[int] = 8,
    initial: Optional[Sequence[Sequence[int]]] = None,
) -> DynamicFaultSchedule:
    """Build a schedule where ``faults`` occur one per interval.

    Parameters
    ----------
    faults:
        Nodes that become faulty dynamically, in occurrence order
        (``f_1 .. f_F``).
    interval:
        Either a constant interval ``d`` (every ``d_i = d``) or a sequence of
        ``F - 1`` (or ``F``) per-occurrence intervals.
    initial:
        Nodes already faulty before step 0 (the ``p`` pre-existing faults of
        a routing started at ``t = 0``).
    """
    fault_nodes = [tuple(f) for f in faults]
    if isinstance(interval, int):
        intervals = [interval] * len(fault_nodes)
    else:
        intervals = list(interval)
        if len(intervals) < len(fault_nodes) - 1:
            raise ValueError(
                "need at least F-1 intervals for F dynamic faults, "
                f"got {len(intervals)} for {len(fault_nodes)}"
            )
        while len(intervals) < len(fault_nodes):
            intervals.append(intervals[-1] if intervals else 0)
    if any(d < 0 for d in intervals):
        raise ValueError("intervals must be non-negative")

    events: List[FaultEvent] = []
    time = start_time
    for i, node in enumerate(fault_nodes):
        events.append(FaultEvent(time, node, FaultEventKind.FAULT))
        if i < len(fault_nodes) - 1:
            time += intervals[i]
    return DynamicFaultSchedule(
        events=events,
        initial_faults={tuple(f) for f in (initial or [])},
    )
