"""Coordinate arithmetic for n-D mesh addresses.

Node addresses are plain tuples of ``n`` non-negative integers
``(u_1, ..., u_n)``.  All helpers here are topology-agnostic; bounds checking
against a particular mesh lives in :class:`repro.mesh.topology.Mesh`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Coord = Tuple[int, ...]
Link = Tuple[Coord, Coord]


def canonical_link(u: Sequence[int], v: Sequence[int]) -> Link:
    """Order-independent identifier of the link between ``u`` and ``v``.

    The same helper backs link-fault bookkeeping, circuit reservations and
    the simulator's live reservation table, so a link is named identically
    everywhere regardless of traversal direction.
    """
    a, b = tuple(u), tuple(v)
    return (a, b) if a <= b else (b, a)


def manhattan(u: Sequence[int], v: Sequence[int]) -> int:
    """Manhattan (mesh) distance ``D(u, v) = sum_i |u_i - v_i|``.

    This is the paper's ``D(u, v)`` and equals the length of every minimal
    path between ``u`` and ``v`` in a fault-free mesh.
    """
    if len(u) != len(v):
        raise ValueError(f"coordinate ranks differ: {len(u)} vs {len(v)}")
    return sum(abs(a - b) for a, b in zip(u, v))


def is_adjacent(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff ``u`` and ``v`` are mesh neighbors (distance exactly 1)."""
    if len(u) != len(v):
        return False
    return manhattan(u, v) == 1


def offsets_toward(u: Sequence[int], d: Sequence[int]) -> Tuple[int, ...]:
    """Per-dimension unit offsets pointing from ``u`` towards ``d``.

    Entry ``i`` is ``+1``/``-1`` when moving along dimension ``i`` reduces the
    distance to ``d`` and ``0`` when ``u_i == d_i``.  The non-zero entries
    are exactly the *preferred directions* of the paper's terminology
    (:meth:`repro.mesh.topology.Mesh.preferred_directions`).
    """
    if len(u) != len(d):
        raise ValueError(f"coordinate ranks differ: {len(u)} vs {len(d)}")
    out = []
    for a, b in zip(u, d):
        if b > a:
            out.append(+1)
        elif b < a:
            out.append(-1)
        else:
            out.append(0)
    return tuple(out)

