"""Direction algebra for k-ary n-dimensional meshes.

A node of an n-D mesh has at most ``2n`` neighbors, one per *direction*.
A direction is a pair ``(dim, sign)`` with ``0 <= dim < n`` and
``sign in {-1, +1}``.  The paper numbers the 2n *adjacent surfaces* of a
faulty block as ``S0 .. S_{2n-1}``; in 3-D, ``S0/S1/S2`` are the west/south/
back surfaces (negative X/Y/Z sides) and ``S3/S4/S5`` the east/north/front
surfaces (positive sides), with ``S_i`` opposite to ``S_{(i+n) mod 2n}``
(the paper's ``(i+3) mod 6`` for n=3).  The same convention is used here for
every n: surface index ``i < n`` is the negative side of dimension ``i``,
surface index ``i >= n`` is the positive side of dimension ``i - n``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

Coord = Tuple[int, ...]


class Direction(NamedTuple):
    """A single mesh direction: move by ``sign`` along dimension ``dim``."""

    dim: int
    sign: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{'+' if self.sign > 0 else '-'}d{self.dim}"

    @property
    def offset(self) -> int:
        """Alias for :attr:`sign`; the per-hop coordinate delta."""
        return self.sign

    def apply(self, coord: Sequence[int]) -> Coord:
        """Return the coordinate one hop away from ``coord`` in this direction."""
        moved = list(coord)
        moved[self.dim] += self.sign
        return tuple(moved)

    def reversed(self) -> "Direction":
        """The opposite direction (same dimension, negated sign)."""
        return Direction(self.dim, -self.sign)


def all_directions(n_dims: int) -> Tuple[Direction, ...]:
    """All ``2n`` directions of an n-D mesh, in surface-index order.

    The returned tuple is indexed consistently with the paper's surface
    numbering: position ``i`` corresponds to surface ``S_i``
    (``i < n`` → negative side of dimension ``i``; ``i >= n`` → positive side
    of dimension ``i - n``).
    """
    if n_dims < 1:
        raise ValueError(f"n_dims must be >= 1, got {n_dims}")
    negatives = tuple(Direction(dim, -1) for dim in range(n_dims))
    positives = tuple(Direction(dim, +1) for dim in range(n_dims))
    return negatives + positives


def opposite(direction: Direction) -> Direction:
    """Opposite of ``direction`` (same dimension, negated sign)."""
    return direction.reversed()


def surface_index(direction: Direction, n_dims: int) -> int:
    """Map a direction to the paper's surface index ``S_i``.

    The surface on the *negative* side of dimension ``dim`` (i.e. the surface
    a message moving in direction ``(dim, -1)`` is heading towards) has index
    ``dim``; the surface on the positive side has index ``dim + n``.
    """
    if not 0 <= direction.dim < n_dims:
        raise ValueError(f"direction {direction} out of range for {n_dims}-D mesh")
    if direction.sign not in (-1, +1):
        raise ValueError(f"direction sign must be ±1, got {direction.sign}")
    return direction.dim if direction.sign < 0 else direction.dim + n_dims


def direction_from_surface(index: int, n_dims: int) -> Direction:
    """Inverse of :func:`surface_index`.

    Surface ``S_i`` lies one unit away from the block in the returned
    direction; equivalently, the returned direction points from the block
    centre towards surface ``S_i``.
    """
    if not 0 <= index < 2 * n_dims:
        raise ValueError(f"surface index {index} out of range for {n_dims}-D mesh")
    if index < n_dims:
        return Direction(index, -1)
    return Direction(index - n_dims, +1)


def opposite_surface(index: int, n_dims: int) -> int:
    """Index of the surface opposite ``S_index``: ``(index + n) mod 2n``."""
    if not 0 <= index < 2 * n_dims:
        raise ValueError(f"surface index {index} out of range for {n_dims}-D mesh")
    return (index + n_dims) % (2 * n_dims)


def direction_between(u: Sequence[int], v: Sequence[int]) -> Direction:
    """The direction of the single hop from ``u`` to its neighbor ``v``.

    Raises :class:`ValueError` if ``u`` and ``v`` are not mesh neighbors
    (they must differ by exactly one in exactly one dimension).
    """
    if len(u) != len(v):
        raise ValueError(f"coordinate ranks differ: {len(u)} vs {len(v)}")
    found: Direction | None = None
    for dim, (a, b) in enumerate(zip(u, v)):
        if a == b:
            continue
        if abs(a - b) != 1 or found is not None:
            raise ValueError(f"{tuple(u)} and {tuple(v)} are not mesh neighbors")
        found = Direction(dim, +1 if b > a else -1)
    if found is None:
        raise ValueError(f"{tuple(u)} and {tuple(v)} are the same node")
    return found
