"""Inclusive hyper-rectangles ("regions") in n-D meshes.

Faulty blocks, dangerous prisms and boundary slabs are all axis-aligned
hyper-rectangles; :class:`Region` is the common geometric primitive.  A
region stores inclusive lower and upper corner coordinates ``lo`` / ``hi``
(``lo[i] <= hi[i]`` for every dimension).

The paper writes a 3-D block as ``[xmin+1 : xmax-1, ymin+1 : ymax-1,
zmin+1 : zmax-1]`` where the eight *corners* (enabled nodes diagonally
adjacent to the block) sit at the combinations of ``(xmin, xmax) x
(ymin, ymax) x (zmin, zmax)``.  In this module the region always denotes the
block extent itself (the faulty/disabled nodes); corner nodes are obtained
from :meth:`Region.expand` / :meth:`Region.corner_points`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence, Tuple

Coord = Tuple[int, ...]


@dataclass(frozen=True, order=True)
class Region:
    """An axis-aligned inclusive hyper-rectangle ``[lo, hi]``.

    Regions order lexicographically by ``(lo, hi)``, which gives experiments
    a deterministic way to sort block lists.
    """

    lo: Coord
    hi: Coord

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError(
                f"corner ranks differ: {len(self.lo)} vs {len(self.hi)}"
            )
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty region: lo={self.lo} hi={self.hi}")
        object.__setattr__(self, "lo", tuple(self.lo))
        object.__setattr__(self, "hi", tuple(self.hi))
        # Regions key the information records' dicts and sets; hashing one
        # would otherwise rebuild and hash the corner tuples every time.
        object.__setattr__(self, "_hash", hash((self.lo, self.hi)))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_points(cls, points: Iterable[Sequence[int]]) -> "Region":
        """Smallest region containing every coordinate in ``points``."""
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("cannot build a region from zero points")
        rank = len(pts[0])
        if any(len(p) != rank for p in pts):
            raise ValueError("points have inconsistent ranks")
        lo = tuple(min(p[i] for p in pts) for i in range(rank))
        hi = tuple(max(p[i] for p in pts) for i in range(rank))
        return cls(lo, hi)

    @classmethod
    def single(cls, point: Sequence[int]) -> "Region":
        """Degenerate region containing exactly one node."""
        pt = tuple(point)
        return cls(pt, pt)

    # ------------------------------------------------------------------ #
    # basic geometry
    # ------------------------------------------------------------------ #
    @property
    def n_dims(self) -> int:
        """Dimensionality of the region."""
        return len(self.lo)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Per-dimension extent (number of nodes along each dimension)."""
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def volume(self) -> int:
        """Number of lattice nodes contained in the region."""
        v = 1
        for s in self.shape:
            v *= s
        return v

    @property
    def edge_lengths(self) -> Tuple[int, ...]:
        """Per-dimension edge length in hops (``shape - 1``)."""
        return tuple(s - 1 for s in self.shape)

    @property
    def max_edge(self) -> int:
        """Longest edge in hops — the paper's ``e_max`` for a single block."""
        return max(self.edge_lengths)

    def span(self, dim: int) -> Tuple[int, int]:
        """Inclusive ``(lo, hi)`` interval of the region along ``dim``."""
        return (self.lo[dim], self.hi[dim])

    def contains(self, point: Sequence[int]) -> bool:
        """True iff ``point`` lies inside the region (inclusive)."""
        if len(point) != self.n_dims:
            return False
        return all(a <= p <= b for p, a, b in zip(point, self.lo, self.hi))

    def contains_region(self, other: "Region") -> bool:
        """True iff ``other`` is entirely inside this region."""
        return self.contains(other.lo) and self.contains(other.hi)

    def intersects(self, other: "Region") -> bool:
        """True iff the two regions share at least one node."""
        if other.n_dims != self.n_dims:
            raise ValueError("region ranks differ")
        return all(
            a1 <= b2 and a2 <= b1
            for a1, b1, a2, b2 in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersection(self, other: "Region") -> "Region | None":
        """The overlapping region, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        return Region(lo, hi)

    # ------------------------------------------------------------------ #
    # derived regions
    # ------------------------------------------------------------------ #
    def expand(self, margin: int = 1) -> "Region":
        """Region grown by ``margin`` hops in every direction."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        lo = tuple(a - margin for a in self.lo)
        hi = tuple(b + margin for b in self.hi)
        return Region(lo, hi)

    def clip(self, lo: Sequence[int], hi: Sequence[int]) -> "Region | None":
        """Intersection with the inclusive box ``[lo, hi]`` (e.g. mesh bounds)."""
        return self.intersection(Region(tuple(lo), tuple(hi)))

    def face(self, dim: int, side: int) -> "Region":
        """The (n-1)-dimensional face of the region on ``side`` of ``dim``.

        ``side`` is ``-1`` for the low face and ``+1`` for the high face.  The
        returned region is degenerate along ``dim`` (``lo[dim] == hi[dim]``).
        """
        if side not in (-1, +1):
            raise ValueError("side must be ±1")
        coord = self.lo[dim] if side < 0 else self.hi[dim]
        lo = list(self.lo)
        hi = list(self.hi)
        lo[dim] = hi[dim] = coord
        return Region(tuple(lo), tuple(hi))

    def adjacent_surface(self, dim: int, side: int) -> "Region":
        """The paper's adjacent surface one unit away from the block.

        For a block extent this is surface ``S_dim`` (``side == -1``) or
        ``S_{dim+n}`` (``side == +1``) of Definition 3: the slab of nodes one
        hop outside the block along ``dim``, spanning the block's extent in
        every other dimension.
        """
        if side not in (-1, +1):
            raise ValueError("side must be ±1")
        coord = self.lo[dim] - 1 if side < 0 else self.hi[dim] + 1
        lo = list(self.lo)
        hi = list(self.hi)
        lo[dim] = hi[dim] = coord
        return Region(tuple(lo), tuple(hi))

    def corner_points(self) -> Tuple[Coord, ...]:
        """The ``2^n`` corner coordinates of the region itself."""
        return tuple(product(*[(a, b) for a, b in zip(self.lo, self.hi)]))

    def block_corner_points(self) -> Tuple[Coord, ...]:
        """The ``2^n`` *block corners* of the paper (one hop outside).

        These are the enabled nodes diagonally adjacent to the block — the
        n-level corners of Definition 2 once labeling has stabilized.
        """
        return self.expand(1).corner_points()

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Coord]:
        return self.iter_points()

    def iter_points(self) -> Iterator[Coord]:
        """Iterate over every lattice node in the region (row-major)."""
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        return (tuple(p) for p in product(*ranges))

    def __len__(self) -> int:
        return self.volume

    def __contains__(self, point: object) -> bool:
        if not isinstance(point, (tuple, list)):
            return False
        return self.contains(tuple(point))
