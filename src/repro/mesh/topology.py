"""k-ary n-dimensional mesh topology.

A *k-ary n-D mesh* has ``N = k^n`` nodes; each node ``u`` has an address
``(u_1, ..., u_n)`` with ``0 <= u_i <= k-1``.  Two nodes are connected iff
their addresses differ by exactly one in exactly one dimension, so nodes
along each dimension form a linear array (not a ring — this is a mesh, not a
torus).  The interior node degree is ``2n`` and the diameter is ``(k-1)n``.

:class:`Mesh` also supports rectangular (per-dimension radix) meshes, which
the paper's model does not preclude and which the experiments use to keep
simulation sizes manageable in higher dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.mesh.coords import manhattan, offsets_toward
from repro.mesh.directions import Direction, all_directions
from repro.mesh.regions import Region

Coord = Tuple[int, ...]


@dataclass(frozen=True)
class Mesh:
    """A k-ary n-dimensional mesh.

    Parameters
    ----------
    shape:
        Per-dimension radix ``(k_1, ..., k_n)``.  ``Mesh.cube(k, n)`` builds
        the uniform k-ary n-D mesh of the paper.
    """

    shape: Tuple[int, ...]
    _directions: Tuple[Direction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        if len(shape) < 1:
            raise ValueError("a mesh needs at least one dimension")
        if any(s < 2 for s in shape):
            raise ValueError(f"every dimension needs radix >= 2, got {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_directions", all_directions(len(shape)))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def cube(cls, radix: int, n_dims: int) -> "Mesh":
        """The uniform k-ary n-D mesh (``radix`` nodes per dimension)."""
        return cls(tuple([radix] * n_dims))

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_dims(self) -> int:
        """Number of dimensions ``n``."""
        return len(self.shape)

    @property
    def radix(self) -> int:
        """The radix ``k`` for uniform meshes (max radix otherwise)."""
        return max(self.shape)

    @property
    def size(self) -> int:
        """Total number of nodes ``N``."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def diameter(self) -> int:
        """Network diameter ``sum_i (k_i - 1)`` (``(k-1)n`` for uniform k)."""
        return sum(s - 1 for s in self.shape)

    @property
    def directions(self) -> Tuple[Direction, ...]:
        """All ``2n`` directions, indexed by the paper's surface numbering."""
        return self._directions

    @property
    def extent(self) -> Region:
        """The full mesh as a :class:`Region`."""
        return Region(tuple([0] * self.n_dims), tuple(s - 1 for s in self.shape))

    # ------------------------------------------------------------------ #
    # node queries
    # ------------------------------------------------------------------ #
    def contains(self, coord: Sequence[int]) -> bool:
        """True iff ``coord`` is a valid node address of this mesh."""
        if len(coord) != self.n_dims:
            return False
        return all(0 <= c < s for c, s in zip(coord, self.shape))

    def validate(self, coord: Sequence[int]) -> Coord:
        """Return ``coord`` as a tuple, raising if it is not in the mesh."""
        pt = tuple(int(c) for c in coord)
        if not self.contains(pt):
            raise ValueError(f"{pt} is not a node of mesh {self.shape}")
        return pt

    def nodes(self) -> Iterator[Coord]:
        """Iterate over every node address (row-major order)."""
        return (tuple(p) for p in product(*[range(s) for s in self.shape]))

    def degree(self, coord: Sequence[int]) -> int:
        """Number of neighbors of ``coord`` (``2n`` for interior nodes)."""
        return len(self.neighbors(coord))

    def neighbor(self, coord: Sequence[int], direction: Direction) -> Coord | None:
        """The neighbor of ``coord`` in ``direction``, or ``None`` off-mesh."""
        moved = direction.apply(coord)
        return moved if self.contains(moved) else None

    def neighbors(self, coord: Sequence[int]) -> List[Coord]:
        """All neighbors of ``coord`` inside the mesh."""
        out: List[Coord] = []
        for direction in self._directions:
            moved = direction.apply(coord)
            if self.contains(moved):
                out.append(moved)
        return out

    def distance(self, u: Sequence[int], v: Sequence[int]) -> int:
        """Manhattan distance ``D(u, v)``."""
        return manhattan(u, v)

    # ------------------------------------------------------------------ #
    # routing-related classification
    # ------------------------------------------------------------------ #
    def preferred_directions(
        self, u: Sequence[int], destination: Sequence[int]
    ) -> List[Direction]:
        """Directions that move ``u`` strictly closer to ``destination``.

        These are the paper's *preferred directions*; every minimal path uses
        only preferred directions.
        """
        dirs: List[Direction] = []
        for dim, offset in enumerate(offsets_toward(u, destination)):
            if offset != 0:
                dirs.append(Direction(dim, offset))
        return dirs

    # ------------------------------------------------------------------ #
    # mesh-surface queries (the paper's "outmost surface")
    # ------------------------------------------------------------------ #
    def on_outmost_surface(self, coord: Sequence[int]) -> bool:
        """True iff ``coord`` lies on the outmost surface of the mesh.

        The paper assumes no fault occurs on the outmost surface, which (with
        the block fault model) keeps the enabled part of the mesh connected.
        """
        return any(
            c == 0 or c == s - 1 for c, s in zip(coord, self.shape)
        )

    def interior_region(self, margin: int = 1) -> Region:
        """The sub-region at least ``margin`` hops away from every surface."""
        lo = tuple([margin] * self.n_dims)
        hi = tuple(s - 1 - margin for s in self.shape)
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(
                f"mesh {self.shape} has no interior with margin {margin}"
            )
        return Region(lo, hi)

    def clip_region(self, region: Region) -> Region | None:
        """Intersection of ``region`` with the mesh extent."""
        return region.intersection(self.extent)

    # ------------------------------------------------------------------ #
    # flat-index views (the vectorized engines' working representation)
    # ------------------------------------------------------------------ #
    @property
    def neighbor_table(self):
        """Memoized flat neighbor-index table, shape ``(size, 2n)`` int32.

        Column ``j`` holds, for every node (row-major linear index), the
        linear index of its neighbor in ``self.directions[j]`` — i.e. the
        paper's surface order: columns ``0..n-1`` are the negative sides of
        dimensions ``0..n-1`` and columns ``n..2n-1`` the positive sides, so
        columns ``d`` and ``d + n`` always belong to dimension ``d``.
        Off-mesh neighbors are ``-1``.  The table is built once per mesh and
        shared by the vectorized labeling engine.
        """
        try:
            return self._neighbor_table
        except AttributeError:
            pass
        import numpy as np

        n = self.n_dims
        size = self.size
        strides = [1] * n
        for d in range(n - 2, -1, -1):
            strides[d] = strides[d + 1] * self.shape[d + 1]
        idx = np.arange(size, dtype=np.int32)
        coords = np.stack(np.unravel_index(idx, self.shape), axis=1)
        table = np.full((size, 2 * n), -1, dtype=np.int32)
        for d in range(n):
            has_minus = coords[:, d] > 0
            table[has_minus, d] = idx[has_minus] - strides[d]
            has_plus = coords[:, d] < self.shape[d] - 1
            table[has_plus, d + n] = idx[has_plus] + strides[d]
        table.setflags(write=False)
        object.__setattr__(self, "_neighbor_table", table)
        return table

    @property
    def neighbor_gather_table(self):
        """:attr:`neighbor_table` with ``-1`` replaced by the sentinel ``size``.

        Gathering from a status array padded with one trailing sentinel cell
        turns off-mesh neighbors into always-enabled ones — the same
        semantics the scalar rules get from ``neighbor() is None``.
        """
        try:
            return self._neighbor_gather_table
        except AttributeError:
            pass
        import numpy as np

        table = np.where(self.neighbor_table < 0, self.size, self.neighbor_table)
        table = table.astype(np.int32)
        table.setflags(write=False)
        object.__setattr__(self, "_neighbor_gather_table", table)
        return table

    @property
    def link_slot_table(self):
        """Memoized per-direction link-slot table, shape ``(size, 2n)`` int32.

        Entry ``[i, j]`` is the canonical link slot (:meth:`link_index`) of
        the link from node ``i`` to its neighbor in ``self.directions[j]``,
        or ``-1`` off-mesh.  With it the probe table turns every
        reserve/release into one table read instead of an endpoint-pair
        lookup.
        """
        try:
            return self._link_slot_table
        except AttributeError:
            pass
        import numpy as np

        n = self.n_dims
        neighbors = self.neighbor_table
        idx = np.arange(self.size, dtype=np.int64)
        table = np.full((self.size, 2 * n), -1, dtype=np.int32)
        for d in range(n):
            # Negative side: the neighbor is the lower endpoint of the link.
            has_minus = neighbors[:, d] >= 0
            table[has_minus, d] = neighbors[has_minus, d].astype(np.int64) * n + d
            # Positive side: this node is the lower endpoint.
            has_plus = neighbors[:, d + n] >= 0
            table[has_plus, d + n] = idx[has_plus] * n + d
        table.setflags(write=False)
        object.__setattr__(self, "_link_slot_table", table)
        return table

    @property
    def link_slots(self) -> int:
        """Size of the flat canonical-link index space (``size * n_dims``).

        Every mesh link has exactly one slot (see :meth:`link_index`); slots
        whose lower endpoint sits on the upper mesh face of the dimension are
        unused, which wastes a little space in exchange for O(1) arithmetic
        indexing with no per-link hashing.
        """
        return self.size * self.n_dims

    def link_index(self, u: Sequence[int], v: Sequence[int]) -> int:
        """Flat canonical index of the link between neighbors ``u`` and ``v``.

        The index is ``index_of(min(u, v)) * n_dims + dim`` where ``dim`` is
        the dimension along which the endpoints differ; it is independent of
        traversal direction, like :func:`repro.mesh.coords.canonical_link`.
        """
        u, v = tuple(u), tuple(v)
        if len(u) != self.n_dims or len(v) != self.n_dims:
            raise ValueError(f"{u} and {v} are not links of mesh {self.shape}")
        idx = 0
        dim = -1
        for d, (a, b, s) in enumerate(zip(u, v, self.shape)):
            if not (0 <= a < s and 0 <= b < s):
                raise ValueError(f"{u} and {v} are not links of mesh {self.shape}")
            if a != b:
                if dim >= 0 or abs(a - b) != 1:
                    raise ValueError(f"{u} and {v} are not mesh neighbors")
                dim = d
                idx = idx * s + (a if a < b else b)
            else:
                idx = idx * s + a
        if dim < 0:
            raise ValueError(f"{u} and {v} are the same node")
        return idx * self.n_dims + dim

    def link_of_index(self, index: int):
        """Inverse of :meth:`link_index`: the canonical ``(lo, hi)`` endpoint pair."""
        if not 0 <= index < self.link_slots:
            raise ValueError(f"link index {index} out of range for mesh {self.shape}")
        node, dim = divmod(index, self.n_dims)
        lo = self.coord_of(node)
        if lo[dim] + 1 >= self.shape[dim]:
            raise ValueError(f"link index {index} is an unused slot of mesh {self.shape}")
        hi = tuple(c + 1 if d == dim else c for d, c in enumerate(lo))
        return (lo, hi)

    @property
    def n_links(self) -> int:
        """Number of physical links ``sum_d (k_d - 1) * prod_{e != d} k_e``."""
        total = 0
        for d, s in enumerate(self.shape):
            total += (s - 1) * (self.size // s)
        return total

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def index_of(self, coord: Sequence[int]) -> int:
        """Row-major linear index of ``coord`` (useful for array-backed state)."""
        coord = self.validate(coord)
        idx = 0
        for c, s in zip(coord, self.shape):
            idx = idx * s + c
        return idx

    @property
    def coord_index(self) -> Dict[Coord, int]:
        """Memoized dict from every node's coordinate tuple to its
        :meth:`index_of` index: one hash lookup, no validation.  A
        coordinate missing from it is not a node of this mesh (or not a
        tuple); :meth:`index_of` is the validating form."""
        try:
            return self._coord_index
        except AttributeError:
            pass
        table = {coord: i for i, coord in enumerate(self.nodes())}
        object.__setattr__(self, "_coord_index", table)
        return table

    def coord_of(self, index: int) -> Coord:
        """Inverse of :meth:`index_of` (O(1) via a lazily built table)."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for mesh {self.shape}")
        try:
            table = self._coord_table
        except AttributeError:
            table = tuple(self.nodes())
            object.__setattr__(self, "_coord_table", table)
        return table[index]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(s) for s in self.shape)
        return f"Mesh({dims})"
