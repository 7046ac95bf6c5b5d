"""Faulty-block geometry (Definitions 1–3 of the paper).

A *faulty block* is a connected set of faulty and disabled nodes produced by
the labeling scheme of :mod:`repro.core.block_construction`.  Once the
labeling stabilizes, every block is an axis-aligned hyper-rectangle (the
paper's ``[xmin+1 : xmax-1, ...]`` notation); this module captures the
geometry that the identification, boundary and routing components need:

* *adjacent nodes* — enabled nodes one hop from the block (Definition 2);
* *k-level edge nodes / corners* — the recursive corner structure used by
  the identification process (Definition 2, Figure 2);
* *adjacent surfaces* ``S_0 .. S_{2n-1}`` — the 2n slabs one unit away from
  the block faces (Definition 3, Figure 1(b));
* *dangerous prisms* — for each axis, the region from which all minimal
  paths to destinations on the far side of the block are cut off (the area
  "right below S1" when the destination is "right over S4").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.mesh.directions import direction_from_surface
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh

Coord = Tuple[int, ...]


@lru_cache(maxsize=65536)
def _dangerous_prism_cached(
    extent: Region, shape: Tuple[int, ...], dim: int, side: int
) -> Optional[Region]:
    lo = list(extent.lo)
    hi = list(extent.hi)
    if side < 0:
        hi[dim] = extent.lo[dim] - 1
        lo[dim] = 0
    else:
        lo[dim] = extent.hi[dim] + 1
        hi[dim] = shape[dim] - 1
    if lo[dim] > hi[dim]:
        return None
    mesh_extent = Region(tuple([0] * len(shape)), tuple(s - 1 for s in shape))
    return Region(tuple(lo), tuple(hi)).intersection(mesh_extent)


def frame_coords(extent: Region, shape: Tuple[int, ...]) -> np.ndarray:
    """Coordinates ``(nodes, n)`` of the adjacency frame of ``extent``.

    The frame is the one-hop shell around the extent (``extent.expand(1)``
    clipped to a mesh of ``shape``, minus the extent), in row-major order.
    """
    lo = np.array(extent.lo, dtype=np.int64)
    hi = np.array(extent.hi, dtype=np.int64)
    box_lo = np.maximum(lo - 1, 0)
    box_hi = np.minimum(hi + 1, np.array(shape) - 1)
    box = np.indices((box_hi - box_lo + 1).tolist()).reshape(len(shape), -1).T + box_lo
    return box[~((box >= lo) & (box <= hi)).all(axis=1)]


def dangerous_prism_of_extent(
    extent: Region, mesh: Mesh, dim: int, side: int
) -> Optional[Region]:
    """The dangerous area on ``side`` of a block with ``extent`` along ``dim``.

    A routing message located inside this prism whose destination lies in
    the prism on the other side (``-side``) has every minimal path cut by
    the block.  The prism spans the extent in every dimension except
    ``dim`` and stretches from the block face to the outmost surface of the
    mesh on ``side``; it is ``None`` when the block touches the mesh surface
    on that side (no room for a dangerous area).

    It takes a bare extent (as carried by block/boundary information
    records), so no block node set is materialized.  The geometry only
    depends on ``(extent, mesh shape, dim, side)``, so results are memoized
    — the routing hot path resolves the same prisms at every hop.
    """
    if side not in (-1, +1):
        raise ValueError("side must be ±1")
    return _dangerous_prism_cached(extent, mesh.shape, dim, side)


@dataclass(frozen=True)
class FaultyBlock:
    """A stabilized faulty block inside a mesh.

    Parameters
    ----------
    extent:
        The hyper-rectangle spanned by the block's member (faulty or
        disabled) nodes.
    nodes:
        The member nodes themselves.  For a stabilized block these fill the
        extent completely; the class does not require it so that transient
        (still-converging) blocks can also be represented.
    faulty_nodes:
        The subset of ``nodes`` that is actually faulty (the rest are
        disabled non-faulty nodes).
    """

    extent: Region
    nodes: FrozenSet[Coord] = field(default_factory=frozenset)
    faulty_nodes: FrozenSet[Coord] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        nodes = frozenset(tuple(n) for n in self.nodes) or frozenset(
            self.extent.iter_points()
        )
        faulty = frozenset(tuple(n) for n in self.faulty_nodes)
        if not faulty <= nodes:
            raise ValueError("faulty_nodes must be a subset of nodes")
        for node in nodes:
            if not self.extent.contains(node):
                raise ValueError(f"node {node} lies outside extent {self.extent}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "faulty_nodes", faulty)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_nodes(
        cls,
        nodes: Sequence[Sequence[int]],
        faulty_nodes: Optional[Sequence[Sequence[int]]] = None,
    ) -> "FaultyBlock":
        """Block spanned by ``nodes`` (extent = bounding box)."""
        pts = [tuple(n) for n in nodes]
        return cls(
            extent=Region.from_points(pts),
            nodes=frozenset(pts),
            faulty_nodes=frozenset(tuple(n) for n in (faulty_nodes or [])),
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_dims(self) -> int:
        """Dimensionality of the enclosing mesh."""
        return self.extent.n_dims

    @property
    def disabled_nodes(self) -> FrozenSet[Coord]:
        """Member nodes that are disabled (non-faulty)."""
        return self.nodes - self.faulty_nodes

    @property
    def is_rectangular(self) -> bool:
        """True iff the member nodes fill the extent (stabilized block)."""
        return len(self.nodes) == self.extent.volume

    @property
    def max_edge(self) -> int:
        """Longest edge of the block in hops — the paper's ``e_max``."""
        return self.extent.max_edge

    def contains(self, node: Sequence[int]) -> bool:
        """True iff ``node`` is a member of the block."""
        return tuple(node) in self.nodes

    # ------------------------------------------------------------------ #
    # Definition 2: adjacent nodes and k-level corners
    # ------------------------------------------------------------------ #
    def level_of(self, node: Sequence[int]) -> int:
        """Corner level of ``node`` with respect to this block.

        The level is the number of dimensions in which the node sits one hop
        *outside* the block extent (the remaining dimensions lying within the
        extent's span).  Level 1 corresponds to a plain adjacent node,
        level 2 to a 2-level corner, ... and level n to an n-level corner of
        Definition 2 (for a stabilized rectangular block these coincide with
        the recursive definition).  Nodes that are members of the block, more
        than one hop away, or outside the adjacency frame have level 0.
        """
        node = tuple(node)
        if len(node) != self.n_dims:
            raise ValueError("coordinate rank differs from block rank")
        if node in self.nodes:
            return 0
        out_dims = 0
        for c, lo, hi in zip(node, self.extent.lo, self.extent.hi):
            if lo <= c <= hi:
                continue
            if c == lo - 1 or c == hi + 1:
                out_dims += 1
            else:
                return 0
        return out_dims

    def adjacent_nodes(self, mesh: Mesh) -> List[Coord]:
        """Enabled-frame nodes with a neighbor in the block (level-1 nodes)."""
        return self.frame_nodes(mesh, level=1)

    def frame_nodes(self, mesh: Mesh, level: Optional[int] = None) -> List[Coord]:
        """Nodes of the adjacency frame, optionally restricted to one level.

        The *adjacency frame* is the shell of non-member nodes whose every
        coordinate is within one hop of the block extent; it contains the
        adjacent nodes, all k-level edge nodes and all k-level corners.
        Nodes come in row-major order (see :func:`frame_coords`).
        """
        nodes = [tuple(p) for p in frame_coords(self.extent, mesh.shape).tolist()]
        if level is None:
            return nodes
        return [p for p in nodes if self.level_of(p) == level]

    def corners(self, mesh: Optional[Mesh] = None) -> List[Coord]:
        """The block's n-level corners (Definition 2, Figure 2).

        For a block not touching the mesh surface these are the ``2^n``
        diagonal neighbors of the extent; corners falling outside the mesh
        are dropped when ``mesh`` is given.
        """
        pts = list(self.extent.block_corner_points())
        if mesh is not None:
            pts = [p for p in pts if mesh.contains(p)]
        return pts

    def edge_nodes(self, mesh: Mesh) -> List[Coord]:
        """All n-level edge nodes ((n-1)-level corners) of the block."""
        return self.frame_nodes(mesh, level=self.n_dims - 1)

    def edge_neighbors_of_corner(self, corner: Sequence[int], mesh: Mesh) -> List[Coord]:
        """The n-level edge nodes adjacent to a given n-level corner."""
        corner = tuple(corner)
        if self.level_of(corner) != self.n_dims:
            raise ValueError(f"{corner} is not an n-level corner of {self.extent}")
        out = []
        for direction in mesh.directions:
            neighbor = mesh.neighbor(corner, direction)
            if neighbor is not None and self.level_of(neighbor) == self.n_dims - 1:
                out.append(neighbor)
        return out

    # ------------------------------------------------------------------ #
    # Definition 3: adjacent surfaces
    # ------------------------------------------------------------------ #
    def adjacent_surface(self, surface_index: int) -> Region:
        """The adjacent surface ``S_i`` of Definition 3 (may extend off-mesh)."""
        direction = direction_from_surface(surface_index, self.n_dims)
        return self.extent.adjacent_surface(direction.dim, direction.sign)

    def adjacent_surfaces(self, mesh: Optional[Mesh] = None) -> Dict[int, Region]:
        """All 2n adjacent surfaces, keyed by surface index.

        Surfaces that fall entirely outside the mesh (block touching the
        outmost surface, which the paper's fault assumption forbids anyway)
        are omitted when ``mesh`` is given.
        """
        out: Dict[int, Region] = {}
        for index in range(2 * self.n_dims):
            surface = self.adjacent_surface(index)
            if mesh is not None:
                clipped = mesh.clip_region(surface)
                if clipped is None:
                    continue
                surface = clipped
            out[index] = surface
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        spans = ", ".join(f"{a}:{b}" for a, b in zip(self.extent.lo, self.extent.hi))
        return f"FaultyBlock[{spans}]"
