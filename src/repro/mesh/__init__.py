"""k-ary n-dimensional mesh substrate.

This package provides the topological substrate on which the paper's
limited-global fault information model operates:

* :mod:`repro.mesh.directions` — the 2n mesh directions and the paper's
  surface numbering (S0..S_{2n-1});
* :mod:`repro.mesh.coords` — coordinate arithmetic (Manhattan distance,
  adjacency, per-dimension offsets);
* :mod:`repro.mesh.regions` — inclusive hyper-rectangles, used to describe
  faulty-block extents, dangerous prisms and boundary slabs;
* :mod:`repro.mesh.topology` — the :class:`Mesh` class proper.
"""

from repro.mesh.coords import is_adjacent, manhattan, offsets_toward
from repro.mesh.directions import (
    Direction,
    all_directions,
    direction_between,
    direction_from_surface,
    opposite,
    opposite_surface,
    surface_index,
)
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh

__all__ = [
    "Direction",
    "Mesh",
    "Region",
    "all_directions",
    "direction_between",
    "direction_from_surface",
    "is_adjacent",
    "manhattan",
    "offsets_toward",
    "opposite",
    "opposite_surface",
    "surface_index",
]
