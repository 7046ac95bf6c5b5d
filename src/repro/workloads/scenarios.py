"""The paper's worked scenarios and the closed-batch simulate scenario.

Each ``figureN_scenario`` returns the exact configuration drawn in the
corresponding figure of the paper so that tests and benches can check the
reproduced behaviour against the published description (e.g. Figure 1's four
faults producing the block ``[3:5, 5:6, 3:4]``).  :func:`simulate_scenario`
builds the mesh, dynamic fault schedule and traffic of one simulate-mode
experiment cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.injection import dynamic_schedule, uniform_random_faults
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh
from repro.simulator.traffic import TrafficMessage
from repro.workloads.traffic import hotspot_pairs, random_pairs, transpose_pairs

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.experiments.spec import ExperimentCell

Coord = Tuple[int, ...]


@dataclass(frozen=True)
class DynamicRoutingScenario:
    """A paper figure's configuration: mesh and fault schedule."""

    name: str
    mesh: Mesh
    schedule: DynamicFaultSchedule
    #: The block extent(s) the paper says should emerge, when applicable.
    expected_extents: Tuple[Region, ...] = ()


# ---------------------------------------------------------------------- #
# Figure 1 / Figure 2: the four-fault block [3:5, 5:6, 3:4]
# ---------------------------------------------------------------------- #
#: The four faults of Figure 1 in a 3-D mesh.
FIGURE1_FAULTS: Tuple[Coord, ...] = ((3, 5, 4), (4, 5, 4), (5, 5, 3), (3, 6, 3))

#: The block the paper says those faults produce.
FIGURE1_EXTENT = Region((3, 5, 3), (5, 6, 4))

#: The 3-level corner highlighted in Figure 2 and its three edge neighbors.
FIGURE2_CORNER: Coord = (6, 4, 5)
FIGURE2_EDGE_NEIGHBORS: Tuple[Coord, ...] = ((5, 4, 5), (6, 5, 5), (6, 4, 4))


def figure1_scenario(radix: int = 10) -> DynamicRoutingScenario:
    """The static four-fault configuration of Figure 1 (3-D mesh)."""
    if radix < 9:
        raise ValueError("Figure 1 needs a mesh of radix >= 9")
    mesh = Mesh.cube(radix, 3)
    schedule = DynamicFaultSchedule.static(FIGURE1_FAULTS)
    return DynamicRoutingScenario(
        name="figure-1",
        mesh=mesh,
        schedule=schedule,
        expected_extents=(FIGURE1_EXTENT,),
    )


# ---------------------------------------------------------------------- #
# Figure 4: recovery of node (5,5,3)
# ---------------------------------------------------------------------- #
def figure4_recovery_scenario(
    radix: int = 10, *, recovery_time: int = 4
) -> DynamicRoutingScenario:
    """Figure 4: the Figure-1 block with fault (5,5,3) recovering.

    After the recovery stabilizes, the remaining three faults no longer span
    the original extent; the stabilized configuration is the smaller
    block(s) shown in Figure 4(b).
    """
    mesh = Mesh.cube(radix, 3)
    schedule = DynamicFaultSchedule(
        events=[FaultEvent(recovery_time, (5, 5, 3), FaultEventKind.RECOVERY)],
        initial_faults=set(FIGURE1_FAULTS),
    )
    return DynamicRoutingScenario(
        name="figure-4-recovery",
        mesh=mesh,
        schedule=schedule,
        expected_extents=(FIGURE1_EXTENT,),
    )


# ---------------------------------------------------------------------- #
# Figures 3/5/6: parametric blocks and two-block configurations
# ---------------------------------------------------------------------- #
def parametric_block_scenario(
    radix: Optional[int] = None,
    n_dims: Optional[int] = None,
    edge: int = 1,
    *,
    origin: Optional[Sequence[int]] = None,
    shape: Optional[Sequence[int]] = None,
) -> DynamicRoutingScenario:
    """A single cubic block of the given edge length, fully faulty.

    Used by the identification/boundary experiments (Figures 5 and 6) which
    sweep the block size; making every node of the extent faulty guarantees
    the labeling stabilizes to exactly that extent.  The mesh is either the
    ``radix``/``n_dims`` cube or an explicit rectangular ``shape`` — give
    exactly one of the two.
    """
    if edge < 1:
        raise ValueError("edge must be at least 1")
    if shape is not None:
        if radix is not None or n_dims is not None:
            raise ValueError("give either radix and n_dims, or shape — not both")
        mesh = Mesh(tuple(shape))
    elif radix is None or n_dims is None:
        raise ValueError("give either radix and n_dims, or shape")
    else:
        mesh = Mesh.cube(radix, n_dims)
    if origin is None:
        origin = tuple(max(1, (s - edge) // 2) for s in mesh.shape)
    origin = tuple(origin)
    extent = Region(origin, tuple(o + edge - 1 for o in origin))
    if not mesh.interior_region(1).contains_region(extent):
        raise ValueError(
            f"block extent {extent} does not fit in the interior of mesh {mesh.shape}"
        )
    schedule = DynamicFaultSchedule.static(list(extent.iter_points()))
    return DynamicRoutingScenario(
        name=f"block-{mesh.n_dims}d-edge{edge}",
        mesh=mesh,
        schedule=schedule,
        expected_extents=(extent,),
    )


def two_block_scenario(radix: int = 12) -> DynamicRoutingScenario:
    """Two blocks aligned so one block's boundary runs into the other (Figure 3(d)).

    Block A sits "above" block B along the Y axis with overlapping X/Z
    spans, so the boundary propagation of A (moving in -Y) intersects B and
    must merge into B's boundary.
    """
    mesh = Mesh.cube(radix, 3)
    block_a = Region((4, 7, 4), (6, 8, 6))
    block_b = Region((4, 2, 4), (6, 3, 6))
    faults = list(block_a.iter_points()) + list(block_b.iter_points())
    schedule = DynamicFaultSchedule.static(faults)
    return DynamicRoutingScenario(
        name="figure-3d-two-blocks",
        mesh=mesh,
        schedule=schedule,
        expected_extents=(block_a, block_b),
    )


# ---------------------------------------------------------------------- #
# Closed-batch simulate runs
# ---------------------------------------------------------------------- #
#: Messages per burst of the ``bursty`` family, and the steps between
#: successive bursts.
BURST_SIZE = 6
BURST_INTERVAL = 12


def simulate_scenario(
    cell: "ExperimentCell",
) -> Tuple[Mesh, DynamicFaultSchedule, List[TrafficMessage]]:
    """Mesh, fault schedule and traffic of one simulate-mode cell.

    ``cell.faults`` interior nodes fail one per ``cell.interval`` steps from
    step 2 while ``cell.messages`` probes of the cell's traffic family are
    in flight; no endpoint is a scheduled fault.  The families:

    * ``random`` — uniform pairs at least half the diameter apart, one
      injected per step;
    * ``hotspot`` — :func:`hotspot_pairs` at least a third of the diameter
      apart, one per step, so circuits funnel into the hotspot's links;
    * ``transpose`` — the first ``cell.messages`` pairs of
      :func:`transpose_pairs` (those touching a fault then dropped), all
      injected at step 0, so every setup crosses the diagonal at once;
    * ``bursty`` — ``cell.messages`` random pairs in waves of
      :data:`BURST_SIZE` injected together, :data:`BURST_INTERVAL` steps
      apart (the last wave holds the remainder), so each wave races for
      links.

    Everything derives from ``cell.cell_seed`` alone (faults first, then
    the pairs), so every policy of one configuration replays the identical
    scenario.
    """
    mesh = Mesh(cell.shape)
    rng = np.random.default_rng(cell.cell_seed)
    faults = uniform_random_faults(mesh, cell.faults, rng, margin=1)
    schedule = dynamic_schedule(faults, start_time=2, interval=cell.interval)
    far = max(1, mesh.diameter // 2)
    if cell.scenario == "transpose":
        dead = set(faults)
        pairs = [
            (s, d)
            for s, d in transpose_pairs(mesh, limit=cell.messages)
            if s not in dead and d not in dead
        ]
        starts = [0] * len(pairs)
    elif cell.scenario == "bursty":
        pairs = random_pairs(mesh, cell.messages, rng, min_distance=far, exclude=faults)
        starts = [i // BURST_SIZE * BURST_INTERVAL for i in range(len(pairs))]
    elif cell.scenario == "hotspot":
        pairs = hotspot_pairs(
            mesh, cell.messages, rng,
            min_distance=max(1, mesh.diameter // 3), exclude=faults,
        )
        starts = range(len(pairs))
    else:
        pairs = random_pairs(mesh, cell.messages, rng, min_distance=far, exclude=faults)
        starts = range(len(pairs))
    traffic = [
        TrafficMessage(source=s, destination=d, start_time=t, flits=cell.flits)
        for (s, d), t in zip(pairs, starts)
    ]
    return mesh, schedule, traffic
