"""Seeded MTBF/MTTR fault workloads for measurements under load.

The schedules in :mod:`repro.faults.injection` script faults at fixed
intervals; a throughput measurement instead wants the *operator's* view of
failure: components fail randomly at some rate (MTBF) and repairs bring
them back after some delay (MTTR).  :func:`mtbf_schedule` produces that as
a plain :class:`~repro.faults.schedule.DynamicFaultSchedule`, deterministic
in its seed, honouring the paper's interior-only fault assumption:
geometric inter-fault gaps with mean ``1/rate`` steps inside
``[start, stop)``, each fault on a fresh interior node, repaired
``repair_after`` steps later (0 = permanent).

Each node is faulted at most once per schedule, so fault and recovery
events can never conflict no matter how they interleave — the schedule's
own validation stays trivially satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.faults.injection import _interior_candidates
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind
from repro.mesh.topology import Mesh

__all__ = ["FaultWorkload", "mtbf_schedule"]


@dataclass(frozen=True)
class FaultWorkload:
    """Declarative MTBF/MTTR fault process for one measurement window.

    ``rate`` is the per-step probability that a new fault occurs somewhere
    in the mesh (mean time between failures ``1/rate`` steps); a fault is
    repaired ``repair_after`` steps after it occurred (``0`` leaves it
    permanent).  Faults are only generated inside ``[start, stop)`` — the
    measurement window — so warmup and drain stay fault-transition free.
    """

    rate: float
    repair_after: int = 0
    start: int = 0
    stop: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("fault rate must be within [0, 1)")
        if self.repair_after < 0:
            raise ValueError("repair_after must be non-negative")
        if self.stop < self.start:
            raise ValueError("need start <= stop")


def mtbf_schedule(
    mesh: Mesh,
    workload: FaultWorkload,
    seed: Union[int, np.random.Generator] = 0,
    *,
    initial: Sequence[Sequence[int]] = (),
) -> DynamicFaultSchedule:
    """Seeded MTBF/MTTR fault process as a dynamic schedule.

    Inter-fault gaps are geometric with success probability
    ``workload.rate`` (so at most one fault fires per step and the mean gap
    is ``1/rate``); each fault lands on a uniformly drawn node at least one
    hop inside the mesh surface, not yet used and not in ``initial`` (the
    static pre-stabilized faults, kept as the schedule's initial set).
    With ``repair_after > 0`` every fault is followed by its recovery; the
    recovery may fall past ``stop`` (a fault near the window's end is still
    unrepaired when measurement stops — the SLO metrics treat that as
    not-yet-recovered).
    """
    rng = np.random.default_rng(seed)
    initial_faults = {tuple(p) for p in initial}
    events: List[FaultEvent] = []
    if workload.rate > 0.0 and workload.stop > workload.start:
        pool = _interior_candidates(mesh, 1, initial_faults)
        t = workload.start - 1
        while pool:
            t += int(rng.geometric(workload.rate))
            if t >= workload.stop:
                break
            node = pool.pop(int(rng.integers(len(pool))))
            events.append(FaultEvent(t, node, FaultEventKind.FAULT))
            if workload.repair_after > 0:
                events.append(
                    FaultEvent(t + workload.repair_after, node, FaultEventKind.RECOVERY)
                )
    return DynamicFaultSchedule(events=events, initial_faults=initial_faults)
