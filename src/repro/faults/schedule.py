"""Timed fault and recovery schedules (the paper's dynamic fault model).

A :class:`DynamicFaultSchedule` is an ordered list of :class:`FaultEvent`
items.  Each event makes one node faulty or recovers one faulty node at an
integer simulation *step*.  The schedule exposes the quantities used
throughout the paper's analysis:

* ``f_1 .. f_F``   — the fault occurrences, in time order,
* ``t_i``          — the occurrence step of the ``i``-th fault,
* ``d_i``          — the interval ``t_{i+1} - t_i`` between occurrences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

Coord = Tuple[int, ...]


class FaultEventKind(str, Enum):
    """Kind of a timed fault event."""

    #: The node becomes faulty at the event step.
    FAULT = "fault"

    #: The node recovers from faulty status at the event step.
    RECOVERY = "recovery"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class FaultEvent:
    """A single timed status change of one node."""

    time: int
    node: Coord
    kind: FaultEventKind = FaultEventKind.FAULT

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")
        object.__setattr__(self, "node", tuple(self.node))


@dataclass
class DynamicFaultSchedule:
    """An ordered collection of fault/recovery events.

    The schedule validates basic sanity: a node cannot fail while already
    faulty, and cannot recover unless it is currently faulty (given the
    initially-faulty set and previous events).
    """

    events: List[FaultEvent] = field(default_factory=list)
    initial_faults: Set[Coord] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.events = sorted(FaultEvent(e.time, tuple(e.node), e.kind) for e in self.events)
        self.initial_faults = {tuple(n) for n in self.initial_faults}
        self._validate()
        #: Events grouped by step, so replay looks a step up instead of
        #: scanning every event.
        self._by_time: Dict[int, List[FaultEvent]] = {}
        for event in self.events:
            self._by_time.setdefault(event.time, []).append(event)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def static(cls, faults: Iterable[Sequence[int]]) -> "DynamicFaultSchedule":
        """A schedule with a fixed fault set present from step 0 onwards."""
        return cls(events=[], initial_faults={tuple(f) for f in faults})

    def _validate(self) -> None:
        faulty: Set[Coord] = set(self.initial_faults)
        for event in self.events:
            if event.kind is FaultEventKind.FAULT:
                if event.node in faulty:
                    raise ValueError(
                        f"node {event.node} is already faulty at step {event.time}"
                    )
                faulty.add(event.node)
            else:
                if event.node not in faulty:
                    raise ValueError(
                        f"node {event.node} cannot recover at step {event.time}: "
                        "it is not faulty"
                    )
                faulty.discard(event.node)

    # ------------------------------------------------------------------ #
    # paper quantities
    # ------------------------------------------------------------------ #
    @property
    def fault_events(self) -> List[FaultEvent]:
        """Only the FAULT events, in time order (the paper's ``f_1..f_F``)."""
        return [e for e in self.events if e.kind is FaultEventKind.FAULT]

    @property
    def recovery_events(self) -> List[FaultEvent]:
        """Only the RECOVERY events, in time order."""
        return [e for e in self.events if e.kind is FaultEventKind.RECOVERY]

    @property
    def occurrence_times(self) -> Tuple[int, ...]:
        """The occurrence steps ``t_1 .. t_F``."""
        return tuple(e.time for e in self.fault_events)

    @property
    def intervals(self) -> Tuple[int, ...]:
        """The intervals ``d_i = t_{i+1} - t_i`` (length ``F - 1``)."""
        times = self.occurrence_times
        return tuple(b - a for a, b in zip(times, times[1:]))

    @property
    def horizon(self) -> int:
        """Last event step (0 for a purely static schedule)."""
        return self.events[-1].time if self.events else 0

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def events_at(self, time: int) -> List[FaultEvent]:
        """Events scheduled exactly at ``time``."""
        return list(self._by_time.get(time, ()))

    def faulty_set_at(self, time: int) -> Set[Coord]:
        """The set of faulty nodes after applying all events up to ``time``."""
        faulty: Set[Coord] = set(self.initial_faults)
        for event in self.events:
            if event.time > time:
                break
            if event.kind is FaultEventKind.FAULT:
                faulty.add(event.node)
            else:
                faulty.discard(event.node)
        return faulty

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)
