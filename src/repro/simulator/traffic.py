"""Routing traffic descriptions consumed by the simulator.

A :class:`TrafficMessage` is one routing request: a source/destination pair
plus the step at which the path-setup probe is injected (the paper's routing
start time ``t``).  Workload generators in :mod:`repro.workloads` produce
lists of these.

Traffic reaches the simulator through the :class:`TrafficSource` protocol:
the engine polls the source exactly once per step for the messages to
inject at that step.  :class:`BatchSource` adapts a pre-built message list
(the historic closed-batch path, byte-identical to handing the engine the
list directly); the open-loop injection processes in
:mod:`repro.throughput` generate messages on the fly as the simulator runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

Coord = Tuple[int, ...]


@dataclass(frozen=True)
class TrafficMessage:
    """One routing request."""

    source: Coord
    destination: Coord
    start_time: int = 0
    #: Message length in flits; with contention enabled the delivered
    #: circuit stays reserved for a hold time derived from this length
    #: (:func:`~repro.pcs.transfer.hold_steps`).
    flits: int = 64

    #: Step at which the message was *generated* (``None`` means at
    #: ``start_time``).  Open-loop sources with per-node injection queues
    #: generate messages at the offered rate but emit them one at a time per
    #: node; the gap between the two is the source queueing delay, which
    #: end-to-end latency accounting includes.
    created_time: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.flits < 0:
            raise ValueError("flits must be non-negative")
        if self.created_time is not None and self.created_time > self.start_time:
            raise ValueError("created_time cannot be after start_time")
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "destination", tuple(self.destination))


@runtime_checkable
class TrafficSource(Protocol):
    """Streaming traffic feeding the simulator while it runs.

    The engine calls :meth:`poll` exactly once per simulation step, with
    strictly increasing step numbers, and injects the returned messages at
    that step.  Sources may be stateful (an open-loop injection process
    draws from its RNG on every poll), so a source instance belongs to one
    simulation run.
    """

    def poll(self, step: int) -> Sequence[TrafficMessage]:
        """Messages to inject at ``step`` (may be empty)."""
        ...

    def exhausted(self, step: int) -> bool:
        """True when no message will ever be emitted at ``step`` or later."""
        ...


class BatchSource:
    """A :class:`TrafficSource` over a pre-built message list.

    Replays exactly the closed-batch semantics the engine historically
    implemented inline: messages sorted by ``start_time`` (stable, so equal
    start times keep list order), each injected at the first step at or
    after its start time.
    """

    def __init__(self, messages: Sequence[TrafficMessage]) -> None:
        self.messages: List[TrafficMessage] = sorted(
            messages, key=lambda m: m.start_time
        )
        self._next = 0

    def poll(self, step: int) -> List[TrafficMessage]:
        out: List[TrafficMessage] = []
        while self._next < len(self.messages) and (
            self.messages[self._next].start_time <= step
        ):
            out.append(self.messages[self._next])
            self._next += 1
        return out

    def exhausted(self, step: int) -> bool:
        return self._next >= len(self.messages)
