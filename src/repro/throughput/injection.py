"""Open-loop message injection: per-node sources feeding the simulator live.

Closed-batch experiments replay a fixed list of messages; an *open-loop*
experiment instead offers load at a fixed **rate** — every node decides at
every step, independently of how the network is doing, whether to inject a
message.  This is the standard interconnection-network methodology for
saturation measurements: because injection never waits for the network,
accepted throughput genuinely saturates once setups cannot keep up.

Two ingredients compose an :class:`OpenLoopSource`:

* an **injection process** deciding *when* each node injects —
  :class:`BernoulliInjection` (memoryless, ``rate`` per node per step) or
  :class:`BurstyInjection` (a two-state on/off Markov process with the same
  mean rate but clustered arrivals, of fixed shape :data:`BURSTINESS` and
  :data:`MEAN_BURST`);
* a **spatial pattern** deciding *where* each message goes — ``uniform``
  (uniform-random destinations), ``transpose`` (the adversarial coordinate
  reversal) or ``hotspot`` (:data:`~repro.workloads.traffic.HOTSPOT_FRACTION`
  of the messages target :func:`~repro.workloads.traffic.hotspot_node`), the
  same families as the closed-batch traffic of
  :func:`~repro.workloads.simulate_scenario`.

Everything is deterministic in the source's seed: the per-step RNG draws
happen in a fixed order, so two runs with the same seed inject the same
messages at the same steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mesh.topology import Mesh
from repro.simulator.traffic import TrafficMessage
from repro.workloads.traffic import HOTSPOT_FRACTION, hotspot_node

Coord = Tuple[int, ...]

#: Spatial destination patterns an :class:`OpenLoopSource` understands.
PATTERNS = ("uniform", "transpose", "hotspot")

#: A bursty node's ON-state rate is ``BURSTINESS`` times the mean rate, and
#: its ON periods last ``MEAN_BURST`` steps on average.
BURSTINESS = 4.0
MEAN_BURST = 8.0

#: Steps a port stays idle before re-issuing a failed setup, per attempt.
RETRY_BACKOFF = 8


@dataclass(frozen=True)
class BernoulliInjection:
    """Memoryless injection: each node injects with ``rate`` per step."""

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")

    def injecting(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Boolean mask over ``count`` nodes: who injects this step."""
        return rng.random(count) < self.rate


class BurstyInjection:
    """On/off (two-state Markov) injection with mean rate ``rate``.

    Each node is either ON or OFF.  An ON node injects with probability
    ``rate * BURSTINESS`` per step; an OFF node never injects.  Transition
    probabilities are chosen so the expected ON duration is
    :data:`MEAN_BURST` steps and the stationary ON fraction is
    ``1 / BURSTINESS`` — the mean offered load equals ``rate``, but arrivals
    cluster into bursts whose setups race for the same links.
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        self.on_rate = min(1.0, rate * BURSTINESS)
        # The ON-state rate saturates at 1, so for rate > 1/BURSTINESS the
        # duty cycle widens instead (rate = on_rate * duty stays exact
        # instead of silently plateauing at 1/BURSTINESS).
        self.duty = rate / self.on_rate if self.on_rate > 0 else 0.0
        self.p_off = 1.0 / MEAN_BURST
        # Stationary ON fraction p_on/(p_on+p_off) == duty.
        self.p_on = (
            self.p_off * self.duty / (1.0 - self.duty) if self.duty < 1.0 else 1.0
        )
        self._state: Optional[np.ndarray] = None

    def injecting(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Boolean mask over ``count`` nodes: who injects this step."""
        if self._state is None or len(self._state) != count:
            # Start in the stationary distribution so the warmup window does
            # not have to absorb an all-OFF transient.
            self._state = rng.random(count) < self.duty
        flips = rng.random(count)
        self._state = np.where(
            self._state, flips >= self.p_off, flips < self.p_on
        )
        return self._state & (rng.random(count) < self.on_rate)


def make_injection(kind: str, rate: float):
    """Build an injection process by name (``"bernoulli"`` or ``"bursty"``)."""
    if kind == "bernoulli":
        return BernoulliInjection(rate)
    if kind == "bursty":
        return BurstyInjection(rate)
    raise ValueError(f"unknown injection process {kind!r} (bernoulli or bursty)")


class OpenLoopSource:
    """A :class:`~repro.simulator.traffic.TrafficSource` offering load at a rate.

    The simulator polls the source once per step; the source asks its
    injection process which of the non-excluded nodes *generate* a message
    and draws each message's destination from the spatial pattern.

    Each node has **one injection port**: at most one of its messages is in
    setup at a time, and messages generated while the port is busy wait in
    the node's source queue (the simulator reports finished setups back
    through :meth:`message_finished`).  Generation never depends on network
    state — that is what makes the load open-loop — but emission respects
    the port, so latency past saturation grows with the queue instead of the
    network drowning in physically impossible concurrent setups.  Every
    emitted message carries its generation step in ``created_time``, so
    latency accounting includes the queueing delay.

    A setup that fails (exhausted its lifetime, or was torn down by a
    fault) is re-issued by the source, keeping its original generation
    step — the PCS retry model.  ``stop`` ends generation (exclusive);
    queued messages freeze there too, and the measurement harness counts
    them as unfinished backlog.
    """

    def __init__(
        self,
        mesh: Mesh,
        process,
        *,
        pattern: str = "uniform",
        seed: int = 0,
        flits: int = 64,
        stop: Optional[int] = None,
        exclude: Sequence[Coord] = (),
    ) -> None:
        if pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {pattern!r} (choose from {PATTERNS})")
        if pattern == "transpose" and len(set(mesh.shape)) != 1:
            raise ValueError("transpose traffic requires a uniform (cubic) mesh")
        self.mesh = mesh
        self.process = process
        self.pattern = pattern
        self.flits = flits
        self.stop = stop
        self.rng = np.random.default_rng(seed)
        excluded = {tuple(e) for e in exclude}
        #: Nodes that may inject / receive, in mesh enumeration order.
        self.nodes: List[Coord] = [n for n in mesh.nodes() if n not in excluded]
        if len(self.nodes) < 2:
            raise ValueError("need at least two non-excluded nodes")
        self._excluded = excluded
        self.hotspot = hotspot_node(mesh, excluded) if pattern == "hotspot" else None
        #: Messages generated so far (the offered load; includes queued).
        self.generated = 0
        #: Messages actually emitted into the simulator so far.
        self.injected = 0
        #: Generation steps of every message generated (for the windowed
        #: offered-load accounting).
        self.generation_log: List[int] = []
        #: Per-node FIFO of (created_step, destination, ready_step, attempt)
        #: waiting for the port.
        self._queues: dict = {node: deque() for node in self.nodes}
        #: Nodes whose injection port currently has a setup in flight (the
        #: value is the attempt number of the in-flight setup).
        self._busy: dict = {}
        #: Positions in :attr:`nodes` of the nodes whose port is free and
        #: whose queue is not empty: the only nodes emission visits.
        self._ready: Set[int] = set()
        self._position = {node: i for i, node in enumerate(self.nodes)}

    # ------------------------------------------------------------------ #
    # TrafficSource protocol
    # ------------------------------------------------------------------ #
    def poll(self, step: int) -> List[TrafficMessage]:
        if self.stop is None or step < self.stop:
            # Generation: open-loop, independent of network state.
            mask = self.process.injecting(self.rng, len(self.nodes))
            for index in np.flatnonzero(mask).tolist():
                source = self.nodes[index]
                destination = self._destination(source)
                if destination is None:
                    continue
                self._queues[source].append((step, destination, step, 0))
                if source not in self._busy:
                    self._ready.add(index)
                self.generated += 1
                self.generation_log.append(step)
        else:
            return []  # generation (and emission) stop together
        # Emission: one message per free injection port, in node order
        # (heads still backing off after a failed attempt keep their port
        # idle this step).
        out: List[TrafficMessage] = []
        for index in sorted(self._ready):
            node = self.nodes[index]
            queue = self._queues[node]
            if queue[0][2] > step:
                continue
            created, destination, _ready, attempt = queue.popleft()
            self._busy[node] = attempt
            self._ready.discard(index)
            out.append(
                TrafficMessage(
                    source=node,
                    destination=destination,
                    start_time=step,
                    flits=self.flits,
                    created_time=created,
                )
            )
        self.injected += len(out)
        return out

    def message_finished(self, record) -> None:
        """Simulator feedback: a setup terminated; free the node's port.

        An undelivered setup goes back to the *front* of its node's queue
        (it is the node's oldest message) and is re-issued after
        ``RETRY_BACKOFF`` steps per attempt — unless generation has stopped,
        in which case it stays in the backlog accounting as a frozen queue
        entry.  All probes decide deterministically, so two colliding setups
        retried at once would collide again in lockstep forever; the
        attempt-scaled backoff staggers them apart.
        """
        message = record.message
        attempt = self._busy.pop(message.source, 0)
        queue = self._queues[message.source]
        if not record.delivered:
            finish = record.finish_step if record.finish_step is not None else 0
            ready = finish + 1 + RETRY_BACKOFF * (attempt + 1)
            queue.appendleft(
                (message.created_time, message.destination, ready, attempt + 1)
            )
        if queue:
            self._ready.add(self._position[message.source])

    def exhausted(self, step: int) -> bool:
        return self.stop is not None and step >= self.stop

    @property
    def queued(self) -> int:
        """Messages generated but not yet emitted (source backlog)."""
        return sum(len(q) for q in self._queues.values())

    def generated_between(self, lo: int, hi: int) -> int:
        """Messages generated in ``[lo, hi)`` (emitted or still queued)."""
        return sum(1 for created in self.generation_log if lo <= created < hi)

    # ------------------------------------------------------------------ #
    # destinations
    # ------------------------------------------------------------------ #
    def _destination(self, source: Coord) -> Optional[Coord]:
        if self.pattern == "transpose":
            destination = tuple(reversed(source))
            if destination == source or destination in self._excluded:
                return None  # diagonal / faulty partner: nothing to send
            return destination
        if self.pattern == "hotspot" and self.rng.random() < HOTSPOT_FRACTION:
            if source != self.hotspot:
                return self.hotspot
            # The hotspot itself falls through to uniform traffic.
        index = int(self.rng.integers(0, len(self.nodes)))
        if self.nodes[index] == source:
            index = (index + 1) % len(self.nodes)
        return self.nodes[index]
