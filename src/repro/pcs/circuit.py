"""Circuit reservations for pipelined circuit switching.

After a routing probe reaches its destination, the nodes on its final stack
hold a reserved circuit from source to destination.  :class:`Circuit`
captures that path (with backtracked prefixes already released, exactly as
PCS releases links when a probe retreats), and the live ledgers are the
simulator's per-step view: they mirror the partial circuit each in-flight
probe holds (reserving links as the probe advances, releasing them on
backtrack) and keep delivered circuits reserved through their
data-transmission hold time.  Each message path has its own ledger:
:class:`ArrayCircuitLedger` (flat columns over link slots) is the probe
table's, and :class:`LiveCircuitLedger` (a plain dict over coordinate
links) is the scalar probe loop's and the array ledger's parity oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Set, Tuple, Union

from repro.mesh.coords import canonical_link, is_adjacent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.mesh.topology import Mesh

Coord = Tuple[int, ...]
Link = Tuple[Coord, Coord]


class ReservationError(RuntimeError):
    """Raised when a circuit cannot be reserved (conflict or invalid path)."""


@dataclass(frozen=True)
class Circuit:
    """A reserved source-to-destination circuit."""

    path: Tuple[Coord, ...]

    def __post_init__(self) -> None:
        path = tuple(tuple(p) for p in self.path)
        if len(path) < 1:
            raise ValueError("a circuit needs at least one node")
        for u, v in zip(path, path[1:]):
            if not is_adjacent(u, v):
                raise ValueError(f"{u} and {v} are not adjacent; not a valid circuit")
        if len(set(path)) != len(path):
            raise ValueError("a reserved circuit cannot visit a node twice")
        object.__setattr__(self, "path", path)

    @classmethod
    def from_stack(cls, stack: Sequence[Sequence[int]]) -> "Circuit":
        """The circuit held by a probe's final stack, loop excursions dropped.

        A probe stack contains no backtracked prefixes (those were popped),
        but a forward move back onto the probe's own path leaves the loop on
        the stack; the effective data circuit cuts each loop back to the
        first visit.  Every link of the result is on the given stack, which
        is the invariant the live reservation ledger relies on at delivery.
        """
        out: List[Coord] = []
        for node in (tuple(n) for n in stack):
            if node in out:
                while out and out[-1] != node:
                    out.pop()
            else:
                out.append(node)
        return cls(tuple(out))

    @property
    def source(self) -> Coord:
        """First node of the circuit."""
        return self.path[0]

    @property
    def destination(self) -> Coord:
        """Last node of the circuit."""
        return self.path[-1]

    @property
    def length(self) -> int:
        """Number of links of the circuit."""
        return len(self.path) - 1

    @property
    def links(self) -> FrozenSet[Link]:
        """Undirected links reserved by the circuit."""
        return frozenset(
            canonical_link(u, v) for u, v in zip(self.path, self.path[1:])
        )


def loop_free_slots(stack: Sequence[int], slots: Sequence[int]) -> List[int]:
    """:meth:`Circuit.from_stack` on node indices: the circuit's link slots.

    ``stack`` is a probe's PCS stack as node indices and ``slots`` the link
    slot entered at each position (-1 at the source).  Each loop excursion
    is cut back to its first visit, as :meth:`Circuit.from_stack` cuts it,
    and the entry slots of the remaining hops are returned in path order,
    so their count is the circuit's length.  Like :class:`Circuit`, it
    rejects a hop over no link and a path that visits a node twice.
    """
    nodes: List[int] = []
    kept: List[int] = []
    for node, slot in zip(stack, slots):
        if node in nodes:
            cut = nodes.index(node) + 1
            del nodes[cut:]
            del kept[cut:]
        else:
            nodes.append(node)
            kept.append(slot)
    del kept[0]
    if min(kept, default=0) < 0:
        raise ValueError(f"stack {list(stack)} takes a hop over no link")
    if len(set(nodes)) != len(nodes):
        raise ValueError("a reserved circuit cannot visit a node twice")
    return kept


@dataclass
class LiveCircuitLedger:
    """Per-step link reservations for circuits in setup and in transfer.

    Each in-flight probe is a *holder* (an opaque integer).  The ledger
    mirrors the probe's partial circuit: links are reserved as the probe
    advances and released as it backtracks (:meth:`sync`).  When a probe
    delivers, its final circuit stays reserved until a release step derived
    from the transfer model (:meth:`hold_until` / :meth:`release_expired`);
    a failed or expired setup releases everything at once
    (:meth:`release`).  :meth:`is_blocked` is the contention predicate the
    routing probes consult — a link is blocked for everyone but its holder.
    """

    _link_holder: Dict[Link, int] = field(default_factory=dict)
    #: Per holder, the held links with a traversal count: a probe that loops
    #: back over its own circuit crosses the same undirected link twice, and
    #: one backtrack must then not release it for good.
    _held: Dict[int, Dict[Link, int]] = field(default_factory=dict)
    #: Min-heap of ``(release_step, holder)`` for circuits in transfer.
    _expiries: List[Tuple[int, int]] = field(default_factory=list)

    def blocked_for(self, holder: int):
        """The :data:`~repro.core.routing.LinkBlocked` predicate of ``holder``."""
        link_holder = self._link_holder

        def link_blocked(u: Coord, v: Coord) -> bool:
            owner = link_holder.get(canonical_link(u, v))
            return owner is not None and owner != holder

        return link_blocked

    def is_blocked(self, holder: int, u: Sequence[int], v: Sequence[int]) -> bool:
        """True iff the ``u``–``v`` link is reserved by a different holder."""
        owner = self._link_holder.get(canonical_link(u, v))
        return owner is not None and owner != holder

    def reserve_link(self, holder: int, u: Coord, v: Coord) -> None:
        """Reserve the ``u``–``v`` link for ``holder`` (one forward hop).

        Crossing a link the holder already has (a probe looping back over
        its own circuit) bumps its traversal count; taking a foreign link is
        a bookkeeping bug.
        """
        link = canonical_link(u, v)
        owner = self._link_holder.get(link)
        if owner is not None and owner != holder:
            raise ReservationError(
                f"link {link} is held by {owner}, cannot be taken by {holder}"
            )
        self._link_holder[link] = holder
        held = self._held.setdefault(holder, {})
        held[link] = held.get(link, 0) + 1

    def release_link(self, holder: int, u: Coord, v: Coord) -> None:
        """Release one traversal of the ``u``–``v`` link (one backtrack)."""
        link = canonical_link(u, v)
        held = self._held.get(holder)
        if held is None or link not in held:
            return
        held[link] -= 1
        if held[link] <= 0:
            del held[link]
            if self._link_holder.get(link) == holder:
                del self._link_holder[link]
            if not held:
                del self._held[holder]

    def sync(self, holder: int, stack: Sequence[Coord]) -> None:
        """Make ``holder``'s reservation exactly the links along ``stack``.

        The probes only ever move onto links they saw unreserved, so taking
        over a link held by someone else indicates a bookkeeping bug.
        """
        links: Dict[Link, int] = {}
        for u, v in zip(stack, stack[1:]):
            link = canonical_link(u, v)
            links[link] = links.get(link, 0) + 1
        held = self._held.get(holder, {})
        for link in held.keys() - links.keys():
            if self._link_holder.get(link) == holder:
                del self._link_holder[link]
        for link in links.keys() - held.keys():
            owner = self._link_holder.get(link)
            if owner is not None and owner != holder:
                raise ReservationError(
                    f"link {link} is held by {owner}, cannot be taken by {holder}"
                )
            self._link_holder[link] = holder
        if links:
            self._held[holder] = links
        else:
            self._held.pop(holder, None)

    def release(self, holder: int) -> None:
        """Drop every link ``holder`` has reserved."""
        for link in self._held.pop(holder, ()):
            if self._link_holder.get(link) == holder:
                del self._link_holder[link]

    def hold_until(self, holder: int, release_step: int) -> None:
        """Keep ``holder``'s current links reserved until ``release_step``."""
        heapq.heappush(self._expiries, (release_step, holder))

    def release_expired(self, step: int) -> int:
        """Release every timed hold due at ``step``; returns how many."""
        released = 0
        while self._expiries and self._expiries[0][0] <= step:
            _, holder = heapq.heappop(self._expiries)
            self.release(holder)
            released += 1
        return released

    def release_crossing(self, node: Sequence[int]) -> int:
        """Release every holder with a link incident to ``node``; returns count.

        The teardown hook for a node fault: any reservation standing on a
        link into or out of the failed node is dropped in one call, whether
        it belongs to an in-setup probe or a circuit in its transfer hold.
        A torn-down transfer hold leaves its heap entry behind; the later
        timed release finds nothing held and is a no-op.
        """
        target = tuple(node)
        doomed = [
            holder
            for holder, held in self._held.items()
            if any(target in link for link in held)
        ]
        for holder in doomed:
            self.release(holder)
        return len(doomed)

    @property
    def reserved_links(self) -> int:
        """Number of links currently reserved (setup + transfer)."""
        return len(self._link_holder)

    @property
    def active_holders(self) -> int:
        """Number of holders currently reserving at least one link."""
        return len(self._held)

    def reserved_link_set(self) -> Set[Link]:
        """The canonical links currently reserved (parity/inspection hook)."""
        return set(self._link_holder)


class ArrayCircuitLedger:
    """The probe table's :class:`LiveCircuitLedger`, over link slots.

    Byte-identical behavior, but links are the mesh's canonical link slots
    (:attr:`Mesh.link_slot_table`) and link state lives in three flat
    preallocated columns over them: ``holder`` (the reserving holder id,
    ``-1`` free), ``refcount`` (the holder's traversal count of the link)
    and ``release`` (the step a timed transfer hold expires, ``-1`` none) —
    so a blocked check (the table reads ``holder`` directly) and
    :meth:`reserve_slot` are O(1) indexed reads/writes with no per-step
    dict churn, and :meth:`release_expired` finds every due link in one
    vectorized numpy sweep over the release column.  (The holder/refcount
    columns are flat Python lists rather than ndarrays: the table reads
    them one element at a time, where list indexing beats numpy scalar
    indexing; the release column *is* an ndarray because it is only ever
    swept whole.)  A per-holder set of held link slots is kept on the side
    so releasing a holder touches only its own links.

    One usage contract (the engine's lifecycle satisfies it, and the dict
    ledger shares it in practice): a holder reserves no further links after
    :meth:`hold_until` — the timed release clears exactly the links stamped
    when the hold was taken.
    """

    def __init__(self, mesh: "Mesh") -> None:
        import numpy as np

        self.mesh = mesh
        slots = mesh.link_slots
        self._holder: List[int] = [-1] * slots
        self._refcount: List[int] = [0] * slots
        self._release = np.full(slots, -1, dtype=np.int64)
        #: Per holder, the link indices it currently holds (refcounts live in
        #: the ``refcount`` column; a link has one holder, so no ambiguity).
        self._held: Dict[int, Set[int]] = {}
        #: Min-heap of ``(release_step, holder)`` — kept for the exact
        #: released-holder counting semantics of the dict ledger; the link
        #: clearing itself is the vectorized column sweep.
        self._expiries: List[Tuple[int, int]] = []
        self._reserved_count = 0
        #: Bumped whenever a link transitions held -> free, and each slot
        #: stamped with the epoch of its last such transition.  A probe
        #: waiting on an all-blocked candidate list can only be unblocked by
        #: a free of one of its candidates (a slot changes holder only
        #: through a free; reserves only ever block more), so the probe
        #: engine parks waiters and skips their re-scan while the epoch is
        #: unchanged or none of their candidate slots was stamped since.
        self._epoch = 0
        self._freed: List[int] = [0] * slots

    def reserve_slot(self, holder: int, index: int) -> None:
        """Reserve link slot ``index`` for ``holder`` (one forward hop).

        The probe table reads each hop's slot off
        :attr:`Mesh.link_slot_table`, so the per-hop reserve needs no
        endpoint-pair lookup at all.  Crossing a slot the holder already
        has bumps its traversal count; taking a foreign one is a
        bookkeeping bug.
        """
        owner = self._holder[index]
        if owner >= 0 and owner != holder:
            raise ReservationError(
                f"link {self.mesh.link_of_index(index)} is held by {owner}, "
                f"cannot be taken by {holder}"
            )
        if owner < 0:
            self._holder[index] = holder
            self._reserved_count += 1
        self._held.setdefault(holder, set()).add(index)
        self._refcount[index] += 1

    def release_slot(self, holder: int, index: int) -> None:
        """Release one traversal of link slot ``index`` (one backtrack)."""
        held = self._held.get(holder)
        if held is None or index not in held:
            return
        self._refcount[index] -= 1
        if self._refcount[index] <= 0:
            self._refcount[index] = 0
            self._release[index] = -1
            held.discard(index)
            if self._holder[index] == holder:
                self._holder[index] = -1
                self._reserved_count -= 1
                self._epoch += 1
                self._freed[index] = self._epoch
            if not held:
                del self._held[holder]

    def sync(self, holder: int, slots: Sequence[int]) -> None:
        """Make ``holder``'s reservation exactly ``slots``, a loop-free circuit.

        ``holder`` ends holding each of ``slots`` once, as
        :func:`loop_free_slots` returns them; the probe table's delivered
        rows are held this way, with no coordinate round trip.
        """
        kept = set(slots)
        held = self._held.get(holder, set())
        for index in held - kept:
            if self._holder[index] == holder:
                self._holder[index] = -1
                self._reserved_count -= 1
                self._epoch += 1
                self._freed[index] = self._epoch
            self._refcount[index] = 0
            self._release[index] = -1
        for index in kept - held:
            owner = self._holder[index]
            if owner >= 0 and owner != holder:
                raise ReservationError(
                    f"link {self.mesh.link_of_index(index)} is held by {owner}, "
                    f"cannot be taken by {holder}"
                )
            self._holder[index] = holder
            self._reserved_count += 1
        for index in kept:
            self._refcount[index] = 1
        if kept:
            self._held[holder] = kept
        else:
            self._held.pop(holder, None)

    def release(self, holder: int) -> None:
        """Drop every link ``holder`` has reserved."""
        for index in self._held.pop(holder, ()):
            if self._holder[index] == holder:
                self._holder[index] = -1
                self._refcount[index] = 0
                self._release[index] = -1
                self._reserved_count -= 1
                self._epoch += 1
                self._freed[index] = self._epoch

    def hold_until(self, holder: int, release_step: int) -> None:
        """Keep ``holder``'s current links reserved until ``release_step``."""
        heapq.heappush(self._expiries, (release_step, holder))
        for index in self._held.get(holder, ()):
            self._release[index] = release_step

    def release_crossing(self, node: Sequence[int]) -> int:
        """Release every holder with a link incident to ``node``; returns count.

        Same teardown semantics as the dict ledger: releasing through
        :meth:`release` resets the release column for the dropped links, so
        the stale ``_expiries`` heap entry of a torn-down transfer hold is a
        no-op when it comes due.  A holder is doomed when its held slots
        meet the slots of the node's incident links.
        """
        incident = {
            slot
            for slot in self.mesh.link_slot_table[self.mesh.index_of(node)].tolist()
            if slot >= 0
        }
        doomed = [
            holder for holder, held in self._held.items() if not held.isdisjoint(incident)
        ]
        for holder in doomed:
            self.release(holder)
        return len(doomed)

    def release_expired(self, step: int) -> int:
        """Release every timed hold due at ``step``; returns how many."""
        if not self._expiries or self._expiries[0][0] > step:
            return 0
        import numpy as np

        # One vectorized sweep over the release column finds every due link.
        due = np.flatnonzero((self._release >= 0) & (self._release <= step))
        if due.size:
            for index in due.tolist():
                if self._holder[index] >= 0:
                    self._holder[index] = -1
                    self._reserved_count -= 1
                    self._epoch += 1
                    self._freed[index] = self._epoch
                self._refcount[index] = 0
            self._release[due] = -1
        released = 0
        while self._expiries and self._expiries[0][0] <= step:
            _, holder = heapq.heappop(self._expiries)
            self._held.pop(holder, None)
            released += 1
        return released

    @property
    def reserved_links(self) -> int:
        """Number of links currently reserved (setup + transfer)."""
        return self._reserved_count

    @property
    def active_holders(self) -> int:
        """Number of holders currently reserving at least one link."""
        return len(self._held)

    def reserved_link_set(self) -> Set[Link]:
        """The canonical links currently reserved (parity/inspection hook)."""
        link_of_index = self.mesh.link_of_index
        return {
            link_of_index(index)
            for index, owner in enumerate(self._holder)
            if owner >= 0
        }


#: Either live ledger: the scalar probe loop's or the probe table's.
CircuitLedger = Union[LiveCircuitLedger, ArrayCircuitLedger]
