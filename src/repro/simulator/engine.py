"""The step-synchronous simulation engine (Section 5, Figure 7).

Every simulation step executes, in order:

1. **fault detection** — the fault/recovery events scheduled for this step
   are applied to the labeling state (a fault occurring later in the step
   would be detected at the next step, as in the paper);
2. **λ rounds of information exchange** — each round runs one synchronous
   round of block construction (status exchange + rules of Algorithm 1),
   advances every active identification process by one hop and every active
   boundary propagation by one hop.  When the labeling stabilizes, new
   identification processes are started reactively for blocks whose extent
   is not yet identified, and stale records of disappeared blocks are
   cancelled;
3. **message reception / routing decision / message sending** — every
   in-flight routing probe advances exactly one hop (forward or backtrack)
   using whatever information its current node holds *at this step*, which
   is how routing with inconsistent (still-converging) information arises.

The engine records, per fault change, the rounds each construction needed
(``a_i``, ``b_i``, ``c_i``) and, per routing probe, the usual delivery and
detour statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple, Union

from repro.backend import resolve_backend
from repro.core.block_construction import extract_blocks, labeling_round
from repro.core.boundary import BoundaryProtocol
from repro.core.identification import IdentificationProtocol
from repro.core.probe_table import ProbeTable, table_eligible
from repro.core.routing import (
    DecisionCache,
    InformationProvider,
    LinkBlocked,
    RouteOutcome,
    probe_step_limit,
)
from repro.core.state import InformationState
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind
from repro.mesh.regions import Region
from repro.mesh.topology import Mesh
from repro.obs.profile import NULL_PROFILER
from repro.pcs.circuit import Circuit, CircuitLedger, loop_free_slots, make_live_ledger
from repro.pcs.transfer import TransferModel
from repro.routing import AlgorithmRouter, Router, SetupProbe, resolve_router
from repro.simulator.stats import ConvergenceRecord, MessageRecord, SimulationStats
from repro.simulator.traffic import BatchSource, TrafficMessage, TrafficSource

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from repro.core.routing import RouteResult
    from repro.obs.profile import PhaseProfiler
    from repro.obs.recorder import StepRecorder

Coord = Tuple[int, ...]


@dataclass(frozen=True)
class SimulationConfig:
    """Tunable parameters of the execution model.

    None of them selects how the message phase runs: the simulator steps
    its probes on the :class:`~repro.core.probe_table.ProbeTable` (the fast
    path) whenever :func:`~repro.core.probe_table.table_eligible` admits the
    router, backend and mesh, and otherwise runs the scalar
    :class:`~repro.core.routing.RoutingProbe` loop, the table's parity
    oracle.
    """

    #: Rounds of fault-information exchange per step (the paper's ``λ``).
    lam: int = 2

    #: Hard limit on simulated steps.
    max_steps: int = 20_000

    #: Registry name of the router driving every probe (any entry of
    #: :func:`repro.routing.available_routers`, e.g. ``"static-block"`` or
    #: ``"global-information"``).
    router: str = "limited-global"

    #: When True the simulator runs the PCS circuit phase: every in-flight
    #: probe keeps the links of its partial circuit reserved, reserved links
    #: are unavailable to other probes (forcing walk-around/backtrack), and
    #: a delivered circuit stays reserved for a ``transfer``-derived hold
    #: time driven by each message's ``flits``.
    contention: bool = False

    #: Latency model converting a delivered circuit + message length into
    #: the hold time of the data-transmission phase.
    transfer: TransferModel = field(default_factory=TransferModel)

    #: When True, information for the *initial* fault set is fully
    #: distributed before step 0, matching the paper's assumption that the
    #: first ``p`` faults are already stabilized when a routing starts.
    preconverge_initial_faults: bool = True

    #: A probe still in flight after this many steps is reported EXHAUSTED
    #: (``None`` derives the worst-case walk length from
    #: :func:`~repro.core.routing.probe_step_limit`, the same limit
    #: offline routing uses).
    max_probe_lifetime: Optional[int] = None

    #: Hot-loop implementation for the labeling rounds, the circuit ledger
    #: and the message phase: ``"vector"`` (numpy stencil gathers, flat
    #: reservation columns, and the :class:`~repro.core.probe_table.ProbeTable`
    #: fast path for every policy it hosts), ``"scalar"`` (the pure-Python
    #: reference: the :class:`~repro.core.routing.RoutingProbe` loop, the
    #: table's parity oracle) or ``None`` to resolve via the
    #: ``REPRO_BACKEND`` environment variable (vector by default).  Both
    #: produce byte-identical statuses, block extents, reserved-link sets
    #: and probe decisions — the parity tests hold the two to that.
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise ValueError("λ (lam) must be at least 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.max_probe_lifetime is not None and self.max_probe_lifetime < 1:
            raise ValueError("max_probe_lifetime must be at least 1 (or None)")
        resolve_router(self.router)  # unknown names fail fast, with the menu
        if self.backend is not None:
            resolve_backend(self.backend)  # unknown backends fail fast too


@dataclass
class SimulationResult:
    """Everything a finished simulation exposes."""

    stats: SimulationStats
    information: InformationState
    config: SimulationConfig

    @property
    def steps(self) -> int:
        """Number of simulated steps."""
        return self.stats.steps


class Simulator:
    """Discrete-step simulator tying the protocols and routing together."""

    def __init__(
        self,
        mesh: Mesh,
        *,
        schedule: Optional[DynamicFaultSchedule] = None,
        traffic: Union[Sequence[TrafficMessage], TrafficSource] = (),
        config: Optional[SimulationConfig] = None,
        recorder: Optional["StepRecorder"] = None,
        profiler: Optional["PhaseProfiler"] = None,
        table: Optional[ProbeTable] = None,
    ) -> None:
        self.mesh = mesh
        #: Opt-in observability hooks.  The recorder (None by default, one
        #: ``is not None`` check per step) samples one time-series row after
        #: every executed step; the profiler times the step pipeline's phases
        #: as nested spans (the shared no-op profiler when none is attached).
        self._recorder = recorder
        self._profiler = profiler if profiler is not None else NULL_PROFILER
        # Note: a purely static schedule has len() == 0, so test identity
        # against None rather than truthiness.
        self.schedule = schedule if schedule is not None else DynamicFaultSchedule()
        self.config = config or SimulationConfig()
        if isinstance(traffic, TrafficSource) and not isinstance(traffic, (list, tuple)):
            # Streaming traffic: messages are generated as the run proceeds,
            # validated at injection time.
            self._source: TrafficSource = traffic
            self.traffic: List[TrafficMessage] = []
        else:
            self._source = BatchSource(traffic)
            self.traffic = list(self._source.messages)  # type: ignore[attr-defined]
            for message in self.traffic:
                mesh.validate(message.source)
                mesh.validate(message.destination)

        #: Optional source feedback: a source exposing ``message_finished``
        #: (e.g. an open-loop source with per-node injection queues) receives
        #: each terminating message's :class:`MessageRecord`, so it can free
        #: the node's injection port and retry failed setups.
        self._message_finished = getattr(self._source, "message_finished", None)

        self.info = InformationState.fresh(mesh, self.schedule.initial_faults)
        self.stats = SimulationStats()

        #: The router driving every probe, resolved through the registry.
        self.router: Router = resolve_router(self.config.router)
        #: Resolved hot-loop backend (labeling rounds + circuit ledger).
        self._backend = resolve_backend(self.config.backend)
        #: Live link reservations of the PCS circuit phase (``None`` keeps
        #: the contention-free behavior byte-identical to the pre-circuit
        #: engine).
        self.circuits: Optional[CircuitLedger] = (
            make_live_ledger(mesh, self._backend) if self.config.contention else None
        )
        self._next_holder = 0

        #: Per-node decision cache of the scalar probe loop; only
        #: Algorithm-3 probes (plain :class:`RoutingProbe`) read the engine's
        #: own information state, so only those sims get one — the
        #: static-block and global-information probes derive their own views.
        self._decision_cache: Optional[DecisionCache] = (
            DecisionCache(self.info, self.router.policy)
            if isinstance(self.router, AlgorithmRouter)
            else None
        )

        self._identified_extents: Set[Region] = set()
        self._identifications: List[IdentificationProtocol] = []
        self._boundaries: List[BoundaryProtocol] = []
        self._pending_convergence: List[ConvergenceRecord] = []
        #: In-flight probes of the scalar loop: (message, probe, holder,
        #: link-blocked predicate).  The predicate is hoisted here so it is
        #: built once per probe instead of once per probe per step.
        self._probes: List[
            Tuple[TrafficMessage, SetupProbe, int, Optional[LinkBlocked]]
        ] = []
        #: Steps past its start after which a probe still in flight
        #: finishes EXHAUSTED.
        self.probe_lifetime = (
            self.config.max_probe_lifetime
            if self.config.max_probe_lifetime is not None
            else probe_step_limit(mesh)
        )
        self._labeling_dirty = bool(self.schedule.initial_faults)
        #: True once a labeling round produced no change and no fault event
        #: has occurred since.  The round function is a deterministic
        #: fixpoint iteration, so a stable labeling stays stable until the
        #: next event — the engine skips the (whole-mesh) round scan then,
        #: which is what makes long steady-state open-loop runs tractable.
        self._labeling_stable = False
        self._step = 0
        # Events are time-sorted, so the last one bounds the schedule; keeping
        # it here makes _work_remaining O(1) instead of scanning every step.
        self._last_event_time = (
            self.schedule.events[-1].time if self.schedule.events else -1
        )

        #: The message phase's fast path: when :func:`table_eligible` admits
        #: the configuration, probes live as rows of a :class:`ProbeTable`
        #: (this simulator is the cell's
        #: :class:`~repro.core.probe_table.TableHost`) and ``step`` never
        #: builds a probe object.  Decisions, paths and stats are
        #: byte-identical to the scalar probe loop, the oracle the
        #: parity suite holds the table to; anything else — the scalar
        #: backend, the global-information router, >16-dimensional meshes —
        #: steps that loop.  A ``table`` passed in is shared with other
        #: same-shape cells (the stacked sweep runner's lockstep groups);
        #: otherwise the simulator builds its own.
        self._table: Optional[ProbeTable] = None
        self._table_cell = -1
        if table_eligible(self.router, self._backend, mesh.n_dims):
            self._table = table if table is not None else ProbeTable(mesh)
            self._table_cell = self._table.attach(self)
        elif table is not None:
            raise ValueError("simulator configuration is not probe-table eligible")

        if self.config.preconverge_initial_faults and self.schedule.initial_faults:
            self._preconverge()

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #
    def _preconverge(self) -> None:
        """Stabilize labeling and distribute information for initial faults."""
        while labeling_round(self.info.labeling, backend=self._backend):
            pass
        self._labeling_stable = True
        self._start_new_identifications()
        while self._identifications or self._boundaries:
            self._advance_protocols(record_rounds=False)
        self._labeling_dirty = False

    # ------------------------------------------------------------------ #
    # protocol management
    # ------------------------------------------------------------------ #
    def _start_new_identifications(self) -> None:
        """Reactively start identification for blocks without current records."""
        blocks = extract_blocks(self.info.labeling)
        current = {block.extent for block in blocks}
        removed_any = bool(self._identified_extents - current)
        if removed_any:
            self.info.cancel_stale(current)
            self._identified_extents &= current
        version = self.info.bump_version() if current - self._identified_extents else self.info.version
        for block in blocks:
            if block.extent in self._identified_extents:
                continue
            self._identifications.append(
                IdentificationProtocol(self.info, block, version=version)
            )
            self._identified_extents.add(block.extent)

    def _advance_protocols(self, *, record_rounds: bool = True) -> None:
        """Advance every active identification/boundary protocol by one round."""
        still_identifying: List[IdentificationProtocol] = []
        for protocol in self._identifications:
            protocol.round()
            if protocol.done:
                result = protocol.result
                assert result is not None
                if record_rounds:
                    for record in self._pending_convergence:
                        record.identification_rounds = max(
                            record.identification_rounds, result.total_rounds
                        )
                if result.stable:
                    boundary = BoundaryProtocol(self.info)
                    boundary.seed_block(protocol.block, version=result.version)
                    self._boundaries.append(boundary)
                else:
                    # Unstable identification: the block changed while the
                    # process ran; drop it so a fresh process can start once
                    # the labeling stabilizes again.
                    self._identified_extents.discard(protocol.block.extent)
            else:
                still_identifying.append(protocol)
        self._identifications = still_identifying

        still_propagating: List[BoundaryProtocol] = []
        for boundary in self._boundaries:
            active = boundary.round()
            if record_rounds:
                for record in self._pending_convergence:
                    record.boundary_rounds = max(record.boundary_rounds, boundary.rounds)
            if active:
                still_propagating.append(boundary)
        self._boundaries = still_propagating

    # ------------------------------------------------------------------ #
    # stepping
    # ------------------------------------------------------------------ #
    @property
    def current_step(self) -> int:
        """The next step index to execute."""
        return self._step

    def step(self) -> None:
        """Execute one full simulation step (Figure 7 (a))."""
        t = self._step
        prof = self._profiler
        with prof.span("step"):
            with prof.span("information"):
                self._step_information(t)
            with prof.span("messages"):
                if self._table is not None:
                    self._table.run_step(t, (self._table_cell,), profiler=prof)
                else:
                    self._step_messages(t)
        self._step += 1
        self.stats.steps = self._step
        if self._recorder is not None:
            self._recorder.sample(self)

    def _detect_faults(self, t: int, events: Sequence[FaultEvent]) -> None:
        """Phase 1 of step ``t``: apply this step's scheduled fault ``events``."""
        for event in events:
            if event.kind is FaultEventKind.FAULT:
                self.info.labeling.make_faulty(event.node)
                self._teardown_node(event.node, t)
            else:
                self.info.labeling.recover(event.node)
            self._labeling_dirty = True
            self._labeling_stable = False
            self._pending_convergence.append(
                ConvergenceRecord(event=event, detected_step=t)
            )

    def _teardown_node(self, node: Coord, t: int) -> None:
        """Tear down everything standing on or routed through a failed node.

        Runs inside fault detection, so the circuit state is clean of the
        dead node *within the same step* the fault fires: every in-flight
        probe whose partial circuit crosses the node finishes EXHAUSTED (its
        message goes back to the source for retry through the usual finish
        feedback), and every delivered circuit still holding a link into the
        node is dropped mid-transfer and counted as fault-dropped.  Probe
        reservations lie entirely along probe stacks, so after the probe
        sweep every remaining holder incident to the node is a transfer
        hold — :meth:`~repro.pcs.circuit.LiveCircuitLedger.release_crossing`
        frees exactly those.
        """
        node = tuple(node)
        if self._table is not None:
            self._table.teardown_node(self._table_cell, node, t)
        elif self._probes:
            remaining: List[
                Tuple[TrafficMessage, SetupProbe, int, Optional[LinkBlocked]]
            ] = []
            for entry in self._probes:
                message, probe, holder, _blocked = entry
                if node in getattr(probe, "circuit_stack", ()):
                    if self.circuits is not None:
                        self.circuits.release(holder)
                    self._finish_probe(message, probe, finish_step=t)
                else:
                    remaining.append(entry)
            self._probes = remaining
        if self.circuits is not None:
            self.stats.fault_dropped_circuits += self.circuits.release_crossing(node)

    def _step_information(self, t: int) -> None:
        """Phases 1–2 of step ``t``: fault detection + λ information rounds."""
        events = self.schedule.events_at(t)
        if not events and self._information_idle():
            # With nothing to detect, relabel, identify, propagate or
            # record, each of the λ rounds below would be a no-op.
            self.stats.total_rounds += self.config.lam
            return
        prof = self._profiler
        # 1. fault detection -------------------------------------------------
        with prof.span("fault_detect"):
            self._detect_faults(t, events)

        # 2. λ rounds of information exchange --------------------------------
        for _ in range(self.config.lam):
            if self._labeling_stable:
                # A no-change round would scan the whole mesh to conclude
                # nothing moved; the skipped round is exactly that no-op.
                changed = False
            else:
                with prof.span("labeling_round"):
                    changed = labeling_round(self.info.labeling, backend=self._backend)
                if not changed:
                    self._labeling_stable = True
            self.stats.total_rounds += 1
            if changed:
                for record in self._pending_convergence:
                    record.labeling_rounds += 1
            elif self._labeling_dirty:
                # Labeling just stabilized: reactively (re)build information.
                self._start_new_identifications()
                self._labeling_dirty = False
            with prof.span("protocols"):
                self._advance_protocols()
            if (
                not self._labeling_dirty
                and not self._identifications
                and not self._boundaries
            ):
                for record in self._pending_convergence:
                    if record.stabilized_step is None:
                        record.stabilized_step = t
                        self.stats.convergence.append(record)
                self._pending_convergence = [
                    r for r in self._pending_convergence if r.stabilized_step is None
                ]

    def _information_idle(self) -> bool:
        """True when the labeling is stable and no information work is left."""
        return (
            self._labeling_stable
            and not self._labeling_dirty
            and not self._identifications
            and not self._boundaries
            and not self._pending_convergence
        )

    def _step_messages(self, t: int) -> None:
        """Phase 3 of step ``t`` as a scalar probe loop (the parity oracle).

        Table-eligible configurations route through the
        :class:`~repro.core.probe_table.ProbeTable` instead (see ``_table``);
        decisions and statistics are byte-identical.
        """
        # 3. message injection, reception, routing decision, sending ---------
        ledger = self.circuits
        for message in self.poll(t):
            self.mesh.validate(message.source)
            self.mesh.validate(message.destination)
            probe = self.router.probe(self.mesh, message.source, message.destination)
            holder = self._next_holder
            self._next_holder += 1
            blocked = ledger.blocked_for(holder) if ledger is not None else None
            self._probes.append((message, probe, holder, blocked))

        if ledger is not None:
            # Data transmissions finishing before this step free their links.
            ledger.release_expired(t)

        cache = self._decision_cache
        lifetime = self.probe_lifetime
        remaining: List[
            Tuple[TrafficMessage, SetupProbe, int, Optional[LinkBlocked]]
        ] = []
        for entry in self._probes:
            message, probe, holder, blocked = entry
            if ledger is None:
                outcome = probe.step(self.info, decision_cache=cache)
            else:
                stack = probe.circuit_stack
                prev_len, prev_tail = len(stack), stack[-1]
                outcome = probe.step(
                    self.info, link_blocked=blocked, decision_cache=cache
                )
                # Mirror the probe's partial circuit incrementally (a probe
                # moves at most one hop per step): a forward hop reserves its
                # link — visible to probes later in this loop — and a
                # backtrack releases the link just retreated over.
                stack = probe.circuit_stack
                delta = len(stack) - prev_len
                if delta == 1:
                    ledger.reserve_link(holder, stack[-2], stack[-1])
                elif delta == -1:
                    ledger.release_link(holder, prev_tail, stack[-1])
                elif delta != 0:
                    ledger.sync(holder, stack)  # multi-hop moves: full resync
            expired = (t - message.start_time) >= lifetime
            if outcome is not None or expired:
                self._finish_probe(message, probe, finish_step=t)
                if ledger is not None:
                    if outcome is RouteOutcome.DELIVERED:
                        self._hold_stack(holder, probe.circuit_stack, message, t)
                    else:
                        ledger.release(holder)
            else:
                remaining.append(entry)
        self._probes = remaining
        if ledger is not None:
            self.record_occupancy()

    def _finish_probe(
        self, message: TrafficMessage, probe: SetupProbe, *, finish_step: Optional[int]
    ) -> None:
        """Record a finished (or flushed) probe's message statistics."""
        self.finish_message(message, probe.result(), finish_step=finish_step)
        self.stats.timeout_releases += getattr(probe, "timeout_releases", 0)

    # ------------------------------------------------------------------ #
    # the probe table's host contract (shared with the scalar loop)
    # ------------------------------------------------------------------ #
    def decision_view(self) -> InformationProvider:
        """The information this simulator's router classifies over now."""
        return self.router.online_view(self.info)

    def poll(self, t: int) -> Sequence[TrafficMessage]:
        """The messages the traffic source injects at step ``t``."""
        return self._source.poll(t)

    def finish_message(
        self, message: TrafficMessage, result: "RouteResult", *, finish_step: Optional[int]
    ) -> None:
        """Record a finished probe's message statistics.

        A probe that finished at a step goes back to the source's
        feedback; one flushed at the step budget (``finish_step`` is
        ``None``) does not.
        """
        record = MessageRecord(message=message, result=result, finish_step=finish_step)
        self.stats.messages.append(record)
        if finish_step is not None and self._message_finished is not None:
            self._message_finished(record)

    def hold_circuit(
        self,
        holder: int,
        stack: Sequence[int],
        slots: Sequence[int],
        message: TrafficMessage,
        t: int,
    ) -> None:
        """Hold a delivered table row's circuit for the message's data transfer.

        The data circuit is the row's index stack with loop excursions cut
        back to their first visit (:func:`~repro.pcs.circuit.loop_free_slots`);
        the holder is synced to exactly its link slots, which releases the
        excursion links, before the data-phase hold.
        """
        kept = loop_free_slots(stack, slots)
        self.circuits.sync_slots(holder, kept)
        self._hold(holder, len(kept), message, t)

    def _hold_stack(
        self, holder: int, stack: Sequence[Coord], message: TrafficMessage, t: int
    ) -> None:
        """The scalar loop's :meth:`hold_circuit` (its oracle): the same
        hold, through :meth:`Circuit.from_stack` on coordinates."""
        circuit = Circuit.from_stack(stack)
        self.circuits.sync(holder, circuit.path)
        self._hold(holder, circuit.length, message, t)

    def _hold(self, holder: int, hops: int, message: TrafficMessage, t: int) -> None:
        """Keep ``holder``'s circuit of ``hops`` links for the data transfer."""
        hold = self.config.transfer.hop_hold_steps(hops, message.flits)
        self.circuits.hold_until(holder, t + hold)
        self.stats.circuits_reserved += 1

    def record_occupancy(self) -> None:
        """Sample the reserved links at the end of a contended step."""
        self.stats.record_occupancy(self.circuits.reserved_links)

    @property
    def in_flight(self) -> int:
        """Number of probes currently in flight."""
        if self._table is not None:
            return self._table.cell_rows(self._table_cell)
        return len(self._probes)

    def _work_remaining(self) -> bool:
        return bool(
            self._probes
            or (self._table is not None and self._table.cell_rows(self._table_cell))
            or self._pending_convergence
            or self._identifications
            or self._boundaries
            or self._labeling_dirty
            or not self._source.exhausted(self._step)
            or self._last_event_time >= self._step
            # Circuits still holding links are data transfers in flight.
            or (self.circuits is not None and self.circuits.reserved_links > 0)
        )

    def run(self, *, min_steps: int = 0) -> SimulationResult:
        """Run steps until all work has drained (or ``max_steps`` is hit)."""
        while self._step < self.config.max_steps and (
            self._step < min_steps or self._work_remaining()
        ):
            self.step()
        # Flush probes still in flight when the step budget ran out.
        if self._table is not None:
            self._table.flush_cell(self._table_cell)
        for message, probe, holder, _blocked in self._probes:
            self._finish_probe(message, probe, finish_step=None)
            if self.circuits is not None:
                self.circuits.release(holder)
        self._probes = []
        return SimulationResult(stats=self.stats, information=self.info, config=self.config)
