"""Scalar-vs-vectorized parity: labeling, ledger, decisions, index tables.

The numpy-vectorized labeling engine, the array-backed reservation ledger
and the probe table's decision kernel (:func:`classify_rows`) must be
*byte-identical* to their pure-Python reference implementations — same
statuses, same mutation counters, same block extents, same reserved-link
sets, same candidate classifications, same simulation statistics.  These tests drive both
implementations through randomized fault churn, dynamic schedule replays,
full simulations for every registered router policy in both contention
modes, randomized probe-decision sweeps over every probe kind, and
randomized reserve/release/ref-count/expiry sequences.
"""

import numpy as np
import pytest

from repro.backend import ENV_VAR, SCALAR, VECTOR
from repro.core.block_construction import (
    LabelingState,
    build_blocks,
    extract_blocks,
    labeling_round,
    run_block_construction,
)
from repro.core.decision import VectorDecisionEngine, classify_rows
from repro.core.distribution import distribute_information
from repro.core.routing import (
    DecisionCache,
    DirectionClass,
    RoutingPolicy,
    RoutingProbe,
    decision_candidates,
)
from repro.core.state import InformationState
from repro.faults.injection import uniform_random_faults
from repro.faults.schedule import DynamicFaultSchedule, FaultEvent, FaultEventKind
from repro.mesh.topology import Mesh
from repro.pcs.circuit import (
    ArrayCircuitLedger,
    Circuit,
    LiveCircuitLedger,
    ReservationError,
    loop_free_slots,
)
from repro.pcs.transfer import hold_steps
from repro.routing import available_routers
from repro.routing.static_block import adjacent_only_information
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage
from repro.workloads.traffic import random_pairs, transpose_pairs

BACKENDS = (SCALAR, VECTOR)


def _on(monkeypatch, backend, fn, *args):
    """``fn(*args)`` with ``REPRO_BACKEND`` set to ``backend``."""
    monkeypatch.setenv(ENV_VAR, backend)
    return fn(*args)


def _assert_states_identical(scalar: LabelingState, vector: LabelingState) -> None:
    assert np.array_equal(scalar.codes, vector.codes)
    assert scalar._non_enabled == vector._non_enabled
    assert scalar.mutations == vector.mutations
    scalar_blocks = [(b.extent, tuple(b.faulty_nodes)) for b in extract_blocks(scalar)]
    vector_blocks = [(b.extent, tuple(b.faulty_nodes)) for b in extract_blocks(vector)]
    assert scalar_blocks == vector_blocks


# --------------------------------------------------------------------- #
# labeling rounds
# --------------------------------------------------------------------- #
class TestLabelingParity:
    @pytest.mark.parametrize("shape", [(12, 12), (8, 8, 8), (6, 6, 4, 4)])
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_fault_churn(self, shape, seed, monkeypatch):
        """Fault → converge → recover → converge → re-fault → converge."""
        mesh = Mesh(shape)
        rng = np.random.default_rng(seed)
        count = max(4, mesh.size // 60)
        faults = uniform_random_faults(mesh, count, rng, margin=1)

        states = {b: LabelingState.from_faults(mesh, faults) for b in BACKENDS}
        results = {
            b: _on(monkeypatch, b, run_block_construction, states[b]) for b in BACKENDS
        }
        assert results[SCALAR].rounds == results[VECTOR].rounds
        assert results[SCALAR].status_changes == results[VECTOR].status_changes
        _assert_states_identical(states[SCALAR], states[VECTOR])

        # Recover a sample of the faults, one convergence per recovery.
        recovered = [faults[i] for i in rng.choice(len(faults), len(faults) // 2, replace=False)]
        for node in recovered:
            for backend in BACKENDS:
                states[backend].recover(node)
                _on(monkeypatch, backend, run_block_construction, states[backend])
            _assert_states_identical(states[SCALAR], states[VECTOR])

        # New faults elsewhere (churn), round-by-round lockstep this time.
        new_faults = uniform_random_faults(
            mesh, count // 2 + 1, rng, margin=1, exclude=faults
        )
        for node in new_faults:
            for backend in BACKENDS:
                states[backend].make_faulty(node)
            while True:
                changed = {
                    b: _on(monkeypatch, b, labeling_round, states[b]) for b in BACKENDS
                }
                assert changed[SCALAR] == changed[VECTOR]
                _assert_states_identical(states[SCALAR], states[VECTOR])
                if changed[SCALAR] == 0:
                    break

    def test_surface_touching_block(self, monkeypatch):
        """Faults near the surface exercise the off-mesh sentinel handling."""
        mesh = Mesh.cube(8, 2)
        faults = [(1, 1), (1, 2), (2, 1), (6, 6), (6, 5)]
        states = {b: LabelingState.from_faults(mesh, faults) for b in BACKENDS}
        for backend in BACKENDS:
            _on(monkeypatch, backend, run_block_construction, states[backend])
        _assert_states_identical(states[SCALAR], states[VECTOR])

    def test_empty_state_round_is_noop(self, monkeypatch):
        mesh = Mesh.cube(6, 2)
        for backend in BACKENDS:
            state = LabelingState(mesh=mesh)
            assert _on(monkeypatch, backend, labeling_round, state) == 0
            assert state.mutations == 0


class TestScheduleReplayParity:
    def _schedule(self):
        return DynamicFaultSchedule(
            initial_faults={(4, 4), (4, 5)},
            events=[
                FaultEvent(3, (5, 4)),
                FaultEvent(6, (5, 5)),
                FaultEvent(10, (4, 4), FaultEventKind.RECOVERY),
                FaultEvent(14, (2, 6)),
                FaultEvent(18, (5, 4), FaultEventKind.RECOVERY),
            ],
        )

    @pytest.mark.parametrize("contention", [False, True])
    @pytest.mark.parametrize("router", available_routers())
    def test_dynamic_fault_replay(self, router, contention, monkeypatch):
        """Full simulator runs under both backends are byte-identical.

        Faults arrive and recover mid-run, so static-block's scalar loop
        and probe table both swap to a new adjacent-only view at every
        relabel.
        """
        mesh = Mesh.cube(10, 2)
        traffic = [
            TrafficMessage(source=(0, 0), destination=(9, 9), start_time=0, flits=16),
            TrafficMessage(source=(9, 0), destination=(0, 9), start_time=4, flits=16),
            TrafficMessage(source=(0, 9), destination=(9, 0), start_time=8, flits=16),
            TrafficMessage(source=(2, 0), destination=(7, 9), start_time=12, flits=16),
        ]
        outputs = {}
        for backend in BACKENDS:
            monkeypatch.setenv(ENV_VAR, backend)
            sim = Simulator(
                mesh,
                schedule=self._schedule(),
                traffic=list(traffic),
                config=SimulationConfig(router=router, contention=contention),
            )
            result = sim.run()
            outputs[backend] = (
                result.stats.summary(),
                [
                    (m.message.source, m.message.destination,
                     m.result.outcome, tuple(m.result.path))
                    for m in result.stats.messages
                ],
                result.info.labeling.non_enabled_nodes(),
            )
            if contention:
                assert sim.circuits.reserved_links == 0
        assert outputs[SCALAR] == outputs[VECTOR]


class TestPolicyContentionParity:
    @pytest.mark.parametrize("contention", [False, True])
    @pytest.mark.parametrize("policy", sorted(available_routers()))
    def test_policy_parity_both_contention_modes(self, policy, contention, monkeypatch):
        """Acceptance gate: every registry policy x contention mode, both backends.

        With the vector backend the simulator runs every policy but
        global-information on the probe table (and, under contention, scans
        candidates against the array ledger's holder column); the scalar
        backend keeps the per-probe reference loop.  Stats and per-message
        paths must be byte-identical.
        """
        mesh = Mesh.cube(8, 2)
        rng = np.random.default_rng(11)
        faults = uniform_random_faults(mesh, 4, rng, margin=1)
        fault_set = set(faults)
        pairs = [
            (s, d)
            for s, d in transpose_pairs(mesh)
            if s not in fault_set and d not in fault_set
        ][:24]
        traffic = [
            TrafficMessage(source=s, destination=d, start_time=i // 4, flits=8)
            for i, (s, d) in enumerate(pairs)
        ]
        outputs = {}
        for backend in BACKENDS:
            monkeypatch.setenv(ENV_VAR, backend)
            sim = Simulator(
                mesh,
                schedule=DynamicFaultSchedule.static(faults),
                traffic=list(traffic),
                config=SimulationConfig(router=policy, contention=contention),
            )
            stats = sim.run().stats
            outputs[backend] = (
                stats.summary(),
                [
                    (m.message.source, m.message.destination,
                     m.result.outcome, tuple(m.result.path))
                    for m in stats.messages
                ],
            )
        assert outputs[SCALAR] == outputs[VECTOR]


# --------------------------------------------------------------------- #
# decision kernel
# --------------------------------------------------------------------- #

#: The five Algorithm-3 policies with their offline information view
#: builders; ``global-information`` plans with a BFS (no per-direction
#: classification) and is covered by the full-simulation parity above.
DECISION_POLICIES = {
    "limited-global": (RoutingPolicy.limited_global, distribute_information),
    "static-block": (
        lambda: RoutingPolicy(name="static-block", use_boundary_info=False),
        adjacent_only_information,
    ),
    "boundary-only": (
        lambda: RoutingPolicy(name="boundary-only", use_block_info=False),
        distribute_information,
    ),
    "no-disabled-avoid": (
        lambda: RoutingPolicy(name="no-disabled-avoid", avoid_known_disabled=False),
        distribute_information,
    ),
    "no-information": (
        RoutingPolicy.no_information,
        lambda mesh, labeling: InformationState(mesh=mesh, labeling=labeling),
    ),
}


def _decision_population(mesh, info, policy, rng, count):
    """In-flight headers covering all four probe kinds.

    * **fresh** — a probe still at its source (no stack, no used set);
    * **advancing** — mid-walk with an incoming direction;
    * **revisiting** — nodes with non-empty used-direction sets (walks that
      backtracked or looped);
    * **rule-1** — a probe standing on a *disabled* node away from its
      source (``decision_candidates`` must return ``None``).

    The first three arise from stepping real probes to staggered depths;
    the rule-1 kind is crafted explicitly because delivered walks avoid it.
    """
    labeling = info.labeling
    pairs = random_pairs(
        mesh, count, rng,
        min_distance=max(2, mesh.diameter // 2),
        exclude=list(labeling.block_nodes),
    )
    cache = DecisionCache(info, policy)
    headers = []
    for i, (src, dst) in enumerate(pairs):
        probe = RoutingProbe(mesh, src, dst, policy=policy)
        for _ in range(i % (mesh.diameter + 2)):
            if probe.done:
                break
            probe.step(info, decision_cache=cache)
        if not probe.done:
            headers.append(probe.header)
    # Rule-1 kind: place a probe on every disabled node (entered from a
    # neighbor, so the source differs and the unconditional-backtrack rule
    # fires), plus one *starting* on a disabled node (rule 1 must not fire).
    for node in sorted(labeling.disabled_nodes):
        for neighbor in mesh.neighbors(node):
            if labeling.is_operational(neighbor):
                probe = RoutingProbe(mesh, neighbor, node, policy=policy)
                probe.header.push(node)
                headers.append(probe.header)
                break
        far = max(mesh.nodes(), key=lambda c: mesh.distance(c, node))
        headers.append(RoutingProbe(mesh, node, far, policy=policy).header)
    return headers


def _columns(mesh, headers):
    """A header batch as :func:`classify_rows` column inputs.

    The same columns the probe table keeps per row: node and destination
    indices, the reversed incoming direction (surface index, ``-1`` at a
    probe holding no link), the used-direction word and the rule-1 check.
    """
    surface = {d: j for j, d in enumerate(mesh.directions)}
    cur = np.array([mesh.index_of(h.current) for h in headers], dtype=np.int64)
    dest = np.array([mesh.index_of(h.destination) for h in headers], dtype=np.int64)
    rev = np.array(
        [
            -1 if h.incoming_direction is None
            else surface[h.incoming_direction.reversed()]
            for h in headers
        ],
        dtype=np.int64,
    )
    used = np.array(
        [sum(1 << surface[d] for d in h.used_at(h.current)) for h in headers],
        dtype=np.uint32,
    )
    at_source = np.array([h.current == h.source for h in headers], dtype=bool)
    return cur, cur, dest, rev, used, at_source


def _vector_candidates(engine, headers):
    """:func:`classify_rows` over ``headers``, decoded to the oracle's form."""
    mesh = engine.mesh
    tables, _token = engine.tables()
    backtrack, sorted_dirs, counts, keys = classify_rows(
        tables, *_columns(mesh, headers)
    )
    unit = tables.span + 1
    out = []
    for g in range(len(headers)):
        if backtrack[g]:
            out.append(None)
            continue
        out.append([
            (DirectionClass(int(keys[g, j]) // unit), mesh.directions[j])
            for j in sorted_dirs[g, : counts[g]].tolist()
        ])
    return out


class TestDecisionBatchParity:
    """The vectorized decision kernel == scalar reference, byte-identical."""

    @pytest.mark.parametrize("policy_name", sorted(DECISION_POLICIES))
    @pytest.mark.parametrize("shape,seed", [((12, 12), 0), ((12, 12), 1), ((7, 7, 7), 2)])
    def test_randomized_decision_sweep(self, policy_name, shape, seed):
        mesh = Mesh(shape)
        rng = np.random.default_rng(seed)
        faults = uniform_random_faults(mesh, max(4, mesh.size // 80), rng, margin=1)
        labeling = build_blocks(mesh, faults).state
        make_policy, make_info = DECISION_POLICIES[policy_name]
        policy = make_policy()
        info = make_info(mesh, labeling)
        headers = _decision_population(mesh, info, policy, rng, count=48)
        assert headers, "population generation produced no in-flight headers"

        scalar_cache = DecisionCache(info, policy)
        expected = [
            decision_candidates(info, h, policy=policy, cache=scalar_cache)
            for h in headers
        ]
        engine = VectorDecisionEngine(info, policy)
        assert _vector_candidates(engine, headers) == expected

    def test_rule_one_returns_none(self):
        """A probe on a disabled node away from its source gets ``None``."""
        mesh = Mesh.cube(8, 2)
        faults = [(3, 3), (3, 5), (5, 3), (5, 5), (4, 4)]
        labeling = build_blocks(mesh, faults).state
        disabled = sorted(labeling.disabled_nodes)
        assert disabled, "fault pattern must disable at least one node"
        info = distribute_information(mesh, labeling)
        policy = RoutingPolicy.limited_global()
        node = disabled[0]
        # Entered over a real link, so the row has an incoming direction.
        neighbor = next(n for n in mesh.neighbors(node) if labeling.is_operational(n))
        entered = RoutingProbe(mesh, neighbor, (7, 7), policy=policy)
        entered.header.push(node)
        starting = RoutingProbe(mesh, node, (7, 7), policy=policy)
        engine = VectorDecisionEngine(info, policy)
        batch = _vector_candidates(engine, [entered.header, starting.header])
        assert batch[0] is None
        assert batch[1] is not None  # rule 1 never strands a probe at home
        assert batch == [
            decision_candidates(info, h, policy=policy)
            for h in (entered.header, starting.header)
        ]

    def test_batch_tracks_information_mutations(self):
        """The engine's tables refresh when labeling or records change."""
        mesh = Mesh.cube(8, 2)
        labeling = build_blocks(mesh, [(3, 3)]).state
        info = distribute_information(mesh, labeling)
        policy = RoutingPolicy.limited_global()
        engine = VectorDecisionEngine(info, policy)
        header = RoutingProbe(mesh, (5, 3), (7, 7), policy=policy).header
        before = _vector_candidates(engine, [header])
        assert before == [decision_candidates(info, header, policy=policy)]
        # Grow the block: (5,3)'s -x neighbor turns faulty, so its usable
        # direction set (and with it the candidate list) must change.
        labeling.make_faulty((4, 3))
        run_block_construction(labeling)
        info.clear_information()
        fresh = distribute_information(mesh, labeling)
        info.node_blocks.update(fresh.node_blocks)
        info.node_boundaries.update(fresh.node_boundaries)
        info.record_mutations += 1
        after = _vector_candidates(engine, [header])
        assert after == [decision_candidates(info, header, policy=policy)]
        assert after != before


# --------------------------------------------------------------------- #
# circuit ledger
# --------------------------------------------------------------------- #
def _slots(mesh, path):
    """The link slots along a loop-free coordinate ``path``."""
    return [mesh.link_index(u, v) for u, v in zip(path, path[1:])]


class TestLedgerParity:
    """The dict ledger over coordinates against the array ledger over the
    link slots the probe table reserves by."""

    def _assert_ledgers_identical(self, scalar, vector):
        assert scalar.reserved_links == vector.reserved_links
        assert scalar.active_holders == vector.active_holders
        assert scalar.reserved_link_set() == vector.reserved_link_set()

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_walks(self, seed):
        """Random probe walks: reserve/backtrack/sync/ref-count/expiry."""
        mesh = Mesh.cube(6, 2)
        rng = np.random.default_rng(seed)
        scalar = LiveCircuitLedger()
        vector = ArrayCircuitLedger(mesh)

        stacks = {}  # holder -> current stack
        next_holder = 0
        step = 0
        for _ in range(300):
            op = rng.integers(0, 10)
            if op < 2 or not stacks:  # start a new probe
                start = tuple(int(c) for c in rng.integers(0, 6, size=2))
                stacks[next_holder] = [start]
                next_holder += 1
            elif op < 6:  # advance one unblocked hop
                holder = int(rng.choice(list(stacks)))
                stack = stacks[holder]
                moves = [
                    n
                    for n in mesh.neighbors(stack[-1])
                    if not scalar.is_blocked(holder, stack[-1], n)
                ]
                if moves:
                    nxt = moves[int(rng.integers(0, len(moves)))]
                    slot = mesh.link_index(stack[-1], nxt)
                    assert vector._holder[slot] in (-1, holder)
                    scalar.reserve_link(holder, stack[-1], nxt)
                    vector.reserve_slot(holder, slot)
                    stack.append(nxt)
            elif op < 8:  # backtrack one hop
                holder = int(rng.choice(list(stacks)))
                stack = stacks[holder]
                if len(stack) > 1:
                    tail = stack.pop()
                    scalar.release_link(holder, tail, stack[-1])
                    vector.release_slot(holder, mesh.link_index(tail, stack[-1]))
            elif op < 9:  # deliver: collapse to circuit, timed hold
                holder = int(rng.choice(list(stacks)))
                stack = stacks.pop(holder)
                circuit = Circuit.from_stack(stack)
                scalar.sync(holder, circuit.path)
                vector.sync(holder, _slots(mesh, circuit.path))
                hold = step + int(rng.integers(1, 6))
                scalar.hold_until(holder, hold)
                vector.hold_until(holder, hold)
            else:  # abort: release everything
                holder = int(rng.choice(list(stacks)))
                stacks.pop(holder)
                scalar.release(holder)
                vector.release(holder)
            step += 1
            assert scalar.release_expired(step) == vector.release_expired(step)
            self._assert_ledgers_identical(scalar, vector)

        # Drain every remaining hold and probe identically.
        for holder in list(stacks):
            scalar.release(holder)
            vector.release(holder)
        assert scalar.release_expired(step + 100) == vector.release_expired(step + 100)
        self._assert_ledgers_identical(scalar, vector)
        assert scalar.reserved_links == 0

    @pytest.mark.parametrize("shape", [(8, 8), (5, 5, 5)])
    def test_release_crossing(self, shape):
        """Fault teardown drops the same holders on both ledgers: probes in
        setup and delivered circuits in their transfer hold alike."""
        mesh = Mesh(shape)
        nodes = list(mesh.nodes())
        rng = np.random.default_rng(len(nodes))
        scalar = LiveCircuitLedger()
        vector = ArrayCircuitLedger(mesh)
        dropped = 0
        for holder in range(240):
            # A walk of up to eight hops over links no other holder has.
            stack = [nodes[rng.integers(len(nodes))]]
            for _ in range(rng.integers(0, 9)):
                moves = [
                    v for v in mesh.neighbors(stack[-1])
                    if not scalar.is_blocked(holder, stack[-1], v)
                ]
                if not moves:
                    break
                nxt = moves[rng.integers(len(moves))]
                scalar.reserve_link(holder, stack[-1], nxt)
                vector.reserve_slot(holder, mesh.link_index(stack[-1], nxt))
                stack.append(nxt)
            if rng.random() < 0.5:  # delivered: hold the circuit a while
                path = Circuit.from_stack(stack).path
                release = holder + int(rng.integers(1, 40))
                scalar.sync(holder, path)
                vector.sync(holder, _slots(mesh, path))
                for ledger in (scalar, vector):
                    ledger.hold_until(holder, release)
            if holder % 3 == 2:
                node = nodes[rng.integers(len(nodes))]
                count = scalar.release_crossing(node)
                assert vector.release_crossing(node) == count
                dropped += count
                self._assert_ledgers_identical(scalar, vector)
            assert scalar.release_expired(holder) == vector.release_expired(holder)
            self._assert_ledgers_identical(scalar, vector)
        assert dropped > 40

    @pytest.mark.parametrize("shape", [(6, 6), (4, 4, 4)])
    def test_slot_hold_matches_circuit_hold(self, shape):
        """A delivered probe-table row is held by slot: its index stack cut
        by :func:`loop_free_slots`, synced by slot and held for
        :func:`hold_steps` of its length.  On random walks that reserve and
        release hop by hop the way the table does, loops back onto their own
        stacks included, it leaves the same reserved links, the same holder
        per link and the same release steps as :meth:`Circuit.from_stack` +
        ``sync`` on the dict ledger."""
        mesh = Mesh(shape)
        nodes = list(mesh.nodes())
        neighbors = mesh.neighbor_table.tolist()
        link_slots = mesh.link_slot_table.tolist()
        rng = np.random.default_rng(sum(shape))
        scalar = LiveCircuitLedger()
        vector = ArrayCircuitLedger(mesh)
        looped = held = 0
        for holder in range(400):
            stack, slots = [int(rng.integers(mesh.size))], [-1]
            for _ in range(int(rng.integers(0, 16))):
                tail = stack[-1]
                if len(stack) > 1 and rng.random() < 0.2:  # backtrack a hop
                    stack.pop()
                    vector.release_slot(holder, slots.pop())
                    scalar.release_link(holder, nodes[tail], nodes[stack[-1]])
                    continue
                moves = [
                    (v, slot)
                    for v, slot in zip(neighbors[tail], link_slots[tail])
                    if v >= 0 and not scalar.is_blocked(holder, nodes[tail], nodes[v])
                ]
                if not moves:
                    break
                nxt, slot = moves[int(rng.integers(len(moves)))]
                vector.reserve_slot(holder, slot)
                scalar.reserve_link(holder, nodes[tail], nodes[nxt])
                stack.append(nxt)
                slots.append(slot)
            looped += len(set(stack)) < len(stack)
            if rng.random() < 0.75:  # delivered: hold the circuit
                flits = int(rng.integers(0, 96))
                kept = loop_free_slots(stack, slots)
                circuit = Circuit.from_stack([nodes[i] for i in stack])
                assert {mesh.link_of_index(i) for i in kept} == circuit.links
                assert len(kept) == circuit.length
                release = holder + hold_steps(len(kept), flits)
                vector.sync(holder, kept)
                vector.hold_until(holder, release)
                scalar.sync(holder, circuit.path)
                scalar.hold_until(holder, release)
                held += 1
            else:  # failed: release everything
                vector.release(holder)
                scalar.release(holder)
            assert scalar.release_expired(holder) == vector.release_expired(holder)
            self._assert_ledgers_identical(scalar, vector)
            assert scalar._link_holder == {
                mesh.link_of_index(i): owner
                for i, owner in enumerate(vector._holder)
                if owner >= 0
            }
        assert scalar.release_expired(10_000) == vector.release_expired(10_000)
        assert scalar.reserved_links == vector.reserved_links == 0
        assert looped > 20 and held > 200, (looped, held)

    def test_loop_free_slots_rejects_invalid_circuits(self):
        assert loop_free_slots([5], [-1]) == []
        assert loop_free_slots([0, 1, 2, 1, 4], [-1, 10, 11, 11, 12]) == [10, 12]
        with pytest.raises(ValueError):
            loop_free_slots([0, 2], [-1, -1])

    def test_foreign_link_raises_on_both(self):
        mesh = Mesh.cube(4, 2)
        scalar = LiveCircuitLedger()
        vector = ArrayCircuitLedger(mesh)
        slot = mesh.link_index((0, 0), (1, 0))
        scalar.sync(1, [(0, 0), (1, 0)])
        vector.sync(1, [slot])
        with pytest.raises(ReservationError):
            scalar.reserve_link(2, (0, 0), (1, 0))
        with pytest.raises(ReservationError):
            vector.reserve_slot(2, slot)
        with pytest.raises(ReservationError):
            vector.sync(2, [slot])

    def test_double_crossing_refcount(self):
        mesh = Mesh.cube(4, 2)
        vector = ArrayCircuitLedger(mesh)
        slot = mesh.link_index((0, 0), (1, 0))
        vector.reserve_slot(1, slot)
        vector.reserve_slot(1, slot)  # second traversal, same link
        vector.release_slot(1, slot)
        assert vector._holder[slot] == 1  # still held (count 1)
        vector.release_slot(1, slot)
        assert vector._holder[slot] == -1
        assert vector.reserved_links == 0
        assert vector.active_holders == 0

    def test_link_index_rejects_out_of_mesh_endpoints(self):
        """Adjacent but off-mesh coordinate pairs must not map to a slot."""
        mesh = Mesh.cube(6, 2)
        for u, v in [((-1, 0), (0, 0)), ((5, 0), (6, 0)), ((0,), (1,))]:
            with pytest.raises(ValueError):
                mesh.link_index(u, v)

    def test_zero_length_circuit_hold_counts(self):
        """A delivered src==dst circuit holds no links but is still counted."""
        mesh = Mesh.cube(4, 2)
        scalar = LiveCircuitLedger()
        vector = ArrayCircuitLedger(mesh)
        scalar.sync(7, [(1, 1)])
        vector.sync(7, [])
        for ledger in (scalar, vector):
            ledger.hold_until(7, 3)
            assert ledger.release_expired(2) == 0
            assert ledger.release_expired(3) == 1


# --------------------------------------------------------------------- #
# flat index tables
# --------------------------------------------------------------------- #
class TestNeighborTable:
    @pytest.mark.parametrize("shape", [(5, 7), (4, 4, 4), (3, 4, 5, 2)])
    def test_matches_scalar_neighbors(self, shape):
        mesh = Mesh(shape)
        table = mesh.neighbor_table
        assert table.shape == (mesh.size, 2 * mesh.n_dims)
        assert table.dtype == np.int32
        for index in range(mesh.size):
            node = mesh.coord_of(index)
            for column, direction in enumerate(mesh.directions):
                neighbor = mesh.neighbor(node, direction)
                expected = -1 if neighbor is None else mesh.index_of(neighbor)
                assert table[index, column] == expected

    def test_surface_order_pairs_dimensions(self):
        """Columns d and d+n of the table belong to dimension d."""
        mesh = Mesh.cube(4, 3)
        for d in range(mesh.n_dims):
            assert mesh.directions[d].dim == d
            assert mesh.directions[d].sign == -1
            assert mesh.directions[d + mesh.n_dims].dim == d
            assert mesh.directions[d + mesh.n_dims].sign == +1

    def test_table_is_memoized_and_readonly(self):
        mesh = Mesh.cube(4, 2)
        assert mesh.neighbor_table is mesh.neighbor_table
        with pytest.raises(ValueError):
            mesh.neighbor_table[0, 0] = 99
