"""Parity suite for the probe-table engine.

The probe table (:mod:`repro.core.probe_table`) is the message phase's
fast path: one batched classification and one row walk per step instead of
per-object stepping.  Its oracle is the scalar
:class:`~repro.core.routing.RoutingProbe` loop
(``Simulator._step_messages``), which a simulator runs once ``sim._table``
is cleared and, when contended, its ledger is the dict ledger the loop
reads (``_force_scalar_loop``).  This suite holds the two to byte-identity — per-message
outcomes and paths AND the aggregated :class:`SimulationStats` summary —
across every registered routing policy, with and without circuit
contention, over all four closed-batch traffic scenarios, plus randomized
configurations.  The stacked sweep engine (``run_batch(engine="auto")``)
is held to the same bar at the JSON export level: a multi-shape,
multi-policy grid must serialize identically to the serial engine's output.
On a shared table, each cell's in-flight counters
(:meth:`~repro.core.probe_table.ProbeTable.cell_counters`, which the step
recorder reads) must match its solo table's, and a recount over its rows,
at every step, contended and contention-free cells side by side.

The table hosts every policy with a per-direction classifier, static-block
included (over its adjacent-only view).  ``global-information`` plans by
BFS and constructs with ``sim._table is None``; for it the comparison
degenerates to a determinism check of the object path, which keeps the
matrix uniform and guards the eligibility gate itself.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.backend import VECTOR, resolve_backend
from repro.core import probe_table
from repro.core.block_construction import build_blocks
from repro.experiments import ExperimentSpec, run_batch
from repro.experiments.runner import build_simulator
from repro.faults.schedule import DynamicFaultSchedule
from repro.mesh.topology import Mesh
from repro.obs.recorder import StepRecorder
from repro.pcs.circuit import LiveCircuitLedger
from repro.routing import available_routers, resolve_router
from repro.simulator.engine import SimulationConfig, Simulator
from repro.simulator.traffic import TrafficMessage
from repro.workloads import simulate_scenario
from repro.workloads.traffic import to_traffic

POLICIES = available_routers()
SCENARIOS = ("random", "hotspot", "transpose", "bursty")


def _cell(policy, scenario, contention, *, shape=(6, 6), faults=2,
          messages=10, seed=3, flits=16):
    spec = ExperimentSpec(
        name="probe-parity",
        mode="simulate",
        mesh_shapes=(shape,),
        policies=(policy,),
        scenarios=(scenario,),
        fault_counts=(faults,),
        fault_intervals=(6,),
        lams=(2,),
        traffic_sizes=(messages,),
        seeds=(seed,),
        contention=contention,
        flits=(flits,),
    )
    (cell,) = spec.cells()
    return cell


def _fingerprint(stats):
    """SimulationStats summary plus per-message outcome/path."""
    return (
        stats.summary(),
        [
            (m.message.source, m.message.destination, m.result.outcome,
             tuple(m.result.path), m.result.hops,
             m.result.blocked_hops, m.result.setup_retries)
            for m in stats.messages
        ],
    )


def _run(cell, table):
    sim = build_simulator(cell)
    if not table:
        _force_scalar_loop(sim)
    return sim.run().stats


def _force_scalar_loop(sim):
    """Step ``sim`` on the scalar per-object oracle path, over the dict
    ledger that path reads (call before its first step)."""
    sim._table = None
    if sim.circuits is not None:
        sim.circuits = LiveCircuitLedger()


class TestProbeTableScalarParity:
    @pytest.mark.parametrize("contention", (False, True),
                             ids=("uncontended", "contended"))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_parity_policy_scenario_contention(self, policy, scenario, contention):
        cell = _cell(policy, scenario, contention)
        assert _fingerprint(_run(cell, True)) == _fingerprint(_run(cell, False))

    def test_parity_randomized_configurations(self):
        """Randomly drawn grid points, fixed stream so failures reproduce."""
        rng = np.random.default_rng(20260807)
        for _ in range(8):
            cell = _cell(
                policy=POLICIES[rng.integers(len(POLICIES))],
                scenario=SCENARIOS[rng.integers(len(SCENARIOS))],
                contention=bool(rng.integers(2)),
                shape=(int(rng.integers(5, 9)),) * 2,
                faults=int(rng.integers(0, 4)),
                messages=int(rng.integers(4, 16)),
                seed=int(rng.integers(1 << 16)),
                flits=int(rng.integers(4, 48)),
            )
            assert _fingerprint(_run(cell, True)) == _fingerprint(_run(cell, False)), cell

    def test_table_engaged_for_eligible_policy(self):
        """The matrix above only means something if eligible cells really
        run on the table: guard the eligibility gate in both directions.
        Under the scalar backend no cell is eligible — the table requires
        the vector decision engine."""
        for policy in ("limited-global", "static-block"):
            eligible = build_simulator(_cell(policy, "random", True))._table
            if resolve_backend() == VECTOR:
                assert eligible is not None
            else:
                assert eligible is None
        bfs = build_simulator(_cell("global-information", "random", True))
        assert bfs._table is None
        # Nor does an ineligible cell join a shared table.
        with pytest.raises(ValueError, match="not probe-table eligible"):
            build_simulator(_cell("global-information", "random", True),
                            table=probe_table.ProbeTable(bfs.mesh))

    @pytest.mark.skipif(resolve_backend() != VECTOR, reason="table needs vector")
    def test_static_block_classifier_built_once_per_view(self, monkeypatch):
        """Static faults leave one adjacent-only view for the whole run, so
        the table builds its static-block classifier once, not per step."""
        built = []

        class Counting(probe_table.VectorDecisionEngine):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(probe_table, "VectorDecisionEngine", Counting)
        mesh = Mesh.cube(8, 2)
        faults = [(3, 3), (3, 4), (5, 5)]
        pairs = [((0, 0), (7, 7)), ((7, 0), (0, 7)), ((0, 4), (7, 4))]
        sim = Simulator(
            mesh,
            schedule=DynamicFaultSchedule.static(faults),
            traffic=to_traffic(pairs * 4, start_time=0, spacing=1, flits=8),
            config=SimulationConfig(router="static-block", contention=True),
        )
        stats = sim.run().stats
        assert sim._table is not None and stats.steps > 10
        assert len(built) == 1


class TestWaiterParking:
    @staticmethod
    def _sim():
        """A 6x6 contended run whose corner waiter W, at (0,0) for (5,5),
        finds both its links held: by A's transfer until step 6 and by B's
        until step 11.  C's and D's holds free other links of the cell at
        steps 2 and 4, while W waits."""
        def message(source, destination, start, flits):
            return TrafficMessage(source, destination, start_time=start, flits=flits)

        traffic = [
            message((1, 0), (0, 0), 0, 100),  # A: holds (1,0)-(0,0) until 6
            message((0, 1), (0, 0), 0, 200),  # B: holds (0,1)-(0,0) until 11
            message((3, 3), (3, 4), 0, 20),   # C: freed at step 2
            message((4, 4), (4, 5), 0, 60),   # D: freed at step 4
            message((0, 0), (5, 5), 1, 8),    # W
        ]
        return Simulator(
            Mesh((6, 6)), traffic=traffic,
            config=SimulationConfig(contention=True),
        )

    @pytest.mark.skipif(resolve_backend() != VECTOR, reason="table needs vector")
    def test_waiter_rescans_only_when_its_own_link_frees(self):
        sim = self._sim()
        table = sim._table
        rescans = []
        move = table._move

        def recording_move(row, cs):
            if row.waited:
                rescans.append((sim.current_step, row.message.source))
            move(row, cs)

        table._move = recording_move
        stats = sim.run().stats
        # Other links of the cell were freed at steps 2 and 4, but not W's;
        # W's first candidate frees at step 6, and W rescans then.
        assert rescans == [(6, (0, 0))]
        waiter = stats.messages[-1]
        assert waiter.message.source == (0, 0)
        assert waiter.result.setup_retries == 5  # waited in steps 1-5
        assert waiter.result.blocked_hops == 10
        oracle = self._sim()
        _force_scalar_loop(oracle)
        assert _fingerprint(stats) == _fingerprint(oracle.run().stats)

    def test_ledger_stamps_every_freed_slot(self):
        from repro.pcs.circuit import ArrayCircuitLedger

        mesh = Mesh((4, 4))
        ledger = ArrayCircuitLedger(mesh)
        a, b, c, d = (mesh.link_index(u, v) for u, v in (
            ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((2, 2), (2, 3)), ((3, 3), (3, 2)),
        ))
        ledger.reserve_slot(1, a)
        ledger.reserve_slot(1, b)
        ledger.reserve_slot(2, c)
        ledger.reserve_slot(3, d)
        ledger.release_slot(1, a)
        assert ledger._freed[a] == ledger._epoch == 1
        ledger.sync(1, [])                # frees b
        assert ledger._freed[b] == 2
        ledger.hold_until(2, 5)
        ledger.release_expired(5)         # frees c
        assert ledger._freed[c] == 3
        ledger.release(3)                 # frees d
        assert ledger._freed[d] == 4
        assert ledger.reserved_links == 0


def _recount(table, cell):
    """``cell_counters``' sums recounted over the cell's in-flight rows."""
    rows = [row for row in table._rows if row.cs.index == cell]
    return (
        len(rows),
        sum(row.blocked for row in rows),
        sum(row.retries for row in rows),
        sum(row.waited for row in rows),
    )


@pytest.fixture
def vector(monkeypatch):
    """Run on the vector backend whatever ``REPRO_BACKEND`` says."""
    monkeypatch.setenv("REPRO_BACKEND", VECTOR)


@pytest.mark.usefixtures("vector")
class TestSharedTableCounters:
    @staticmethod
    def _vector_sim(cell, recorder=None, table=None):
        """``cell``'s simulator on a probe table (under the ``vector``
        fixture): ``table`` if given, else its own."""
        mesh, schedule, traffic = simulate_scenario(cell)
        config = SimulationConfig(lam=cell.lam, router=cell.policy,
                                  contention=cell.contention)
        return Simulator(mesh, schedule=schedule, traffic=traffic,
                         config=config, recorder=recorder, table=table)

    @pytest.mark.parametrize("members", (
        (("limited-global", 1, True), ("static-block", 2, True),
         ("limited-global", 3, True)),
        # A contention-free cell between contended ones: the table walks
        # both kinds of rows in one loop.
        (("limited-global", 1, True), ("limited-global", 4, False),
         ("static-block", 2, True), ("limited-global", 3, True)),
    ), ids=("contended", "mixed"))
    def test_shared_table_counters_match_solo_tables(self, members):
        """Cells joined to one table, stepped in lockstep the way the
        stacked runner does, report at every step the in-flight counters
        their solo tables report — and so record the same
        :class:`StepRecorder` series and end with the same statistics."""
        cells = [
            _cell(policy, "random", contention, shape=(7, 7), messages=20,
                  seed=seed, flits=64)
            for policy, seed, contention in members
        ]
        solo = [self._vector_sim(cell, StepRecorder()) for cell in cells]
        table = probe_table.ProbeTable(Mesh(cells[0].shape))
        joined = [self._vector_sim(cell, table=table) for cell in cells]
        recorders = [StepRecorder() for _ in cells]

        peak = [(0, 0, 0, 0)] * len(cells)
        active = range(len(cells))
        t = 0
        while True:
            active = [i for i in active
                      if joined[i]._step < joined[i].config.max_steps
                      and joined[i]._work_remaining()]
            if not active:
                break
            for i in active:
                joined[i]._step_information(t)
            table.run_step(t, tuple(joined[i]._table_cell for i in active))
            for i in active:
                joined[i]._step += 1
                joined[i].stats.steps = joined[i]._step
                recorders[i].sample(joined[i])
                solo[i].step()
                counters = table.cell_counters(joined[i]._table_cell)
                assert counters == solo[i]._table.cell_counters(0), (t, i)
                # The running sums obey the table's conservation law: they
                # equal a recount over the cell's in-flight rows.
                assert counters == _recount(table, joined[i]._table_cell), (t, i)
                assert solo[i]._table.cell_counters(0) == _recount(solo[i]._table, 0)
                peak[i] = tuple(map(max, peak[i], counters))
            t += 1

        # Every cell really had several probes in flight, and every
        # contended cell had them blocked and parked.
        for cell, p in zip(cells, peak):
            assert min(p) > 1 if cell.contention else p[0] > 1, peak
        for i, sim in enumerate(solo):
            assert not sim._work_remaining()
            assert _fingerprint(joined[i].stats) == _fingerprint(sim.stats), i
            for name in recorders[i].columns:
                assert np.array_equal(recorders[i].column(name),
                                      sim._recorder.column(name)), (i, name)


class TestInjection:
    """Rows index their endpoints through :attr:`Mesh.coord_index`."""

    @staticmethod
    def _route(pairs, shape=(6, 6)):
        mesh = Mesh(shape)
        labeling = build_blocks(mesh, [(2, 2)]).state
        router = resolve_router("limited-global")
        return probe_table.OfflineBatch(router, mesh, labeling, pairs).route()

    @pytest.mark.parametrize("pair", (
        ((0, 0), (6, 0)),
        ((-1, 0), (3, 3)),
        ((0, 0), (1, 1, 1)),
        ([0, 7], [3, 3]),
    ))
    def test_off_mesh_endpoint_raises(self, pair):
        with pytest.raises(ValueError, match="is not a node of mesh"):
            self._route([pair])

    def test_any_coordinate_sequence_injects(self):
        """Lists and numpy integers index like tuples."""
        pairs = [((0, 0), (5, 4)), ((5, 5), (0, 1))]
        expected = self._route(pairs)
        lists = [(list(s), list(d)) for s, d in pairs]
        numpy = [(tuple(np.array(s)), tuple(np.array(d))) for s, d in pairs]
        assert self._route(lists) == expected
        assert self._route(numpy) == expected


class TestStackedSweepParity:
    def test_parity_stacked_json_matches_serial(self):
        """Multi-shape, multi-policy grid: stacked JSON == serial JSON.

        The grid deliberately mixes two mesh shapes (two stacked groups),
        static-block stacked beside the Algorithm-3 policies, a
        probe-table-ineligible policy (per-cell serial fallback inside the
        stacked runner) and contended circuit setup.
        """
        spec = ExperimentSpec(
            name="stacked-parity",
            mode="simulate",
            mesh_shapes=((6, 6), (8, 8)),
            policies=("limited-global", "no-information", "static-block",
                      "global-information"),
            scenarios=("transpose",),
            fault_counts=(2,),
            fault_intervals=(5,),
            lams=(2,),
            traffic_sizes=(8,),
            seeds=(0, 1),
            contention=True,
            flits=(16,),
        )
        serial = run_batch(spec, engine="serial")
        stacked = run_batch(spec, engine="auto")
        assert stacked.to_json() == serial.to_json()

    def test_one_table_per_stacked_group(self, monkeypatch):
        """Each same-shape group builds exactly one table — its first
        simulator's, which every later member is built onto — and the JSON
        still equals the serial engine's.  Under the scalar backend no cell
        is eligible and no table is built."""
        spec = ExperimentSpec(
            name="stacked-one-table",
            mode="simulate",
            mesh_shapes=((6, 6), (5, 5, 5)),
            policies=("limited-global", "static-block"),
            scenarios=("transpose",),
            fault_counts=(1,),
            traffic_sizes=(6,),
            seeds=(0, 1, 2),
            contention=True,
        )
        serial = run_batch(spec, engine="serial").to_json()
        built = []
        original = probe_table.ProbeTable.__init__

        def counting(table, mesh):
            built.append(mesh.shape)
            original(table, mesh)

        monkeypatch.setattr(probe_table.ProbeTable, "__init__", counting)
        assert run_batch(spec, engine="auto").to_json() == serial
        assert built == ([(6, 6), (5, 5, 5)] if resolve_backend() == VECTOR else [])

    def test_parity_stacked_uncontended(self):
        spec = ExperimentSpec(
            name="stacked-parity-nc",
            mode="simulate",
            mesh_shapes=((7, 7),),
            policies=("limited-global", "boundary-only"),
            scenarios=("random",),
            fault_counts=(3,),
            fault_intervals=(4,),
            lams=(1,),
            traffic_sizes=(10,),
            seeds=(0, 1, 2),
        )
        assert (
            run_batch(spec, engine="auto").to_json()
            == run_batch(spec, engine="serial").to_json()
        )


@pytest.fixture
def no_cycle_collector():
    """Run the test with the cycle collector off: only refcounting frees."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.usefixtures("no_cycle_collector")
class TestFinishedSimulatorsAreFreed:
    """A simulator and its table hold no reference cycle, so a finished run
    is freed as soon as its last user drops it."""

    @pytest.mark.usefixtures("vector")
    def test_solo_table(self):
        cell = _cell("limited-global", "transpose", True, shape=(7, 7), faults=2)
        sim = TestSharedTableCounters._vector_sim(cell)
        table = weakref.ref(sim._table)
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
        assert table() is None

    @pytest.mark.usefixtures("vector")
    def test_joined_shared_table(self):
        cells = [
            _cell("limited-global", "transpose", True, shape=(7, 7), faults=2, seed=seed)
            for seed in (1, 2)
        ]
        shared = probe_table.ProbeTable(Mesh(cells[0].shape))
        sims = [TestSharedTableCounters._vector_sim(cell, table=shared)
                for cell in cells]
        assert all(sim._table is shared for sim in sims)
        for sim in sims:
            sim.run()
        refs = [weakref.ref(sim) for sim in sims]
        del sims, sim
        # The shared table, still referenced here, keeps no cell alive.
        assert [ref() for ref in refs] == [None, None]

    def test_stacked_sweep(self, monkeypatch):
        built = []

        def recording_build(cell, **kwargs):
            sim = build_simulator(cell, **kwargs)
            built.append(weakref.ref(sim))
            return sim

        monkeypatch.setattr(
            "repro.experiments.runner.build_simulator", recording_build
        )
        spec = ExperimentSpec(
            name="stacked-freed",
            mode="simulate",
            mesh_shapes=((6, 6),),
            scenarios=("transpose",),
            fault_counts=(1,),
            traffic_sizes=(6,),
            seeds=(0, 1, 2),
            contention=True,
        )
        run_batch(spec, engine="auto")
        assert len(built) == 3
        assert [ref() for ref in built] == [None, None, None]
