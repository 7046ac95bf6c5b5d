"""Differential refresh suite for the vectorized decision engine.

:class:`~repro.core.decision.VectorDecisionEngine` keeps its tables between
refreshes and recompiles only what changed: the status masks when the
labeling moved, the geometry rows of the nodes
:meth:`~repro.core.state.InformationState.changed_nodes` reports.  Its
oracle is an engine built from scratch on the same state, which compiles
every node.  These tests drive real information churn and, after every
token change, hold the long-lived engine's tables to the fresh engine's:

* stacked 8x8 and 5x5x5 simulate cells with dynamic faults, over the five
  policies the probe table hosts (static-block over its adjacent-only
  view);
* throughput cells with fault arrivals and repairs, so ``cancel_stale``
  removes records;
* ``clear_information()`` followed by a fresh distribution.
"""

import numpy as np
import pytest

from repro.backend import VECTOR, resolve_backend
from repro.core import decision
from repro.core.block_construction import build_blocks
from repro.core.decision import DecisionTables, VectorDecisionEngine
from repro.core.distribution import distribute_information
from repro.core.routing import RoutingPolicy
from repro.core.state import InformationState
from repro.experiments import ExperimentSpec, run_batch
from repro.mesh.topology import Mesh

#: Simulations build decision engines only on the vector backend.
needs_table = pytest.mark.skipif(
    resolve_backend() != VECTOR,
    reason="simulations classify through the probe table on the vector backend only",
)

#: The policies the probe table classifies with a decision engine.
HOSTED = (
    "limited-global",
    "no-information",
    "static-block",
    "boundary-only",
    "no-disabled-avoid",
)

#: Node-indexed table arrays plus the CSR constraint rows, compared exactly.
ARRAYS = (
    "node_codes",
    "usable",
    "disabled_nb",
    "along",
    "c_start",
    "c_count",
    "c_prism",
    "c_target_lo",
    "c_target_hi",
    "base_key",
    "disabled_flag",
    "usable_bits",
)


def assert_tables_equal(live: DecisionTables, fresh: DecisionTables) -> None:
    for name in ARRAYS:
        np.testing.assert_array_equal(
            getattr(live, name), getattr(fresh, name), err_msg=name
        )
    assert live.has_constraints == fresh.has_constraints
    if fresh.detour_bits is None:
        assert live.detour_bits is None
    else:
        np.testing.assert_array_equal(live.detour_bits, fresh.detour_bits)


@pytest.fixture
def checked(monkeypatch):
    """Check every engine refresh against a freshly built engine.

    Returns counters: ``refreshes`` (token changes seen), ``incremental``
    (refreshes of an engine that had refreshed before) and ``policies``
    (names of the policies whose engines refreshed).
    """
    seen = {"refreshes": 0, "incremental": 0, "policies": set()}
    last = {}
    original = VectorDecisionEngine.tables

    def tables(self):
        result = original(self)
        token = result[1]
        if last.get(self) != token:
            seen["refreshes"] += 1
            seen["incremental"] += self in last
            seen["policies"].add(self.policy.name)
            last[self] = token
            fresh, _ = original(VectorDecisionEngine(self.info, self.policy))
            assert_tables_equal(result[0], fresh)
        return result

    monkeypatch.setattr(VectorDecisionEngine, "tables", tables)
    return seen


class TestLongLivedEqualsFresh:
    @needs_table
    def test_stacked_simulate_with_dynamic_faults(self, checked):
        spec = ExperimentSpec(
            name="refresh-stacked",
            mode="simulate",
            mesh_shapes=((8, 8), (5, 5, 5)),
            policies=HOSTED,
            scenarios=("transpose",),
            fault_counts=(2,),
            fault_intervals=(3,),
            lams=(2,),
            traffic_sizes=(10,),
            seeds=(0, 1),
            contention=True,
            flits=(16,),
        )
        run_batch(spec, engine="auto")
        assert checked["policies"] == set(HOSTED)
        assert checked["incremental"] > 100

    @needs_table
    def test_throughput_repairs_cancel_records(self, checked, monkeypatch):
        removed = []
        original = InformationState.cancel_stale

        def cancel_stale(self, current_extents):
            count = original(self, current_extents)
            removed.append(count)
            return count

        monkeypatch.setattr(InformationState, "cancel_stale", cancel_stale)
        spec = ExperimentSpec(
            name="refresh-repairs",
            mode="throughput",
            mesh_shapes=((8, 8),),
            policies=("limited-global", "static-block"),
            scenarios=("uniform",),
            injection="bernoulli",
            rates=(0.02,),
            fault_counts=(2,),
            fault_rates=(0.04,),
            repair_after=24,
            warmup=16,
            measure=64,
            drain=128,
            seeds=(0, 1),
        )
        run_batch(spec)
        assert any(removed), "no repair removed a record"
        assert checked["incremental"] > 20

    def test_clear_information_recompiles_everything(self, checked):
        mesh = Mesh((8, 8))
        labeling = build_blocks(mesh, [(3, 3), (5, 5)]).state
        info = distribute_information(mesh, labeling)
        engine = VectorDecisionEngine(info, RoutingPolicy.limited_global())
        engine.tables()
        info.clear_information()
        engine.tables()
        assert not engine.tables()[0].has_constraints
        refill = distribute_information(mesh, labeling)
        for node, records in refill.node_blocks.items():
            for record in records:
                info.add_block_info(node, record)
        for node, records in refill.node_boundaries.items():
            for record in records:
                info.add_boundary(node, record)
        assert engine.tables()[0].has_constraints
        assert checked["refreshes"] == 3


class TestBeyondDetourCap:
    """With no detour table the CSR constraint rows carry the detour test."""

    def test_csr_rows_classify_like_the_detour_table(self, monkeypatch):
        mesh = Mesh((7, 7, 7))
        labeling = build_blocks(mesh, [(2, 3, 3), (4, 4, 2), (3, 5, 4)]).state
        info = distribute_information(mesh, labeling)
        policy = RoutingPolicy.limited_global()
        table = VectorDecisionEngine(info, policy).tables()[0]
        monkeypatch.setattr(decision.DecisionTables, "DETOUR_TABLE_CAP", 0)
        csr = VectorDecisionEngine(info, policy).tables()[0]
        assert csr.detour_bits is None and table.detour_bits.any()
        # Every (constraint-holding node, destination) pair, fresh at the
        # node: no incoming link, nothing used.
        nodes = np.flatnonzero(table.c_count)
        node_idx = np.repeat(nodes, mesh.size)
        dest_idx = np.tile(np.arange(mesh.size), nodes.size)
        rows = (
            node_idx,
            node_idx,
            dest_idx,
            np.full(node_idx.size, -1),
            np.zeros(node_idx.size, dtype=np.uint32),
            np.zeros(node_idx.size, dtype=bool),
        )
        for got, want in zip(
            decision.classify_rows(csr, *rows), decision.classify_rows(table, *rows)
        ):
            np.testing.assert_array_equal(got, want)

    @needs_table
    def test_stacked_json_identical_without_detour_table(self, checked, monkeypatch):
        spec = ExperimentSpec(
            name="refresh-cap",
            mode="simulate",
            mesh_shapes=((8, 8), (5, 5, 5)),
            policies=("limited-global", "static-block"),
            scenarios=("transpose",),
            fault_counts=(2,),
            fault_intervals=(3,),
            lams=(2,),
            traffic_sizes=(10,),
            seeds=(0, 1),
            contention=True,
            flits=(16,),
        )
        expected = run_batch(spec, engine="auto").to_json()
        monkeypatch.setattr(decision.DecisionTables, "DETOUR_TABLE_CAP", 0)
        assert run_batch(spec, engine="auto").to_json() == expected
        assert checked["incremental"] > 0
