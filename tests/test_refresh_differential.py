"""Differential refresh suite for the vectorized decision engine.

:class:`~repro.core.decision.VectorDecisionEngine` compiles into its cell's
slice of a :class:`~repro.core.decision.DecisionTables` store (a probe
table's, shared by every cell of the table) and recompiles only what
changed: the status masks when the labeling moved, the geometry rows of the
nodes :meth:`~repro.core.state.InformationState.changed_nodes` reports,
every stale cell of the store in one pass.  Its oracle is a one-cell engine
built anew on the same state, which compiles every node.  These
tests drive real information churn and, after every token change, hold the
long-lived engine's slice to the fresh engine's tables:

* stacked 8x8 and 5x5x5 simulate cells with dynamic faults, over the five
  policies the probe table hosts (static-block over its adjacent-only
  view);
* throughput cells with fault arrivals and repairs, so ``cancel_stale``
  removes records;
* ``clear_information()`` followed by a fresh distribution.

A stacked group also refreshes once per step: every table runs at most one
refresh pass (one relabel, one compile, one derive) per step, and after it
every cell's slice equals its solo table's, with and without the detour
table.
"""

import numpy as np
import pytest

from repro.backend import VECTOR, resolve_backend
from repro.core import decision
from repro.core.block_construction import build_blocks
from repro.core.decision import DecisionTables, VectorDecisionEngine
from repro.core.distribution import distribute_information
from repro.core.probe_table import ProbeTable
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

#: Node-indexed table arrays, compared exactly over an engine's slice.
NODE_ARRAYS = (
    "node_codes",
    "usable",
    "disabled_nb",
    "along",
    "c_count",
    "base_key",
    "disabled_flag",
    "usable_bits",
)

#: The CSR constraint rows, compared over the slice's own rows.
CSR_ARRAYS = ("c_prism", "c_target_lo", "c_target_hi")


def cell_slice(engine: VectorDecisionEngine) -> dict:
    """``engine``'s slice of its store, as a one-cell engine would hold it:
    its node rows, ``c_start`` relative to the slice's first constraint row,
    its constraint rows and its detour bits (``None`` without a table)."""
    store = engine.store
    rows = slice(engine.cell * store.size, (engine.cell + 1) * store.size)
    start, count = store.c_start[rows], store.c_count[rows]
    first = int(start[0])
    csr = slice(first, first + int(count.sum()))
    out = {name: getattr(store, name)[rows] for name in NODE_ARRAYS}
    out.update({name: getattr(store, name)[csr] for name in CSR_ARRAYS})
    out["c_start"] = start - first
    out["has_constraints"] = bool(count.any())
    bits = store.detour_bits
    out["detour_bits"] = None if bits is None else bits[rows]
    return out


def assert_slice_equal(live: VectorDecisionEngine, fresh: VectorDecisionEngine) -> None:
    """``live``'s slice equals the tables of ``fresh``, a one-cell engine.

    Beyond the detour table cap neither holds detour bits and the CSR rows
    carry the detour test; a fresh one-cell store keeps its table whenever a
    larger live store does.
    """
    assert fresh.store.rows == fresh.store.size
    got, want = cell_slice(live), cell_slice(fresh)
    for name in NODE_ARRAYS + CSR_ARRAYS + ("c_start",):
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)
    assert got["has_constraints"] == want["has_constraints"]
    if want["detour_bits"] is None:
        assert got["detour_bits"] is None
    elif got["detour_bits"] is not None:
        np.testing.assert_array_equal(got["detour_bits"], want["detour_bits"])


@pytest.fixture
def checked(monkeypatch):
    """Check every engine refresh against a freshly built one-cell engine.

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
            fresh = VectorDecisionEngine(self.info, self.policy)
            original(fresh)
            assert_slice_equal(self, fresh)
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


class TestOnePassPerStep:
    @needs_table
    @pytest.mark.parametrize(
        "cap", (DecisionTables.DETOUR_TABLE_CAP, 0), ids=("detour-table", "csr-only")
    )
    def test_stacked_group_refreshes_once_per_step(self, monkeypatch, cap):
        """Five hosted policies stacked on 8x8 and 5x5x5 tables with dynamic
        faults: on every classifying step each table brings every cell's
        slice current in exactly one refresh pass (one relabel, one compile,
        one derive at most) when some cell's information moved and in none
        otherwise, and after every pass each cell's slice equals its solo
        table's."""
        monkeypatch.setattr(DecisionTables, "DETOUR_TABLE_CAP", cap)
        calls = []
        for name in ("refresh", "_relabel", "_compile", "derive"):
            def counted(self, *args, _name=name, _original=getattr(DecisionTables, name),
                        **kwargs):
                engines = [ref() for ref in self._engines.values()]
                if _name != "refresh" or any(
                    e is not None and e.token() != e._token for e in engines
                ):
                    calls.append((self, _name))
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(DecisionTables, name, counted)
        tabled = []
        tables = ProbeTable._tables

        def recorded(self):
            tabled.append(self)
            return tables(self)

        monkeypatch.setattr(ProbeTable, "_tables", recorded)

        seen = {"passes": 0, "batched": 0, "cells": set()}
        run_step = ProbeTable.run_step

        def stepped(self, t, cells, *args, **kwargs):
            before = [(cs.classifier, cs.classifier and cs.classifier._token)
                      for cs in self._cells]
            calls.clear()
            tabled.clear()
            run_step(self, t, cells, *args, **kwargs)
            mine = [name for store, name in calls if store is self._store]
            if self not in tabled:
                assert not mine, (t, mine)
                return
            assert len(mine) == len(set(mine)), (t, mine)
            moved = [
                cs for cs, old in zip(self._cells, before)
                if old != (cs.classifier, cs.classifier._token)
            ]
            assert ("refresh" in mine) == bool(moved), (t, mine)
            for cs in self._cells:
                engine = cs.classifier
                assert engine._token == engine.token(), (t, cs.index)
            if moved:
                seen["passes"] += 1
                seen["batched"] += len(moved) > 1
                for cs in self._cells:
                    engine = cs.classifier
                    seen["cells"].add(engine.policy.name)
                    fresh = VectorDecisionEngine(engine.info, engine.policy)
                    fresh.tables()
                    assert_slice_equal(engine, fresh)
                assert (self._store.detour_bits is None) == (cap == 0)

        monkeypatch.setattr(ProbeTable, "run_step", stepped)
        spec = ExperimentSpec(
            name="refresh-one-pass",
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
        assert seen["cells"] == set(HOSTED)
        assert seen["passes"] > 10 and seen["batched"] > 10, seen


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
