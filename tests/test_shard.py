"""Tests for the shard planner and the sharded (auto) sweep engine."""

import pytest

from repro.backend import VECTOR, resolve_backend
from repro.core.probe_table import table_eligible
from repro.experiments import (
    ExperimentSpec,
    plan_shards,
    probe_table_eligible,
    run_batch,
)
from repro.experiments.shard import MIN_STACKED_SHARD, SERIAL_CHUNKS_PER_WORKER
from repro.routing import resolve_router

VECTOR_ONLY = pytest.mark.skipif(
    resolve_backend() != VECTOR,
    reason="probe-table eligibility requires the vector backend",
)


def mixed_spec(**overrides) -> ExperimentSpec:
    """Two shapes x two eligible policies and an ineligible one x two seeds."""
    params = dict(
        name="shard-unit",
        mode="simulate",
        mesh_shapes=((6, 6), (8, 8)),
        policies=("limited-global", "static-block", "global-information"),
        scenarios=("transpose",),
        fault_counts=(2,),
        fault_intervals=(5,),
        lams=(2,),
        traffic_sizes=(6,),
        seeds=(0, 1),
        contention=True,
        flits=(16,),
    )
    params.update(overrides)
    return ExperimentSpec(**params)


def indexed(spec):
    return list(enumerate(spec.cells()))


class TestEligibility:
    @VECTOR_ONLY
    def test_algorithm_policies_eligible(self):
        for index, cell in indexed(mixed_spec()):
            expected = cell.policy in ("limited-global", "static-block")
            assert probe_table_eligible(cell) is expected, cell.policy

    def test_above_16_dimensions_never_eligible(self, monkeypatch):
        """The used-direction bitmask holds 32 directions: larger meshes
        step the scalar probe loop under every backend."""
        monkeypatch.setenv("REPRO_BACKEND", VECTOR)
        router = resolve_router("limited-global")
        assert table_eligible(router, 16)
        assert not table_eligible(router, 17)

    def test_scalar_backend_never_eligible(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        for index, cell in indexed(mixed_spec()):
            assert probe_table_eligible(cell) is False

    @VECTOR_ONLY
    def test_non_simulate_modes_never_eligible(self):
        offline = ExperimentSpec(
            name="shard-off", mode="offline", mesh_shapes=((6, 6),),
            policies=("limited-global",), fault_counts=(2,), lams=(1,),
        )
        for index, cell in indexed(offline):
            assert probe_table_eligible(cell) is False


class TestPlanner:
    def test_every_index_in_exactly_one_shard(self):
        cells = indexed(mixed_spec())
        for workers in (1, 2, 4, 8):
            shards = plan_shards(cells, workers=workers)
            seen = [i for shard in shards for i, _ in shard.cells]
            assert sorted(seen) == [i for i, _ in cells], workers

    @VECTOR_ONLY
    def test_partitioned_by_shape_and_eligibility(self):
        shards = plan_shards(indexed(mixed_spec()), workers=1)
        stacked = [s for s in shards if s.kind == "stacked"]
        serial = [s for s in shards if s.kind == "serial"]
        # One stacked group per shape, static-block stacked with
        # limited-global; one serial shard for the BFS planner.
        assert len(stacked) == 2
        for shard in stacked:
            assert len({cell.shape for _, cell in shard.cells}) == 1
            assert {cell.policy for _, cell in shard.cells} == {
                "limited-global", "static-block"
            }
        assert len(serial) == 1
        assert all(
            cell.policy == "global-information" for _, cell in serial[0].cells
        )

    @VECTOR_ONLY
    def test_large_group_splits_across_workers(self):
        spec = mixed_spec(
            mesh_shapes=((8, 8),), policies=("limited-global",),
            seeds=tuple(range(32)),
        )
        shards = plan_shards(indexed(spec), workers=4)
        assert all(s.kind == "stacked" for s in shards)
        assert len(shards) == 4
        assert all(len(s) == 8 for s in shards)

    @VECTOR_ONLY
    def test_small_group_not_shredded(self):
        """Splitting below MIN_STACKED_SHARD cells would trade the stacking
        win for process overhead — a tiny group stays together-ish."""
        spec = mixed_spec(
            mesh_shapes=((8, 8),), policies=("limited-global",),
            seeds=tuple(range(MIN_STACKED_SHARD)),
        )
        shards = plan_shards(indexed(spec), workers=8)
        assert len(shards) == 1

    def test_serial_engine_plans_only_serial_chunks(self):
        """The oracle stacks nothing: about SERIAL_CHUNKS_PER_WORKER
        contiguous chunks per worker, in grid order."""
        cells = indexed(mixed_spec())
        shards = plan_shards(cells, workers=2, engine="serial")
        assert all(s.kind == "serial" for s in shards)
        assert [c for s in shards for c in s.cells] == cells
        chunk = -(-len(cells) // (2 * SERIAL_CHUNKS_PER_WORKER))
        assert [len(s) for s in shards[:-1]] == [chunk] * (len(shards) - 1)

    def test_planning_is_deterministic(self):
        cells = indexed(mixed_spec())
        assert plan_shards(cells, workers=3) == plan_shards(cells, workers=3)


class TestAutoEngine:
    def test_auto_matches_serial_json_any_worker_count(self):
        spec = mixed_spec()
        reference = run_batch(spec, engine="serial").to_json()
        for workers in (1, 3):
            assert run_batch(spec, engine="auto", workers=workers).to_json() == reference

    def test_stacked_workers_restriction_lifted(self):
        """Stacked shards dispatch across the pool (workers>1) instead of
        being pinned to one process."""
        spec = mixed_spec()
        reference = run_batch(spec, engine="serial").to_json()
        assert run_batch(spec, engine="auto", workers=4).to_json() == reference

    def test_serial_engine_parallel_matches(self):
        spec = mixed_spec()
        reference = run_batch(spec, engine="serial", workers=1).to_json()
        assert run_batch(spec, engine="serial", workers=3).to_json() == reference

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_batch(mixed_spec(), engine="nope")

    def test_stacked_engine_retired(self):
        """'stacked' ran exactly what 'auto' runs; only the two remain."""
        with pytest.raises(ValueError, match="'auto', 'serial'"):
            run_batch(mixed_spec(), engine="stacked")

    def test_throughput_mode_through_auto(self):
        spec = ExperimentSpec(
            name="shard-tp",
            mode="throughput",
            mesh_shapes=((6, 6),),
            policies=("limited-global",),
            fault_counts=(2,),
            rates=(0.02, 0.05),
            warmup=8,
            measure=32,
            drain=64,
        )
        reference = run_batch(spec, engine="serial").to_json()
        assert run_batch(spec, engine="auto", workers=2).to_json() == reference

    def test_progress_hook_sees_every_cell_parallel(self):
        spec = mixed_spec()
        seen = []
        batch = run_batch(spec, engine="auto", workers=3, on_cell_done=seen.append)
        assert sorted(r.cell.index for r in seen) == list(range(spec.cell_count))
        # ... while the batch itself stays in grid order.
        assert [r.cell.index for r in batch.results] == list(range(spec.cell_count))

    def test_tiny_spec_with_many_workers(self):
        """Worker capping: more workers than cells must still run correctly
        (the pool is capped at the shard count, not spawned at full size)."""
        spec = mixed_spec(
            mesh_shapes=((6, 6),), policies=("limited-global",), seeds=(0,)
        )
        reference = run_batch(spec, engine="serial").to_json()
        assert run_batch(spec, engine="auto", workers=16).to_json() == reference
