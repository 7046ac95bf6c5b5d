"""The shared offline setting: one build per configuration, every policy over it.

Under ``engine="auto"`` the stacked executor
(:func:`~repro.experiments.stacked.run_cells_stacked`) builds an offline
configuration's mesh, faults, labeling and pairs
(:func:`~repro.experiments.runner._offline_setting`) once and routes each
policy's batch over it; ``engine="serial"``, the oracle, builds them for
every cell.  This suite holds the two byte-identical in canonical JSON
(all six policies, 2-, 3- and 4-D meshes, 0-8 faults, several seeds,
in-process and over the pool), checks that each configuration is built
exactly once in-process and once per shard it spans over the pool, that
no router writes to the shared setting, that a half-cached configuration
still lands identical results, and that the shard planner hands offline
cells to the stacked executor in the serial engine's chunks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import ExperimentSpec, ResultCache, plan_shards, run_batch
from repro.experiments import runner
from repro.experiments.stacked import run_cells_stacked, setting_key
from repro.routing import available_routers

POLICIES = available_routers()

#: Mesh shapes with the fault counts their interiors take (offline faults
#: avoid the mesh surface; 4x4x3x3 has 4 interior nodes).
MESHES = (
    (((6, 6), (8, 8)), (0, 3, 8)),
    (((5, 5, 5),), (0, 4, 8)),
    (((4, 4, 3, 3),), (0, 2, 4)),
)


def offline_spec(shapes, faults, seeds, *, policies=POLICIES, messages=10):
    return ExperimentSpec(
        name="offline-groups",
        mode="offline",
        mesh_shapes=tuple(shapes),
        policies=tuple(policies),
        fault_counts=tuple(faults),
        lams=(1,),
        traffic_sizes=(messages,),
        seeds=tuple(seeds),
    )


def n_configs(spec: ExperimentSpec) -> int:
    return spec.cell_count // len(spec.policies)


@pytest.fixture
def count_builds(monkeypatch):
    """Count ``runner.build_blocks`` calls, by mesh shape and fault set."""
    calls = []
    original = runner.build_blocks

    def counting(mesh, faults, *args, **kwargs):
        calls.append((mesh.shape, tuple(sorted(map(tuple, faults)))))
        return original(mesh, faults, *args, **kwargs)

    monkeypatch.setattr(runner, "build_blocks", counting)
    return calls


class TestAutoEqualsSerial:
    # One seed per spec: consecutive configurations then differ in their
    # fault count alone, so a grouping that ignores faults would merge them.
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("shapes, faults", MESHES, ids=("2d", "3d", "4d"))
    def test_auto_json_equals_serial(self, shapes, faults, seed):
        spec = offline_spec(shapes, faults, (seed,))
        reference = run_batch(spec, engine="serial").to_json()
        assert run_batch(spec, engine="auto").to_json() == reference
        assert run_batch(spec, engine="auto", workers=2).to_json() == reference

    def test_several_seeds_in_one_spec(self):
        spec = offline_spec(((6, 6), (5, 5, 5)), (2, 6), (0, 1, 2))
        reference = run_batch(spec, engine="serial").to_json()
        assert run_batch(spec, engine="auto").to_json() == reference
        assert run_batch(spec, engine="auto", workers=2).to_json() == reference


class TestOneBuildPerConfiguration:
    def test_auto_builds_each_configuration_once(self, count_builds):
        spec = offline_spec(((6, 6), (5, 5, 5)), (0, 3, 6), (0, 1))
        run_batch(spec, engine="serial")
        oracle = list(count_builds)
        # The oracle builds every cell's setting ...
        assert len(oracle) == spec.cell_count
        del count_builds[:]
        run_batch(spec, engine="auto")
        # ... the stacked executor each configuration's once, the same one.
        assert count_builds == oracle[:: len(spec.policies)]
        assert len(count_builds) == n_configs(spec)


class TestRoutersOnlyReadTheSetting:
    @pytest.mark.parametrize("shape, faults", (((8, 8), 8), ((5, 5, 5), 8), ((4, 4, 3, 3), 4)))
    def test_labeling_and_pairs_unchanged(self, shape, faults):
        (cell, *_) = offline_spec((shape,), (faults,), (3,)).cells()
        setting = runner._offline_setting(cell)
        mesh, labeling, pairs = setting
        mutations, codes, before = labeling.mutations, labeling.codes.copy(), list(pairs)
        fresh = {}
        for policy in POLICIES:
            mine = dataclasses.replace(cell, policy=policy)
            fresh[policy] = runner._offline_metrics(mine, runner._offline_setting(mine))
            assert runner._offline_metrics(mine, setting) == fresh[policy], policy
            assert labeling.mutations == mutations, policy
            assert (labeling.codes == codes).all(), policy
            assert list(pairs) == before, policy
        # The setting has blocks to route around.
        assert labeling.block_nodes


class TestHalfCachedConfiguration:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_partly_cached_configurations_land_identical_results(
        self, tmp_path, count_builds, workers
    ):
        spec = offline_spec(((6, 6), (5, 5, 5)), (2, 6), (0, 1))
        reference = run_batch(spec, engine="serial").to_json()
        # The same name gives the same cell seeds: these are some of the
        # full spec's cells, the first and a middle policy of each
        # configuration, so a configuration's first pending cell is not its
        # first grid cell.
        half = dataclasses.replace(spec, policies=("limited-global", "no-information"))
        run_batch(half, engine="serial", cache=ResultCache(tmp_path))
        del count_builds[:]

        cache = ResultCache(tmp_path)
        assert run_batch(spec, engine="auto", workers=workers, cache=cache).to_json() == reference
        assert cache.stats.hits == half.cell_count
        if workers == 1:
            assert len(count_builds) == n_configs(spec)


class TestPlannerKeepsSerialChunks:
    # A pooled shard's cells land together, so offline shards keep the
    # serial engine's chunk boundaries: same parallelism, and no cell waits
    # for more work than it did under the oracle.
    def test_offline_shards_are_the_serial_chunks(self):
        spec = offline_spec(((6, 6), (8, 8)), (0, 2, 4), (0, 1, 2))
        cells = list(enumerate(spec.cells()))
        for workers in range(1, 9):
            shards = plan_shards(cells, workers=workers)
            oracle = plan_shards(cells, workers=workers, engine="serial")
            assert [s.cells for s in shards] == [s.cells for s in oracle], workers
            assert all(s.kind == "stacked" for s in shards), workers
            assert all(s.kind == "serial" for s in oracle), workers
            if workers > 1:
                assert len(shards) > 1, workers

    def test_one_build_per_configuration_in_each_shard(self, count_builds):
        spec = offline_spec(((6, 6),), (0, 2, 4), (0, 1))
        cells = list(enumerate(spec.cells()))
        for workers in (2, 3):
            del count_builds[:]
            shards = plan_shards(cells, workers=workers)
            for shard in shards:
                run_cells_stacked(shard.cells)
            # A configuration straddling two chunks is built once in each.
            expected = sum(
                len({setting_key(cell) for _, cell in shard.cells}) for shard in shards
            )
            assert len(count_builds) == expected < len(cells), workers
