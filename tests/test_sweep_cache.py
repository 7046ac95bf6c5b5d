"""Tests for the content-addressed sweep result cache."""

import json
import sys
import threading

import pytest

from repro.backend import resolve_backend
from repro.experiments import cache as cache_module
from repro.experiments import (
    ExperimentSpec,
    ResultCache,
    cell_fingerprint,
    run_batch,
)


def cached_spec(**overrides) -> ExperimentSpec:
    params = dict(
        name="cache-unit",
        mode="simulate",
        mesh_shapes=((8, 8),),
        policies=("limited-global", "no-information"),
        fault_counts=(2,),
        fault_intervals=(5,),
        lams=(1, 2),
        traffic_sizes=(4,),
        seeds=(0,),
    )
    params.update(overrides)
    return ExperimentSpec(**params)


class TestFingerprint:
    def test_stable_across_calls(self):
        (cell, *_) = cached_spec().cells()
        assert cell_fingerprint(cell) == cell_fingerprint(cell)

    def test_grid_position_excluded(self):
        """The same configuration at a different grid offset must share its
        content address — that is what lets overlapping sweeps hit."""
        import dataclasses

        (cell, *_) = cached_spec().cells()
        moved = dataclasses.replace(cell, index=cell.index + 17)
        assert cell_fingerprint(moved) == cell_fingerprint(cell)

    def test_every_parameter_is_part_of_the_address(self):
        import dataclasses

        (cell, *_) = cached_spec().cells()
        base = cell_fingerprint(cell)
        for change in (
            {"policy": "static-block"},
            {"cell_seed": cell.cell_seed + 1},
            {"faults": cell.faults + 1},
            {"lam": cell.lam + 1},
            {"flits": cell.flits + 1},
            {"scenario": "hotspot"},
            {"contention": not cell.contention},
            {"warmup": cell.warmup + 1},
            {"fault_rate": 0.02},
            {"repair_after": 40},
        ):
            assert cell_fingerprint(dataclasses.replace(cell, **change)) != base, change

    def test_backend_and_version_invalidate(self, monkeypatch):
        (cell, *_) = cached_spec().cells()
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        base = cell_fingerprint(cell)
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        assert cell_fingerprint(cell) != base
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        monkeypatch.setattr(cache_module, "PACKAGE_VERSION", "99.0.0")
        assert cell_fingerprint(cell) != base

    @pytest.mark.parametrize("backend,expected", [
        ("vector", "cfdba0102ef4232de3f65246d50c8faa678ad2efc382f85791246152953e53ad"),
        ("scalar", "c66b9f7d84b00d9baffaff42a3b2ce84e5a7622f21552a73211883738e537ecf"),
    ])
    def test_fingerprint_bytes_are_pinned(self, monkeypatch, tmp_path, backend, expected):
        """The address of an entry never moves: a cache directory written
        by an earlier build of the same version still hits."""
        (cell, *_) = cached_spec().cells()
        monkeypatch.setenv("REPRO_BACKEND", backend)
        monkeypatch.setattr(cache_module, "PACKAGE_VERSION", "0.0.0")
        assert cell_fingerprint(cell) == expected
        assert ResultCache(tmp_path).fingerprint(cell) == expected


class TestResultCache:
    def test_hit_miss_accounting(self, tmp_path):
        spec = cached_spec()
        cache = ResultCache(tmp_path)
        run_batch(spec, cache=cache)
        assert cache.stats.misses == spec.cell_count
        assert cache.stats.writes == spec.cell_count
        assert cache.stats.hits == 0

        warm = ResultCache(tmp_path)
        run_batch(spec, cache=warm)
        assert warm.stats.hits == spec.cell_count
        assert warm.stats.misses == warm.stats.writes == 0

    def test_cold_warm_mixed_json_byte_identical(self, tmp_path):
        reference = run_batch(cached_spec(), engine="serial").to_json()
        cold = run_batch(cached_spec(), cache=ResultCache(tmp_path)).to_json()
        warm = run_batch(cached_spec(), cache=ResultCache(tmp_path)).to_json()
        assert cold == warm == reference

        # Mixed: a wider spec overlapping the cached one — old cells hit,
        # new cells (the extra seed) miss, JSON matches a cache-free run.
        wider = cached_spec(seeds=(0, 1))
        mixed_cache = ResultCache(tmp_path)
        mixed = run_batch(wider, cache=mixed_cache)
        assert mixed_cache.stats.hits == cached_spec().cell_count
        assert mixed_cache.stats.writes == wider.cell_count - cached_spec().cell_count
        assert mixed.to_json() == run_batch(wider, engine="serial").to_json()

    def test_backend_change_invalidates_entries(self, tmp_path, monkeypatch):
        spec = cached_spec(policies=("limited-global",), lams=(1,))
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        run_batch(spec, cache=ResultCache(tmp_path))
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        other = ResultCache(tmp_path)
        (cell,) = spec.cells()
        assert other.get(cell) is None  # different address, not a stale hit

    def test_backend_is_read_once_per_cache(self, tmp_path, monkeypatch):
        """A cache addresses its entries under the backend live when it was
        built; its lookups read no environment."""
        spec = cached_spec(policies=("limited-global",), lams=(1,))
        (cell,) = spec.cells()
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        cache = ResultCache(tmp_path)
        run_batch(spec, cache=cache)
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert cache.get(cell) is not None
        assert cache.path_for(cell).exists()

    def test_version_change_invalidates_entries(self, tmp_path, monkeypatch):
        spec = cached_spec(policies=("limited-global",), lams=(1,))
        monkeypatch.setattr(cache_module, "PACKAGE_VERSION", "1.0.0")
        run_batch(spec, cache=ResultCache(tmp_path))
        monkeypatch.setattr(cache_module, "PACKAGE_VERSION", "2.0.0")
        bumped = ResultCache(tmp_path)
        (cell,) = spec.cells()
        assert bumped.get(cell) is None
        assert bumped.stats.misses == 1
        assert bumped.stats.invalid == 0  # absent, not corrupt

    @pytest.mark.parametrize(
        "corruption",
        [
            lambda text: "",  # truncated to nothing
            lambda text: text[: len(text) // 2],  # truncated mid-write
            lambda text: "not json at all {",
            lambda text: json.dumps({"fingerprint": "wrong", "metrics": {}}),
            lambda text: json.dumps({"metrics": "not-a-dict"}),
            lambda text: json.dumps([1, 2, 3]),
            # A Latin-1 edit: valid JSON shape, but the bytes are not UTF-8.
            lambda text: text.encode("utf-8").replace(b'"metrics"', b'"m\xe9trics"'),
            # The right fingerprint, so only the value check can reject it.
            lambda text: json.dumps(
                dict(json.loads(text), metrics={"delivery_rate": "1.0"})
            ),
            # ``bool`` is an ``int`` subclass: served, a warm run would write
            # ``true`` where the cold run wrote a number.
            lambda text: json.dumps(
                dict(
                    json.loads(text),
                    metrics=dict(json.loads(text)["metrics"], delivery_rate=True),
                )
            ),
        ],
        ids=[
            "empty", "truncated", "garbage", "wrong-fp", "bad-metrics",
            "not-object", "not-utf8", "non-numeric-metric", "boolean-metric",
        ],
    )
    def test_corrupted_entry_recomputed(self, tmp_path, corruption):
        """A broken entry is neither trusted nor fatal: it reads as a miss,
        the cell recomputes, and the entry is healed."""
        spec = cached_spec(policies=("limited-global",), lams=(1,))
        reference = run_batch(spec, engine="serial").to_json()
        cache = ResultCache(tmp_path)
        run_batch(spec, cache=cache)
        (cell,) = spec.cells()
        path = cache.path_for(cell)
        broken = corruption(path.read_text(encoding="utf-8"))
        path.write_bytes(broken if isinstance(broken, bytes) else broken.encode("utf-8"))

        again = ResultCache(tmp_path)
        batch = run_batch(spec, cache=again)
        assert batch.to_json() == reference
        assert again.stats.invalid >= 1
        assert again.stats.hits == 0
        assert again.stats.writes == 1
        # ... and the healed entry now hits.
        healed = ResultCache(tmp_path)
        assert healed.get(cell) is not None

    def test_entry_bytes_are_pinned(self, monkeypatch, tmp_path):
        """An entry holds its fingerprint and the cell's metrics, nothing
        else: a lookup reads only those two fields."""
        (cell, *_) = cached_spec().cells()
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        monkeypatch.setattr(cache_module, "PACKAGE_VERSION", "0.0.0")
        cache = ResultCache(tmp_path)
        path = cache.put(cell, {"steps": 31, "mean_hops": 7.25, "delivery_rate": 1.0})
        assert path.read_bytes() == (
            b'{"fingerprint": '
            b'"cfdba0102ef4232de3f65246d50c8faa678ad2efc382f85791246152953e53ad", '
            b'"metrics": {"delivery_rate": 1.0, "mean_hops": 7.25, "steps": 31}}'
        )
        assert cache.get(cell) == {"delivery_rate": 1.0, "mean_hops": 7.25, "steps": 31}

    def test_entries_with_the_old_fields_still_hit(self, tmp_path):
        """Entries that earlier builds wrote also carry the backend, the cell
        identity, the format and the version; they sit at the same address
        and serve every lookup."""
        spec = cached_spec()
        cache = ResultCache(tmp_path)
        cold = run_batch(spec, cache=cache).to_json()
        for cell in spec.cells():
            path = cache.path_for(cell)
            entry = json.loads(path.read_text(encoding="utf-8"))
            assert sorted(entry) == ["fingerprint", "metrics"]
            entry.update(
                backend=resolve_backend(),
                cell=cell.identity(),
                format=cache_module.CACHE_FORMAT,
                version=cache_module.PACKAGE_VERSION,
            )
            path.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
        warm = ResultCache(tmp_path)
        assert run_batch(spec, cache=warm).to_json() == cold
        assert warm.stats.hits == spec.cell_count
        assert warm.stats.misses == warm.stats.invalid == warm.stats.writes == 0

    def test_concurrent_writers_of_one_entry(self, tmp_path):
        """Threads of one process (``repro-mesh serve`` runs two jobs at
        once over one cache directory, each job with its own instance) put
        the same cell over and over: each renames its own temp file, so
        none raises, no temp file is left behind and the entry reads back
        whole.  A short switch interval makes colliding interleavings
        likely."""
        (cell,) = cached_spec(policies=("limited-global",), lams=(1,)).cells()
        metrics = {"delivery_rate": 1.0, "mean_hops": 7.25, "steps": 31}
        errors = []

        def writer() -> None:
            cache = ResultCache(tmp_path)
            try:
                for _ in range(500):
                    cache.put(cell, metrics)
            except Exception as exc:  # collected: the test thread asserts
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert list(tmp_path.rglob("*.tmp.*")) == []
        reader = ResultCache(tmp_path)
        assert reader.get(cell) == metrics
        assert reader.stats.invalid == 0

    def test_entries_shared_across_engines_and_workers(self, tmp_path):
        """A cache warmed by one engine serves every other execution mode."""
        spec = cached_spec()
        run_batch(spec, engine="serial", cache=ResultCache(tmp_path))
        for kwargs in (
            dict(engine="auto", workers=1),
            dict(engine="auto", workers=2),
            dict(engine="serial", workers=2),
        ):
            cache = ResultCache(tmp_path)
            run_batch(spec, cache=cache, **kwargs)
            assert cache.stats.hits == spec.cell_count, kwargs

    def test_throughput_mode_cached(self, tmp_path):
        spec = ExperimentSpec(
            name="cache-tp",
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
        cache = ResultCache(tmp_path)
        cold = run_batch(spec, cache=cache).to_json()
        warm = run_batch(spec, cache=cache).to_json()
        assert cold == warm == reference
        assert cache.stats.hits == spec.cell_count

    def test_progress_hook_fires_for_hits_and_misses(self, tmp_path):
        spec = cached_spec()
        run_batch(spec, cache=ResultCache(tmp_path))
        seen = []
        run_batch(spec, cache=ResultCache(tmp_path), on_cell_done=seen.append)
        assert sorted(r.cell.index for r in seen) == list(range(spec.cell_count))
