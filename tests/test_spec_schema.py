"""Tests for the versioned spec/result schemas and the stable surface.

``repro.spec/v1`` is parsed by one canonical parser —
:meth:`ExperimentSpec.from_dict` — shared by the sweep CLI flags,
``--spec FILE.json`` and the HTTP service body.  These tests pin the
round-trip, the rejection matrix (missing schema tag, unknown keys, wrong
types, out-of-range values, all naming the offending field), the stable
public surface, and the ``on_cell_done`` callback-exception fix.
"""

import json
import warnings

import pytest

from repro.experiments import (
    RESULT_SCHEMA,
    SPEC_SCHEMA,
    BatchCancelled,
    BatchResult,
    ExperimentSpec,
    run_batch,
)


def small_spec(**overrides) -> ExperimentSpec:
    params = dict(
        name="schema-unit",
        mode="simulate",
        mesh_shapes=((5, 5),),
        policies=("limited-global",),
        fault_counts=(2,),
        fault_intervals=(5,),
        lams=(2,),
        traffic_sizes=(4,),
        seeds=(0, 1),
    )
    params.update(overrides)
    return ExperimentSpec(**params)


class TestSpecRoundTrip:
    def test_to_dict_declares_schema(self):
        payload = small_spec().to_dict()
        assert payload["schema"] == SPEC_SCHEMA == "repro.spec/v1"
        assert payload["cell_count"] == small_spec().cell_count

    def test_round_trip_identity(self):
        spec = small_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_through_json_text(self):
        spec = small_spec(scenarios=("random", "hotspot"), flits=(16, 64))
        text = json.dumps(spec.to_dict())
        assert ExperimentSpec.from_dict(json.loads(text)) == spec

    def test_round_trip_preserves_cells(self):
        spec = small_spec()
        parsed = ExperimentSpec.from_dict(spec.to_dict())
        assert parsed.cells() == spec.cells()

    def test_throughput_mode_round_trip(self):
        spec = ExperimentSpec(
            name="tp",
            mode="throughput",
            mesh_shapes=((6, 6),),
            fault_intervals=(5,),
            traffic_sizes=(4,),
            rates=(0.01, 0.02),
            warmup=8,
            measure=16,
            drain=32,
            fault_rates=(0.0, 0.05),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_cell_count_in_payload_is_ignored_not_trusted(self):
        payload = small_spec().to_dict()
        payload["cell_count"] = 999999  # derived output, never an input
        assert ExperimentSpec.from_dict(payload).cell_count == small_spec().cell_count

    def test_defaults_apply_for_omitted_fields(self):
        spec = ExperimentSpec.from_dict({"schema": SPEC_SCHEMA, "name": "defaults"})
        assert spec.name == "defaults"
        assert spec.mode == "simulate"
        assert spec.mesh_shapes == ((8, 8),)


class TestSpecRejections:
    """Every rejection must name the offending field in its message."""

    def base(self) -> dict:
        return small_spec().to_dict()

    def test_non_dict_payload(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            ExperimentSpec.from_dict([1, 2, 3])

    def test_unknown_schema_version(self):
        payload = self.base()
        payload["schema"] = "repro.spec/v999"
        with pytest.raises(ValueError, match="unsupported spec schema"):
            ExperimentSpec.from_dict(payload)

    def test_missing_schema_rejected(self):
        payload = self.base()
        del payload["schema"]
        with pytest.raises(ValueError, match="'schema'"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_key_named(self):
        payload = self.base()
        payload["polices"] = ["limited-global"]  # typo'd field
        with pytest.raises(ValueError, match="'polices'"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_key_lists_valid_fields(self):
        payload = self.base()
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="valid fields.*mesh_shapes"):
            ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "field,value,expected",
        [
            ("name", 7, "a string"),
            ("mode", ["simulate"], "a string"),
            ("mesh_shapes", "8,8", "mesh shapes"),
            ("mesh_shapes", [[8, True]], "mesh shapes"),
            ("policies", [7], "a string or a list of strings"),
            ("fault_counts", "four", "list of integers"),
            ("fault_counts", [2, True], "list of integers"),
            ("seeds", 1.5, "list of integers"),
            ("contention", "yes", "a boolean"),
            ("fault_rates", "0.1", "list of numbers"),
            ("warmup", True, "an integer"),
            ("warmup", 3.5, "an integer"),
        ],
    )
    def test_wrong_type_names_field(self, field, value, expected):
        payload = self.base()
        payload[field] = value
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec.from_dict(payload)
        assert repr(field) in str(excinfo.value)
        assert expected in str(excinfo.value)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("mode", "warp", "mode must be one of"),
            ("policies", ["no-such-router"], "not a registered router"),
            ("scenarios", ["blizzard"], "not valid in simulate mode"),
            ("mesh_shapes", [[1, 8]], "invalid mesh shape"),
            ("fault_counts", [], "must be non-empty"),
            ("repair_after", -1, "repair_after must be non-negative"),
        ],
    )
    def test_out_of_range_values_rejected(self, field, value, match):
        payload = self.base()
        payload[field] = value
        with pytest.raises(ValueError, match=match):
            ExperimentSpec.from_dict(payload)


class TestResultSchema:
    def test_batch_payload_declares_schema(self):
        batch = run_batch(small_spec(seeds=(0,)))
        payload = batch.to_dict()
        assert payload["schema"] == RESULT_SCHEMA == "repro.result/v1"
        assert payload["spec"]["schema"] == SPEC_SCHEMA

    def test_json_round_trip(self):
        batch = run_batch(small_spec(seeds=(0,)))
        again = BatchResult.from_json(batch.to_json())
        assert again.to_json() == batch.to_json()


class TestStableSurface:
    def test_keyword_spec_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            small_spec()

    def test_positional_spec_rejected(self):
        """Every ExperimentSpec field is keyword-only."""
        with pytest.raises(TypeError):
            ExperimentSpec("schema-unit", "simulate")

    def test_run_batch_positional_options_rejected(self):
        """Only the spec is positional; run_batch's options are keyword-only."""
        with pytest.raises(TypeError):
            run_batch(small_spec(seeds=(0,)), 1)

    def test_run_batch_accepts_spec_payload_dict(self):
        spec = small_spec(seeds=(0,))
        assert run_batch(spec.to_dict()).to_json() == run_batch(spec).to_json()

    def test_all_is_the_stable_surface(self):
        import repro.experiments as experiments

        for name in ("ExperimentSpec", "run_batch", "BatchResult",
                     "BatchCancelled", "SPEC_SCHEMA", "RESULT_SCHEMA"):
            assert name in experiments.__all__


class TestCallbackExceptionHandling:
    def test_raising_callback_does_not_abandon_sweep(self):
        spec = small_spec()
        calls = []

        def hook(result):
            calls.append(result.cell.index)
            raise RuntimeError("observer crashed")

        batch = run_batch(spec, on_cell_done=hook)
        assert len(batch) == spec.cell_count
        assert len(calls) == spec.cell_count  # kept being invoked
        assert batch.to_json() == run_batch(spec).to_json()

    def test_callback_errors_recorded_as_incident(self):
        spec = small_spec(seeds=(0,))

        def hook(result):
            raise RuntimeError("observer crashed")

        batch = run_batch(spec, on_cell_done=hook)
        incidents = batch.telemetry.incidents
        assert [i.kind for i in incidents] == ["callback-error"]
        assert incidents[0].action == "suppressed"
        assert incidents[0].shards == spec.cell_count

    def test_raising_callback_does_not_wedge_pool_engine(self):
        spec = small_spec()

        def hook(result):
            raise RuntimeError("observer crashed")

        batch = run_batch(spec, workers=2, on_cell_done=hook)
        assert len(batch) == spec.cell_count
        assert batch.to_json() == run_batch(spec).to_json()

    def test_batch_cancelled_still_propagates(self):
        spec = small_spec()

        def hook(result):
            raise BatchCancelled("stop now")

        with pytest.raises(BatchCancelled):
            run_batch(spec, on_cell_done=hook)
