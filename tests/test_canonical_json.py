"""``canonical_json`` against its oracle, ``json.dumps(sort_keys=True, indent=2)``.

Every indented JSON the package writes goes through
:func:`repro.experiments.results.canonical_json`: result documents
(``BatchResult.to_json``, the CLI's ``--out`` and the service's result
body), the service's status bodies (``service.http.json_body``) and the
sweep telemetry file.  Their bytes must stay exactly what ``json.dumps``
writes, on real payloads and on the values where a hand-built writer could
drift: non-finite and signed-zero floats, huge numbers, escapes, empty and
nested containers, tuples and numeric subclasses.
"""

import collections
import enum
import json

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, ResultCache, run_batch
from repro.experiments.results import canonical_json
from repro.service import JobManager
from repro.service.http import json_body


def oracle(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


SPECS = {
    "simulate": ExperimentSpec(
        name="canonical-simulate",
        mode="simulate",
        mesh_shapes=((6, 6), (4, 4, 4)),
        policies=("limited-global", "no-information"),
        fault_counts=(2,),
        lams=(1, 2),
        traffic_sizes=(4,),
        contention=True,
    ),
    "throughput": ExperimentSpec(
        name="canonical-throughput",
        mode="throughput",
        mesh_shapes=((6, 6),),
        policies=("limited-global",),
        fault_counts=(2,),
        rates=(0.02, 0.05),
        fault_rates=(0.04,),
        repair_after=12,
        warmup=8,
        measure=32,
        drain=64,
    ),
    "offline": ExperimentSpec(
        name="canonical-offline",
        mode="offline",
        mesh_shapes=((5, 5, 5), (8, 8)),
        policies=("limited-global", "static-block", "global-information"),
        fault_counts=(4,),
        traffic_sizes=(12,),
    ),
}


@pytest.mark.parametrize("mode", sorted(SPECS))
def test_result_documents_match_oracle(mode, tmp_path):
    spec = SPECS[mode]
    batch = run_batch(spec, cache=ResultCache(tmp_path))
    payload = batch.to_dict()
    assert canonical_json(payload) == oracle(payload)
    assert batch.to_json() == oracle(payload)
    # The telemetry of a cold and of a cache-warm run (shard table, cache
    # counters, wall-clock floats), as ``sweep --telemetry-out`` writes it.
    warm = run_batch(spec, cache=ResultCache(tmp_path))
    for telemetry in (batch.telemetry_dict(), warm.telemetry_dict()):
        assert telemetry is not None
        assert canonical_json(telemetry) == oracle(telemetry)
    assert warm.to_json() == batch.to_json()


def test_service_bodies_match_oracle(tmp_path):
    manager = JobManager(max_running=1, cache_dir=str(tmp_path))
    try:
        queued = manager.submit(SPECS["simulate"].to_dict())
        assert queued.done.wait(60)
        again = manager.submit({"spec": SPECS["simulate"].to_dict(), "priority": 3})
        assert again.done.wait(60)
        bodies = [
            manager.describe(),  # GET /v1/health
            {"jobs": [job.describe() for job in manager.jobs()]},
            {"job": queued.describe()},
            {"job": again.describe()},  # carries the cache counters
            {"error": "spec field 'lams': expected a list — got \"2\"\n"},
        ]
    finally:
        manager.shutdown()
    assert "cache" in bodies[3]["job"]
    for body in bodies:
        assert json_body(body) == (oracle(body) + "\n").encode("utf-8")


class Level(enum.IntEnum):
    HIGH = 3


class Label(str):
    pass


class Row(list):
    pass


EDGE_VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "neg-zero": -0.0,
    "huge-float": 1e300,
    "tiny-float": 5e-324,
    "long-int": 123456789012345678901234567890,
    "negative-int": -(10**29),
    "non-ascii": "λ-mesh · 8×8 ✓ \U0001d11e",
    "escapes": 'quote " backslash \\ tab \t newline \n nul \x00 del \x7f',
    "empty-dict": {},
    "empty-list": [],
    "tuple": (1, 2.5, "three", None, True, False),
    "nested-lists": [[[], [1, [2, [3.0]]]], [{}], [{"a": []}]],
    "numpy-float64": np.float64(0.1),
    "numpy-float64-nan": np.float64("nan"),
    "int-enum": Level.HIGH,
    # Subclasses of the exact types the writer dispatches on, and a flat
    # dict of values that are not exactly str, float or int.
    "ordered-dict": collections.OrderedDict([("b", 1), ("a", 2.5), ("c", "x")]),
    "str-subclass": Label("label é"),
    "list-subclass": Row([1, 2.5, "x", Row([])]),
    "flat-dict-non-exact": {
        "true": True, "none": None, "np": np.float64(0.25),
        "np-inf": np.float64("-inf"), "false": False, "enum": Level.HIGH,
    },
    "scalar-root": 2.5,
    "string-root": "root é",
    "none-root": None,
}


@pytest.mark.parametrize("name", sorted(EDGE_VALUES))
def test_edge_values_match_oracle(name):
    value = EDGE_VALUES[name]
    assert canonical_json(value) == oracle(value)
    nested = {"z": [value, {"v": value}], "a": value, "m": {"x": (value,)}}
    assert canonical_json(nested) == oracle(nested)


@pytest.mark.parametrize(
    "keys",
    [
        {10: "ten", 2: "two", -3: "minus three"},
        {2.5: "float", float("inf"): "inf", -0.0: "neg zero", np.float64(1.5): "np"},
        {True: "true", False: "false"},
        {None: "null"},
        {"b": 1, "a": 2, "é": 3, "\n": 4},
        {Label("b"): 1, "a": 2, Label("é"): 3},
    ],
    ids=["int", "float", "bool", "none", "str", "str-subclass"],
)
def test_dict_keys_coerced_like_oracle(keys):
    assert canonical_json(keys) == oracle(keys)
    assert canonical_json({"outer": keys}) == oracle({"outer": keys})


def test_all_edge_values_in_one_document():
    payload = {"edges": EDGE_VALUES, "again": [EDGE_VALUES, (EDGE_VALUES,)]}
    assert canonical_json(payload) == oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [{"a": object()}, [np.int64(3)], {(1, 2): "tuple key"}],
    ids=["object", "numpy-int64", "tuple-key"],
)
def test_unserializable_raises_like_oracle(payload):
    with pytest.raises(TypeError):
        oracle(payload)
    with pytest.raises(TypeError):
        canonical_json(payload)
