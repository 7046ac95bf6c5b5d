"""Declarative experiment grids.

An :class:`ExperimentSpec` describes a whole family of experiments as the
cartesian product of its axes — mesh shapes, traffic scenarios, fault
counts, fault intervals, λ values, routing policies, traffic sizes, message
lengths (flits), open-loop injection rates and replicate seeds.  The spec
expands into a flat list of :class:`ExperimentCell` items that the runner
(:mod:`repro.experiments.runner`) executes serially or across processes.

Determinism is the core contract: every cell carries a *configuration seed*
derived with a stable hash from the spec name and the cell's configuration
axes.  The policy axis is deliberately **excluded** from the derivation, so
cells that differ only in policy share the exact same mesh, fault layout and
traffic — policy columns of a result table are directly comparable, and a
batch produces identical results no matter how many workers ran it.

The spec also *is* the wire format: :meth:`ExperimentSpec.to_dict` emits the
versioned ``repro.spec/v1`` payload and :meth:`ExperimentSpec.from_dict` is
the one canonical parser for it — the ``sweep``, ``throughput`` and
``compare`` CLI commands, ``sweep --spec FILE.json`` and the HTTP service
body (:mod:`repro.service`) all build their spec through it, so a grid
means the same thing no matter which door it came in through.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, List, Tuple, Union

from repro.routing import available_routers

#: Version tag of the spec wire/file payload.  Bump when the payload layout
#: changes incompatibly; :meth:`ExperimentSpec.from_dict` rejects payloads
#: declaring any other schema.
SPEC_SCHEMA = "repro.spec/v1"

#: Experiment modes: ``simulate`` runs the step-synchronous simulator with a
#: dynamic fault schedule; ``offline`` routes a batch of messages against a
#: fully stabilized information state; ``throughput`` runs the open-loop
#: windowed measurement of :mod:`repro.throughput` (circuit contention on).
MODES = ("simulate", "offline", "throughput")

#: Closed-batch traffic families sweepable in ``simulate`` mode.
SIMULATE_SCENARIOS = ("random", "hotspot", "transpose", "bursty")

#: Open-loop spatial patterns sweepable in ``throughput`` mode (must match
#: :data:`repro.throughput.injection.PATTERNS`).
THROUGHPUT_SCENARIOS = ("uniform", "transpose", "hotspot")

#: Open-loop injection processes (``throughput`` mode).
INJECTIONS = ("bernoulli", "bursty")

#: Valid scenario values per mode (offline routes plain random batches).
SCENARIOS_BY_MODE = {
    "simulate": SIMULATE_SCENARIOS,
    "offline": ("random",),
    "throughput": THROUGHPUT_SCENARIOS,
}


def derive_cell_seed(name: str, *parts: object) -> int:
    """A deterministic 63-bit seed from the spec name and configuration axes.

    Uses SHA-256 rather than :func:`hash` so the value is stable across
    processes and interpreter runs (``PYTHONHASHSEED`` does not leak in).
    """
    text = "|".join([name, *[repr(p) for p in parts]])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ExperimentCell:
    """One fully resolved grid point of an :class:`ExperimentSpec`."""

    index: int
    mode: str
    shape: Tuple[int, ...]
    policy: str
    faults: int
    interval: int
    lam: int
    messages: int
    seed: int

    #: Seed actually used to build the cell's mesh/faults/traffic; shared by
    #: every policy at the same configuration point.
    cell_seed: int = 0

    #: Whether the simulator runs the PCS circuit phase (always True in
    #: throughput mode).
    contention: bool = False

    #: Data-phase length of every message (circuit hold under contention).
    flits: int = 64

    #: Traffic family (closed-batch scenario or open-loop spatial pattern).
    scenario: str = "random"

    #: Offered injection rate per node per step (throughput mode only).
    rate: float = 0.0

    #: Open-loop injection process and measurement windows (throughput mode
    #: only; carried on the cell so workers need no shared state).
    injection: str = "bernoulli"
    warmup: int = 64
    measure: int = 256
    drain: int = 512

    #: Dynamic MTBF fault workload inside the measurement window (throughput
    #: mode only): per-step fault probability, and how many steps later each
    #: fault is repaired (0 = permanent).
    fault_rate: float = 0.0
    repair_after: int = 0

    def identity(self) -> dict:
        """Every parameter that determines this cell's result, JSON-shaped.

        The grid position (``index``) is deliberately excluded: two sweeps
        laying out the same configuration at different grid offsets must
        produce the same content address in the result cache
        (:mod:`repro.experiments.cache`).  Everything else — including the
        policy, the ``cell_seed`` and the throughput-mode injection
        windows — is part of the identity.
        """
        return {
            "mode": self.mode,
            "shape": list(self.shape),
            "policy": self.policy,
            "faults": self.faults,
            "interval": self.interval,
            "lam": self.lam,
            "messages": self.messages,
            "seed": self.seed,
            "cell_seed": self.cell_seed,
            "contention": self.contention,
            "flits": self.flits,
            "scenario": self.scenario,
            "rate": self.rate,
            "injection": self.injection,
            "warmup": self.warmup,
            "measure": self.measure,
            "drain": self.drain,
            "fault_rate": self.fault_rate,
            "repair_after": self.repair_after,
        }

    def config_key(self) -> Tuple[object, ...]:
        """The configuration axes (everything except the policy).

        The ``rate`` and ``fault_rate`` are part of the key — cells at
        different rates are different configurations — but like the policy
        they are *excluded* from the cell-seed derivation, so every point of
        a load curve shares one static fault layout and random stream.
        """
        return (self.mode, self.shape, self.scenario, self.faults, self.interval,
                self.lam, self.messages, self.flits, self.rate, self.seed,
                self.fault_rate, self.repair_after)


def _int_axis(value: Union[int, Iterable[int]]) -> Tuple[int, ...]:
    if isinstance(value, int):
        return (value,)
    return tuple(int(v) for v in value)


def _float_axis(value: Union[float, Iterable[float]]) -> Tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),)
    return tuple(float(v) for v in value)


# ---------------------------------------------------------------------- #
# payload parsing (repro.spec/v1)
# ---------------------------------------------------------------------- #
def _field_error(name: str, expected: str, value: object) -> ValueError:
    return ValueError(
        f"spec field {name!r}: expected {expected}, "
        f"got {value!r} ({type(value).__name__})"
    )


def _parse_str(name: str, value: object) -> str:
    if not isinstance(value, str):
        raise _field_error(name, "a string", value)
    return value


def _parse_int(name: str, value: object) -> int:
    # bool is an int subclass; a JSON true/false where a count belongs is
    # always a mistake worth naming.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _field_error(name, "an integer", value)
    return value


def _parse_bool(name: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise _field_error(name, "a boolean", value)
    return value


def _parse_int_list(name: str, value: object) -> Tuple[int, ...]:
    if isinstance(value, bool) or (
        not isinstance(value, (int, list, tuple))
    ):
        raise _field_error(name, "an integer or a list of integers", value)
    items = [value] if isinstance(value, int) else list(value)
    for item in items:
        if isinstance(item, bool) or not isinstance(item, int):
            raise _field_error(name, "a list of integers", value)
    return tuple(items)


def _parse_float_list(name: str, value: object) -> Tuple[float, ...]:
    if isinstance(value, bool) or not isinstance(value, (int, float, list, tuple)):
        raise _field_error(name, "a number or a list of numbers", value)
    items = [value] if isinstance(value, (int, float)) else list(value)
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise _field_error(name, "a list of numbers", value)
    return tuple(float(item) for item in items)


def _parse_str_list(name: str, value: object) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise _field_error(name, "a string or a list of strings", value)
    return tuple(value)


def _parse_shapes(name: str, value: object) -> Tuple[Tuple[int, ...], ...]:
    if not isinstance(value, (list, tuple)):
        raise _field_error(name, "a list of mesh shapes (lists of integers)", value)
    shapes = []
    for shape in value:
        if (
            not isinstance(shape, (list, tuple))
            or not shape
            or any(isinstance(r, bool) or not isinstance(r, int) for r in shape)
        ):
            raise _field_error(
                name, "a list of mesh shapes (non-empty lists of integers)", value
            )
        shapes.append(tuple(shape))
    return tuple(shapes)


#: The parseable payload fields, in :class:`ExperimentSpec` field order.
#: ``schema`` and ``cell_count`` are handled separately (version tag and
#: derived output, respectively).
_FIELD_PARSERS = {
    "name": _parse_str,
    "mode": _parse_str,
    "mesh_shapes": _parse_shapes,
    "policies": _parse_str_list,
    "fault_counts": _parse_int_list,
    "fault_intervals": _parse_int_list,
    "lams": _parse_int_list,
    "traffic_sizes": _parse_int_list,
    "seeds": _parse_int_list,
    "contention": _parse_bool,
    "flits": _parse_int_list,
    "scenarios": _parse_str_list,
    "rates": _parse_float_list,
    "injection": _parse_str,
    "warmup": _parse_int,
    "measure": _parse_int,
    "drain": _parse_int,
    "fault_rates": _parse_float_list,
    "repair_after": _parse_int,
}


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """A declarative grid of experiments, built from keyword arguments.

    Every axis is a tuple; :meth:`cells` expands the cartesian product in a
    fixed order (shape, scenario, faults, interval, λ, messages, flits,
    rate, fault_rate, seed, policy — policy innermost so comparable cells
    sit next to each other).  ``flits`` and ``scenario`` are first-class
    axes; a scalar ``flits`` is accepted and normalized to a one-element
    axis.
    """

    name: str = "sweep"
    mode: str = "simulate"
    mesh_shapes: Tuple[Tuple[int, ...], ...] = ((8, 8),)
    policies: Tuple[str, ...] = ("limited-global",)
    fault_counts: Tuple[int, ...] = (4,)
    fault_intervals: Tuple[int, ...] = (10,)
    lams: Tuple[int, ...] = (2,)
    traffic_sizes: Tuple[int, ...] = (12,)
    seeds: Tuple[int, ...] = (0,)

    #: Run the simulator's PCS circuit phase: concurrent path setups contend
    #: for links and delivered circuits hold their links for a
    #: ``flits``-derived time (forced on in throughput mode).
    contention: bool = False

    #: Message length(s) in flits — a sweepable axis (scalar accepted).
    flits: Union[int, Tuple[int, ...]] = (64,)

    #: Traffic families — closed-batch scenarios in simulate mode
    #: (:data:`SIMULATE_SCENARIOS`), open-loop spatial patterns in
    #: throughput mode (:data:`THROUGHPUT_SCENARIOS`).
    scenarios: Tuple[str, ...] = ()

    #: Offered injection rates per node per step (throughput mode).
    rates: Union[float, Tuple[float, ...]] = (0.05,)

    #: Open-loop injection process (throughput mode).
    injection: str = "bernoulli"

    #: Measurement windows in steps (throughput mode).
    warmup: int = 64
    measure: int = 256
    drain: int = 512

    #: Dynamic MTBF fault-rate axis (throughput mode; 0.0 = static faults
    #: only) and the shared repair delay in steps (0 = permanent faults).
    fault_rates: Union[float, Tuple[float, ...]] = (0.0,)
    repair_after: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mesh_shapes", tuple(tuple(int(r) for r in s) for s in self.mesh_shapes)
        )
        for attr in ("policies", "fault_counts", "fault_intervals", "lams",
                     "traffic_sizes", "seeds"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        object.__setattr__(self, "flits", _int_axis(self.flits))
        object.__setattr__(self, "rates", _float_axis(self.rates))
        object.__setattr__(self, "fault_rates", _float_axis(self.fault_rates))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.scenarios:
            default = "uniform" if self.mode == "throughput" else "random"
            object.__setattr__(self, "scenarios", (default,))
        else:
            object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if self.mode == "throughput":
            # Open-loop saturation is only meaningful with the circuit
            # phase: without link contention nothing ever saturates.
            object.__setattr__(self, "contention", True)
        registered = available_routers()
        for policy in self.policies:
            if policy not in registered:
                raise ValueError(
                    f"policy {policy!r} is not a registered router "
                    f"(choose from {registered})"
                )
        valid_scenarios = SCENARIOS_BY_MODE[self.mode]
        for scenario in self.scenarios:
            if scenario not in valid_scenarios:
                raise ValueError(
                    f"scenario {scenario!r} is not valid in {self.mode} mode "
                    f"(choose from {valid_scenarios})"
                )
        if "transpose" in self.scenarios:
            for shape in self.mesh_shapes:
                if len(set(shape)) != 1:
                    raise ValueError(
                        f"transpose traffic requires uniform (cubic) meshes, got {shape}"
                    )
        if self.contention and self.mode == "offline":
            raise ValueError("contention requires simulate mode (offline has no circuit phase)")
        for flits in self.flits:
            if flits < 0:
                raise ValueError("flits must be non-negative")
        for rate in self.rates:
            if not 0.0 < rate <= 1.0:
                raise ValueError("rates must be within (0, 1]")
        if self.injection not in INJECTIONS:
            raise ValueError(f"injection must be one of {INJECTIONS}")
        if self.warmup < 0 or self.measure < 1 or self.drain < 0:
            raise ValueError("warmup/drain must be >= 0 and measure >= 1")
        for axis in ("mesh_shapes", "policies", "scenarios", "fault_counts",
                     "fault_intervals", "lams", "traffic_sizes", "seeds",
                     "flits", "rates"):
            if not getattr(self, axis):
                raise ValueError(f"{axis} must be non-empty")
        for shape in self.mesh_shapes:
            if len(shape) < 1 or any(r < 2 for r in shape):
                raise ValueError(f"invalid mesh shape {shape}")
        if self.mode == "offline" and (len(self.fault_intervals) > 1 or len(self.lams) > 1):
            # Offline cells never read interval/λ; a multi-valued axis would
            # just rerun differently-seeded replicates disguised as distinct
            # configurations.
            raise ValueError(
                "offline mode ignores fault_intervals and lams; "
                "give each a single value"
            )
        if self.mode != "throughput" and len(self.rates) > 1:
            raise ValueError(
                "rates is a throughput-mode axis; give a single value otherwise"
            )
        for fault_rate in self.fault_rates:
            if not 0.0 <= fault_rate < 1.0:
                raise ValueError("fault_rates must be within [0, 1)")
        if self.repair_after < 0:
            raise ValueError("repair_after must be non-negative")
        if self.mode != "throughput" and (
            len(self.fault_rates) > 1 or self.fault_rates[0] > 0.0
        ):
            raise ValueError(
                "fault_rates is a throughput-mode axis; leave it at 0.0 otherwise"
            )
        if self.mode == "throughput" and (
            len(self.fault_intervals) > 1 or len(self.traffic_sizes) > 1
        ):
            # Open-loop cells use static pre-stabilized faults and generate
            # their own traffic from the rate axis.
            raise ValueError(
                "throughput mode ignores fault_intervals and traffic_sizes; "
                "give each a single value"
            )

    @property
    def cell_count(self) -> int:
        """Number of grid points the spec expands to."""
        return (
            len(self.mesh_shapes) * len(self.scenarios) * len(self.fault_counts)
            * len(self.fault_intervals) * len(self.lams) * len(self.traffic_sizes)
            * len(self.flits) * len(self.rates) * len(self.fault_rates)
            * len(self.seeds) * len(self.policies)
        )

    def cells(self) -> List[ExperimentCell]:
        """Expand the grid into its cells, in deterministic order."""
        return list(self.iter_cells())

    def iter_cells(self) -> Iterator[ExperimentCell]:
        index = 0
        for shape, scenario, faults, interval, lam, messages, flits, rate, fault_rate, seed in product(
            self.mesh_shapes, self.scenarios, self.fault_counts,
            self.fault_intervals, self.lams, self.traffic_sizes,
            self.flits, self.rates, self.fault_rates, self.seeds,
        ):
            rate = rate if self.mode == "throughput" else 0.0
            # The rate and fault_rate are excluded from the derivation (like
            # the policy): all points of one load curve share the same static
            # fault layout and the same underlying random stream (a Bernoulli
            # source thresholds identical draws), so the curve varies only
            # with the load and the dynamic fault process.
            cell_seed = derive_cell_seed(
                self.name, self.mode, shape, scenario, faults, interval, lam,
                messages, flits, seed,
            )
            for policy in self.policies:
                yield ExperimentCell(
                    index=index,
                    mode=self.mode,
                    shape=shape,
                    policy=policy,
                    faults=faults,
                    interval=interval,
                    lam=lam,
                    messages=messages,
                    seed=seed,
                    cell_seed=cell_seed,
                    contention=self.contention,
                    flits=flits,
                    scenario=scenario,
                    rate=rate,
                    injection=self.injection,
                    warmup=self.warmup,
                    measure=self.measure,
                    drain=self.drain,
                    fault_rate=fault_rate,
                    repair_after=self.repair_after,
                )
                index += 1

    @classmethod
    def from_dict(cls, data: object) -> "ExperimentSpec":
        """Parse the canonical ``repro.spec/v1`` payload into a spec.

        This is *the* parser for the wire and file formats: the CLI's
        ``sweep`` (both its grid flags and ``--spec FILE.json``),
        ``throughput`` and ``compare``, the HTTP service body and
        round-trips of :meth:`to_dict` all come through here, so every door
        validates identically.  Unknown keys, wrong
        types and out-of-range values are rejected with errors naming the
        offending field, and so is a payload without its ``schema`` tag.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"spec payload must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        schema = payload.pop("schema", None)
        if schema is None:
            raise ValueError(
                "spec payload is missing its 'schema' field; "
                f"declare 'schema': {SPEC_SCHEMA!r}"
            )
        if schema != SPEC_SCHEMA:
            raise ValueError(
                f"unsupported spec schema {schema!r} "
                f"(this build speaks {SPEC_SCHEMA!r})"
            )
        # Derived on export; never an input (the grid size is what the
        # axes say it is).
        payload.pop("cell_count", None)
        unknown = sorted(set(payload) - set(_FIELD_PARSERS))
        if unknown:
            raise ValueError(
                "unknown spec field(s) "
                + ", ".join(repr(k) for k in unknown)
                + "; valid fields: "
                + ", ".join(sorted([*_FIELD_PARSERS, "schema"]))
            )
        kwargs = {
            name: parser(name, payload[name])
            for name, parser in _FIELD_PARSERS.items()
            if name in payload
        }
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The canonical ``repro.spec/v1`` payload (JSON-serializable)."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "mode": self.mode,
            "mesh_shapes": [list(s) for s in self.mesh_shapes],
            "policies": list(self.policies),
            "scenarios": list(self.scenarios),
            "fault_counts": list(self.fault_counts),
            "fault_intervals": list(self.fault_intervals),
            "lams": list(self.lams),
            "traffic_sizes": list(self.traffic_sizes),
            "seeds": list(self.seeds),
            "contention": self.contention,
            "flits": list(self.flits),
            "rates": list(self.rates),
            "injection": self.injection,
            "warmup": self.warmup,
            "measure": self.measure,
            "drain": self.drain,
            "fault_rates": list(self.fault_rates),
            "repair_after": self.repair_after,
            "cell_count": self.cell_count,
        }
