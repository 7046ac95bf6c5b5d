"""Command-line interface for the reproduction library.

Eight subcommands cover the workflows the experiments use:

* ``repro-mesh route``       — route one source/destination pair against a
  static fault set, under any policy;
* ``repro-mesh simulate``    — run the step-synchronous simulator with a
  randomized dynamic-fault scenario and print the summary;
* ``repro-mesh compare``     — the policy-comparison table: an offline sweep
  preset (spec name ``compare``, the four policies of
  :data:`~repro.analysis.metrics.COMPARED_POLICIES`) on one stabilized
  random fault configuration;
* ``repro-mesh convergence`` — measure a/b/c for a parametric block;
* ``repro-mesh sweep``       — run a declarative experiment grid through
  :mod:`repro.experiments`, optionally across worker processes, and emit
  canonical JSON;
* ``repro-mesh throughput``  — open-loop saturation measurement: sweep
  injection rates (or binary-search the saturation point, or trace one
  cell) and print per-policy load-latency/throughput curves, whose points
  and knee are the cells' metric rows;
* ``repro-mesh report``      — render an observability artifact (a JSONL
  step trace from ``simulate --trace-out`` or a telemetry JSON from
  ``sweep --telemetry-out``) as an ASCII table with sparklines;
* ``repro-mesh serve``       — run the asyncio HTTP service
  (:mod:`repro.service`): submit ``repro.spec/v1`` payloads over POST,
  stream per-cell results as NDJSON, fetch the canonical
  ``repro.result/v1`` JSON — byte-identical to ``sweep --out``.

The mesh is ``--shape`` (e.g. ``16,8,4``; ``10,10,10`` unless given, or
``8,8`` for ``throughput``).  The hot-loop backend is ``$REPRO_BACKEND``'s
alone (:mod:`repro.backend`); an invalid value is a usage error before
any command runs.

Every command that runs a grid of experiment cells (``sweep``,
``throughput`` and ``compare``) builds a ``repro.spec/v1`` payload and
parses it with
:meth:`~repro.experiments.spec.ExperimentSpec.from_dict`, the door the HTTP
service uses too, so there is one seeding rule: a cell's seed derives from
the spec name and its configuration axes, never from its policy or rate.
``route`` (explicit faults and endpoints, not a grid) and ``simulate``
(one hand-built cell whose ``--seed`` is its cell seed) stay outside it.

The CLI is intentionally a thin veneer over the public API so that every
number it prints can also be obtained programmatically.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.convergence import measure_convergence
from repro.analysis.metrics import COMPARED_POLICIES
from repro.analysis.throughput import throughput_rows
from repro.backend import resolve_backend
from repro.core.block_construction import build_blocks
from repro.experiments import (
    ENGINES,
    MODES,
    SPEC_SCHEMA,
    ExperimentCell,
    ExperimentSpec,
    ResultCache,
    run_batch,
    run_cell,
)
from repro.experiments.cache import default_cache_dir
from repro.experiments.results import canonical_json
from repro.experiments.runner import build_simulator
from repro.faults.injection import uniform_random_faults
from repro.mesh.topology import Mesh
from repro.routing import available_routers, resolve_router
from repro.throughput import find_saturation, knee, run_throughput_point
from repro.workloads.scenarios import parametric_block_scenario

Coord = Tuple[int, ...]

DEFAULT_SHAPE = (10, 10, 10)

#: ``throughput``'s offered rates when ``--rates`` is absent.
DEFAULT_RATES = (0.002, 0.005, 0.01, 0.02, 0.04, 0.08)


def _parse_coord(text: str, n_dims: int) -> Coord:
    parts = [p for p in text.replace("(", "").replace(")", "").split(",") if p.strip()]
    if len(parts) != n_dims:
        raise argparse.ArgumentTypeError(
            f"expected {n_dims} comma-separated coordinates, got {text!r}"
        )
    return tuple(int(p) for p in parts)


def _parse_faults(texts: Sequence[str], n_dims: int) -> List[Coord]:
    return [_parse_coord(t, n_dims) for t in texts]


def _parse_shape(text: str) -> Tuple[int, ...]:
    parts = [p for p in text.replace("(", "").replace(")", "").split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"empty mesh shape {text!r}")
    try:
        shape = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid mesh shape {text!r}")
    if any(s < 2 for s in shape):
        raise argparse.ArgumentTypeError(
            f"every dimension needs radix >= 2, got {shape}"
        )
    return shape


def _parse_int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_float_list(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _add_shape_argument(
    parser: argparse.ArgumentParser, default: Tuple[int, ...] = DEFAULT_SHAPE
) -> None:
    parser.add_argument(
        "--shape", type=_parse_shape, default=default,
        help=f"mesh shape, e.g. 16,8,4 (default {','.join(map(str, default))})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mesh",
        description="Limited-global fault information model for n-D meshes (IPDPS 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser("route", help="route one message against a static fault set")
    _add_shape_argument(route)
    route.add_argument("--seed", type=int, default=0, help="seed of --random-faults")
    route.add_argument("--source", required=True, help="source address, e.g. 0,0,0")
    route.add_argument("--destination", required=True, help="destination address")
    route.add_argument("--fault", action="append", default=[], help="faulty node (repeatable)")
    route.add_argument("--random-faults", type=int, default=0, help="additional random faults")
    route.add_argument(
        "--policy",
        choices=available_routers(),
        default="limited-global",
        help="routing policy (any registered router)",
    )

    simulate = sub.add_parser("simulate", help="run a randomized dynamic-fault simulation")
    _add_shape_argument(simulate)
    simulate.add_argument("--seed", type=int, default=0, help="the cell seed")
    simulate.add_argument("--faults", type=int, default=6, help="dynamic fault count")
    simulate.add_argument("--interval", type=int, default=15, help="steps between faults (d_i)")
    simulate.add_argument("--messages", type=int, default=12, help="routing messages")
    simulate.add_argument("--lam", type=int, default=2, help="information rounds per step (λ)")
    simulate.add_argument(
        "--policy",
        choices=available_routers(),
        default="limited-global",
        help="routing policy driving every probe (any registered router)",
    )
    simulate.add_argument(
        "--scenario",
        choices=("random", "hotspot", "transpose", "bursty"),
        default="random",
        help="traffic family (congestion scenarios contend for links)",
    )
    simulate.add_argument(
        "--contention", action="store_true",
        help="run the PCS circuit phase: probes reserve links, delivered "
        "circuits hold them for a flits-derived time",
    )
    simulate.add_argument(
        "--flits", type=int, default=64,
        help="message length in flits (circuit hold time under contention)",
    )
    simulate.add_argument(
        "--trace-out", default=None,
        help="attach a per-step recorder and write the run's JSONL trace "
        "(step series, fault events, convergence, summary) here",
    )
    simulate.add_argument(
        "--profile", action="store_true",
        help="time the step pipeline's phases and print the nested timing "
        "report to stderr",
    )

    compare = sub.add_parser("compare", help="compare routing policies on random faults")
    _add_shape_argument(compare)
    compare.add_argument("--seed", type=int, default=0, help="the spec's seed")
    compare.add_argument("--faults", type=int, default=8)
    compare.add_argument("--messages", type=int, default=20)

    convergence = sub.add_parser("convergence", help="measure a/b/c for a parametric block")
    _add_shape_argument(convergence)
    convergence.add_argument("--edge", type=int, default=3, help="block edge length")

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative experiment grid (repro.experiments) and emit JSON",
    )
    sweep.add_argument(
        "--spec", default=None, metavar="FILE.json",
        help="read the whole grid from a versioned repro.spec/v1 JSON "
        "document (the payload ExperimentSpec.to_dict emits and the HTTP "
        "service accepts) instead of the grid flags below",
    )
    sweep.add_argument(
        "--shape", type=_parse_shape, action="append", default=None,
        help="mesh shape, e.g. 16,8,4 (repeatable; default 10,10,10)",
    )
    sweep.add_argument("--mode", choices=MODES, default="simulate")
    sweep.add_argument(
        "--policies", default="limited-global",
        help="comma-separated policy names (registered routers: "
        f"{','.join(available_routers())})",
    )
    sweep.add_argument(
        "--contention", action="store_true",
        help="simulate mode: run the PCS circuit phase in every cell",
    )
    sweep.add_argument(
        "--flits", type=_parse_int_list, default=(64,),
        help="message lengths in flits (sweepable axis, e.g. 16,64,256)",
    )
    sweep.add_argument(
        "--scenarios", default=None,
        help="comma-separated traffic families (simulate mode: "
        "random,hotspot,transpose,bursty)",
    )
    sweep.add_argument("--faults", type=_parse_int_list, default=(4,), help="fault counts, e.g. 4,8")
    sweep.add_argument("--interval", type=_parse_int_list, default=(10,), help="steps between faults (d_i)")
    sweep.add_argument("--lam", type=_parse_int_list, default=(2,), help="information rounds per step (λ)")
    sweep.add_argument("--messages", type=_parse_int_list, default=(12,), help="routing messages per cell")
    sweep.add_argument("--seeds", type=_parse_int_list, default=(0,), help="replicate seeds, e.g. 0,1,2")
    sweep.add_argument(
        "--fault-rate", type=_parse_float_list, default=(0.0,),
        help="throughput mode: dynamic MTBF fault rates per step (sweepable "
        "axis, e.g. 0.0,0.02; 0 = static faults only)",
    )
    sweep.add_argument(
        "--repair-after", type=int, default=0,
        help="throughput mode: repair each dynamic fault this many steps "
        "after it occurs (0 = permanent)",
    )
    sweep.add_argument("--workers", type=int, default=1, help="worker processes (1 = serial)")
    sweep.add_argument(
        "--shard-timeout", type=float, default=None,
        help="pool inactivity budget in seconds: if no shard completes for "
        "this long the pool is abandoned and the rest runs in-process",
    )
    sweep.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="cell execution engine: 'auto' (default) steps same-shape "
        "cells in lockstep on shared probe tables, sharded across the "
        "workers; 'serial', its oracle, runs one cell at a time — both "
        "emit byte-identical JSON",
    )
    sweep.add_argument(
        "--cache-dir", nargs="?", const="", default=None, metavar="DIR",
        help="serve cells from the content-addressed result cache in DIR "
        "and persist misses as they land, so a rerun of an interrupted "
        "sweep runs only the missing cells (entries are keyed by cell "
        "parameters, seed, backend and package version); given bare, DIR "
        "is $REPRO_CACHE_DIR or ~/.cache/repro-mesh",
    )
    sweep.add_argument("--name", default="sweep", help="spec name (seeds the cell derivation)")
    sweep.add_argument("--out", default=None, help="write JSON here instead of stdout")
    sweep.add_argument(
        "--telemetry-out", default=None,
        help="write the run's execution telemetry (shard timings, worker "
        "utilization, cache stats) as JSON to this separate file — the "
        "canonical sweep JSON itself never contains telemetry",
    )

    report = sub.add_parser(
        "report",
        help="render an observability artifact (simulate --trace-out JSONL "
        "or sweep --telemetry-out JSON) as an ASCII report",
    )
    report.add_argument("file", help="trace (.jsonl) or telemetry (.json) file")
    report.add_argument(
        "--width", type=int, default=60, help="sparkline width in characters"
    )

    serve = sub.add_parser(
        "serve",
        help="run the HTTP experiment service (repro.service): submit "
        "repro.spec/v1 payloads, stream NDJSON cell results, fetch "
        "canonical repro.result/v1 JSON",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8642, help="bind port (0 = auto)")
    serve.add_argument(
        "--max-running", type=int, default=2,
        help="jobs executing concurrently (forced to 1 when --workers > 1, "
        "because the process pool is shared)",
    )
    serve.add_argument(
        "--max-queued", type=int, default=16,
        help="jobs allowed to wait; submissions beyond this answer "
        "429 with Retry-After (backpressure)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per job (1 = in-process)",
    )
    serve_cache = serve.add_mutually_exclusive_group()
    serve_cache.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory shared by all jobs (default "
        "$REPRO_CACHE_DIR or ~/.cache/repro-mesh); overlapping "
        "submissions share content-addressed entries",
    )
    serve_cache.add_argument(
        "--no-cache", action="store_true",
        help="run every job without the result cache",
    )
    serve.add_argument(
        "--shard-timeout", type=float, default=None,
        help="pool inactivity budget in seconds (same semantics as "
        "sweep --shard-timeout)",
    )

    throughput = sub.add_parser(
        "throughput",
        help="open-loop saturation measurement: per-policy load-latency/"
        "throughput curves (repro.throughput)",
    )
    _add_shape_argument(throughput, default=(8, 8))
    throughput.add_argument(
        "--policy", default="limited-global",
        help="comma-separated policy names (registered routers: "
        f"{','.join(available_routers())})",
    )
    throughput.add_argument(
        "--scenario", choices=("uniform", "transpose", "hotspot"), default="uniform",
        help="open-loop spatial pattern",
    )
    throughput.add_argument(
        "--injection", choices=("bernoulli", "bursty"), default="bernoulli",
        help="open-loop injection process",
    )
    throughput.add_argument(
        "--rates", type=_parse_float_list, default=None,
        help="offered injection rates per node per step, e.g. 0.01,0.05 "
        f"(default {','.join(map(str, DEFAULT_RATES))})",
    )
    throughput.add_argument(
        "--saturation", action="store_true",
        help="binary-search the saturation rate per policy instead of "
        "sweeping --rates (prints its probes; takes no --rates, --out or "
        "--workers)",
    )
    throughput.add_argument("--faults", type=int, default=4, help="static fault count")
    throughput.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="dynamic MTBF fault workload: per-step fault probability inside "
        "the measurement window (0 = static faults only)",
    )
    throughput.add_argument(
        "--repair-after", type=int, default=0,
        help="repair each dynamic fault this many steps after it occurs "
        "(0 = permanent)",
    )
    throughput.add_argument(
        "--trace-out", default=None,
        help="write the run's JSONL step trace (fault events included) here; "
        "requires a single cell: one policy, one rate and one seed (takes "
        "no --out or --workers)",
    )
    throughput.add_argument("--lam", type=int, default=2, help="information rounds per step (λ)")
    throughput.add_argument("--flits", type=int, default=64, help="message length in flits")
    throughput.add_argument("--warmup", type=int, default=64, help="warmup steps (uncounted)")
    throughput.add_argument("--measure", type=int, default=256, help="measurement window steps")
    throughput.add_argument("--drain", type=int, default=512, help="drain budget steps")
    throughput.add_argument("--seeds", type=_parse_int_list, default=(0,),
                            help="replicate seeds, e.g. 0,1,2")
    throughput.add_argument("--workers", type=int, default=1, help="worker processes (1 = serial)")
    throughput.add_argument("--out", default=None, help="write curve JSON here")

    return parser


def _cmd_route(args: argparse.Namespace) -> int:
    mesh = Mesh(args.shape)
    rng = np.random.default_rng(args.seed)
    source = _parse_coord(args.source, mesh.n_dims)
    destination = _parse_coord(args.destination, mesh.n_dims)
    faults = _parse_faults(args.fault, mesh.n_dims)
    if args.random_faults:
        faults += uniform_random_faults(
            mesh, args.random_faults, rng, exclude=[source, destination, *faults]
        )
    result = build_blocks(mesh, faults)
    route = resolve_router(args.policy).route(
        mesh, result.state, source, destination
    )

    print(f"mesh {mesh}, {len(faults)} faults, {len(result.blocks)} blocks")
    print(f"policy          : {args.policy}")
    print(f"outcome         : {route.outcome.value}")
    print(f"hops / minimal  : {route.hops} / {route.min_distance}")
    print(f"detours         : {route.detours}")
    print(f"backtracks      : {route.backtrack_hops}")
    return 0 if route.delivered else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    shape = args.shape
    if args.scenario == "transpose" and len(set(shape)) != 1:
        raise argparse.ArgumentTypeError(
            "transpose traffic requires a uniform (cubic) mesh"
        )
    # One simulate-mode cell seeded directly by --seed: the run is built
    # exactly as a sweep builds its cells.
    cell = ExperimentCell(
        index=0,
        mode="simulate",
        shape=shape,
        policy=args.policy,
        faults=args.faults,
        interval=args.interval,
        lam=args.lam,
        messages=args.messages,
        seed=args.seed,
        cell_seed=args.seed,
        contention=args.contention,
        flits=args.flits,
        scenario=args.scenario,
    )
    recorder = profiler = None
    if args.trace_out:
        from repro.obs import StepRecorder

        recorder = StepRecorder()
    if args.profile:
        from repro.obs import PhaseProfiler

        profiler = PhaseProfiler()
    sim = build_simulator(cell, recorder=recorder, profiler=profiler)
    stats = sim.run().stats
    print(f"scenario        : {cell.scenario}")
    print(f"policy          : {args.policy}")
    for key, value in stats.summary().items():
        print(f"{key:<24}: {value:.3f}")
    if args.contention:
        utilization = stats.mean_reserved_links / sim.mesh.n_links
        print(f"{'link_utilization':<24}: {utilization:.3f}")
    if recorder is not None:
        from repro.obs import write_trace

        lines = write_trace(args.trace_out, sim)
        print(
            f"wrote {lines} trace records ({len(recorder)} steps) to "
            f"{args.trace_out}",
            file=sys.stderr,
        )
    if profiler is not None:
        print(profiler.report(), file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    mesh = Mesh(args.shape)
    spec = _spec_from_payload(
        {
            "schema": SPEC_SCHEMA,
            "name": "compare",
            "mode": "offline",
            "mesh_shapes": [list(mesh.shape)],
            "policies": list(COMPARED_POLICIES),
            "fault_counts": [args.faults],
            "traffic_sizes": [args.messages],
            "seeds": [args.seed],
        }
    )
    batch = run_batch(spec)
    print(f"mesh {mesh}, {args.faults} faults, {args.messages} messages")
    print(f"{'policy':<20} {'delivery':>9} {'mean hops':>10} {'mean detours':>13}")
    for result in batch.results:
        metrics = result.metrics
        print(
            f"{result.cell.policy:<20} {metrics['delivery_rate']:>9.2f} "
            f"{metrics['mean_hops']:>10.2f} {metrics['mean_detours']:>13.2f}"
        )
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    scenario = parametric_block_scenario(edge=args.edge, shape=args.shape)
    extent = scenario.expected_extents[0]
    measurement = measure_convergence(scenario.mesh, list(extent.iter_points()))
    print(f"mesh {scenario.mesh}, block edge {args.edge} ({extent.lo}..{extent.hi})")
    print(f"labeling rounds (a)       : {measurement.labeling_rounds}")
    print(f"identification rounds (b) : {measurement.identification_rounds}")
    print(f"boundary rounds (c)       : {measurement.boundary_rounds}")
    print(f"total / steps at λ=2      : {measurement.total_rounds} / {measurement.steps(2)}")
    return 0


def _spec_from_payload(payload: object) -> ExperimentSpec:
    """Parse a ``repro.spec/v1`` payload; an invalid one exits 2.

    Every command that runs experiment cells builds its spec here, through
    :meth:`ExperimentSpec.from_dict`, so a file, an HTTP submission and a
    flag-built grid are validated and seeded identically.
    """
    try:
        return ExperimentSpec.from_dict(payload)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _sweep_spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Build the sweep's spec — from ``--spec FILE.json`` or the grid flags."""
    if args.spec is not None:
        if args.shape:
            raise argparse.ArgumentTypeError(
                "--spec carries the whole grid; it is mutually exclusive "
                "with --shape"
            )
        import json as _json

        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                payload = _json.load(handle)
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"cannot read --spec file: {exc}")
        except _json.JSONDecodeError as exc:
            raise argparse.ArgumentTypeError(f"--spec file is not valid JSON: {exc}")
        return _spec_from_payload(payload)

    shapes = args.shape or [DEFAULT_SHAPE]
    scenarios: Tuple[str, ...] = ()
    if args.scenarios:
        scenarios = tuple(s.strip() for s in args.scenarios.split(",") if s.strip())
    payload = {
        "schema": SPEC_SCHEMA,
        "name": args.name,
        "mode": args.mode,
        "mesh_shapes": [list(shape) for shape in shapes],
        "policies": [p.strip() for p in args.policies.split(",") if p.strip()],
        "scenarios": list(scenarios),
        "fault_counts": list(args.faults),
        "fault_intervals": list(args.interval),
        "lams": list(args.lam),
        "traffic_sizes": list(args.messages),
        "seeds": list(args.seeds),
        "contention": args.contention,
        "flits": list(args.flits),
        "fault_rates": list(args.fault_rate),
        "repair_after": args.repair_after,
    }
    return _spec_from_payload(payload)


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec_from_args(args)
    cache = None
    if args.cache_dir is not None:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    print(
        f"sweep {spec.name!r}: {spec.cell_count} cells, mode={spec.mode}, "
        f"engine={args.engine}, workers={max(args.workers, 1)}"
        + (f", cache={cache.root}" if cache is not None else ""),
        file=sys.stderr,
    )
    batch = run_batch(
        spec,
        workers=args.workers,
        engine=args.engine,
        cache=cache,
        shard_timeout=args.shard_timeout,
    )
    if cache is not None:
        stats = cache.stats
        print(
            f"cache: {stats.hits} hits / {stats.lookups} lookups "
            f"({stats.hit_rate:.0%}), {stats.writes} written, "
            f"{stats.invalid} invalid entries recomputed",
            file=sys.stderr,
        )
    if args.telemetry_out:
        with open(args.telemetry_out, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(batch.telemetry_dict()) + "\n")
        print(f"wrote sweep telemetry to {args.telemetry_out}", file=sys.stderr)
    payload = batch.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {len(batch)} cell results to {args.out}", file=sys.stderr)
    else:
        print(payload)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import make_service

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(default_cache_dir())
    service = make_service(
        host=args.host,
        port=args.port,
        max_running=args.max_running,
        max_queued=args.max_queued,
        workers=args.workers,
        cache_dir=cache_dir,
        shard_timeout=args.shard_timeout,
    )
    try:
        asyncio.run(service.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    # The single-purpose modes refuse the flags they would drop, before
    # any cell runs.
    mode = "--saturation" if args.saturation else "--trace-out" if args.trace_out else None
    if mode is not None and args.out:
        raise argparse.ArgumentTypeError(f"{mode} writes no curve JSON; drop --out")
    if mode is not None and args.workers > 1:
        raise argparse.ArgumentTypeError(f"{mode} runs in-process; drop --workers")
    if args.saturation and args.rates is not None:
        raise argparse.ArgumentTypeError(
            "--saturation searches its own rates; drop --rates"
        )
    rates = args.rates if args.rates is not None else DEFAULT_RATES
    spec = _spec_from_payload(
        {
            "schema": SPEC_SCHEMA,
            "name": "throughput",
            "mode": "throughput",
            "mesh_shapes": [list(args.shape)],
            "policies": [p.strip() for p in args.policy.split(",") if p.strip()],
            "scenarios": [args.scenario],
            "fault_counts": [args.faults],
            "lams": [args.lam],
            "flits": [args.flits],
            "rates": list(rates),
            "seeds": list(args.seeds),
            "injection": args.injection,
            "warmup": args.warmup,
            "measure": args.measure,
            "drain": args.drain,
            "fault_rates": [args.fault_rate],
            "repair_after": args.repair_after,
        }
    )
    cells = spec.cells()

    if args.trace_out:
        if len(cells) != 1 or args.saturation:
            raise argparse.ArgumentTypeError(
                "--trace-out records one cell: give a single --policy, a "
                "single rate in --rates and a single seed in --seeds (and no "
                "--saturation)"
            )
        (cell,) = cells
        row = run_throughput_point(cell, trace_out=args.trace_out)
        _print_curve(cell.policy, [row])
        if "slo_dip_depth" in row:
            ttr = int(row["slo_time_to_recover"])
            print(
                f"  SLO over {int(row['fault_events'])} fault events: "
                f"dip {row['slo_dip_depth']:.0%}, time-to-recover "
                f"{'never' if ttr < 0 else ttr}, "
                f"p99 excursion {row['slo_p99_excursion']:+.0f}, "
                f"{int(row['fault_dropped'])} circuits fault-dropped"
            )
        print(f"wrote step trace to {args.trace_out}", file=sys.stderr)
        return 0

    if args.saturation:
        if len(spec.seeds) != 1:
            raise argparse.ArgumentTypeError(
                "--saturation searches one cell per policy: give a single "
                "seed in --seeds"
            )
        for policy in spec.policies:
            # The rate is not part of the cell seed: every probe shares the
            # curve's fault layout and injection stream.
            cell = next(c for c in cells if c.policy == policy)
            rate, probed = find_saturation(
                lambda r: run_cell(replace(cell, rate=r)).metrics
            )
            print(f"policy {policy}: saturation rate ~ {rate:.4f} msg/node/step")
            _print_curve(policy, probed)
        return 0

    batch = run_batch(spec, workers=args.workers)
    rows = throughput_rows(batch)
    for policy in spec.policies:
        _print_curve(policy, rows[policy])
        last = knee(rows[policy])
        if last is not None:
            print(
                f"  knee ~ rate {last['rate']:.4f} "
                f"(accepted {last['accepted_throughput']:.4f}, "
                f"mean latency {last['mean_setup_latency']:.1f})"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(batch.to_json() + "\n")
        print(f"wrote {len(batch)} cell results to {args.out}", file=sys.stderr)
    return 0


def _print_curve(policy: str, rows: Sequence[dict]) -> None:
    print(f"policy {policy}:")
    header = f"  {'rate':>8} {'offered':>9} {'accepted':>9} {'deliv':>6} {'lat':>8} {'p99':>7}"
    print(header)
    for row in rows:
        print(
            f"  {row['rate']:>8.4f} {row['offered_load']:>9.4f} "
            f"{row['accepted_throughput']:>9.4f} {row['delivery_rate']:>6.2f} "
            f"{row['mean_setup_latency']:>8.1f} {row['p99_setup_latency']:>7.0f}"
        )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import report_file

    try:
        print(report_file(args.file, width=args.width))
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return 0


_COMMANDS = {
    "route": _cmd_route,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "convergence": _cmd_convergence,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "throughput": _cmd_throughput,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-mesh`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_backend()  # a bad $REPRO_BACKEND stops every command here
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return _COMMANDS[args.command](args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
        return 2  # pragma: no cover - parser.error raises SystemExit


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
