"""Command-line front end.

Subcommands: plan, validate, sweep, emit-lp, gen-traffic, timeline,
fixtures. Exit codes: 0 success; 1 validation failure: an invalid
schedule, a schedule that names what the instance lacks (`structural
error: ...`), a file that is not JSON, an input document field that
`model` or `harness` rejects (`error: <location>: <message>`), or an
`emit-lp` model over the variable cap; 2 usage error: an unknown flag or
a flag value that does not parse or that `harness` rejects (`argument
--<flag>: ...`); 3 internal error such as a missing file. All randomness
flows through explicit --seed flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import harness, milp, solve as solve_mod, timeline, validate as validate_mod
from .model import (Instance, ModelError, ValidationError, collapse_frame, decode_json,
                    load_instance, serialize_instance, topology_from_document)
from .solve import SolveLimits, schedule_from_document

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read_json(path: str):
    return decode_json(Path(path).read_text(), path)


def _load_instance_file(path: str) -> Instance:
    return load_instance(_read_json(path))


def _write_json(doc, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if path is None or path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n")


def _limits_from_args(args) -> SolveLimits:
    return SolveLimits(node_budget=args.node_budget,
                       time_budget_s=args.time_budget,
                       k_paths=args.k_paths)


def _positive(kind):
    """argparse type: a `kind` (int or float) value > 0."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value
    return parse


def _finite(text: str) -> float:
    """argparse type: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _distinct(values: list, text: str) -> list:
    """values, unless one repeats: its sweep rows would share a label."""
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeats a value: {text!r}")
    return values


def _loads(text: str) -> list[float]:
    """argparse type: comma-separated distinct numbers, offered loads in Gb/s."""
    try:
        loads = [float(x) for x in text.split(",") if x]
    except ValueError:
        loads = []
    if not loads:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    return _distinct(loads, text)


def _solvers(text: str) -> list[str]:
    """argparse type: comma-separated distinct names from solve.SOLVERS."""
    names = [s for s in text.split(",") if s]
    if not names or not set(names) <= set(solve_mod.SOLVERS):
        raise argparse.ArgumentTypeError(f"not a comma-separated list of solvers from "
                                         f"{', '.join(solve_mod.SOLVERS)}: {text!r}")
    return _distinct(names, text)


# the limits of a solve that no flag sets
_DEFAULTS = SolveLimits()


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--node-budget", type=_positive(int), default=_DEFAULTS.node_budget)
    parser.add_argument("--time-budget", type=_positive(float), default=_DEFAULTS.time_budget_s,
                        help="solver wall-clock budget in seconds")
    parser.add_argument("--k-paths", type=_positive(int), default=_DEFAULTS.k_paths,
                        help="shortest-path candidates per request")


def _usage(command: str, flag: str, message: str) -> int:
    """Print an argparse-style error naming flag and return EXIT_USAGE."""
    print(f"otssplan {command}: error: argument {flag}: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_plan(args) -> int:
    instance = _load_instance_file(args.instance)
    schedule = solve_mod.solve(instance, args.solver, _limits_from_args(args))
    print(f"throughput_gbps={schedule.throughput_gbps:g} "
          f"lambda_count={schedule.lambda_count} optimal={schedule.optimal}")
    if args.output:
        Path(args.output).write_text(schedule.to_json() + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = _load_instance_file(args.instance)
    if args.baseline:
        instance = collapse_frame(instance)
    schedule = schedule_from_document(_read_json(args.schedule))
    report = validate_mod.check_schedule(instance, schedule)
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_sweep(args) -> int:
    instance = _load_instance_file(args.instance)
    try:
        result = harness.run_sweep(instance, args.loads, args.solvers, args.trials,
                                   args.seed, limits=_limits_from_args(args))
    except harness.TrafficError as exc:
        return _usage("sweep", "--loads", exc.message)
    result.to_csv(args.output)
    meta_path = Path(args.output).with_suffix(".meta.json")
    meta_path.write_text(json.dumps(result.metadata(), sort_keys=True, indent=2) + "\n")
    for load, solver, mean_tp in result.averages:
        print(f"load={load:g} solver={solver} mean_throughput_gbps={mean_tp:g}")
    return EXIT_OK


def cmd_emit_lp(args) -> int:
    instance = _load_instance_file(args.instance)
    model = milp.build_model(instance)
    phase1_value = args.phase1_value
    if model.two_phase and phase1_value is None and instance.requests:
        # pin phase 2 to exact's throughput: the optimum if the search
        # completes within its budgets, else the best it found
        pinned = solve_mod.solve_exact(instance, _limits_from_args(args))
        phase1_value = pinned.throughput_gbps
        if not pinned.optimal:
            print(f"otssplan emit-lp: phase-2 pin fix_throughput >= {phase1_value:g} is the "
                  f"best throughput found within the node/time budget, not a proven optimum",
                  file=sys.stderr)
    paths = milp.emit_lp(model, args.output, phase1_value=phase1_value)
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_gen_traffic(args) -> int:
    doc = _read_json(args.instance)
    bare = not (isinstance(doc, dict) and "topology" in doc)
    location = "$" if bare else "$.topology"
    topology = topology_from_document(doc if bare else doc["topology"], location)
    try:
        requests = harness.gen_uniform_traffic(topology, args.load,
                                               granularity_gbps=args.granularity,
                                               seed=args.seed, capacity_gbps=args.capacity)
    except harness.TrafficError as exc:
        if exc.field == "topology":
            raise ValidationError([(f"{location}.nodes", exc.message)]) from None
        return _usage("gen-traffic", f"--{exc.field}", exc.message)
    _write_json([{"id": r.id, "src": r.source, "dst": r.destination,
                  "bandwidth_gbps": r.bandwidth_gbps} for r in requests], args.output)
    return EXIT_OK


def cmd_timeline(args) -> int:
    instance = _load_instance_file(args.instance)
    schedule = schedule_from_document(_read_json(args.schedule))
    link = None
    if args.link:
        src, _, dst = args.link.partition(":")
        link = (src, dst)
        if link not in instance.topology.link_keys():
            raise ValidationError([("--link", f"unknown link {args.link!r}")])
    validate_mod.check_structure(instance, schedule)
    print(timeline.render_timeline(instance, schedule, link))
    return EXIT_OK


def cmd_fixtures(args) -> int:
    instance = harness.fixture_instance(args.name)
    _write_json(serialize_instance(instance), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otssplan",
        description="Crosstalk-aware time-slice planner for multi-mode-fiber "
                    "datacenter networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve an instance and write the schedule")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--solver", choices=solve_mod.SOLVERS, default="exact",
                   help=f"default exact, at {_DEFAULTS.node_budget:,} nodes and "
                        f"{_DEFAULTS.time_budget_s:g} s; greedy takes requests in "
                        "bandwidth-descending order, and exact searches in that order after "
                        "one best-fit descent in Gb/s-per-slot-unit order, so it never "
                        "answers below greedy unless the model is paper-literal-db")
    p.add_argument("-o", "--output")
    _add_limit_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate", help="check a schedule against an instance")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-s", "--schedule", required=True)
    p.add_argument("--baseline", action="store_true",
                   help="collapse the frame to one slot before checking")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="offered-load sweep comparing solvers")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--loads", type=_loads, required=True,
                   help="comma-separated Gb/s values on the instance's granularity")
    p.add_argument("--solvers", type=_solvers, default="exact,baseline",
                   help=f"comma-separated, from {', '.join(solve_mod.SOLVERS)}")
    p.add_argument("--trials", type=_positive(int), default=1)
    p.add_argument("--seed", default="0")
    p.add_argument("-o", "--output", required=True, help="results CSV path")
    _add_limit_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("emit-lp", help="write the MIP as LP-format text")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--phase1-value", type=_finite,
                   help="throughput to pin in the phase-2 model")
    _add_limit_flags(p)
    p.set_defaults(func=cmd_emit_lp)

    p = sub.add_parser("gen-traffic", help="generate seeded uniform traffic")
    p.add_argument("-i", "--instance", required=True,
                   help="instance or bare topology JSON")
    p.add_argument("--load", type=float, required=True,
                   help="offered load in Gb/s, a multiple of --granularity")
    p.add_argument("--granularity", type=float, default=1.0,
                   help="request bandwidths are multiples of this many Gb/s")
    p.add_argument("--capacity", type=float, default=10.0,
                   help="largest request bandwidth in Gb/s, at least --granularity")
    p.add_argument("--seed", default="0")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_traffic)

    p = sub.add_parser("timeline", help="render a link's slot grid")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-s", "--schedule", required=True)
    p.add_argument("--link", help="FROM:TO (default: first occupied link)")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("fixtures", help="write a bundled fixture instance")
    p.add_argument("--name", required=True, choices=harness.FIXTURES)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_fixtures)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ModelError, milp.SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except validate_mod.StructureError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
