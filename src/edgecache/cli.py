"""Command-line front end.

Subcommands: ``generate`` (workload traces), ``run`` (one policy on one
trace), ``sweep`` (multi-seed axis sweeps), ``validate`` (randomized oracle
suites), ``bound`` (theoretical regret ceiling).

Exit codes: 0 success, 1 a sweep with failed cells (or an uncaught
error), 2 usage error, 3 infeasible instance, 4 validation failure.

Each subcommand's parser is the one description of its settings: ``run``
and ``sweep`` share the paper preset flags, and ``generate`` and ``sweep``
share a flag named and ``dest``ed after each field of the workloads'
parameter classes but M, which is ``generate``'s path-length list and
``sweep``'s capacity; a hyphen in a workload name reads as an underscore.

Configuration precedence is defaults < file < flags.  A ``--config`` JSON
object stands for the flags its keys name, parsed ahead of the command
line; ``run`` and ``sweep`` write their parsed settings to
``effective_config.json``, which replays through ``--config``, as does a
trace sidecar's ``params`` with a ``model`` key.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import bench, validate
from .baselines import InstanceTooLargeError
from .model import CostModel, load_trace, path_length, save_trace

EXIT_OK = 0
EXIT_FAILED_CELLS = 1
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4


def _int_list(text: str) -> list:
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v != ""]


def _spell(value) -> str:
    """A config value as its flag would spell it: a list of numbers or
    strings comma-joined, any other non-string as JSON."""
    if isinstance(value, list) and all(isinstance(v, (int, float, str)) for v in value):
        return ",".join(map(str, value))
    return value if isinstance(value, str) else json.dumps(value)


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list:
    """The flags a --config JSON object stands for: key ``k`` is ``--k`` with
    dashes for underscores; true is a bare switch, false or null nothing."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"--config {path}: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"--config {path}: expected a JSON object")
    flags = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if value is not None and value is not False:
            flags.append(flag if value is True else f"{flag}={_spell(value)}")
    return flags


# each field of the workloads' parameter classes -> the type its flag parses:
# int or float by its annotation (``| None`` allowed), else JSON
GENERATOR_FIELDS = {
    field.name: {"int": int, "float": float}.get(field.type.split(" |")[0], json.loads)
    for params, _ in bench.WORKLOADS.values() for field in dataclasses.fields(params)}


def _generator_params(args, workload: str, M) -> dict:
    """The generator fields given as flags, and M if ``workload`` takes it."""
    given = {name: getattr(args, name) for name in GENERATOR_FIELDS}
    fields = dataclasses.fields(bench.WORKLOADS[workload][0])
    given["M"] = M if any(field.name == "M" for field in fields) else None
    return {name: value for name, value in given.items() if value is not None}


def _settings(args) -> dict:
    """The parsed flags that are settings, keyed by their ``dest``: all but
    the subcommand's name and function, ``--config`` and ``--out``."""
    return {key: value for key, value in vars(args).items()
            if key not in ("command", "func", "config", "out")}


def write_effective_config(out_dir, args) -> None:
    """Drop the resolved settings next to a command's outputs, keyed as
    ``--config`` reads them, so that the file replays the command."""
    with open(Path(out_dir) / "effective_config.json", "w") as fh:
        json.dump(_settings(args), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args, parser) -> int:
    if args.model is None:
        parser.error("--model is required (on the command line or in --config)")
    params = _generator_params(args, args.model, args.M[0] if args.M else 10)
    try:
        trace = bench.make_trace(args.model, params, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        lengths = [(M, path_length(trace, M)) for M in args.M or []]
    except ValueError as exc:
        parser.error(f"--M: {exc}")

    if not trace.lam.any():
        print("warning: generated trace is all zeros", file=sys.stderr)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)     # only once the trace is built
    sidecar = save_trace(trace, out)
    print(f"wrote {out} and {sidecar} (T={trace.T}, N={trace.N}, U={trace.U})")
    for M, length in lengths:
        print(f"path length at M={M}: {length}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args, parser) -> int:
    if args.policy is None or args.trace is None:
        parser.error("--policy and --trace are required")
    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load --trace {args.trace}: {exc}")
    args.trace = str(Path(args.trace).resolve())   # so the config replays from anywhere
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rec = bench.run_policy(args.policy, trace, vars(args), args.seed)
    except InstanceTooLargeError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        parser.error(str(exc))

    rec.seed = args.seed
    rec.write_csv(out / f"{args.policy}.csv")
    rec.write_json(out / f"{args.policy}.json")
    write_effective_config(out, args)
    print(f"{args.policy}: total_cost={rec.total_cost:.6g} "
          f"runtime_ms={rec.runtime_ms:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args, parser) -> int:
    base = {key: getattr(args, key) for key in bench.PAPER_DEFAULTS}
    try:
        spec = bench.ExperimentSpec(
            workload=args.workload,
            workload_params=_generator_params(args, args.workload, args.M),
            seeds=[args.seed_base + i for i in range(args.seeds or 0)],
            policies=args.policies.split(","),
            axis=args.axis,
            values=args.values or [base[args.axis]],
            base=base,
            measure_runtime=args.measure_runtime,
            jobs=args.jobs,
        )
    except ValueError as exc:
        parser.error(str(exc))
    report = bench.run_experiment(spec, args.out)
    args.values, args.policies = spec.values, spec.policies
    write_effective_config(args.out, args)
    failed = len(report["failures"])
    print(f"sweep over {spec.axis}={spec.values}: "
          f"{len(report['points'])} points, {failed} failures -> {args.out}")
    return EXIT_OK if report["ok"] else EXIT_FAILED_CELLS


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args, parser) -> int:
    names = args.checks.split(",") if args.checks else None
    try:
        report = validate.run_checks(names, cases=args.cases,
                                     instances=args.instances,
                                     updates=args.updates, seeds=args.runs,
                                     seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    report["effective_config"] = dict(_settings(args), command="validate",
                                      checks=names or sorted(validate.CHECKS))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK if report["pass"] else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args, parser) -> int:
    try:
        cost = CostModel.uniform(args.alpha, args.beta_star, args.N, args.M)
        terms = bench.regret_bound_terms(cost, args.N, args.T, args.U,
                                         args.K, args.W, args.HT)
    except ValueError as exc:
        parser.error(str(exc))
    print(json.dumps(terms, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecache",
        description="Online service caching policies, workloads and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    # --config for generate, run and sweep; run and sweep add the paper preset
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file (flags win)")
    preset = argparse.ArgumentParser(add_help=False, parents=[config])
    for name, value in bench.PAPER_DEFAULTS.items():    # ratio is beta_star / alpha
        preset.add_argument("--" + name, type=type(value), default=value)
    workload = dict(type=lambda name: name.replace("-", "_"), choices=tuple(bench.WORKLOADS))

    # no abbreviated flags, so a --config key must name its flag in full
    g = sub.add_parser("generate", help="write a synthetic trace CSV + sidecar",
                       parents=[config], allow_abbrev=False)
    g.add_argument("--model", **workload)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--M", type=_int_list, default=None,
                   help="comma list of path lengths to print; the first is sqrt_churn's M")
    g.add_argument("--out", default="trace.csv")
    g.set_defaults(func=cmd_generate, N=1000, T=10_000)

    r = sub.add_parser("run", help="run one policy on one trace", parents=[preset],
                       allow_abbrev=False)
    r.add_argument("--policy", choices=tuple(bench.POLICIES))
    r.add_argument("--trace")
    r.add_argument("--W-big", type=int, dest="W_big", default=300,
                   help="pseudo-opt sweeps (300)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--beta-star", type=float, dest="beta_star",
                   help="default: ratio * alpha")
    r.add_argument("--out", default="run_out")
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="multi-seed sweep over one axis",
                       parents=[preset], allow_abbrev=False)
    s.add_argument("--workload", default="replacement", **workload)
    s.add_argument("--axis", choices=bench.SWEEP_AXES, default="W")
    s.add_argument("--values", type=_float_list, help="comma list of axis values")
    s.add_argument("--seeds", type=int, help="number of seeds")
    s.add_argument("--seed-base", type=int, default=0, dest="seed_base")
    s.add_argument("--policies", default="rosc,rhc,chc,sopt", help="comma list")
    s.add_argument("--measure-runtime", action="store_true", dest="measure_runtime")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out", default="sweep_out")
    s.set_defaults(func=cmd_sweep, N=100, T=2000)
    # a parent parser's flags are shared objects, so each command adds its own
    for command in (g, s):      # a flag per generator field but M
        for name, kind in GENERATOR_FIELDS.items():
            if name != "M":
                command.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)

    v = sub.add_parser("validate", help="randomized oracle suites")
    v.add_argument("--checks", help="comma list: projection,lemma1,sampler,theorem1")
    v.add_argument("--cases", type=int, help="projection case count")
    v.add_argument("--instances", type=int, help="parity/ceiling instance count")
    v.add_argument("--updates", type=int, help="sampler update count")
    v.add_argument("--runs", type=int, help="seeds per ceiling instance")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", help="also write the JSON report here")
    v.set_defaults(func=cmd_validate)

    b = sub.add_parser("bound", help="evaluate the dynamic-regret ceiling")
    b.add_argument("--alpha", type=float, required=True)
    b.add_argument("--beta-star", type=float, dest="beta_star", required=True)
    b.add_argument("--M", type=int, required=True)
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--T", type=int, required=True)
    b.add_argument("--U", type=float, required=True)
    b.add_argument("--K", type=int, required=True)
    b.add_argument("--W", type=int, required=True)
    b.add_argument("--HT", type=float, required=True)
    b.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        # the file's flags go right after the subcommand, so given flags win
        flags = _config_flags(args.config, parser)
        args = parser.parse_args(argv[:1] + flags + argv[1:])
    return args.func(args, parser)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
