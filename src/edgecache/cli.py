"""Command-line front end.

Subcommands: ``generate`` (workload traces), ``run`` (one policy on one
trace), ``sweep`` (multi-seed axis sweeps), ``validate`` (randomized oracle
suites), ``bound`` (theoretical regret ceiling).

Exit codes: 0 success, 2 usage error, 3 infeasible instance,
4 validation failure.

Configuration precedence is file < flags: values from ``--config`` JSON are
used only where the flag was not given explicitly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, validate
from .baselines import InstanceTooLargeError
from .model import CostModel, load_trace, path_length, save_trace
from .rosc import write_effective_config

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

POLICIES = tuple(bench.POLICIES)


def _int_list(text: str) -> list:
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v != ""]


def _settings(args: argparse.Namespace) -> dict:
    """``bench.PAPER_DEFAULTS`` with every explicitly given flag laid over it."""
    return {key: default if getattr(args, key) is None else getattr(args, key)
            for key, default in bench.PAPER_DEFAULTS.items()}


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from --config JSON; flags always win."""
    if getattr(args, "config", None) is None:
        return
    with open(args.config) as fh:
        file_cfg = json.load(fh)
    for key, value in file_cfg.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"unknown key '{key}' in config file")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

# generate flag -> generator parameter; a parameter the model does not take
# makes its generator raise TypeError, which is a usage error
GENERATE_FLAGS = {"N": "N", "T": "T", "U": "U", "zipf": "zipf_exponent",
                  "lifetime_mean": "rank_lifetime_mean", "num_ranks": "num_ranks"}


def cmd_generate(args, parser) -> int:
    _merge_config(args, parser)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    params = {"N": 1000, "T": 10_000}
    if args.params:
        with open(args.params) as fh:
            params.update(json.load(fh))
    for flag, name in GENERATE_FLAGS.items():
        if getattr(args, flag) is not None:
            params[name] = getattr(args, flag)
    if args.model == "sqrt-churn":
        params["M"] = args.M[0] if args.M else params.get("M", 10)
    try:
        if args.groups is not None:
            params["groups"] = json.loads(args.groups)
        trace = bench.make_trace(args.model.replace("-", "_"), params, args.seed)
    except (TypeError, ValueError) as exc:
        parser.error(f"--model {args.model}: {exc}")

    if not trace.lam.any():
        print("warning: generated trace is all zeros", file=sys.stderr)
    sidecar = save_trace(trace, out)
    print(f"wrote {out} and {sidecar} (T={trace.T}, N={trace.N}, U={trace.U})")
    for M in args.M or []:
        print(f"path length at M={M}: {path_length(trace, M)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args, parser) -> int:
    _merge_config(args, parser)
    if args.trace is None:
        parser.error("--trace is required")
    trace = load_trace(args.trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    settings = _settings(args)
    alpha, M, gamma, W, K, R = (settings[k] for k in
                                ("alpha", "M", "gamma", "W", "K", "R"))
    beta_star = (args.beta_star if args.beta_star is not None
                 else alpha * settings["ratio"])
    seed = args.seed if args.seed is not None else 0
    W_big = args.W_big if args.W_big is not None else 300

    try:
        cost = CostModel.uniform(alpha, beta_star, trace.N, M, gamma=gamma)
        rec = bench.call_policy(args.policy, trace, cost, W=W, K=K, seed=seed,
                                R=R, noisy_baselines=True, W_big=W_big)
    except InstanceTooLargeError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        parser.error(str(exc))

    rec.seed = seed
    rec.write_csv(out / f"{args.policy}.csv")
    rec.write_json(out / f"{args.policy}.json")
    write_effective_config(out, {
        "command": "run", "policy": args.policy, "trace": str(args.trace),
        "alpha": alpha, "beta_star": beta_star, "M": M, "gamma": gamma,
        "W": W, "K": K, "seed": seed, "R": R, "W_big": W_big,
    })
    print(f"{args.policy}: total_cost={rec.total_cost:.6g} "
          f"runtime_ms={rec.runtime_ms:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args, parser) -> int:
    _merge_config(args, parser)
    if args.spec:
        with open(args.spec) as fh:
            doc = json.load(fh)
        spec = bench.ExperimentSpec(**doc)
    else:
        if args.seeds is None or args.seeds <= 0:
            parser.error("--seeds must be a positive count")
        base = _settings(args)
        values = _float_list(args.values) if args.values else [base[args.axis]]
        if args.axis in ("M", "W"):
            values = [int(v) for v in values]
        workload_params = {"N": args.N or 100, "T": args.T or 2000}
        if args.workload == "replacement" and args.U is not None:
            workload_params["U"] = args.U
        spec = bench.ExperimentSpec(
            workload=args.workload,
            workload_params=workload_params,
            seeds=[args.seed_base + i for i in range(args.seeds)],
            policies=args.policies.split(",") if args.policies else
                     ["rosc", "rhc", "chc", "sopt"],
            axis=args.axis,
            values=values,
            base=base,
            measure_runtime=args.measure_runtime,
            jobs=args.jobs,
        )
    report = bench.run_experiment(spec, args.out)
    failed = len(report["failures"])
    print(f"sweep over {spec.axis}={spec.values}: "
          f"{len(report['points'])} points, {failed} failures -> {args.out}")
    return EXIT_OK if report["ok"] else 1


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
    report["effective_config"] = {
        "command": "validate", "checks": names or sorted(validate.CHECKS),
        "cases": args.cases, "instances": args.instances,
        "updates": args.updates, "runs": args.runs, "seed": args.seed,
    }
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

    g = sub.add_parser("generate", help="write a synthetic trace CSV + sidecar")
    g.add_argument("--model", choices=("replacement", "poisson", "sqrt-churn"),
                   required=True)
    g.add_argument("--N", type=int)
    g.add_argument("--T", type=int)
    g.add_argument("--U", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--zipf", type=float, help="Zipf exponent (replacement)")
    g.add_argument("--lifetime-mean", type=float, dest="lifetime_mean",
                   help="mean rank dwell time in slots (replacement)")
    g.add_argument("--num-ranks", type=int, dest="num_ranks")
    g.add_argument("--groups", help="JSON [[lifetime, rate], ...] (poisson)")
    g.add_argument("--params", help="JSON file of generator parameters")
    g.add_argument("--M", type=_int_list, default=None,
                   help="comma list; print the trace path length for each")
    g.add_argument("--config", help="JSON config file (flags win)")
    g.add_argument("--out", default="trace.csv")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="run one policy on one trace")
    r.add_argument("--policy", choices=POLICIES, required=True)
    r.add_argument("--trace")
    r.add_argument("--W", type=int)
    r.add_argument("--K", type=int)
    r.add_argument("--W-big", type=int, dest="W_big", help="pseudo-opt sweeps (300)")
    r.add_argument("--seed", type=int)
    r.add_argument("--alpha", type=float)
    r.add_argument("--beta-star", type=float, dest="beta_star")
    r.add_argument("--ratio", type=float, help="beta_star / alpha")
    r.add_argument("--M", type=int)
    r.add_argument("--gamma", type=float)
    r.add_argument("--R", type=float, help="forecast noise weight")
    r.add_argument("--config", help="JSON config file (flags win)")
    r.add_argument("--out", default="run_out")
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="multi-seed sweep over one axis")
    s.add_argument("--spec", help="JSON ExperimentSpec document")
    s.add_argument("--workload", choices=("replacement", "poisson", "sqrt_churn"),
                   default="replacement")
    s.add_argument("--axis", choices=bench.SWEEP_AXES, default="W")
    s.add_argument("--values", help="comma list of axis values")
    s.add_argument("--seeds", type=int, help="number of seeds")
    s.add_argument("--seed-base", type=int, default=0, dest="seed_base")
    s.add_argument("--policies", help="comma list; default rosc,rhc,chc,sopt")
    s.add_argument("--N", type=int)
    s.add_argument("--T", type=int)
    s.add_argument("--U", type=int)
    s.add_argument("--alpha", type=float)
    s.add_argument("--ratio", type=float)
    s.add_argument("--M", type=int)
    s.add_argument("--W", type=int)
    s.add_argument("--K", type=int)
    s.add_argument("--gamma", type=float)
    s.add_argument("--R", type=float)
    s.add_argument("--measure-runtime", action="store_true", dest="measure_runtime")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--config", help="JSON config file (flags win)")
    s.add_argument("--out", default="sweep_out")
    s.set_defaults(func=cmd_sweep)

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
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
