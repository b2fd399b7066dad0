"""Experiment runner and metrics: regret, the theoretical regret ceiling,
multi-seed sweeps, and CSV/JSON reporting.

A sweep varies one axis (cost ratio, capacity M, window W, or noise weight
R) while every policy sees the same per-seed trace.  Outputs per report
directory: ``summary.json``, ``costs_<axis>.csv`` and ``runtimes.csv``;
the CLI adds the ``effective_config.json`` that replays the sweep.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import baselines
from .model import ArrivalTrace, CostModel, RunRecord
from .rosc import RoscConfig, run_rosc
from .workloads import (PoissonParams, PredictionOracle, ReplacementParams,
                        SqrtChurnParams, gen_poisson, gen_replacement,
                        gen_sqrt_churn)


def regret(policy_cost: float, reference_cost: float) -> float:
    """Signed cost gap to a reference; negative is possible when the
    reference is itself an approximation."""
    return float(policy_cost - reference_cost)


def regret_bound(cost: CostModel, N: int, T: int, U: float, K: int, W: int,
                 H_T: float) -> float:
    """Theoretical ceiling on the expected dynamic regret of the randomized
    policy, at gamma = sqrt(H_T / T) and eta = gamma / (12 b*):

        (6 sqrt(2M) b* (a + 3 b*) / (a W) + 3 b* N) sqrt(H_T T)
        + (a U + 6 b* N) T / K  +  2 b* H_T
    """
    return regret_bound_terms(cost, N, T, U, K, W, H_T)["total"]


def regret_bound_terms(cost: CostModel, N: int, T: int, U: float, K: int,
                       W: int, H_T: float) -> dict:
    """The ``regret_bound`` ceiling split into its tracking, rounding and
    churn terms, with their sum as ``total``."""
    if W < 1:
        raise ValueError("the bound needs a window of at least one slot")
    a, bs, M = cost.alpha, cost.beta_star, cost.M
    tracking = (6.0 * math.sqrt(2.0 * M) * bs * (a + 3.0 * bs) / (a * W)
                + 3.0 * bs * N) * math.sqrt(H_T * T)
    rounding = (a * U + 6.0 * bs * N) * T / K
    churn = 2.0 * bs * H_T
    return {"tracking": tracking, "rounding": rounding, "churn": churn,
            "total": tracking + rounding + churn}


def theorem_cost(cost: CostModel, H_T: float, T: int) -> CostModel:
    """``cost`` at the step size the ceiling assumes: gamma = sqrt(H_T / T),
    which sets ``CostModel.eta`` = gamma / (12 b*)."""
    gamma = math.sqrt(H_T / T)
    if not (0 < gamma < 1):
        raise ValueError(f"theorem mode gives gamma={gamma:.4g} outside (0, 1); "
                         "needs 0 < H_T < T")
    return replace(cost, gamma=gamma)


# ---------------------------------------------------------------------------
# Sweep harness
# ---------------------------------------------------------------------------

PAPER_DEFAULTS = {
    "alpha": 0.05,
    "ratio": 200.0,   # beta_star / alpha
    "M": 10,
    "W": 10,
    "K": 100,
    "gamma": 0.05,
    "R": 0.0,
}

SWEEP_AXES = ("ratio", "M", "W", "R")


@dataclass
class ExperimentSpec:
    """One sweep: a workload, seeds, policies, and a single varied axis."""

    workload: str                       # replacement | poisson | sqrt_churn
    workload_params: dict
    seeds: list
    policies: list                      # subset of {rosc, rhc, chc, sopt, pseudo-opt, opt-dp}
    axis: str = "W"
    values: list = field(default_factory=lambda: [10])
    base: dict = field(default_factory=lambda: dict(PAPER_DEFAULTS))
    measure_runtime: bool = False       # discard one warm run before timing
    jobs: int = 1

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        if not self.values:
            raise ValueError("at least one sweep value is required")
        if self.axis in ("M", "W"):
            if not all(float(v).is_integer() for v in self.values):
                raise ValueError(f"{self.axis} values must be whole numbers")
            self.values = [int(v) for v in self.values]
        R_values = self.values if self.axis == "R" else [self.base.get("R", 0.0)]
        if not all(math.isfinite(v) and v >= 0 for v in R_values):
            raise ValueError("noise weight R must be finite and nonnegative")
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ValueError(f"unknown policies {unknown}; available: {sorted(POLICIES)}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def make_trace(workload: str, params: dict, seed: int) -> ArrivalTrace:
    if workload == "replacement":
        return gen_replacement(ReplacementParams(**params), seed)
    if workload == "poisson":
        return gen_poisson(PoissonParams(**params), seed)
    if workload == "sqrt_churn":
        return gen_sqrt_churn(SqrtChurnParams(**params), seed)
    raise ValueError(f"unknown workload '{workload}'")


# name -> call; each takes the keyword arguments ``run_policy`` passes and
# ignores those it has no use for.  ``oracle`` is None for exact forecasts.
POLICIES = {
    "rosc": lambda trace, cost, W, K, seed, oracle, **_: run_rosc(
        trace, RoscConfig(cost=cost, W=W, K=K, seed=seed), predictions=oracle),
    "rhc": lambda trace, cost, W, oracle, **_: baselines.rhc_policy(
        trace, cost, W, predictions=oracle),
    "chc": lambda trace, cost, W, oracle, **_: baselines.chc_policy(
        trace, cost, W, predictions=oracle),
    "sopt": lambda trace, cost, **_: baselines.sopt_policy(trace, cost),
    "opt-dp": lambda trace, cost, **_: baselines.exact_opt_dp(trace, cost),
    "pseudo-opt": lambda trace, cost, W_big, **_: baselines.pseudo_opt(
        trace, cost, W_big),
}


def run_policy(name: str, trace: ArrivalTrace, settings: dict, seed: int,
               noisy_baselines: bool = False) -> RunRecord:
    """Run the named policy under ``settings``: ``alpha``, ``ratio``, ``M``,
    ``W``, ``K``, ``gamma`` and ``R`` (0 when absent), plus ``beta_star``
    (default ``ratio * alpha``) and the pseudo-opt sweep count ``W_big``
    (default 300).  ``rosc`` sees forecasts with noise weight R; the other
    policies see them only with ``noisy_baselines``, and exact arrivals
    otherwise.  A negative or non-finite R raises ``ValueError``."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy '{name}'")
    alpha = settings["alpha"]
    beta_star = settings.get("beta_star", settings["ratio"] * alpha)
    cost = CostModel.uniform(alpha, beta_star, trace.N, int(settings["M"]),
                             gamma=settings["gamma"])
    R = float(settings.get("R", 0.0))
    if not (math.isfinite(R) and R >= 0):
        raise ValueError(f"noise weight R={R} must be finite and nonnegative")
    noisy = R > 0 and (name == "rosc" or noisy_baselines)
    oracle = PredictionOracle(trace, R=R, seed=seed) if noisy else None
    return POLICIES[name](trace=trace, cost=cost, W=int(settings["W"]),
                          K=int(settings["K"]), seed=seed, oracle=oracle,
                          W_big=settings.get("W_big", 300))


def _run_point(spec: ExperimentSpec, value, seed: int, policy: str) -> dict:
    """Worker body: one (axis value, seed, policy) cell; returns plain data."""
    trace = make_trace(spec.workload, spec.workload_params, seed)
    settings = dict(spec.base, **{spec.axis: value})
    t_start = time.perf_counter()
    if spec.measure_runtime:
        run_policy(policy, trace, settings, seed)  # warm run, discarded
    rec = run_policy(policy, trace, settings, seed)
    return {
        "axis_value": value,
        "seed": seed,
        "policy": policy,
        "total_cost": rec.total_cost,
        "cost_per_slot": rec.total_cost / trace.T,
        "runtime_ms": rec.runtime_ms,
        "runtime_ms_per_slot": rec.runtime_ms / trace.T,
        "wall_ms": (time.perf_counter() - t_start) * 1e3,
    }


def run_experiment(spec: ExperimentSpec, out_dir) -> dict:
    """Execute the sweep, write the report files, return the report dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(spec, value, seed, policy) for value in spec.values
             for seed in spec.seeds for policy in spec.policies]
    cells, failures = [], []
    with ProcessPoolExecutor(spec.jobs) if spec.jobs > 1 else nullcontext() as pool:
        for outcome in (pool.map if pool else map)(_run_point_safe, tasks):
            (cells if "error" not in outcome else failures).append(outcome)

    report = _aggregate(spec, cells, failures)
    _write_report(spec, report, out)
    return report


def _run_point_safe(task: tuple) -> dict:
    try:
        return _run_point(*task)
    except Exception as exc:  # noqa: BLE001 - sweep points fail independently
        _, value, seed, policy = task
        return {"axis_value": value, "seed": seed, "policy": policy,
                "error": f"{type(exc).__name__}: {exc}"}


def _aggregate(spec: ExperimentSpec, cells: list, failures: list) -> dict:
    table: dict = {}
    for c in cells:
        table.setdefault((c["axis_value"], c["policy"]), []).append(c)
    points = []
    for value in spec.values:
        row = {"axis_value": value, "policies": {}}
        for policy in spec.policies:
            got = table.get((value, policy), [])
            if not got:
                continue
            costs = np.array([g["cost_per_slot"] for g in got])
            runtimes = np.array([g["runtime_ms"] for g in got])
            row["policies"][policy] = {
                "seeds": len(got),
                "cost_per_slot_mean": float(costs.mean()),
                "cost_per_slot_std": float(costs.std(ddof=0)),
                "total_cost_mean": float(np.mean([g["total_cost"] for g in got])),
                "runtime_ms_mean": float(runtimes.mean()),
                "runtime_ms_per_slot_mean": float(np.mean(
                    [g["runtime_ms_per_slot"] for g in got])),
            }
        points.append(row)
    return {
        "axis": spec.axis,
        "values": list(spec.values),
        "policies": list(spec.policies),
        "seeds": list(spec.seeds),
        "points": points,
        "failures": failures,
        "ok": not failures,
    }


def _write_report(spec: ExperimentSpec, report: dict, out: Path) -> None:
    with open(out / "summary.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / f"costs_{spec.axis}.csv", "w") as fh:
        fh.write(spec.axis + ","
                 + ",".join(f"{p}_mean,{p}_std" for p in spec.policies) + "\n")
        for point in report["points"]:
            cols = [str(point["axis_value"])]
            for p in spec.policies:
                stats = point["policies"].get(p)
                if stats is None:
                    cols += ["", ""]
                else:
                    cols += [repr(stats["cost_per_slot_mean"]),
                             repr(stats["cost_per_slot_std"])]
            fh.write(",".join(cols) + "\n")
    with open(out / "runtimes.csv", "w") as fh:
        fh.write(spec.axis + "," + ",".join(spec.policies) + "\n")
        for point in report["points"]:
            cols = [str(point["axis_value"])]
            for p in spec.policies:
                stats = point["policies"].get(p)
                cols.append("" if stats is None else repr(stats["runtime_ms_mean"]))
            fh.write(",".join(cols) + "\n")
