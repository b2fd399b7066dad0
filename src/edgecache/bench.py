"""Experiment runner and metrics: the theoretical regret ceiling,
multi-seed sweeps, and CSV/JSON reporting.

A sweep varies one axis (cost ratio, capacity M, window W, or noise weight
R) while every policy sees the same per-seed trace.  Outputs per report
directory: ``summary.json``, ``costs_<axis>.csv`` and ``runtimes.csv``;
the CLI adds the ``effective_config.json`` that replays the sweep.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import baselines
from .model import (ArrivalTrace, CostModel, RunRecord, _json_number, check_count,
                    check_real)
from .rosc import RoscConfig, run_rosc
from .workloads import (PoissonParams, PredictionOracle, ReplacementParams,
                        SqrtChurnParams, gen_poisson, gen_replacement,
                        gen_sqrt_churn)


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
    churn terms, with their sum as ``total``; N >= M, T, K, W >= 1 are integers."""
    N, T, K, W = (check_count(name, value, low) for name, value, low in
                  (("N", N, cost.M), ("T", T, 1), ("K", K, 1), ("W", W, 1)))
    U, H_T = check_real("U", U, 0), check_real("H_T", H_T, 0)
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
    gamma = math.sqrt(check_real("H_T", H_T, 0) / check_count("T", T, 1))
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
    """One sweep: a workload, seeds, policies, and a single varied axis.  Its
    seeds, workload parameters and each value's cost and policy settings are checked here."""

    workload: str                       # a key of WORKLOADS
    workload_params: dict
    seeds: list
    policies: list                      # subset of {rosc, rhc, chc, sopt, pseudo-opt, opt-dp}
    axis: str = "W"
    values: list = field(default_factory=lambda: [10])
    base: dict = field(default_factory=lambda: dict(PAPER_DEFAULTS))
    measure_runtime: bool = False       # discard one warm run before timing
    jobs: int = 1                       # worker processes, one seed each

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        self.seeds = [check_count("seed", seed, high=math.inf) for seed in self.seeds]
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        if not self.values:
            raise ValueError("at least one sweep value is required")
        if self.axis in ("M", "W"):
            if not all(check_real(self.axis, v).is_integer() for v in self.values):
                raise ValueError(f"{self.axis} values must be whole numbers")
            self.values = [int(v) for v in self.values]
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ValueError(f"unknown policies {unknown}; available: {sorted(POLICIES)}")
        check_count("jobs", self.jobs, 1)
        self._params = make_params(self.workload, self.workload_params)
        for value in self.values:
            settings = dict(self.base, **{self.axis: value})
            cost = cost_model(settings, self._params.N)
            check_real("noise weight R", settings.get("R", 0.0), 0)
            if "rosc" in self.policies:
                RoscConfig(cost, settings["W"], settings["K"])
            if "rhc" in self.policies or "chc" in self.policies:
                baselines.check_window(settings["W"])


# workload name -> (its parameter class, its generator)
WORKLOADS = {
    "replacement": (ReplacementParams, gen_replacement),
    "poisson": (PoissonParams, gen_poisson),
    "sqrt_churn": (SqrtChurnParams, gen_sqrt_churn),
}


def make_params(workload: str, params: dict):
    """``params`` as ``workload``'s parameter object; an unknown workload, or
    a field its class does not take or refuses, raises ValueError naming it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'; available: {sorted(WORKLOADS)}")
    try:
        return WORKLOADS[workload][0](**params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"workload {workload}: {exc}") from None


def make_trace(workload: str, params: dict, seed: int) -> ArrivalTrace:
    return WORKLOADS[workload][1](make_params(workload, params), seed)


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


def cost_model(settings: dict, N: int) -> CostModel:
    """The uniform cost model of ``settings`` for N services: ``alpha``, ``M``,
    ``gamma`` and beta* = ``beta_star``, or ``ratio * alpha`` if it is absent or None."""
    alpha = settings["alpha"]
    check_real("alpha", alpha, 0, open_low=True)    # by name, before the beta* it prices
    beta_star = settings.get("beta_star")
    if beta_star is None:
        beta_star = check_real("ratio", settings["ratio"], 0, open_low=True) * alpha
    return CostModel.uniform(alpha, beta_star, N, settings["M"], gamma=settings["gamma"])


def run_policy(name: str, trace: ArrivalTrace, settings: dict, seed: int) -> RunRecord:
    """Run the named policy under ``settings``: ``alpha``, ``ratio``, ``M``,
    ``W``, ``K``, ``gamma`` and ``R`` (0 when absent), plus ``beta_star``
    (``ratio * alpha`` when absent or None) and the pseudo-opt sweep count ``W_big``
    (default 300).  Every forecasting policy (``rosc``, ``rhc``, ``chc``)
    sees forecasts with noise weight R, seeded by ``seed``; the offline
    policies ignore them.  A negative or non-finite R, or a size that is not
    an integer, raises ``ValueError``."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy '{name}'")
    cost = cost_model(settings, trace.N)
    R = settings.get("R", 0.0)
    oracle = PredictionOracle(trace, R=R, seed=seed) if R != 0 else None
    return POLICIES[name](trace=trace, cost=cost, W=settings["W"],
                          K=settings["K"], seed=seed, oracle=oracle,
                          W_big=settings.get("W_big", 300))


def run_experiment(spec: ExperimentSpec, out_dir) -> dict:
    """Execute the sweep, one task per seed; write the report files, return the report."""
    from concurrent.futures import ProcessPoolExecutor  # only sweeps with jobs > 1 need it
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workers = min(spec.jobs, len(spec.seeds))
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        runs = list((pool.map if pool else map)(_run_seed, [spec] * len(spec.seeds),
                                                spec.seeds))
    report = _aggregate(spec, runs)
    _write_report(spec, report, out)
    return report


def _run_seed(spec: ExperimentSpec, seed: int) -> list:
    """Worker body: the seed's trace, built once, and per axis value one cell
    per policy run on it, as plain data; a cell that raises holds its
    ``error``, and a trace that cannot be built fails every cell."""
    try:
        trace = WORKLOADS[spec.workload][1](spec._params, seed)
    except Exception as exc:  # noqa: BLE001 - reported by each of the seed's cells
        trace = exc
    return [[_run_cell(spec, trace, value, seed, policy) for policy in spec.policies]
            for value in spec.values]


def _run_cell(spec: ExperimentSpec, trace, value, seed: int, policy: str) -> dict:
    cell = {"axis_value": value, "seed": seed, "policy": policy}
    try:
        if isinstance(trace, Exception):
            raise trace
        settings = dict(spec.base, **{spec.axis: value})
        if spec.measure_runtime:
            run_policy(policy, trace, settings, seed)  # warm run, discarded
        rec = run_policy(policy, trace, settings, seed)
    except Exception as exc:  # noqa: BLE001 - sweep cells fail independently
        return dict(cell, error=f"{type(exc).__name__}: {exc}")
    return dict(cell, total_cost=rec.total_cost, cost_per_slot=rec.total_cost / trace.T,
                runtime_ms=rec.runtime_ms, runtime_ms_per_slot=rec.runtime_ms / trace.T)


def _aggregate(spec: ExperimentSpec, runs: list) -> dict:
    """The report of ``runs[s][v][p]``, the cell of seed s, axis value v and
    policy p; failures are listed by axis value, then seed, then policy."""
    points, failures = [], []
    for value, rows in zip(spec.values, zip(*runs)):     # rows[s][p]
        failures += [cell for row in rows for cell in row if "error" in cell]
        stats = {}
        for policy, cells in zip(spec.policies, zip(*rows)):
            got = [cell for cell in cells if "error" not in cell]
            if got:
                stats[policy] = {f"{key}_mean": float(np.mean([g[key] for g in got]))
                                 for key in ("cost_per_slot", "total_cost", "runtime_ms",
                                             "runtime_ms_per_slot")}
                stats[policy].update(seeds=len(got), cost_per_slot_std=float(
                    np.std([g["cost_per_slot"] for g in got])))
        points.append({"axis_value": value, "policies": stats})
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
    (out / "summary.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=_json_number) + "\n")
    # each table: its file, and each policy's column suffixes with the stats they show
    for name, columns in ((f"costs_{spec.axis}.csv", {"_mean": "cost_per_slot_mean",
                                                      "_std": "cost_per_slot_std"}),
                          ("runtimes.csv", {"": "runtime_ms_mean"})):
        with open(out / name, "w") as fh:
            head = [p + suffix for p in spec.policies for suffix in columns]
            fh.write(",".join([spec.axis] + head) + "\n")
            for point in report["points"]:
                stats = [point["policies"].get(p) for p in spec.policies]
                cols = [repr(s[key]) if s else "" for s in stats for key in columns.values()]
                fh.write(",".join([str(point["axis_value"])] + cols) + "\n")
