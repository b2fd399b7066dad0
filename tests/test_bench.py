import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgecache import bench
from edgecache.bench import (ExperimentSpec, PAPER_DEFAULTS, cost_model, regret_bound,
                             regret_bound_terms, run_experiment,
                             run_policy, make_trace, theorem_cost)
from edgecache.model import ArrivalTrace, CostModel
from edgecache.rosc import RoscConfig, run_rosc
from edgecache.workloads import ReplacementParams, gen_replacement

ROOT = Path(__file__).resolve().parents[1]


def _cost(M=10, beta_star=10.0, alpha=0.05):
    return CostModel.uniform(alpha, beta_star, max(M, 1), M)


def test_regret_bound_term_by_term():
    """Independent recomputation of the three terms for the headline
    parameterization."""
    cost = _cost(M=10)
    N, T, U, K, W, H_T = 100, 10_000, 200.0, 100, 10, 100.0
    a, bs, M = 0.05, 10.0, 10
    tracking = (6 * math.sqrt(2 * M) * bs * (a + 3 * bs) / (a * W) + 3 * bs * N) \
        * math.sqrt(H_T * T)
    rounding = (a * U + 6 * bs * N) * T / K
    churn = 2 * bs * H_T
    expected = tracking + rounding + churn
    assert regret_bound(cost, N, T, U, K, W, H_T) == pytest.approx(expected, rel=1e-12)
    terms = regret_bound_terms(cost, N, T, U, K, W, H_T)
    assert terms["tracking"] == pytest.approx(tracking)
    assert terms["rounding"] == pytest.approx(601_000.0)
    assert terms["churn"] == pytest.approx(2_000.0)


def test_regret_bound_zero_path_length_leaves_only_rounding():
    cost = _cost(M=4, beta_star=7.0)
    value = regret_bound(cost, N=30, T=500, U=90.0, K=25, W=5, H_T=0.0)
    assert value == pytest.approx((0.05 * 90 + 6 * 7 * 30) * 500 / 25)


def test_regret_bound_k_doubling_halves_rounding_term():
    cost = _cost(M=3)
    kwargs = dict(N=20, T=1000, U=100.0, W=4, H_T=30.0)
    t1 = regret_bound_terms(cost, K=50, **kwargs)
    t2 = regret_bound_terms(cost, K=100, **kwargs)
    assert t2["rounding"] == pytest.approx(t1["rounding"] / 2)
    assert t2["tracking"] == t1["tracking"] and t2["churn"] == t1["churn"]


def test_regret_bound_monotone_in_w_and_k():
    cost = _cost(M=5)
    vals_w = [regret_bound(cost, 40, 2000, 150.0, 50, W, 60.0)
              for W in (1, 2, 5, 10, 20)]
    assert vals_w == sorted(vals_w, reverse=True)
    vals_k = [regret_bound(cost, 40, 2000, 150.0, K, 5, 60.0)
              for K in (10, 20, 50, 100)]
    assert vals_k == sorted(vals_k, reverse=True)
    with pytest.raises(ValueError):
        regret_bound(cost, 40, 2000, 150.0, 50, 0, 60.0)


@pytest.mark.parametrize("arg, value, message", [
    ("N", -3, "N must be an integer .*, got -3"),
    ("N", 0, "N must be an integer .*, got 0"),
    ("N", 4, "N must be an integer in \\[5, .*, got 4"),
    ("N", 40.0, "N must be an integer .*, got 40.0"),
    ("T", 0, "T must be an integer .*, got 0"),
    ("T", 2000.5, "T must be an integer .*, got 2000.5"),
    ("K", 0, "K must be an integer .*, got 0"),
    ("K", True, "K must be an integer .*, got True"),
    ("W", 2.5, "W must be an integer .*, got 2.5"),
    ("W", -1, "W must be an integer .*, got -1"),
], ids=["N-negative", "N-0", "N-below-M", "N-float", "T-0", "T-fraction",
        "K-0", "K-bool", "W-fraction", "W-negative"])
def test_regret_bound_refuses_sizes_it_cannot_bound(arg, value, message):
    args = {"N": 40, "T": 2000, "U": 150.0, "K": 50, "W": 5, "H_T": 60.0}
    with pytest.raises(ValueError, match=f"^{message}"):
        regret_bound(_cost(M=5), **{**args, arg: value})
    assert regret_bound(_cost(M=5), **{**args, arg: np.int64(5)}) > 0


@pytest.mark.parametrize("H_T, T, name", [
    (6.0, 0, "T"), (6.0, 20.0, "T"), (np.nan, 20, "H_T"), (10**400, 20, "H_T"),
], ids=["T-0", "T-float", "H_T-nan", "H_T-huge-int"])
def test_theorem_cost_refuses_bad_horizon_by_name(H_T, T, name):
    """T = 0 divided by zero before the boundary checked T."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        theorem_cost(CostModel.uniform(0.05, 8.0, 6, 2), H_T, T)


def test_theorem_cost():
    trace = ArrivalTrace(lam=np.arange(120.0).reshape(20, 6) % 7)
    cost = theorem_cost(CostModel.uniform(0.05, 8.0, trace.N, 2), 6.0, trace.T)
    assert cost.gamma == pytest.approx(np.sqrt(6.0 / trace.T))
    assert cost.eta == cost.gamma / (12 * 8.0)
    rec = run_rosc(trace, RoscConfig(cost=cost, W=2, K=10, seed=0))
    assert rec.config["gamma"] == pytest.approx(cost.gamma)
    with pytest.raises(ValueError):
        theorem_cost(cost, 0.0, trace.T)


def _tiny_spec(tmp_path, **kw):
    base = dict(PAPER_DEFAULTS)
    base.update({"M": 2, "W": 2, "K": 5})
    spec = dict(
        workload="replacement",
        workload_params={"N": 12, "T": 10, "U": 40},
        seeds=[0],
        policies=["rosc"],
        axis="W",
        values=[2],
        base=base,
    )
    spec.update(kw)
    return ExperimentSpec(**spec)


def test_run_experiment_single_cell_self_consistent(tmp_path):
    spec = _tiny_spec(tmp_path)
    report = run_experiment(spec, tmp_path / "rep")
    assert report["ok"]
    stats = report["points"][0]["policies"]["rosc"]
    trace = make_trace(spec.workload, spec.workload_params, 0)
    rec = run_policy("rosc", trace, dict(spec.base, W=2), 0)
    assert stats["total_cost_mean"] == pytest.approx(rec.total_cost)
    assert stats["cost_per_slot_mean"] == pytest.approx(rec.total_cost / trace.T)
    for name in ("summary.json", "costs_W.csv", "runtimes.csv"):
        assert (tmp_path / "rep" / name).exists()
    doc = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert doc["ok"] is True


def test_run_experiment_records_failures(tmp_path):
    spec = _tiny_spec(tmp_path, policies=["opt-dp"],
                      workload_params={"N": 20, "T": 10, "U": 40})
    report = run_experiment(spec, tmp_path / "rep2")
    assert not report["ok"]
    assert report["failures"] and "exceeds" in report["failures"][0]["error"]


def test_a_failing_cell_leaves_its_seeds_other_cells(tmp_path):
    """N = 20 is past the exact DP's budget: opt-dp fails on the seed's
    trace, and sopt still runs on it."""
    spec = _tiny_spec(tmp_path, policies=["opt-dp", "sopt"],
                      workload_params={"N": 20, "T": 10, "U": 40})
    report = run_experiment(spec, tmp_path / "rep")
    assert [(f["policy"], f["seed"]) for f in report["failures"]] == [("opt-dp", 0)]
    assert list(report["points"][0]["policies"]) == ["sopt"]


def test_a_trace_that_cannot_be_built_fails_each_of_its_cells(tmp_path):
    """Its parameters pass, but at this Pareto shape a seed's volumes pass
    numpy's Poisson limit while the trace is built."""
    spec = _tiny_spec(tmp_path, workload="poisson", policies=["rosc", "sopt"], values=[1, 2],
                      workload_params={"N": 50, "T": 200, "popularity_shape": 0.05})
    report = run_experiment(spec, tmp_path / "rep")
    assert [(f["axis_value"], f["policy"]) for f in report["failures"]] == [
        (1, "rosc"), (1, "sopt"), (2, "rosc"), (2, "sopt")]
    assert all("popularity_shape=0.05" in f["error"] for f in report["failures"])
    assert [point["policies"] for point in report["points"]] == [{}, {}]


def _counting(monkeypatch, calls):
    """Make every workload's generator note the seed of each trace it builds."""
    for name, (params, generate) in list(bench.WORKLOADS.items()):
        def counted(p, seed, generate=generate):
            calls.append(seed)
            return generate(p, seed)
        monkeypatch.setitem(bench.WORKLOADS, name, (params, counted))


def test_a_sweep_builds_each_seeds_trace_once(tmp_path, monkeypatch):
    calls = []
    _counting(monkeypatch, calls)
    spec = _tiny_spec(tmp_path, seeds=[4, 2, 7], policies=["rosc", "rhc", "sopt"],
                      values=[1, 2, 3], measure_runtime=True)
    assert run_experiment(spec, tmp_path / "rep")["ok"]
    assert calls == [4, 2, 7]


@pytest.mark.parametrize("kw, message", [
    ({"workload": "magic"}, "unknown workload 'magic'"),
    ({"workload_params": {"N": 12, "T": 10, "groups": ()}}, "workload replacement: .*groups"),
    ({"workload": "poisson", "workload_params": {"N": 12, "T": 10, "U": 40}},
     "workload poisson: .*'U'"),
    ({"workload_params": {"N": 12, "T": 10, "num_ranks": 20}},
     r"workload replacement: num_ranks must be an integer in \[1, 12\], got 20"),
], ids=["unknown-workload", "field-not-taken", "U-on-poisson", "field-refused"])
def test_spec_refuses_a_workload_without_building_a_trace(monkeypatch, kw, message):
    calls = []
    _counting(monkeypatch, calls)
    with pytest.raises(ValueError, match=message):
        _tiny_spec(None, **kw)
    assert calls == []


@pytest.mark.parametrize("kw, message", [
    ({"base": dict(PAPER_DEFAULTS, alpha=-1.0)}, "alpha must be"),
    ({"base": dict(PAPER_DEFAULTS, gamma=2.0)}, "gamma must be"),
    ({"axis": "ratio", "values": [200.0, -1.0]}, "ratio must be"),
    ({"axis": "M", "values": [2, 13]}, r"M must be an integer in \[1, 12\], got 13"),
    ({"seeds": [0, 1.5]}, r"seed must be an integer in \(-inf, inf\), got 1.5"),
    ({"seeds": [True]}, "seed must be"),
], ids=["alpha", "gamma", "ratio-value", "M-value", "fractional-seed", "bool-seed"])
def test_spec_refuses_cost_settings_and_seeds(kw, message):
    with pytest.raises(ValueError, match=message):
        _tiny_spec(None, **kw)


def test_spec_seeds_are_ints(tmp_path):
    spec = _tiny_spec(tmp_path, seeds=[np.int64(0), np.uint8(1)])
    assert [type(seed) for seed in spec.seeds] == [int, int]
    report = run_experiment(spec, tmp_path / "rep")
    assert json.loads((tmp_path / "rep" / "summary.json").read_text())["seeds"] == [0, 1]
    assert report["points"][0]["policies"]["rosc"]["seeds"] == 2


def test_summary_takes_numpy_axis_values(tmp_path):
    """A value kept as given reaches summary.json as a JSON number; json.dump
    raised TypeError on it after every cell had run, and left the file cut."""
    spec = _tiny_spec(tmp_path, policies=["rosc", "rhc"], axis="R",
                      values=[np.float32(0.5), np.float64(0.25)])
    report = run_experiment(spec, tmp_path / "rep")
    doc = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert doc["ok"] and doc["values"] == [0.5, 0.25]
    assert [p["axis_value"] for p in doc["points"]] == [0.5, 0.25]
    assert report["points"][0]["policies"]["rhc"]["seeds"] == 1


def test_run_records_write_numpy_knobs(tmp_path):
    """CostModel keeps alpha as given and rhc its W; a record's JSON writes
    them as numbers, where json.dump raised TypeError after the CSV."""
    trace = gen_replacement(ReplacementParams(N=8, T=12, U=30), 0)
    rosc = run_rosc(trace, RoscConfig(cost=CostModel.uniform(np.float32(0.05), 10.0, 8, 2),
                                      W=2, K=5))
    rhc = bench.baselines.rhc_policy(trace, CostModel.uniform(0.05, 10.0, 8, 2), np.int64(2))
    for rec in (rosc, rhc):
        rec.write_json(tmp_path / "rec.json")
        doc = json.loads((tmp_path / "rec.json").read_text())
        assert doc["total_cost"] == rec.total_cost and doc["config"]["W"] == 2
    assert doc["config"]["policy"] == "rhc"


def test_run_experiment_parallel_matches_serial(tmp_path):
    spec_a = _tiny_spec(tmp_path, seeds=[0, 1], policies=["rosc", "sopt"])
    spec_b = _tiny_spec(tmp_path, seeds=[0, 1], policies=["rosc", "sopt"], jobs=2)
    ra = run_experiment(spec_a, tmp_path / "serial")
    rb = run_experiment(spec_b, tmp_path / "parallel")
    pa = ra["points"][0]["policies"]
    pb = rb["points"][0]["policies"]
    for policy in ("rosc", "sopt"):
        assert pa[policy]["total_cost_mean"] == pytest.approx(
            pb[policy]["total_cost_mean"])


def test_import_leaves_the_process_pool_unloaded():
    """The pool is imported inside ``run_experiment``, only for jobs > 1."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, edgecache; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_forked_sweep_workers_split_after_the_parent_has(tmp_path):
    """A process whose sweeps have split over its cores holds a thread pool,
    whose threads a fork does not copy; the --jobs workers it forks make
    their own pool and finish."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = f"""
from edgecache import rowsplit
from edgecache.bench import PAPER_DEFAULTS, ExperimentSpec, make_trace, run_experiment
from edgecache.model import CostModel
from edgecache.gradient_pgd import offline_pgd
rowsplit._cores = lambda: 2  # split on any host, here and in the workers
params = {{"N": 1000, "T": 300}}
trace = make_trace("poisson", params, 0)
offline_pgd(trace, CostModel.uniform(0.05, 10.0, 1000, 10), 2)
assert rowsplit._pool is not None
spec = ExperimentSpec(workload="poisson", workload_params=params, seeds=[0, 1],
                      policies=["pseudo-opt"], base=dict(PAPER_DEFAULTS, W_big=2),
                      jobs=2)
print(run_experiment(spec, {str(tmp_path / "rep")!r})["ok"])
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_spec_validation():
    with pytest.raises(ValueError):
        _tiny_spec(None, seeds=[])
    with pytest.raises(ValueError):
        _tiny_spec(None, axis="Z")
    with pytest.raises(ValueError):
        _tiny_spec(None, values=[])
    with pytest.raises(ValueError, match="whole numbers"):
        _tiny_spec(None, axis="M", values=[2.5])
    with pytest.raises(ValueError, match="magic"):
        _tiny_spec(None, policies=["rosc", "magic"])
    with pytest.raises(ValueError, match="jobs"):
        _tiny_spec(None, jobs=0)
    with pytest.raises(ValueError, match="^jobs must be an integer"):
        _tiny_spec(None, jobs=1.5)
    with pytest.raises(ValueError, match="noise weight"):
        _tiny_spec(None, axis="R", values=[0.0, -1.0])
    assert _tiny_spec(None, axis="W", values=[1.0, 3]).values == [1, 3]


def test_noisy_forecasts_reach_rosc_and_baselines(tmp_path):
    """One forecast rule in ``run`` and ``sweep``: at R > 0 the horizon-control
    baselines get noisy forecasts too, so their cost moves with R."""
    # at the paper's ratio of 200 rhc caches nothing on this trace, whatever
    # its forecasts; at ratio 2 its plans follow them
    spec = _tiny_spec(tmp_path, policies=["rosc", "rhc"], axis="R",
                      values=[0.0, 0.8],
                      workload_params={"N": 12, "T": 30, "U": 40},
                      base=dict(PAPER_DEFAULTS, M=2, W=2, K=5, ratio=2.0))
    report = run_experiment(spec, tmp_path / "noise")
    assert report["ok"]
    rhc0 = report["points"][0]["policies"]["rhc"]["total_cost_mean"]
    rhc1 = report["points"][1]["policies"]["rhc"]["total_cost_mean"]
    assert rhc0 != pytest.approx(rhc1)
    rosc0 = report["points"][0]["policies"]["rosc"]["total_cost_mean"]
    rosc1 = report["points"][1]["policies"]["rosc"]["total_cost_mean"]
    assert rosc0 != rosc1  # the randomized policy does consume the noise


@pytest.mark.parametrize("policy, key, value", [
    ("rosc", "M", 2.5), ("rosc", "W", 2.5), ("rosc", "K", 10.7),
    ("rhc", "W", 2.5), ("chc", "W", 2.5), ("pseudo-opt", "W_big", 2.5),
    ("rosc", "W", True), ("rhc", "W", True),
])
def test_run_policy_refuses_non_integer_sizes(policy, key, value):
    """A fractional or bool size is refused by name, never truncated into a run
    whose record would report the truncated value."""
    trace = ArrivalTrace(lam=np.arange(24.0).reshape(6, 4))
    settings = {**PAPER_DEFAULTS, "M": 2, "W": 2, "K": 5, key: value}
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        run_policy(policy, trace, settings, seed=0)


@pytest.mark.parametrize("extra", [{}, {"beta_star": None}], ids=["absent", "none"])
def test_cost_model_prices_beta_star_from_ratio_without_one(extra):
    cost = cost_model({**PAPER_DEFAULTS, "M": 2, "ratio": 4.0, **extra}, 5)
    assert cost.beta_star == 4.0 * PAPER_DEFAULTS["alpha"]
    given = cost_model({**PAPER_DEFAULTS, "M": 2, "ratio": 4.0, "beta_star": 3.0}, 5)
    assert given.beta_star == 3.0


@pytest.mark.parametrize("settings, message", [
    ({"ratio": -1.0}, r"^ratio must be a finite real in \(0, inf\), got -1.0"),
    ({"ratio": "x"}, r"^ratio must be a finite real in \(0, inf\), got 'x'"),
    ({"ratio": -1.0, "beta_star": 0}, r"^beta_star must be a finite real in \(0, inf\), got 0"),
], ids=["negative-ratio", "string-ratio", "zero-beta-star"])
def test_cost_model_refuses_ratio_and_beta_star_by_name(settings, message):
    with pytest.raises(ValueError, match=message):
        cost_model({**PAPER_DEFAULTS, "M": 2, **settings}, 5)
