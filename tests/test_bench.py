import json
import math

import numpy as np
import pytest

from edgecache.bench import (ExperimentSpec, PAPER_DEFAULTS, regret,
                             regret_bound, regret_bound_terms, run_experiment,
                             run_policy, make_trace, theorem_cost)
from edgecache.model import ArrivalTrace, CostModel
from edgecache.rosc import RoscConfig, run_rosc


def test_regret_examples():
    assert regret(10.0, 10.0) == 0.0
    assert regret(12.0, 10.0) == 2.0
    assert regret(9.0, 10.0) == -1.0  # against an approximate reference


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
    with pytest.raises(ValueError, match="noise weight"):
        _tiny_spec(None, axis="R", values=[0.0, -1.0])
    assert _tiny_spec(None, axis="W", values=[1.0, 3]).values == [1, 3]


def test_noisy_rosc_with_exact_baselines(tmp_path):
    spec = _tiny_spec(tmp_path, policies=["rosc", "rhc"], axis="R",
                      values=[0.0, 0.8],
                      workload_params={"N": 12, "T": 30, "U": 40})
    report = run_experiment(spec, tmp_path / "noise")
    assert report["ok"]
    rhc0 = report["points"][0]["policies"]["rhc"]["total_cost_mean"]
    rhc1 = report["points"][1]["policies"]["rhc"]["total_cost_mean"]
    assert rhc0 == pytest.approx(rhc1)  # baselines see exact forecasts by default
    rosc0 = report["points"][0]["policies"]["rosc"]["total_cost_mean"]
    rosc1 = report["points"][1]["policies"]["rosc"]["total_cost_mean"]
    assert rosc0 != rosc1  # the randomized policy does consume the noise
