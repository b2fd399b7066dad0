import numpy as np
import pytest

import edgecache.rosc
from edgecache.gradient_pgd import offline_pgd
from edgecache.model import (ArrivalTrace, CostModel, top_m_indicator,
                             total_cost_F)
from edgecache.rosc import RoscConfig, fractional_trace, run_rosc
from edgecache.sampler import rng_stream
from edgecache.validate import online_pgd_reference
from edgecache.workloads import PredictionOracle


def _instance(seed=0, n=6, T=20, lam_scale=15.0):
    rng = rng_stream(seed, "test:rosc-instance")
    lam = rng.poisson(lam_scale, (T, n)).astype(float)
    return ArrivalTrace(lam=lam)


def _cost(n, M=2, beta=5.0):
    return CostModel.uniform(0.05, beta, n, M)


def test_w0_is_follow_the_leader_on_yesterdays_top_m():
    trace = _instance(seed=1)
    cost = _cost(trace.N)
    rec = run_rosc(trace, RoscConfig(cost=cost, W=0, K=10, seed=3))
    theta = top_m_indicator(trace.lam, cost.M)
    frac = fractional_trace(rec)
    np.testing.assert_allclose(frac[0], np.zeros(trace.N))
    np.testing.assert_allclose(frac[1:], theta[:-1])
    assert np.array_equal(rec.decisions[0], np.zeros(trace.N))
    assert np.array_equal(rec.decisions[1:], theta[:-1])


def test_same_seed_reproduces_identical_record():
    trace = _instance(seed=2)
    cfg = RoscConfig(cost=_cost(trace.N), W=4, K=20, seed=11)
    a = run_rosc(trace, cfg)
    b = run_rosc(trace, cfg)
    assert np.array_equal(a.decisions, b.decisions)
    assert np.array_equal(a.forward, b.forward)
    assert a.total_cost == b.total_cost
    assert a.extras["k_star"] == b.extras["k_star"]
    c = run_rosc(trace, RoscConfig(cost=_cost(trace.N), W=4, K=20, seed=12))
    assert not np.array_equal(a.decisions, c.decisions)


def test_decisions_use_only_visible_information():
    """Perturbing arrivals at slot t0 + W must not change decisions up to
    and including slot t0."""
    W, t0 = 3, 8
    trace = _instance(seed=3, T=16)
    lam2 = trace.lam.copy()
    lam2[t0 + W - 1, -1] += 500.0  # slot t0 + W, just beyond the window at t0
    trace2 = ArrivalTrace(lam=lam2)
    cfg = RoscConfig(cost=_cost(trace.N), W=W, K=10, seed=5)
    a = run_rosc(trace, cfg)
    b = run_rosc(trace2, cfg)
    assert np.array_equal(a.decisions[:t0], b.decisions[:t0])
    assert not np.array_equal(a.decisions, b.decisions)  # it does react later


def test_per_slot_costs_recompose_to_total_cost():
    trace = _instance(seed=4)
    cfg = RoscConfig(cost=_cost(trace.N), W=5, K=25, seed=1)
    rec = run_rosc(trace, cfg)
    assert rec.total_cost == total_cost_F(trace, rec.decisions, cfg.cost)
    assert rec.total_cost == pytest.approx(rec.forward.sum() + rec.switch.sum())


def test_fractional_trace_feasible_and_matches_offline_twin():
    trace = _instance(seed=5, n=9, T=30)
    cost = _cost(9, M=3)
    cfg = RoscConfig(cost=cost, W=6, K=10, seed=2)
    frac = fractional_trace(run_rosc(trace, cfg))
    assert np.all(frac >= -1e-12) and np.all(frac <= 1 + 1e-12)
    assert np.all(frac.sum(axis=1) <= cost.M + 1e-9)
    np.testing.assert_allclose(frac, offline_pgd(trace, cost, 6), atol=1e-9)


def test_noisy_predictions_break_offline_parity_but_stay_feasible():
    trace = _instance(seed=6)
    cost = _cost(trace.N)
    oracle = PredictionOracle(trace, R=0.2, seed=9)
    rec = run_rosc(trace, RoscConfig(cost=cost, W=4, K=10, seed=2),
                   predictions=oracle)
    frac = fractional_trace(rec)
    assert np.all(frac.sum(axis=1) <= cost.M + 1e-9)
    clean = fractional_trace(run_rosc(trace, RoscConfig(cost=cost, W=4, K=10, seed=2)))
    assert not np.allclose(frac, clean)


@pytest.mark.parametrize("W", [0, 1, 4])
def test_noisy_fractional_trace_matches_step_by_step_replay(W):
    """Lemma 1 on noisy forecasts: sweep j reads each slot's forecast made
    W - j slots ahead, exactly what the online step made then."""
    trace = _instance(seed=9, n=7, T=18)
    cost = _cost(trace.N, M=3)
    rec = run_rosc(trace, RoscConfig(cost=cost, W=W, K=10, seed=1),
                   predictions=PredictionOracle(trace, R=0.3, seed=4))
    reference = online_pgd_reference(trace, cost, W,
                                     PredictionOracle(trace, R=0.3, seed=4))
    np.testing.assert_allclose(fractional_trace(rec), reference, rtol=0, atol=1e-12)


def test_ensemble_frames_match_quantized_trace(monkeypatch):
    frames = []
    update = edgecache.rosc.update_ensemble

    def recording_update(*args):
        ensemble = update(*args)
        frames.append(ensemble.S.copy())
        return ensemble

    monkeypatch.setattr(edgecache.rosc, "update_ensemble", recording_update)
    trace = _instance(seed=8, n=5, T=12)
    cost = _cost(5, M=2)
    rec = run_rosc(trace, RoscConfig(cost=cost, W=2, K=8, seed=4))
    assert len(frames) == trace.T
    frac = fractional_trace(rec)
    for t, frame in enumerate(frames):
        counts = frame.sum(axis=0)
        expected = np.floor(frac[t] * 8 + 1e-9)
        assert np.array_equal(counts, expected.astype(np.int64))
        assert np.array_equal(frame[rec.extras["k_star"]], rec.decisions[t])


def test_config_validation():
    cost = _cost(4)
    with pytest.raises(ValueError):
        RoscConfig(cost=cost, W=-1, K=10)
    with pytest.raises(ValueError):
        RoscConfig(cost=cost, W=1, K=0)
    with pytest.raises(ValueError, match="W must be an integer"):
        RoscConfig(cost=cost, W=2.5, K=10)
    with pytest.raises(ValueError, match="K must be an integer"):
        RoscConfig(cost=cost, W=1, K=2.5)
    assert RoscConfig(cost=cost, W=np.int64(2), K=np.int64(3)).K == 3
