import hashlib

import numpy as np
import pytest

import edgecache.rosc
from edgecache import rowsplit
from edgecache.baselines import pseudo_opt
from edgecache.gradient_pgd import offline_pgd
from edgecache.model import (ArrivalTrace, CostModel, per_slot_costs,
                             running_total, top_m_indicator)
from edgecache.rosc import RoscConfig, fractional_trace, run_rosc
from edgecache.sampler import rng_stream
from edgecache.validate import online_pgd_reference
from edgecache.workloads import (PoissonParams, PredictionOracle,
                                 ReplacementParams, SqrtChurnParams,
                                 gen_poisson, gen_replacement, gen_sqrt_churn)


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
    assert rec.total_cost == running_total(*per_slot_costs(trace, rec.decisions, cfg.cost))
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
    for seed in (2.5, True, "3"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            RoscConfig(cost=cost, W=1, K=10, seed=seed)
    assert RoscConfig(cost=cost, W=np.int64(2), K=np.int64(3)).K == 3
    assert RoscConfig(cost=cost, seed=np.uint32(7)).seed == 7


# SHA-256 of run_rosc's decisions, per-slot costs and insertion count on the
# six instances below.  A change that reads the sampler's generator in a
# different order changes it; such a change must update it and say why.
ROSC_OUTPUT_DIGEST = "d65655a1d831818b0c63ef9cd7d06ed0427f198fd227461a1577ee496dbcd179"


def test_rosc_outputs_are_byte_identical_per_seed():
    """Small instances of each generator at two seeds.  gamma = 0.5 makes the
    fractional trace fractional enough that the capacity repair runs (over
    400 moves in all), so the digest covers both halves of the rounding."""
    digest = hashlib.sha256()
    for seed in (1, 2):
        for trace, M in (
                (gen_replacement(ReplacementParams(N=24, T=40, U=60,
                                                   rank_lifetime_mean=5.0), seed), 4),
                (gen_poisson(PoissonParams(N=60, T=40, groups=((5, 2.0), (30, 0.5))),
                             seed), 5),
                (gen_sqrt_churn(SqrtChurnParams(N=12, T=40, M=3), seed), 3)):
            cost = CostModel.uniform(0.05, 10.0, trace.N, M, gamma=0.5)
            rec = run_rosc(trace, RoscConfig(cost=cost, W=3, K=16, seed=seed))
            for a in (rec.decisions, rec.forward, rec.switch):
                digest.update(np.ascontiguousarray(a).tobytes())
            digest.update(repr(rec.extras["ensemble_insertions_per_path"]).encode())
    assert digest.hexdigest() == ROSC_OUTPUT_DIGEST


# SHA-256 of pseudo_opt's probabilities and run_rosc's fractional trace and
# decisions on a 300 x 1000 Poisson instance, large enough that its sweeps
# and projections split their rows over the host's cores.  It was computed
# before rows were split, which must not move a bit.
SPLIT_SWEEP_DIGEST = "85dc4907adaecb1595000105b454affeee84eab55465723c3a3d7f1b933affff"


@pytest.mark.parametrize("cores", [None, 1, 3])
def test_split_sweeps_are_byte_identical(monkeypatch, cores):
    """On the host's own cores, unsplit, and in three chunks."""
    if cores is not None:
        monkeypatch.setattr(rowsplit, "_cores", lambda: cores)
    trace = gen_poisson(PoissonParams(N=1000, T=300, groups=((20, 2.0), (100, 0.5))), 1)
    cost = CostModel.uniform(0.05, 10.0, trace.N, 10, gamma=0.5)
    digest = hashlib.sha256()
    digest.update(pseudo_opt(trace, cost, 20).decisions.tobytes())
    rec = run_rosc(trace, RoscConfig(cost=cost, W=3, K=16, seed=1))
    digest.update(np.ascontiguousarray(rec.extras["fractional"]).tobytes())
    digest.update(rec.decisions.tobytes())
    assert digest.hexdigest() == SPLIT_SWEEP_DIGEST


def test_a_numpy_int_seed_gives_the_int_seeds_record(tmp_path):
    """A numpy integer seed reaches the streams as its int: it raised an
    unnamed OverflowError when masked to 64 bits."""
    trace = gen_replacement(ReplacementParams(N=10, T=30, U=40), 2)
    cost = _cost(trace.N)
    written = []
    for seed in (5, np.int64(5)):
        rec = run_rosc(trace, RoscConfig(cost=cost, W=3, K=8, seed=seed),
                       predictions=PredictionOracle(trace, R=0.2, seed=seed))
        rec.write_csv(tmp_path / "rec.csv")
        rec.runtime_ms = 0.0
        rec.write_json(tmp_path / "rec.json")
        written.append([(tmp_path / name).read_bytes() for name in ("rec.csv", "rec.json")])
    assert written[0] == written[1]
