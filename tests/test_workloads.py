import numpy as np
import pytest

from edgecache.model import path_length, save_trace
from edgecache.sampler import rng_stream
from edgecache.workloads import (PoissonParams, PredictionOracle,
                                 ReplacementParams, SqrtChurnParams,
                                 gen_poisson, gen_replacement, gen_sqrt_churn)


def test_replacement_deterministic_and_exact_totals():
    p = ReplacementParams(N=60, T=200, U=150)
    a = gen_replacement(p, seed=5)
    b = gen_replacement(p, seed=5)
    assert np.array_equal(a.lam, b.lam)
    assert not np.array_equal(a.lam, gen_replacement(p, seed=6).lam)
    totals = a.lam.sum(axis=1)
    assert np.all(totals == p.U)
    assert np.all(a.lam == np.rint(a.lam))  # integer request counts


def test_replacement_thinning_stays_below_cap():
    p = ReplacementParams(N=40, T=100, U=100, thinning=0.7)
    tr = gen_replacement(p, seed=1)
    totals = tr.lam.sum(axis=1)
    assert np.all(totals <= p.U)
    assert totals.mean() < p.U


def test_replacement_infinite_lifetime_is_static():
    p = ReplacementParams(N=30, T=150, U=100,
                          rank_lifetime_mean=np.inf)
    tr = gen_replacement(p, seed=2)
    M = 5
    assert path_length(tr, M) == M  # only the initial activation


def test_replacement_steep_zipf_concentrates_on_rank_one():
    p = ReplacementParams(N=30, T=5, U=1000, zipf_exponent=10.0)
    tr = gen_replacement(p, seed=3)
    assert np.all(tr.lam.max(axis=1) >= 0.99 * p.U)


def test_replacement_default_regime_path_length():
    """At the default churn parameters the per-slot path length lands in a
    moderate band (the declared non-stationary regime)."""
    M = 10
    rates = []
    for seed in range(3):
        p = ReplacementParams(N=300, T=1500, U=200)
        tr = gen_replacement(p, seed=seed)
        rates.append(path_length(tr, M) / p.T)
    assert all(0.05 <= r <= 0.5 for r in rates)


def test_replacement_serializes_with_sidecar(tmp_path):
    p = ReplacementParams(N=10, T=20, U=50)
    tr = gen_replacement(p, seed=4)
    sidecar = save_trace(tr, tmp_path / "r.csv")
    import json
    doc = json.loads(sidecar.read_text())
    assert doc["generator"] == "replacement"
    assert doc["seed"] == 4
    assert doc["params"]["U"] == 50


def test_poisson_zero_rates_is_silent():
    p = PoissonParams(N=20, T=30, groups=((10, 0.0), (50, 0.0)))
    tr = gen_poisson(p, seed=0)
    assert not tr.lam.any()


def test_poisson_determinism_and_activity():
    p = PoissonParams(N=100, T=200)
    a = gen_poisson(p, seed=7)
    b = gen_poisson(p, seed=7)
    assert np.array_equal(a.lam, b.lam)
    assert a.lam.sum() > 0
    assert a.U == a.lam.sum(axis=1).max()


def test_poisson_unit_lifetime_churns_the_whole_top_m():
    # fresh active set every slot: indicator churn approaches 2M per slot
    p = PoissonParams(N=400, T=120, groups=((1, 12.0),),
                      per_service_volume=5.0)
    tr = gen_poisson(p, seed=8)
    M = 3
    per_slot = path_length(tr, M) / p.T
    assert per_slot >= 2 * M * (p.T - 1) / p.T * 0.9


def test_sqrt_churn_scales_like_sqrt_t():
    M = 3
    lengths = {}
    for T in (400, 1600):
        p = SqrtChurnParams(N=40, T=T, M=M)
        tr = gen_sqrt_churn(p, seed=0)
        lengths[T] = path_length(tr, M)
    # quadrupling T should roughly double the path length
    ratio = lengths[1600] / lengths[400]
    assert 1.5 <= ratio <= 2.8


def test_predict_exact_when_noise_free():
    tr = gen_replacement(ReplacementParams(N=12, T=30, U=40), seed=0)
    oracle = PredictionOracle(tr, R=0.0, seed=1)
    for t in (1, 7, 30):
        np.testing.assert_array_equal(oracle.predict_row(t, 1), tr.lam[t - 1])
    assert oracle.predict(3, 31, 5) == 0.0  # beyond the horizon
    assert oracle.predict(3, 0, -2) == 0.0  # before the start
    win = oracle.predict_window(-1, 35)
    assert win.shape == (35, 12)
    np.testing.assert_array_equal(win[2:32], tr.lam)
    assert not win[:2].any() and not win[32:].any()
    late = oracle.predict_window(40, 33)  # wholly past the horizon
    assert late.shape == (33, 12) and not late.any()
    assert oracle._rows == {}  # an exact oracle draws no noise


@pytest.mark.parametrize("R", [-0.5, np.nan, np.inf])
def test_oracle_rejects_bad_noise_weight(R):
    tr = gen_replacement(ReplacementParams(N=12, T=30, U=40), seed=0)
    with pytest.raises(ValueError, match="noise weight R"):
        PredictionOracle(tr, R=R, seed=1)


def test_predict_consistency_and_clamping():
    tr = gen_replacement(ReplacementParams(N=8, T=20, U=60), seed=1)
    oracle = PredictionOracle(tr, R=0.5, seed=2)
    a = oracle.predict(2, 10, 4)
    b = oracle.predict(2, 10, 4)
    assert a == b
    row = oracle.predict_row(10, 4)
    assert np.all(row >= 0)
    assert row[2] == a
    # bit for bit the walk of the noise rows of slots 4..10, added in order
    walk = sum(oracle._noise(s) for s in range(4, 11))
    np.testing.assert_array_equal(row, np.maximum(tr.lam[9] * (1.0 + 0.5 * walk), 0.0))
    # window view agrees with scalar queries
    win = oracle.predict_window(4, 8)
    np.testing.assert_allclose(win[6], oracle.predict_row(10, 4))


@pytest.mark.parametrize("R", [0.0, 0.4])
def test_predict_lead_rows_equal_window_forecasts(R):
    tr = gen_replacement(ReplacementParams(N=9, T=25, U=60), seed=3)
    oracle = PredictionOracle(tr, R=R, seed=5)
    for lead in (0, 1, 4, 9, 3):  # in mixed order, over the same cached noise rows
        rows = oracle.predict_lead(lead)
        assert rows.shape == (tr.T, tr.N)
        for s in range(1, tr.T + 1):
            np.testing.assert_array_equal(
                rows[s - 1], oracle.predict_window(s - lead, lead + 1)[-1])
    with pytest.raises(ValueError):
        oracle.predict_lead(-1)


def test_predict_zero_demand_is_noise_immune():
    lam = np.zeros((10, 3))
    lam[:, 0] = 50.0
    from edgecache.model import ArrivalTrace
    oracle = PredictionOracle(ArrivalTrace(lam=lam), R=1.0, seed=3)
    assert oracle.predict(1, 5, 2) == 0.0
    assert oracle.predict(2, 5, 2) == 0.0


def test_predict_past_slots_return_truth():
    tr = gen_replacement(ReplacementParams(N=8, T=20, U=60), seed=2)
    oracle = PredictionOracle(tr, R=0.9, seed=4)
    np.testing.assert_array_equal(oracle.predict_row(5, 9), tr.lam[4])


def test_predict_formula_with_pinned_noise():
    """lam=100, R=0.03, ten unit noise steps -> forecast 130."""
    from edgecache.model import ArrivalTrace
    lam = np.full((12, 1), 100.0)
    oracle = PredictionOracle(ArrivalTrace(lam=lam), R=0.03, seed=0)
    for s in range(1, 11):
        oracle._rows[s] = np.ones(1)
    assert oracle.predict(0, 10, 1) == pytest.approx(130.0)


def test_prediction_error_std_matches_random_walk():
    """The error of a W-step-ahead forecast is lam * R * sum of W unit
    normals, so its standard deviation is sqrt(W) * R * lam."""
    from edgecache.model import ArrivalTrace
    W, R, lam_val, n = 10, 0.03, 100.0, 100_000
    lam = np.full((W, n), lam_val)
    oracle = PredictionOracle(ArrivalTrace(lam=lam), R=R, seed=5)
    forecast = oracle.predict_row(W, 1)  # W noise steps: s in [1, W]
    errors = forecast - lam_val
    expected_std = np.sqrt(W) * R * lam_val
    assert np.std(errors) == pytest.approx(expected_std, rel=0.05)
