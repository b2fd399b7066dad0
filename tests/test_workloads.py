import re
from fractions import Fraction

import numpy as np
import pytest

import edgecache.workloads
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


@pytest.mark.parametrize("knob", [{"popularity_shape": 0.05},
                                  {"per_service_volume": 1e300},
                                  {"per_service_volume": 0.0, "popularity_shape": 0.001}],
                         ids=["pareto-factor-past-limit", "volume-past-limit", "zero-times-inf"])
def test_poisson_refuses_means_past_numpys_limit_by_name(knob):
    """A heavy Pareto tail or a huge volume made numpy's rng.poisson raise
    "lam value too large" (and 0 * an inf factor "lam is NaN"), naming no
    parameter; both are refused by name before the draw, as is a birth rate
    past that limit when the params are built."""
    with pytest.raises(ValueError, match=f"{next(iter(knob))}=.* past numpy's limit"):
        gen_poisson(PoissonParams(N=50, T=200, **knob), seed=1)
    with pytest.raises(ValueError, match=r"^groups\[0\] rate must be"):
        PoissonParams(N=5, T=5, groups=((10, 1e300),))


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


def _record_noise_draws(monkeypatch):
    """Labels of the streams the oracle opens from now on."""
    labels, open_stream = [], edgecache.workloads.rng_stream

    def recording(seed, label):
        labels.append(label)
        return open_stream(seed, label)

    monkeypatch.setattr(edgecache.workloads, "rng_stream", recording)
    return labels


def test_predict_exact_when_noise_free(monkeypatch):
    tr = gen_replacement(ReplacementParams(N=12, T=30, U=40), seed=0)
    oracle = PredictionOracle(tr, R=0.0, seed=1)
    drawn = _record_noise_draws(monkeypatch)
    for t in (1, 7, 30):
        np.testing.assert_array_equal(oracle.predict_row(t, 1), tr.lam[t - 1])
    assert oracle.predict_row(31, 5)[3] == 0.0  # beyond the horizon
    assert oracle.predict_row(0, -2)[3] == 0.0  # before the start
    win = oracle.predict_window(-1, 35)
    assert win.shape == (35, 12)
    np.testing.assert_array_equal(win[2:32], tr.lam)
    assert not win[:2].any() and not win[32:].any()
    late = oracle.predict_window(40, 33)  # wholly past the horizon
    assert late.shape == (33, 12) and not late.any()
    assert oracle.predict_lead(3) is tr.lam
    assert drawn == []  # an exact oracle draws no noise


def test_one_noise_draw_per_oracle_whatever_the_queries(monkeypatch):
    tr = gen_replacement(ReplacementParams(N=6, T=30, U=40), seed=2)
    drawn = _record_noise_draws(monkeypatch)
    oracle = PredictionOracle(tr, R=0.3, seed=4)
    assert drawn == []  # nothing is drawn before the first noisy query
    oracle.predict_window(40, 3)
    oracle.predict_window(np.array([-5, 12, 1]), 9)
    oracle.predict_row(20, 3)
    oracle.predict_lead(7)
    oracle.predict_window(-30, 2)
    assert drawn == ["prediction-noise"]
    PredictionOracle(tr, R=0.3, seed=4).predict_row(2, 1)
    assert drawn == ["prediction-noise"] * 2


@pytest.mark.parametrize("R", [-0.5, np.nan, np.inf, np.float32(np.inf), "0.1",
                               np.array([0.1, 0.2]), np.array(0.1), True,
                               np.bool_(False), None, 1 + 0j,
                               pytest.param(10**400, id="huge-int"),
                               pytest.param(Fraction(10**400), id="huge-fraction")])
def test_oracle_rejects_bad_noise_weight(R):
    tr = gen_replacement(ReplacementParams(N=12, T=30, U=40), seed=0)
    with pytest.raises(ValueError,
                       match=r"^noise weight R must be a finite real in \[0, inf\), got "):
        PredictionOracle(tr, R=R, seed=1)


@pytest.mark.parametrize("R", [0, 2, 0.25, np.float32(0.5), np.int64(3)])
def test_oracle_takes_any_real_scalar_noise_weight(R):
    tr = gen_replacement(ReplacementParams(N=12, T=30, U=40), seed=0)
    assert PredictionOracle(tr, R=R, seed=1).R == float(R)


def _noise_rows(oracle):
    """The oracle's noise rows e(1) .. e(T), drawn as the oracle draws them."""
    stream = rng_stream(oracle.seed, "prediction-noise")
    return stream.standard_normal((oracle.trace.T, oracle.trace.N))


# The oracle takes each walk as a difference of running sums, which moves the
# last bits against the direct sum of the rows: at most 6e-14 on these
# instances (walks of up to 20 unit normals, R * lam <= 120).  1e-12 leaves
# room for that rounding and none for a misplaced noise row.
ROWWISE_ATOL = 1e-12


def test_predict_consistency_and_clamping():
    tr = gen_replacement(ReplacementParams(N=8, T=20, U=60), seed=1)
    oracle = PredictionOracle(tr, R=0.5, seed=2)
    a = oracle.predict_row(10, 4)[2]
    b = oracle.predict_row(10, 4)[2]
    assert a == b
    row = oracle.predict_row(10, 4)
    assert np.all(row >= 0)
    assert row[2] == a
    # the walk of the noise rows of slots 4..10
    walk = _noise_rows(oracle)[3:10].sum(axis=0)
    np.testing.assert_allclose(row, np.maximum(tr.lam[9] * (1.0 + 0.5 * walk), 0.0),
                               rtol=0, atol=ROWWISE_ATOL)
    # window view agrees with scalar queries
    win = oracle.predict_window(4, 8)
    assert win[6].tobytes() == oracle.predict_row(10, 4).tobytes()


def _rowwise_predict_window(oracle, tau, W):
    """predict_window written row by row: the walk of slot t sums the noise
    rows of slots max(tau, 1) .. t directly."""
    noise = _noise_rows(oracle)
    out = np.zeros((W, oracle.trace.N))
    for i in range(W):
        t = tau + i
        if 1 <= t <= oracle.trace.T:
            walk = noise[max(tau, 1) - 1: t].sum(axis=0)
            out[i] = np.maximum(oracle.trace.lam[t - 1] * (1.0 + oracle.R * walk), 0.0)
    return out


@pytest.mark.parametrize("R", [0.0, 0.03, 0.5, 2.0])
def test_predict_window_matches_rowwise_formulation(R):
    """Single starts against the row-wise walk, then blocks of starts: column
    b of a block is the single-start window b byte for byte, for starts below
    1, windows running past T, unsorted and repeated starts, and one-window
    and empty blocks."""
    tr = gen_replacement(ReplacementParams(N=7, T=20, U=60), seed=6)
    oracle = PredictionOracle(tr, R=R, seed=3)
    for tau in range(-15, tr.T + 16):
        for W in range(26):
            win = oracle.predict_window(tau, W)
            assert win.shape == (W, tr.N)
            np.testing.assert_allclose(win, _rowwise_predict_window(oracle, tau, W),
                                       rtol=0, atol=ROWWISE_ATOL)
    rng = rng_stream(8, "test:window-blocks")
    blocks = [np.arange(-15, tr.T + 16), np.arange(1, tr.T + 1), np.array([-3]),
              np.array([tr.T]), np.array([tr.T + 4]), np.array([-30]),
              rng.integers(-15, tr.T + 16, 9), np.array([5, 5, 2]),
              np.array([], dtype=np.int64)]
    for starts in blocks:
        for W in (0, 1, 4, 25):
            block = PredictionOracle(tr, R=R, seed=3).predict_window(starts, W)
            assert block.shape == (W, starts.size, tr.N)
            for b, tau in enumerate(starts):
                assert block[:, b].tobytes() == oracle.predict_window(int(tau), W).tobytes()


def _gathered_at_t_forecast(oracle, t, tau):
    """Forecasts whose walk base is gathered at t's shape, one base row per
    slot: ``C[s] - C[min(s, max(tau, 1) - 1)]``, zero for a past slot by
    cancellation.  The reference for the per-forecast-time base."""
    T = oracle.trace.T
    C = np.zeros((T + 1, oracle.trace.N))
    np.cumsum(_noise_rows(oracle), axis=0, out=C[1:])
    s = np.minimum(np.maximum(t, 1), T)
    walk = C[s] - C[np.minimum(s, np.maximum(tau, 1) - 1)]
    out = np.maximum(oracle.trace.lam[s - 1] * (1.0 + oracle.R * walk), 0.0)
    out[s != t] = 0.0
    return out


@pytest.mark.parametrize("R", [0.03, 0.5, 2.0])
def test_forecasts_equal_the_walk_gathered_per_slot_byte_for_byte(R):
    """Seeded grids of (t, tau) with past slots, tau < 1, tau > T and t
    outside 1 .. T, through every forecast method and start shape."""
    tr = gen_replacement(ReplacementParams(N=9, T=30, U=60), seed=2)
    oracle = PredictionOracle(tr, R=R, seed=11)
    rng = rng_stream(3, "test:forecast-bits")

    def same(got, t, tau):
        assert got.tobytes() == _gathered_at_t_forecast(oracle, t, tau).tobytes()

    for t, tau in rng.integers(-8, tr.T + 9, (300, 2)):
        same(oracle.predict_row(int(t), int(tau)), t, tau)
    for lead in range(tr.T + 4):
        slots = np.arange(1, tr.T + 1)
        same(oracle.predict_lead(lead), slots, slots - lead)
    for W in (0, 1, 5, 40):
        for tau in range(-8, tr.T + 9):
            same(oracle.predict_window(tau, W), np.arange(W) + tau, tau)
            starts = np.array([tau])
            same(oracle.predict_window(starts, W), np.add.outer(np.arange(W), starts), starts)
        starts = rng.integers(-8, tr.T + 9, 17)
        same(oracle.predict_window(starts, W), np.add.outer(np.arange(W), starts), starts)


@pytest.mark.parametrize("R", [0.0, 0.03, 2.0])
def test_predict_window_of_some_services_is_those_columns_byte_for_byte(R):
    """Column subsets (sorted, unsorted, repeated, single, empty) of blocks
    and single starts, with starts below 1 and windows past T."""
    tr = gen_replacement(ReplacementParams(N=9, T=30, U=60), seed=4)
    oracle = PredictionOracle(tr, R=R, seed=7)
    rng = rng_stream(12, "test:window-columns")
    subsets = [np.arange(9), np.array([0]), np.array([8, 2, 5]), np.array([3, 3]),
               np.array([], dtype=np.int64), rng.choice(9, 4, replace=False)]
    for W in (0, 1, 6, 35):
        for starts in (np.arange(1, 31), rng.integers(-5, 36, 7), np.array([-2]), 12):
            full = oracle.predict_window(starts, W)
            for services in subsets:
                part = PredictionOracle(tr, R=R, seed=7).predict_window(
                    starts, W, services=services)
                assert part.tobytes() == full[..., services].tobytes()


@pytest.mark.parametrize("services", [np.array([[0, 1]]), np.array([0.0, 1.0]),
                                      np.array([-1]), np.array([5]), [True]])
def test_predict_window_refuses_columns_that_are_not_services(services):
    tr = gen_replacement(ReplacementParams(N=5, T=12, U=40), seed=1)
    with pytest.raises(ValueError, match="^services must be a 1-D array"):
        PredictionOracle(tr, R=0.3, seed=2).predict_window(np.arange(1, 4), 3,
                                                            services=services)


@pytest.mark.parametrize("R", [0.0, 0.4])
def test_forecasts_made_before_slot_1_equal_those_made_at_slot_1(R):
    tr = gen_replacement(ReplacementParams(N=6, T=12, U=40), seed=5)
    oracle = PredictionOracle(tr, R=R, seed=6)
    early = oracle.predict_window(-3, 8)
    assert not early[:4].any()
    assert early[4:].tobytes() == oracle.predict_window(1, 4).tobytes()
    assert early[3:].tobytes() == oracle.predict_window(0, 5).tobytes()


@pytest.mark.parametrize("method, args, name", [
    ("predict_window", (1, -1), "W"),
    ("predict_window", (1, 2.5), "W"),
    ("predict_window", (np.arange(1, 4), True), "W"),
    ("predict_window", (1.5, 3), "tau"),
    ("predict_window", (True, 3), "tau"),
    ("predict_window", (np.array([1.0, 2.0]), 3), "tau"),
    ("predict_window", (np.ones((2, 2), dtype=np.int64), 3), "tau"),
    ("predict_row", (3.0, 1), "t"),
    ("predict_row", (3, 1.5), "tau"),
    ("predict_lead", (2.5,), "lead"),
    ("predict_lead", (-1,), "lead"),
])
@pytest.mark.parametrize("R", [0.0, 0.3])
def test_forecast_methods_refuse_bad_arguments_by_name(method, args, name, R):
    tr = gen_replacement(ReplacementParams(N=5, T=12, U=40), seed=1)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        getattr(PredictionOracle(tr, R=R, seed=2), method)(*args)


@pytest.mark.parametrize("seed", [2.7, True, "3", None])
def test_oracle_refuses_non_integer_seeds_by_name(seed):
    tr = gen_replacement(ReplacementParams(N=5, T=12, U=40), seed=1)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        PredictionOracle(tr, R=0.3, seed=seed)


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


def test_forecasts_do_not_depend_on_query_order():
    """Queries in any order read the one noise table; the bytes equal those
    of fresh oracles asked once each."""
    tr = gen_replacement(ReplacementParams(N=6, T=60, U=60), seed=4)
    asks = [("predict_window", 40, 5), ("predict_window", np.array([30, 2, 55, 2]), 7),
            ("predict_window", -3, 8), ("predict_lead", 4)]
    shared = PredictionOracle(tr, R=0.3, seed=7)
    for method, *args in asks:
        fresh = PredictionOracle(tr, R=0.3, seed=7)
        got = getattr(shared, method)(*args)
        assert got.tobytes() == getattr(fresh, method)(*args).tobytes()
        got += 1.0  # callers get copies, never the oracle's own rows
    fresh = PredictionOracle(tr, R=0.3, seed=7)
    assert shared.predict_lead(4).tobytes() == fresh.predict_lead(4).tobytes()


def test_predict_zero_demand_is_noise_immune():
    lam = np.zeros((10, 3))
    lam[:, 0] = 50.0
    from edgecache.model import ArrivalTrace
    oracle = PredictionOracle(ArrivalTrace(lam=lam), R=1.0, seed=3)
    assert oracle.predict_row(5, 2)[1] == 0.0
    assert oracle.predict_row(5, 2)[2] == 0.0


def test_predict_past_slots_return_truth():
    tr = gen_replacement(ReplacementParams(N=8, T=20, U=60), seed=2)
    oracle = PredictionOracle(tr, R=0.9, seed=4)
    np.testing.assert_array_equal(oracle.predict_row(5, 9), tr.lam[4])


def test_predict_formula_with_pinned_noise(monkeypatch):
    """lam=100, R=0.03, ten unit noise steps -> forecast 130."""
    from edgecache.model import ArrivalTrace

    class UnitNoise:
        def standard_normal(self, shape):
            return np.ones(shape)

    lam = np.full((12, 1), 100.0)
    oracle = PredictionOracle(ArrivalTrace(lam=lam), R=0.03, seed=0)
    monkeypatch.setattr(edgecache.workloads, "rng_stream", lambda seed, label: UnitNoise())
    assert oracle.predict_row(10, 1)[0] == pytest.approx(130.0)


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


@pytest.mark.parametrize("make, name", [
    (lambda: SqrtChurnParams(N=10, T=20, M=0), "M"),
    (lambda: SqrtChurnParams(N=3, T=20, M=3), "M"),
    (lambda: SqrtChurnParams(N=10, T=16, M=2, blips_per_sqrt=-1.0), "blips_per_sqrt"),
    (lambda: SqrtChurnParams(N=10, T=16, M=2, zipf_exponent=-1000.0), "zipf_exponent"),
    (lambda: ReplacementParams(N=10, T=20, zipf_exponent=-1000.0), "zipf_exponent"),
    (lambda: ReplacementParams(N=10, T=20, rank_lifetime_mean=0), "rank_lifetime_mean"),
    (lambda: ReplacementParams(N=10, T=20, thinning=1.5), "thinning"),
    (lambda: ReplacementParams(N=10, T=20, U=2**53 + 1), "U"),
    (lambda: PoissonParams(N=10, T=20, groups=((10, -0.1),)), "groups[0] rate"),
    (lambda: PoissonParams(N=10, T=20, groups=5), "groups"),
    (lambda: PoissonParams(N=10, T=20, popularity_shape=0.0), "popularity_shape"),
], ids=["churn-M-0", "churn-M-at-N", "churn-blips-negative", "churn-zipf-overflow",
        "replacement-zipf-overflow", "lifetime-0",
        "thinning-above-1", "U-past-2**53", "negative-rate", "groups-not-pairs",
        "pareto-shape-0"])
def test_generator_params_refuse_bad_values_by_name(make, name):
    """M = 0 made the sqrt-churn blips swap rank 1 with the last rank, and a
    zero lifetime divided by zero, and a Zipf exponent whose shares overflow
    float64 failed inside numpy: each is refused when the params are built."""
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        make()


def test_generator_params_keep_fields_as_given():
    """Fields are checked, not rewritten: an int exponent reaches the
    sidecar's params as an int.  A negative exponent (a rising ladder) and an
    infinite lifetime ("never replaced") stay valid."""
    trace = gen_replacement(ReplacementParams(N=10, T=20, zipf_exponent=1), seed=0)
    assert type(trace.meta["params"]["zipf_exponent"]) is int
    rising = gen_sqrt_churn(SqrtChurnParams(N=10, T=20, M=2, zipf_exponent=-1), seed=0)
    assert rising.lam.sum() > 0
    forever = ReplacementParams(N=10, T=20, rank_lifetime_mean=np.inf)
    assert forever.rank_lifetime_mean == np.inf


def test_sqrt_churn_blips_saturate_at_every_slot():
    """From 2T blips on every slot is a blip, so a huge blips_per_sqrt gives
    that same trace at once instead of looping over its blip count."""
    every = gen_sqrt_churn(SqrtChurnParams(N=10, T=16, M=2, blips_per_sqrt=8.0), seed=3)
    huge = gen_sqrt_churn(SqrtChurnParams(N=10, T=16, M=2, blips_per_sqrt=1e300), seed=3)
    np.testing.assert_array_equal(every.lam, huge.lam)
    assert len({tuple(row) for row in every.lam}) == 1     # each slot the swapped ladder
