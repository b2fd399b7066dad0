import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgecache.baselines import pseudo_opt
from edgecache.model import (ArrivalTrace, CostModel, DimensionError,
                             load_trace, path_length, per_slot_costs,
                             running_total, save_trace, slot_cost,
                             top_m_indicator)
from edgecache.workloads import ReplacementParams, gen_replacement


def _slot(lam, prev, cur, alpha=0.05, beta=(10.0, 10.0)):
    return slot_cost(lam, prev, cur, CostModel(alpha=alpha, beta=beta, M=1))


def test_forwarding_cost_examples():
    assert _slot([100, 50], [0, 0], [1, 0])[0] == pytest.approx(2.5)
    assert _slot([100, 50], [0, 0], [1, 1])[0] == 0.0
    assert _slot([10, 10], [0, 0], [0.5, 0.5])[0] == pytest.approx(0.5)


def test_forwarding_cost_dimension_error():
    with pytest.raises(DimensionError):
        _slot([1, 2, 3], [0, 0], [1, 0])


def test_switching_cost_examples():
    assert _slot([0, 0], [0, 1], [1, 0])[1] == pytest.approx(10.0)
    assert _slot([0, 0], [1, 1], [1, 1])[1] == 0.0
    assert _slot([0, 0], [0.2, 0], [0.5, 0])[1] == pytest.approx(3.0)
    with pytest.raises(DimensionError):
        _slot([0], [0, 1], [1], beta=[10.0])


def test_switching_cost_binary_is_exact_sum_of_new_betas():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        prev = rng.integers(0, 2, n)
        cur = rng.integers(0, 2, n)
        beta = rng.uniform(0.5, 20, n)
        expected = beta[(cur == 1) & (prev == 0)].sum()
        assert _slot(np.zeros(n), prev, cur, beta=beta)[1] == expected


def _cost(n, alpha=0.05, beta_star=10.0, M=1):
    return CostModel.uniform(alpha, beta_star, n, M)


def test_total_cost_examples():
    tr = ArrivalTrace(lam=[[100, 50]])
    assert running_total(*per_slot_costs(tr, [[1, 0]], _cost(2))) == pytest.approx(12.5)
    tr2 = ArrivalTrace(lam=[[100, 50], [100, 50]])
    assert (running_total(*per_slot_costs(tr2, [[1, 0], [1, 0]], _cost(2)))
            == pytest.approx(15.0))
    zeros = np.zeros((2, 2))
    assert running_total(*per_slot_costs(tr2, zeros, _cost(2))) == pytest.approx(0.05 * 300)


def test_running_total_refuses_an_overflowing_total():
    assert running_total(np.array([1.0, 2.0]), np.array([0.5, 0.0])) == 3.5
    with pytest.raises(ValueError, match="total cost overflows"):
        running_total(np.full(3, 1e308), np.zeros(3))


def test_total_cost_permutation_invariant():
    rng = np.random.default_rng(1)
    lam = rng.uniform(0, 30, (6, 5))
    dec = rng.integers(0, 2, (6, 5)).astype(float)
    beta = rng.uniform(1, 10, 5)
    cost = CostModel(alpha=0.05, beta=beta, M=3)
    base = running_total(*per_slot_costs(ArrivalTrace(lam=lam), dec, cost))
    perm = rng.permutation(5)
    cost_p = CostModel(alpha=0.05, beta=beta[perm], M=3)
    permuted = running_total(*per_slot_costs(ArrivalTrace(lam=lam[:, perm]),
                                             dec[:, perm], cost_p))
    assert permuted == pytest.approx(base, rel=1e-12)


def test_per_slot_costs_match_a_slot_by_slot_loop():
    rng = np.random.default_rng(2)
    lam = rng.poisson(5.0, (40, 9)).astype(float)
    dec = rng.uniform(0, 1, (40, 9))
    cost = CostModel(alpha=0.05, beta=rng.uniform(1, 10, 9), M=5)
    fwd, sw = per_slot_costs(ArrivalTrace(lam=lam), dec, cost)
    prev = np.zeros(9)
    for t in range(40):
        f, s = slot_cost(lam[t], prev, dec[t], cost)
        assert fwd[t] == pytest.approx(f, rel=1e-12, abs=1e-12)
        assert sw[t] == pytest.approx(s, rel=1e-12, abs=1e-12)
        prev = dec[t]
    with pytest.raises(DimensionError):
        per_slot_costs(ArrivalTrace(lam=lam), dec[1:], cost)


def _costs_from_fresh_arrays(trace, decisions, cost):
    """per_slot_costs written with a fresh array per step: the reference."""
    dec = np.asarray(decisions, dtype=float)
    fwd = cost.alpha * np.einsum("tn,tn->t", trace.lam, 1.0 - dec)
    sw = np.maximum(np.diff(dec, axis=0, prepend=0.0), 0.0) @ cost.beta
    return fwd, sw


def test_per_slot_costs_equal_fresh_array_costing_byte_for_byte():
    rng = np.random.default_rng(4)
    T, N = 60, 11
    trace = ArrivalTrace(lam=rng.poisson(5.0, (T, N)).astype(float))
    cost = CostModel(alpha=0.05, beta=rng.uniform(1, 10, N), M=5)
    frac = rng.uniform(0, 1, (T, N))
    binary = rng.random((T, N)) < 0.4
    negzero = frac.copy()
    negzero[0] = -0.0
    nan_row = frac.copy()
    nan_row[7] = np.nan
    for decisions in (binary, binary.astype(np.int8), binary.astype(np.int64), frac,
                      frac.astype(object), frac.tolist(), binary.tolist(),
                      np.asfortranarray(frac), rng.uniform(0, 1, (N, T)).T,
                      frac[::-1], negzero, nan_row):
        got = per_slot_costs(trace, decisions, cost)
        want = _costs_from_fresh_arrays(trace, decisions, cost)
        assert all(g.dtype == np.float64 for g in got)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
    assert np.isnan(per_slot_costs(trace, nan_row, cost)[1][[7, 8]]).all()
    # 0/1 decisions of every dtype, and Fractions, cost the bytes of their floats
    int8 = binary.astype(np.int8)
    for decisions in (int8, binary, binary.astype(np.uint8), binary.astype(np.int64),
                      binary.astype(np.float64), binary.astype(object),
                      np.asfortranarray(int8), int8[::-1],
                      np.array([[Fraction(v) for v in row] for row in frac], dtype=object)):
        got = per_slot_costs(trace, decisions, cost)
        want = per_slot_costs(trace, np.asarray(decisions, dtype=float), cost)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
    for bad in (frac[1:], frac[:, 1:], frac.T, frac[0], frac.tolist()[1:]):
        with pytest.raises(DimensionError):
            per_slot_costs(trace, bad, cost)


def test_top_m_indicator_examples():
    assert top_m_indicator([5, 9, 2, 7], 2).tolist() == [0, 1, 0, 1]
    assert top_m_indicator([3, 3, 1], 1).tolist() == [1, 0, 0]  # tie: lower index
    assert top_m_indicator([0, 0, 4], 2).tolist() == [0, 0, 1]  # zero demand excluded


def test_top_m_indicator_marks_every_row_of_a_matrix():
    lam = np.array([[5, 9, 2, 7], [3, 3, 1, 0], [0, 0, 4, 0], [0, 0, 0, 0]])
    theta = top_m_indicator(lam, 2)
    assert theta.dtype == np.int8
    assert theta.tolist() == [[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    with pytest.raises(DimensionError):
        top_m_indicator(np.zeros((2, 2, 2)), 1)
    with pytest.raises(ValueError):
        top_m_indicator(lam, 5)


@pytest.mark.parametrize("M", [-1, 2.5, True])
def test_top_m_indicator_refuses_negative_or_non_integer_m(M):
    with pytest.raises(ValueError, match=r"^M must be an integer in \[0, 4\], got "):
        top_m_indicator(np.array([5.0, 9.0, 2.0, 7.0]), M)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=16),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=200, deadline=None)
def test_top_m_indicator_cardinality(values, m):
    lam = np.array(values)
    m = min(m, lam.size)
    theta = top_m_indicator(lam, m)
    positives = int((lam > 0).sum())
    assert theta.sum() == min(m, positives)
    # reference: walk the stable descending order, stop at M or at zero demand
    ref = np.zeros(lam.size, dtype=np.int8)
    for idx in np.argsort(-lam, kind="stable")[:m]:
        if lam[idx] <= 0:
            break
        ref[idx] = 1
    assert theta.dtype == ref.dtype and np.array_equal(theta, ref)


def test_path_length_examples():
    # M=1, indicator sequence [1,0],[1,0],[0,1]
    tr = ArrivalTrace(lam=[[5, 1], [5, 1], [1, 5]])
    assert path_length(tr, 1) == 3.0
    # constant indicator: only the initial activation counts
    tr2 = ArrivalTrace(lam=[[5, 1]] * 7)
    assert path_length(tr2, 1) == 1.0
    # alternating disjoint top-M sets of size M: M + 2M(T-1)
    T, M = 6, 2
    a, b = [9, 8, 1, 1], [1, 1, 9, 8]
    tr3 = ArrivalTrace(lam=[a if t % 2 == 0 else b for t in range(T)])
    assert path_length(tr3, M) == M + 2 * M * (T - 1)


def test_path_length_upper_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        T, n = int(rng.integers(1, 15)), int(rng.integers(2, 8))
        M = int(rng.integers(1, n + 1))
        tr = ArrivalTrace(lam=rng.uniform(0, 9, (T, n)))
        assert path_length(tr, M) <= 2 * M * T


def test_trace_invariants():
    with pytest.raises(ValueError):
        ArrivalTrace(lam=[[-1.0, 2.0]])
    with pytest.raises(ValueError):
        ArrivalTrace(lam=[[5.0, 6.0]], U=10.0)
    tr = ArrivalTrace(lam=[[5.0, 5.0]], U=10.0)
    assert tr.T == 1 and tr.N == 2


def test_cost_model_defaults_and_validation():
    cm = CostModel.uniform(0.05, 10.0, 4, 2, gamma=0.05)
    assert cm.beta_star == 10.0
    assert cm.eta == 0.05 / (12 * 10.0)
    assert CostModel.uniform(0.05, 10.0, 4, 2, gamma=0.3).eta == 0.3 / (12 * 10.0)
    with pytest.raises(ValueError):
        CostModel.uniform(0.05, 10.0, 4, 5)  # M > N
    with pytest.raises(ValueError):
        CostModel.uniform(0.05, 10.0, 4, 2, gamma=1.0)
    for M in (2.5, 2.0):  # fails later in top_m_indicator if let through
        with pytest.raises(ValueError, match="M must be an integer"):
            CostModel.uniform(0.05, 10.0, 4, M)
    assert CostModel.uniform(0.05, 10.0, 4, np.int64(2)).M == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
def test_cost_model_rejects_non_finite_fields(field, bad):
    kw = dict(alpha=0.05, beta=np.full(4, 10.0), M=2, gamma=0.05)
    if field == "beta":
        kw["beta"] = np.array([10.0, bad, 10.0, 10.0])
    else:
        kw[field] = bad
    with pytest.raises(ValueError, match=rf"{field} .*finite"):
        CostModel(**kw)


@pytest.mark.parametrize("make, name", [
    (lambda: CostModel.uniform(10**400, 10.0, 4, 2), "alpha"),
    (lambda: CostModel.uniform(0.05, 10**400, 4, 2), "beta_star"),
    (lambda: CostModel(alpha=True, beta=np.full(4, 10.0), M=2), "alpha"),
    (lambda: CostModel(alpha=0.05, beta=np.full(4, 10.0), M=2, gamma=np.array([.1])),
     "gamma"),
    (lambda: CostModel(alpha=0.05, beta=np.array([True, True]), M=1), "beta"),
    (lambda: ArrivalTrace(lam=np.array([[1, 10**400]], dtype=object)), "lam"),
    (lambda: ArrivalTrace(lam=[[1.0, "2"]]), "lam"),
    (lambda: ArrivalTrace(lam=[[1.0], [2.0, 3.0]]), "lam"),
    (lambda: ArrivalTrace(lam=[[1.0]], U=np.nan), "U"),
    (lambda: ArrivalTrace(lam=[[1.0]], U=np.inf), "U"),
    (lambda: ArrivalTrace(lam=[[1.0]], U=10**400), "U"),
    (lambda: ArrivalTrace(lam=[[1.0]], U=Fraction(-1, 2)), "U"),
], ids=["alpha-huge-int", "beta_star-huge-int", "alpha-bool", "gamma-array", "beta-bool",
        "lam-object-huge-int", "lam-string", "lam-ragged", "U-nan", "U-inf", "U-huge-int",
        "U-negative"])
def test_model_knobs_are_refused_by_name(make, name):
    """Before one boundary these raised OverflowError or TypeError, or were
    accepted (alpha=True, U=nan)."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make()


def test_model_knobs_are_kept_as_given(tmp_path):
    """The boundary checks scalar knobs without rewriting them, so an int U
    is saved as it was given; the arrays become float64, and so does a
    Fraction, on which numpy would compute as on an object."""
    cost = CostModel(alpha=1, beta=[10, 20], M=1, gamma=Fraction(1, 2))
    assert (type(cost.alpha), cost.gamma, type(cost.gamma)) == (int, 0.5, float)
    assert cost.beta.dtype == np.float64
    lam = np.array([[3.0, 1.0], [0.0, 2.0]])
    fraction = CostModel(alpha=Fraction(1, 20), beta=[10, 20], M=1)
    assert (pseudo_opt(ArrivalTrace(lam=lam), fraction, 5).total_cost
            == pseudo_opt(ArrivalTrace(lam=lam), CostModel(0.05, [10, 20], 1), 5).total_cost)
    trace = ArrivalTrace(lam=[[1, 2]], U=200)
    assert type(trace.U) is int
    assert '"U": 200,' in save_trace(trace, tmp_path / "t.csv").read_text()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trace_rejects_non_finite_arrivals(bad):
    with pytest.raises(ValueError, match=r"lam .*finite"):
        ArrivalTrace(lam=[[1.0, bad], [2.0, 3.0]])


def test_trace_roundtrip(tmp_path):
    lam = np.array([[1.0, 2.5, 0.0], [4.0, 0.0, 7.25]])
    tr = ArrivalTrace(lam=lam, U=12.0,
                      meta={"generator": "unit", "seed": 3, "params": {"x": 1}})
    path = tmp_path / "trace.csv"
    sidecar = save_trace(tr, path)
    text = path.read_text().splitlines()
    assert text[0] == "t,s1,s2,s3"
    assert text[1] == "1,1,2.5,0"
    back = load_trace(path)
    assert np.array_equal(back.lam, lam)
    assert back.U == 12.0
    assert back.meta["generator"] == "unit"
    assert sidecar.exists()


@pytest.mark.parametrize("U, saved", [(np.int64(2), 2), (np.float32(2), 2.0),
                                      (Fraction(3, 2), 1.5)])
def test_knobs_kept_as_given_save_and_load_back(tmp_path, U, saved):
    """numpy scalars and Fractions pass the boundary as given; the sidecar
    writes them as JSON numbers, where json.dump raised TypeError after the
    CSV was written."""
    lam = np.array([[1.0, 0.5], [0.0, 1.0]])
    path = tmp_path / "u.csv"
    sidecar = save_trace(ArrivalTrace(lam=lam, U=U), path)
    assert json.loads(sidecar.read_text())["U"] == saved
    back = load_trace(path)
    assert (back.U, type(back.U), back.lam.tobytes()) == (saved, type(saved), lam.tobytes())
    thinned = gen_replacement(ReplacementParams(N=6, T=5, U=10, thinning=np.float32(0.5)), 1)
    save_trace(thinned, path)
    back = load_trace(path)
    assert back.meta["params"]["thinning"] == 0.5
    assert back.lam.tobytes() == thinned.lam.tobytes()
    path.unlink()
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        save_trace(ArrivalTrace(lam=lam, meta={"params": {"x": object()}}), path)
    assert not path.exists()


@pytest.mark.parametrize("body, where", [
    ("t,s1,s2,s3\n1,4,5\n2,6,7\n", "line 2"),          # narrower than the header
    ("t,s1,s2\n1,4,5\n2,6,7,8\n", "line 3"),           # ragged
    ("t,s1,s2\n1,4,5\n1,6,7\n", "line 3"),             # repeated slot
    ("t,s1,s2\n2,4,5\n3,6,7\n", "line 2"),             # does not start at 1
], ids=["narrow", "ragged", "repeated-t", "t-not-from-1"])
def test_load_trace_rejects_malformed_rows(tmp_path, body, where):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=rf"bad\.csv.*{where}"):
        load_trace(path)
