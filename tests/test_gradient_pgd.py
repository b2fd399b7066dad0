import numpy as np
import pytest

from edgecache.gradient_pgd import (aux_cost_total, g_vec, offline_pgd,
                                    pgd_window_update, sweep_buffers)
from edgecache.model import ArrivalTrace, CostModel, DimensionError, top_m_indicator
from edgecache.projection import project_bounded_simplex
from edgecache.sampler import rng_stream
from edgecache.workloads import (PoissonParams, ReplacementParams, SqrtChurnParams,
                                 gen_poisson, gen_replacement, gen_sqrt_churn)


def test_g_vec_branches():
    a = np.array([0.2, 0.2, 0.0, 0.0, 0.3])
    b = np.array([0.18, 0.22, 0.05, 0.06, 0.3])
    g = g_vec(b - a, np.full(5, 10.0), 0.05)
    assert g[0] == 0.0
    assert g[1] == pytest.approx(24.0)
    # the ramp owns its upper boundary exactly as stated
    assert g[2] == pytest.approx(6 * 10.0)
    assert g[3] == pytest.approx(3 * 10.0)
    assert g[4] == 0.0


def test_g_vec_branchwise_monotone():
    # The ramp is monotone up to its cap and constant beyond, but the value
    # drops from 6b to 3b across d = gamma, so global monotonicity fails by
    # construction; assert the shape branch by branch.
    rng = rng_stream(0, "test:gfn")
    beta, gamma = 7.0, 0.1
    d = np.sort(rng.uniform(-1, 1, 200))
    vals = g_vec(d, np.full(200, beta), gamma)
    below = d <= gamma
    assert np.all(np.diff(vals[below]) >= -1e-12)
    assert np.all(vals[~below] == 3 * beta)


def _cost(n, beta=10.0, gamma=0.05, alpha=0.05, M=None):
    return CostModel.uniform(alpha, beta, n, M if M is not None else max(1, n // 2),
                             gamma=gamma)


def _aux_step(p_cur, p_prev, lambda_row, cost):
    """Surrogate cost of slot 2 alone: the two-slot total, slot 1 holding
    p_prev under zero demand, less slot 1's own cost."""
    zeros = np.zeros(len(p_prev))
    trace = ArrivalTrace(lam=[zeros, lambda_row])
    return (aux_cost_total([p_prev, p_cur], trace, cost)
            - aux_cost_total([p_prev], ArrivalTrace(lam=[zeros]), cost))


def test_aux_cost_examples():
    c = _cost(1, M=1)
    assert _aux_step([0.3], [0.3], [40.0], c) == pytest.approx(0.05 * 40 * 0.7)
    assert _aux_step([0.12], [0.10], [0.0], c) == pytest.approx(0.24)
    assert _aux_step([0.5], [0.3], [0.0], c) == pytest.approx(6.0)
    # either side of the kink at d = gamma = 0.05: (3 b / g) d^2, then 3 b d
    assert aux_cost_total([[0.04]], ArrivalTrace(lam=[[0.0]]), c) == pytest.approx(0.96)
    assert aux_cost_total([[0.06]], ArrivalTrace(lam=[[0.0]]), c) == pytest.approx(1.8)
    with pytest.raises(DimensionError):
        aux_cost_total([[0.1, 0.2]], ArrivalTrace(lam=[[0.0]]), c)


def test_aux_cost_negative_moves_cost_nothing():
    c = _cost(2, M=2)
    assert _aux_step([0.1, 0.0], [0.9, 0.6], [0.0, 0.0], c) == 0.0


def test_aux_cost_finite_difference_matches_g_vec():
    """Central differences of the switching part recover g_vec away from the
    two breakpoints."""
    rng = rng_stream(1, "test:fd")
    c = _cost(1, beta=8.0, gamma=0.07, M=1)
    h = 1e-7
    checked = 0
    while checked < 200:
        prev = float(rng.uniform(0, 1))
        cur = float(rng.uniform(0, 1))
        d = cur - prev
        if min(abs(d), abs(d - c.gamma)) < 1e-5:
            continue
        up = _aux_step([cur + h], [prev], [0.0], c)
        dn = _aux_step([cur - h], [prev], [0.0], c)
        fd = (up - dn) / (2 * h)
        g = g_vec(np.array([cur - prev]), np.array([8.0]), c.gamma)[0]
        assert fd == pytest.approx(g, rel=1e-4, abs=1e-4)
        checked += 1


def _sweep(Q_rows, lam, cost):
    """One ``pgd_window_update`` of the slots in Q_rows (row 0 is slot 0);
    returns the new iterate."""
    Q = np.asarray(Q_rows, dtype=float).copy()
    T, N = Q.shape[0] - 1, Q.shape[1]
    pressure = cost.alpha * np.broadcast_to(np.asarray(lam, dtype=float), (T, N))
    pgd_window_update(Q, pressure, cost, sweep_buffers(T, N))
    return Q


def _gradient(Q_rows, lam, cost, slot):
    """Window-objective gradient at one slot, read off a sweep whose step
    stays inside the feasible set, so the projection leaves it as is."""
    before = np.asarray(Q_rows, dtype=float)[slot]
    return (before - _sweep(Q_rows, lam, cost)[slot]) / cost.eta


def test_window_gradient_flat_probabilities():
    c = _cost(3, M=2)
    lam = np.array([7.0, 7.0, 7.0])
    grad = _gradient([[0, 0, 0]] + [[0.4, 0.4, 0.4]] * 3, lam, c, slot=2)
    np.testing.assert_allclose(grad, -c.alpha * lam)


def test_window_gradient_hand_case():
    c = _cost(1, beta=10.0, gamma=0.05, M=1)
    # slot 1 at 0.10 is the previous slot's value the backward term reads
    grad = _gradient([[0.0], [0.10], [0.12], [0.12]], [20.0], c, slot=2)  # alpha*lam = 1
    assert grad[0] == pytest.approx(24.0 - 1.0 - 0.0)


def test_window_gradient_at_horizon_drops_forward_term():
    c = _cost(1, M=1)
    grad = _gradient([[0.0], [0.5], [0.5]], [40.0], c, slot=2)  # slot 2 = T
    assert grad[0] == pytest.approx(-2.0)


def test_pgd_update_zero_step_only_snapshots():
    """A step of ~0 leaves every slot where it was."""
    c = _cost(2, M=1, gamma=1e-290)  # eta ~ 8e-293: effectively zero
    before = [[0.0, 0.0], [0.3, 0.1], [0.2, 0.2], [0.1, 0.3]]
    np.testing.assert_allclose(_sweep(before, np.ones(2), c), before, atol=1e-12)


def test_pgd_update_w1_matches_direct_formula():
    """One sweep is one update of every slot by the direct formula."""
    c = _cost(2, M=1)
    Q = np.array([[0.0, 0.0], [0.6, 0.0], [0.1, 0.5]])
    lam = np.array([[10.0, 0.0], [30.0, 5.0]])
    expected = np.zeros((2, 2))
    for t in (1, 2):
        grad = g_vec(Q[t] - Q[t - 1], c.beta, c.gamma) - c.alpha * lam[t - 1]
        if t < 2:
            grad -= g_vec(Q[t + 1] - Q[t], c.beta, c.gamma)
        expected[t - 1] = project_bounded_simplex(Q[t] - c.eta * grad, c.M)
    np.testing.assert_allclose(_sweep(Q, lam, c)[1:], expected)


def test_pgd_update_descends_toward_demand():
    c = _cost(3, beta=1.0, M=2, gamma=0.5)
    Q = np.full((6, 3), 0.2)
    Q[0] = 0.0
    for _ in range(200):
        Q = _sweep(Q, np.full(3, 500.0), c)  # forwarding pressure dwarfs switching
    touched = Q[1:]
    assert np.all(touched >= 0.2)
    assert np.all(touched.sum(axis=1) <= c.M + 1e-9)
    assert touched.sum(axis=1)[0] == pytest.approx(c.M, abs=1e-6)


def test_offline_pgd_zero_iterations_is_shifted_indicator():
    rng = rng_stream(2, "test:init")
    lam = rng.poisson(8.0, (6, 4)).astype(float)
    trace = ArrivalTrace(lam=lam)
    c = _cost(4, M=2)
    out = offline_pgd(trace, c, 0)
    theta = top_m_indicator(trace.lam, 2).astype(float)
    np.testing.assert_allclose(out[0], np.zeros(4))
    np.testing.assert_allclose(out[1:], theta[:-1])


def test_offline_pgd_single_slot_expansion():
    lam = np.array([[12.0, 3.0]])
    trace = ArrivalTrace(lam=lam)
    c = _cost(2, M=1)
    out = offline_pgd(trace, c, 1)
    expected = project_bounded_simplex(c.eta * c.alpha * lam[0], 1)
    np.testing.assert_allclose(out[0], expected)


def test_sweeps_do_not_increase_surrogate_total():
    rng = rng_stream(3, "test:descent")
    for trial in range(5):
        n, T = int(rng.integers(3, 8)), int(rng.integers(4, 12))
        lam = rng.poisson(rng.uniform(2, 15), (T, n)).astype(float)
        trace = ArrivalTrace(lam=lam)
        c = _cost(n, beta=float(rng.uniform(2, 10)), M=max(1, n // 2),
                  gamma=float(rng.uniform(0.05, 0.4)))
        totals = [aux_cost_total(offline_pgd(trace, c, w), trace, c)
                  for w in range(8)]
        for a, b in zip(totals, totals[1:]):
            assert b <= a + 1e-9


def _offline_pgd_rowwise(trace, cost, iterations):
    """Reference sweep: the synchronous offline PGD projecting one slot at a
    time, with separate backward and forward derivative evaluations."""
    T, N = trace.T, trace.N
    theta = top_m_indicator(trace.lam, cost.M).astype(float)
    Q = np.zeros((T + 1, N))
    Q[2:] = theta[:-1]
    for _ in range(iterations):
        grad = g_vec(np.diff(Q, axis=0), cost.beta, cost.gamma) - cost.alpha * trace.lam
        grad[:-1] -= g_vec(np.diff(Q[1:], axis=0), cost.beta, cost.gamma)
        nxt = np.zeros_like(Q)
        for t in range(1, T + 1):
            nxt[t] = project_bounded_simplex(Q[t] - cost.eta * grad[t - 1], cost.M)
        Q = nxt
    return Q[1:]


@pytest.mark.parametrize("shape", ["sqrt-churn N=30", "replacement N=100",
                                   "poisson N=1000"])
def test_batched_offline_pgd_matches_rowwise_reference(shape):
    if shape == "sqrt-churn N=30":
        trace = gen_sqrt_churn(SqrtChurnParams(N=30, T=300, M=3, U=120), seed=11)
        M = 3
    elif shape == "replacement N=100":
        trace = gen_replacement(ReplacementParams(N=100, T=300), seed=11)
        M = 10
    else:
        trace = gen_poisson(PoissonParams(N=1000, T=300,
                                          groups=((10, 2.0), (50, 1.0), (100, 0.5)),
                                          popularity_shape=3.0), seed=11)
        M = 10
    cost = CostModel.uniform(0.05, 10.0, trace.N, M, gamma=0.05)
    gap = np.max(np.abs(offline_pgd(trace, cost, 300)
                        - _offline_pgd_rowwise(trace, cost, 300)))
    assert gap <= 1e-12, gap
