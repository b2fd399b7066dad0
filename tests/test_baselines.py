import hashlib
import itertools

import numpy as np
import pytest

from edgecache import baselines
from edgecache.baselines import (InstanceTooLargeError, chc_policy,
                                 exact_opt_dp, pseudo_opt, rhc_policy,
                                 rhc_window_plan, sopt_policy)
from edgecache.model import (ArrivalTrace, CostModel, DimensionError,
                             per_slot_costs, running_total, top_m_indicator)
from edgecache.rosc import RoscConfig, run_rosc
from edgecache.sampler import rng_stream
from edgecache.workloads import (PoissonParams, PredictionOracle,
                                 ReplacementParams, SqrtChurnParams,
                                 gen_poisson, gen_replacement, gen_sqrt_churn)


def _cost(n, beta=10.0, M=1, alpha=0.05):
    return CostModel.uniform(alpha, beta, n, M)


def _window_cost(lam_hat, x_prev, plan, cost):
    prev = np.asarray(x_prev, dtype=float)
    total = 0.0
    for i in range(lam_hat.shape[0]):
        total += (cost.alpha * np.dot(lam_hat[i], 1 - plan[i])
                  + np.dot(cost.beta, np.maximum(plan[i] - prev, 0)))
        prev = plan[i]
    return total


def brute_window(lam_hat, x_prev, cost):
    """Enumerate every capacity-feasible binary window plan."""
    span, n = lam_hat.shape
    best, best_plan = np.inf, None
    for flat in itertools.product([0, 1], repeat=span * n):
        plan = np.asarray(flat).reshape(span, n)
        if np.any(plan.sum(axis=1) > cost.M):
            continue
        total = _window_cost(lam_hat, x_prev, plan, cost)
        if total < best - 1e-12:
            best, best_plan = total, plan
    return best, best_plan


def test_rhc_window_dp_example():
    cost = _cost(1)
    lam_hat = np.array([[300.0], [10.0]])
    plan = rhc_window_plan(lam_hat, np.zeros(1), cost)
    assert plan.tolist() == [[1], [1]]
    assert _window_cost(lam_hat, [0.0], plan, cost) == pytest.approx(10.0)
    # enumeration agrees: 15.5, 10.5, 25 for the other three trajectories
    best, best_plan = brute_window(lam_hat, np.zeros(1), cost)
    assert best == pytest.approx(10.0) and best_plan.tolist() == [[1], [1]]


def test_rhc_threshold_behavior():
    """A cold service whose window demand is below beta/alpha never enters."""
    rng = rng_stream(0, "test:threshold")
    cost = _cost(3, beta=10.0, M=3)
    for _ in range(30):
        W = int(rng.integers(1, 5))
        lam_hat = rng.uniform(0, 0.9 * cost.beta_star / cost.alpha / W, (W, 3))
        plan = rhc_window_plan(lam_hat, np.zeros(3), cost)
        assert not plan.any()


def test_rhc_capacity_repair_noop_when_m_covers_n():
    rng = rng_stream(1, "test:repair")
    lam_hat = rng.poisson(100, (3, 4)).astype(float)
    cost = _cost(4, beta=2.0, M=4)
    plan = rhc_window_plan(lam_hat, np.zeros(4), cost)
    # with M = N each service keeps its unconstrained DP trajectory
    for n in range(4):
        single = rhc_window_plan(lam_hat[:, [n]], np.zeros(1),
                                  _cost(1, beta=2.0, M=1))
        assert plan[:, n].tolist() == single[:, 0].tolist()


def test_rhc_heuristic_matches_enumeration_on_tiny_windows():
    rng = rng_stream(2, "test:gap")
    gaps = []
    for _ in range(40):
        n = int(rng.integers(2, 5))
        span = int(rng.integers(1, 4))
        M = int(rng.integers(1, n + 1))
        cost = _cost(n, beta=float(rng.uniform(1, 8)), M=M)
        lam_hat = rng.poisson(30, (span, n)).astype(float)
        x_prev = np.zeros(n)
        plan = rhc_window_plan(lam_hat, x_prev, cost)
        mine = _window_cost(lam_hat, x_prev, plan, cost)
        best, _ = brute_window(lam_hat, x_prev, cost)
        gaps.append(mine - best)
        assert mine >= best - 1e-9
    # documented heuristic: report the measured gap; it is tiny in practice
    assert np.mean(gaps) <= 0.5


def _rowwise_window(lam_hat, x_prev, cost):
    """rhc_window_plan written row by row: int8 back pointers from
    ``np.where`` pairs and a per-slot repair over a priority permutation.
    Also returns whether the repair dropped anything."""
    span, N = lam_hat.shape
    fwd = cost.alpha * lam_hat
    g0 = fwd[0].copy()
    g1 = np.where(x_prev > 0, 0.0, cost.beta)
    back0 = np.zeros((span, N), dtype=np.int8)
    back1 = np.ones((span, N), dtype=np.int8)
    for i in range(1, span):
        stay0 = g0 <= g1
        new_g0 = np.where(stay0, g0, g1) + fwd[i]
        stay1 = g1 <= g0 + cost.beta
        new_g1 = np.where(stay1, g1, g0 + cost.beta)
        back0[i] = np.where(stay0, 0, 1)
        back1[i] = np.where(stay1, 1, 0)
        g0, g1 = new_g0, new_g1
    plan = np.zeros((span, N), dtype=np.int8)
    state = (g1 < g0).astype(np.int8)
    plan[span - 1] = state
    for i in range(span - 1, 0, -1):
        state = np.where(state == 1, back1[i], back0[i]).astype(np.int8)
        plan[i - 1] = state
    saving = fwd.sum(axis=0) - np.minimum(g0, g1)
    priority = np.empty(N, dtype=np.int64)
    priority[np.lexsort((np.arange(N), -saving))] = np.arange(N)
    repaired = False
    for i in range(span):
        cached = np.flatnonzero(plan[i])
        if cached.size > cost.M:
            drop = cached[np.argsort(priority[cached], kind="stable")[cost.M:]]
            plan[i, drop] = 0
            repaired = True
    return plan, repaired


@pytest.mark.parametrize("lam_hat", [[[-5.0, 3.0], [4.0, -1.0]], [[np.nan, 3.0]]],
                         ids=["negative", "nan"])
def test_rhc_window_plan_refuses_forecasts_it_cannot_plan_for(lam_hat):
    with pytest.raises(ValueError, match="forecasts must be >= 0"):
        rhc_window_plan(np.array(lam_hat), np.zeros(2), _cost(2))


def test_rhc_window_matches_rowwise_formulation_on_tie_heavy_windows():
    """Integer demands 0-3 at alpha = 0.05 cost 0, 0.05, 0.1 or 0.15 a
    slot, the same grid as the betas, so DP ties and saving ties abound."""
    rng = rng_stream(9, "test:rowwise-window")
    betas = np.array([0.05, 0.1, 0.15, 1.0, 2.0])
    repaired = 0
    for _ in range(3000):
        n = int(rng.integers(2, 9))
        span = int(rng.integers(1, 7))
        cost = CostModel(alpha=0.05, beta=rng.choice(betas, n),
                         M=int(rng.integers(1, max(2, n // 2) + 1)))
        lam_hat = rng.integers(0, 4, (span, n)).astype(float)
        x_prev = (rng.random(n) < 0.6).astype(float)
        plan = rhc_window_plan(lam_hat, x_prev, cost)
        expected, dropped = _rowwise_window(lam_hat, x_prev, cost)
        assert plan.dtype == np.int8
        assert np.array_equal(plan, expected)
        repaired += dropped
    assert repaired > 2000


def _reference_plans(trace, cost, W, predictions):
    """Horizon control one window per slot: window t holds slots
    t .. min(t + W - 1, T) and starts from the first row of the plan
    before it."""
    x_prev = np.zeros(trace.N)
    for t in range(1, trace.T + 1):
        span = min(W, trace.T - t + 1)
        lam_hat = (trace.lam[t - 1: t - 1 + span] if predictions is None
                   else predictions.predict_window(t, span))
        plan = rhc_window_plan(lam_hat, x_prev, cost)
        yield plan
        x_prev = plan[0]


def _reference_rhc(trace, cost, W, predictions):
    decisions = np.zeros((trace.T, trace.N), dtype=np.int8)
    for t, plan in enumerate(_reference_plans(trace, cost, W, predictions)):
        decisions[t] = plan[0]
    return decisions


def _reference_chc(trace, cost, W, predictions):
    decisions = np.zeros((trace.T, trace.N))
    plans = []
    for t, plan in enumerate(_reference_plans(trace, cost, W, predictions)):
        plans = (plans + [plan])[-W:]
        votes = [p[len(plans) - 1 - i] for i, p in enumerate(plans)]
        decisions[t] = np.mean(votes, axis=0)
    return decisions


def _assert_matches_reference(trace, cost, W, R=0.0):
    def oracle():
        return None if R == 0.0 else PredictionOracle(trace, R=R, seed=5)

    for policy, reference in ((rhc_policy, _reference_rhc),
                              (chc_policy, _reference_chc)):
        rec = policy(trace, cost, W, predictions=oracle())
        want = reference(trace, cost, W, oracle())
        assert rec.decisions.dtype == want.dtype
        assert rec.decisions.tobytes() == want.tobytes()
        fwd, sw = per_slot_costs(trace, want, cost)
        assert rec.forward.tobytes() == fwd.tobytes()
        assert rec.switch.tobytes() == sw.tobytes()
        assert rec.total_cost == running_total(fwd, sw)


def _tie_heavy(rng, T, N, M):
    """Integer demands 0-3 at alpha = 0.05 and betas on the same grid."""
    cost = CostModel(alpha=0.05, beta=rng.choice([0.05, 0.1, 0.15, 1.0], N), M=M)
    return ArrivalTrace(lam=rng.integers(0, 4, (T, N)).astype(float)), cost


@pytest.fixture
def repairs(monkeypatch):
    """Count the capacity repairs the policies make."""
    calls = []
    repair = baselines._repair

    def counted(plan, saving, M):
        calls.append(plan.shape[0])
        return repair(plan, saving, M)

    monkeypatch.setattr(baselines, "_repair", counted)
    return calls


@pytest.mark.parametrize("W", [1, 2, 3, 7])
def test_horizon_control_matches_the_per_slot_loop_on_tie_heavy_traces(
        W, monkeypatch, repairs):
    """Blocks of 1 to 5 windows and one block of all; T below W, at W, and
    not a multiple of the block; exact and noisy forecasts.  At R = 3 most
    noisy forecasts are clipped to 0, the floor the closed-form DP needs."""
    rng = rng_stream(10 + W, "test:block-vs-loop")
    default = baselines.BLOCK_SIZE
    for T in (1, W - 1, W, 11, 23):
        for windows_per_block in (1, 2, 5, None):
            if T < 1:
                continue
            N = int(rng.integers(2, 9))
            trace, cost = _tie_heavy(rng, T, N, int(rng.integers(1, max(2, N // 2) + 1)))
            if windows_per_block is None:
                monkeypatch.setattr(baselines, "BLOCK_SIZE", default)
                assert baselines.BLOCK_SIZE // (W * N) >= T
            else:
                # BLOCK_SIZE counts forecast entries: W per window and service
                monkeypatch.setattr(baselines, "BLOCK_SIZE", windows_per_block * W * N)
                assert baselines.BLOCK_SIZE // (W * N) == windows_per_block
            _assert_matches_reference(trace, cost, W)
            _assert_matches_reference(trace, cost, W, R=0.3)
            _assert_matches_reference(trace, cost, W, R=3.0)
    assert len(repairs) > 20


def test_horizon_control_matches_the_per_slot_loop_across_wide_blocks(repairs):
    """N = 3000 puts two windows of 10 slots in a block and one of 20, so the
    cache carries across four or eight block boundaries into each block's
    cached-start solve."""
    rng = rng_stream(20, "test:wide-blocks")
    trace, cost = _tie_heavy(rng, 9, 3000, 40)
    assert baselines.BLOCK_SIZE // (10 * trace.N) == 2
    assert baselines.BLOCK_SIZE // (20 * trace.N) == 1
    for W in (10, 20):
        _assert_matches_reference(trace, cost, W)
    _assert_matches_reference(trace, cost, 10, R=0.2)
    assert len(repairs) > 20


def test_first_row_only_rhc_is_row_zero_of_the_repaired_plan(repairs):
    """rhc repairs the first row alone; the repair ranks every row the same
    way, so that row equals the first row of the fully repaired plan."""
    rng = rng_stream(21, "test:first-row")
    for W in (2, 3, 7):
        trace, cost = _tie_heavy(rng, 40, 8, 2)
        first = list(baselines._horizon_control(trace, cost, W, None, rows=1))
        assert repairs
        full = list(baselines._horizon_control(trace, cost, W, None, rows=W))
        for (t, cols, row), (u, ucols, plans) in zip(first, full, strict=True):
            assert t == u and cols == ucols == slice(None)      # every block dense
            assert row.shape == (1,) + plans.shape[1:]
            windows = min(baselines.BLOCK_SIZE // (W * trace.N), trace.T - t)
            assert plans.shape == (W, windows, trace.N)
            assert row.tobytes() == plans[:1].tobytes()
        repairs.clear()


def _repaired_slots(trace, cost, W):
    """The 0-based slots whose window the per-slot loop repairs."""
    x_prev, slots = np.zeros(trace.N), []
    for t in range(trace.T):
        plan, dropped = _rowwise_window(trace.lam[t: t + W], x_prev, cost)
        if dropped:
            slots.append(t)
        x_prev = plan[0]
    return slots


@pytest.mark.parametrize("windows_per_block", [1, 2])
def test_horizon_control_repairs_the_first_and_last_window_of_a_block(
        windows_per_block, monkeypatch):
    """A repair restarts the carried-cache scan after its window; one or two
    windows a block put repairs on a block's first and on its last window."""
    rng = rng_stream(22, "test:edge-repairs")
    N = 6
    first = last = 0
    for W in (1, 2, 4):
        monkeypatch.setattr(baselines, "BLOCK_SIZE", windows_per_block * W * N)
        assert baselines.BLOCK_SIZE // (W * N) == windows_per_block
        trace, cost = _tie_heavy(rng, 30, N, 2)
        slots = _repaired_slots(trace, cost, W)
        first += sum(t % windows_per_block == 0 for t in slots)
        last += sum(t % windows_per_block == windows_per_block - 1 for t in slots)
        _assert_matches_reference(trace, cost, W)
    assert first > 5 and last > 5


@pytest.fixture
def forecast_columns(monkeypatch):
    """The ``services`` of each block's forecast (a call with an array of
    starts): None for a full-width block."""
    calls = []
    predict = PredictionOracle.predict_window

    def recorded(self, tau, W, *, services=None):
        if np.ndim(tau) == 1:
            calls.append(None if services is None else list(services))
        return predict(self, tau, W, services=services)

    monkeypatch.setattr(PredictionOracle, "predict_window", recorded)
    return calls


def _sparse_tie_heavy(rng, T, N, M, share):
    """Tie-heavy demands on about ``share`` of the (slot, service) pairs."""
    trace, cost = _tie_heavy(rng, T, N, M)
    return ArrivalTrace(lam=trace.lam * (rng.random((T, N)) < share)), cost


SPARSE_R = (0.0, 0.3, 3.0)


@pytest.mark.parametrize("W", [1, 3])
def test_sparse_blocks_match_the_per_slot_loop_on_idle_spans(W, monkeypatch, forecast_columns):
    """Blocks whose forecast slots hold no demand at all plan no service;
    so do traces with no demand anywhere."""
    rng = rng_stream(30 + W, "test:idle-spans")
    monkeypatch.setattr(baselines, "BLOCK_SIZE", 2 * W * 8)
    trace, cost = _sparse_tie_heavy(rng, 40, 8, 2, 0.3)
    lam = trace.lam.copy()
    lam[12:30] = 0.0                            # two blocks see no demand
    for trace in (ArrivalTrace(lam=lam), ArrivalTrace(lam=np.zeros((9, 8)))):
        for R in SPARSE_R:
            _assert_matches_reference(trace, cost, W, R)
    assert [] in forecast_columns


@pytest.mark.parametrize("R", SPARSE_R)
def test_a_cached_service_without_demand_leaves_the_cache_at_its_block(
        R, monkeypatch, forecast_columns):
    """Service 0 is cached at the end of the first block and has no demand
    in the second, whose forecast leaves it out."""
    W, N = 2, 6
    monkeypatch.setattr(baselines, "BLOCK_SIZE", 4 * W * N)
    lam = np.zeros((12, N))
    lam[:4, 0] = 3.0                            # demand in block 0's windows only
    lam[:, 5] = 1.0
    trace = ArrivalTrace(lam=lam)
    cost = CostModel(alpha=0.05, beta=np.full(N, 0.05), M=2)
    assert _reference_rhc(trace, cost, W, None)[3, 0] == 1
    _assert_matches_reference(trace, cost, W, R)
    assert forecast_columns[1] == [5]


@pytest.mark.parametrize("W", [1, 3])
def test_sparse_and_dense_blocks_alternate(W, monkeypatch, forecast_columns, repairs):
    """Every other block has one slot with demand on every service: its
    forecast is full width, the next one's covers a few services."""
    rng = rng_stream(40 + W, "test:alternating")
    N, B = 10, 6
    monkeypatch.setattr(baselines, "BLOCK_SIZE", B * W * N)
    trace, cost = _sparse_tie_heavy(rng, 40, N, 2, 0.1)
    lam = trace.lam.copy()
    lam[B // 2:: 2 * B] = rng.integers(1, 4, (len(lam[B // 2:: 2 * B]), N))
    for R in SPARSE_R:
        _assert_matches_reference(ArrivalTrace(lam=lam), cost, W, R)
    widths = {len(c) if c is not None else N for c in forecast_columns}
    assert None in forecast_columns and min(widths) < 0.4 * N
    assert repairs


def test_clipped_noisy_forecasts_on_a_sparse_trace(monkeypatch, forecast_columns, repairs):
    """At R = 3 most noisy forecasts of demanded services clip to 0; a
    sparse block still forecasts only the services with an arrival."""
    rng = rng_stream(50, "test:sparse-noisy")
    trace, cost = _sparse_tie_heavy(rng, 60, 40, 3, 0.03)
    for W in (1, 4, 9):
        monkeypatch.setattr(baselines, "BLOCK_SIZE", 3 * W * trace.N)
        for R in SPARSE_R:
            _assert_matches_reference(trace, cost, W, R)
    assert any(c is not None and 0 < len(c) < 16 for c in forecast_columns)
    assert repairs


def test_sparse_blocks_across_wide_blocks(forecast_columns, repairs):
    """N = 3000 at W = 10 puts two windows in a block, on a sparse trace:
    the carried cache enters each block through its demanded services."""
    rng = rng_stream(60, "test:sparse-wide")
    trace, cost = _sparse_tie_heavy(rng, 9, 3000, 40, 0.02)
    assert baselines.BLOCK_SIZE // (10 * trace.N) == 2
    for R in SPARSE_R:
        _assert_matches_reference(trace, cost, 10, R)
    assert all(c is not None for c in forecast_columns)
    assert len(repairs) > 10


def test_uncached_plan_is_a_subset_of_the_cached_plan():
    """On nonnegative blocks with zeros and ties, the uncached plan is a
    subset of the cached plan row by row (the commit scan's premise), and the
    cached start has a closed form: it caches slot i if some slot >= i
    forwards, and saves the whole window's forwarding, bit for bit."""
    rng = rng_stream(23, "test:cached-start")
    for _ in range(300):
        W, B, n = (int(v) for v in rng.integers(1, 9, 3))
        fwd = 0.05 * rng.integers(0, 4, (W, B, n)).astype(float)
        beta = rng.choice([0.05, 0.1, 0.15, 1.0], n if rng.random() < 0.5 else None)
        plan0, _ = baselines.solve_rhc_window(fwd, beta)
        plan1, g0 = baselines.solve_rhc_window(fwd, 0.0)
        assert np.all(plan0 <= plan1)
        forwards_later = np.flip(np.logical_or.accumulate(np.flip(fwd > 0, 0), 0), 0)
        assert plan1.tobytes() == forwards_later.view(np.int8).tobytes()
        assert baselines._suffix_or(fwd > 0).tobytes() == plan1.tobytes()
        total = fwd.sum(axis=0)
        assert baselines._saving(total, g0, 0.0).tobytes() == total.tobytes()


# SHA-256 of rhc's and chc's decisions, per-slot costs and totals on the six
# instances below, one digest on exact forecasts and one on noisy (R = 0.1)
# forecasts, so a change of the noise stream cannot hide a change of the exact
# path.  The exact digest was computed before horizon control was solved in
# blocks of windows; the noisy one when the oracle came to draw its noise from
# one stream and keep it as one running table.
HORIZON_EXACT_DIGEST = "d7b541a6dc7df7af746dd1df5126124a8430e78a99c17d48f6ba27382cf3d529"
HORIZON_NOISY_DIGEST = "b482bc0643314d715cb94e50259a9cbc311e89af842641b321dd487c11017cc8"


def _horizon_digest(R):
    digest = hashlib.sha256()
    for seed in (1, 2):
        for trace, M, W in (
                (gen_replacement(ReplacementParams(N=24, T=40, U=60,
                                                   rank_lifetime_mean=5.0), seed), 4, 3),
                (gen_poisson(PoissonParams(N=60, T=40, groups=((5, 2.0), (30, 0.5))),
                             seed), 5, 7),
                (gen_sqrt_churn(SqrtChurnParams(N=12, T=40, M=3), seed), 3, 4)):
            cost = CostModel.uniform(0.05, 2.0, trace.N, M)
            for policy in (rhc_policy, chc_policy):
                predictions = None if R == 0.0 else PredictionOracle(trace, R=R, seed=seed)
                rec = policy(trace, cost, W, predictions=predictions)
                for a in (rec.decisions, rec.forward, rec.switch):
                    digest.update(np.ascontiguousarray(a).tobytes())
                digest.update(repr(rec.total_cost).encode())
    return digest.hexdigest()


def test_horizon_control_outputs_are_byte_identical_per_seed():
    assert _horizon_digest(0.0) == HORIZON_EXACT_DIGEST


def test_noisy_horizon_control_outputs_are_byte_identical_per_seed():
    assert _horizon_digest(0.1) == HORIZON_NOISY_DIGEST


def test_rhc_w1_tiny_beta_tracks_top_m():
    rng = rng_stream(3, "test:ftl")
    lam = rng.poisson(20, (12, 5)).astype(float)
    trace = ArrivalTrace(lam=lam)
    cost = _cost(5, beta=1e-9, M=2)
    rec = rhc_policy(trace, cost, W=1)
    np.testing.assert_array_equal(rec.decisions, top_m_indicator(trace.lam, 2))


def test_chc_w1_equals_rhc():
    rng = rng_stream(4, "test:chc1")
    trace = ArrivalTrace(lam=rng.poisson(50, (15, 4)).astype(float))
    cost = _cost(4, beta=3.0, M=2)
    a = rhc_policy(trace, cost, W=1)
    b = chc_policy(trace, cost, W=1)
    np.testing.assert_allclose(b.decisions, a.decisions)
    assert b.total_cost == pytest.approx(a.total_cost)


def test_chc_averages_disjoint_plans():
    """Two consecutive solves caching disjoint singletons average to a
    half-and-half decision costed on fractional increments."""
    # slot 1 demands service 0 strongly, slot 2 demands service 1 strongly;
    # with W = 2 the solve at t=1 plans service 0 for slot 2 only if it
    # still pays there; make slot-2 demand for service 0 vanish so the two
    # plans for slot 2 disagree.
    lam = np.array([[400.0, 0.0], [0.0, 400.0]])
    trace = ArrivalTrace(lam=lam)
    cost = _cost(2, beta=10.0, M=1)
    rec = chc_policy(trace, cost, W=2)
    # t=1: only the solve at 1 exists -> binary [1, 0]
    np.testing.assert_allclose(rec.decisions[0], [1, 0])
    # t=2: solve@1 planned [1,0] (keep, eviction free? no: forwarding 400
    # forces switch) actually plans service 1... average of the two plans
    assert rec.decisions[1].sum() <= 1 + 1e-9
    fractional = rec.decisions[1]
    assert set(np.round(fractional, 6)) <= {0.0, 0.5, 1.0}


def test_chc_all_solves_agree_is_binary():
    lam = np.tile([50.0, 1.0, 1.0], (10, 1))
    trace = ArrivalTrace(lam=lam)
    cost = _cost(3, beta=2.0, M=1)
    rec = chc_policy(trace, cost, W=3)
    assert set(np.unique(rec.decisions)) <= {0.0, 1.0}


@pytest.mark.parametrize("W", [0, -1])
@pytest.mark.parametrize("policy", [rhc_policy, chc_policy])
def test_horizon_control_refuses_windows_below_one(policy, W):
    trace = ArrivalTrace(lam=np.ones((4, 3)))
    with pytest.raises(ValueError, match="window of at least one slot"):
        policy(trace, _cost(3), W)


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("policy", [
    lambda trace, cost: run_rosc(trace, RoscConfig(cost=cost, W=2, K=4)),
    lambda trace, cost: rhc_policy(trace, cost, 2),
    lambda trace, cost: chc_policy(trace, cost, 2),
    sopt_policy,
    exact_opt_dp,
    lambda trace, cost: pseudo_opt(trace, cost, 5),
], ids=["rosc", "rhc", "chc", "sopt", "opt-dp", "pseudo-opt"])
def test_every_policy_refuses_a_cost_model_of_another_width(policy, width):
    trace = ArrivalTrace(lam=np.ones((4, 5)))
    with pytest.raises(DimensionError, match="cost model width differs from the trace"):
        policy(trace, _cost(width))


_FORECASTING = [
    lambda trace, cost, oracle: run_rosc(trace, RoscConfig(cost=cost, W=2, K=4),
                                         predictions=oracle),
    lambda trace, cost, oracle: rhc_policy(trace, cost, 2, predictions=oracle),
    lambda trace, cost, oracle: chc_policy(trace, cost, 2, predictions=oracle),
]


@pytest.mark.parametrize("other", [(4, 5, 2.0), (6, 5, 1.0), (4, 3, 1.0)],
                         ids=["same-shape", "longer", "narrower"])
@pytest.mark.parametrize("policy", _FORECASTING, ids=["rosc", "rhc", "chc"])
def test_forecasting_policies_refuse_an_oracle_of_another_trace(policy, other):
    T, N, level = other
    trace = ArrivalTrace(lam=np.arange(20.0).reshape(4, 5))
    oracle = PredictionOracle(ArrivalTrace(lam=np.full((T, N), level)), R=0.1, seed=1)
    with pytest.raises(ValueError, match="oracle was built on another trace"):
        policy(trace, _cost(5), oracle)


@pytest.mark.parametrize("policy", _FORECASTING, ids=["rosc", "rhc", "chc"])
def test_forecasting_policies_accept_an_oracle_of_an_equal_trace(policy):
    trace = ArrivalTrace(lam=np.arange(20.0).reshape(4, 5))
    twin = ArrivalTrace(lam=trace.lam.copy())
    runs = [policy(trace, _cost(5), PredictionOracle(tr, R=0.1, seed=1))
            for tr in (trace, twin)]
    assert runs[0].decisions.tobytes() == runs[1].decisions.tobytes()


def test_sopt_examples():
    cost = _cost(3, beta=10.0, M=2)  # threshold beta*/alpha = 200
    # totals (300, 250, 180): third service misses the threshold
    rec1 = sopt_policy(ArrivalTrace(lam=np.tile([100.0, 250 / 3, 60], (3, 1))), cost)
    assert rec1.decisions[0].tolist() == [1, 1, 0]

    tr2 = ArrivalTrace(lam=np.tile([100.0, 250 / 3, 220 / 3], (3, 1)))
    rec2 = sopt_policy(tr2, cost)
    assert rec2.decisions[0].tolist() == [1, 1, 0]  # third passes threshold, loses top-M

    tr3 = ArrivalTrace(lam=np.tile([60.0, 50, 40], (3, 1)))
    rec3 = sopt_policy(tr3, cost)
    assert not rec3.decisions.any()
    assert rec3.total_cost == pytest.approx(0.05 * tr3.lam.sum())


def test_sopt_pays_instantiation_once_at_start():
    trace = ArrivalTrace(lam=np.tile([300.0, 1.0], (4, 1)))
    cost = _cost(2, beta=10.0, M=1)
    rec = sopt_policy(trace, cost)
    assert rec.switch[0] == pytest.approx(10.0)
    assert rec.switch[1:].sum() == 0.0


def test_sopt_is_the_best_static_cache():
    """sopt against every static set of at most M services, on
    non-uniform betas.  The first instance is one where ranking by demand
    above the threshold b*/alpha caches nothing (cost 60), while caching
    service 0 costs 51."""
    cases = [(ArrivalTrace(lam=[[10.0, 50.0]]), CostModel(alpha=1.0, beta=[1.0, 100.0], M=1))]
    rng = rng_stream(24, "test:sopt-static")
    for _ in range(100):
        T, N = (int(v) for v in rng.integers(1, 7, 2))
        lam = rng.poisson(rng.uniform(0, 30), (T, N)).astype(float)
        cost = CostModel(alpha=0.05, beta=rng.uniform(0.05, 3.0, N),
                         M=int(rng.integers(1, N + 1)))
        cases.append((ArrivalTrace(lam=lam), cost))
    for trace, cost in cases:
        best = min(running_total(*per_slot_costs(
                       trace, np.tile(np.isin(np.arange(trace.N), chosen), (trace.T, 1)),
                       cost))
                   for m in range(cost.M + 1)
                   for chosen in itertools.combinations(range(trace.N), m))
        assert sopt_policy(trace, cost).total_cost == pytest.approx(best, rel=1e-9, abs=1e-9)


def test_exact_dp_tiny_example():
    trace = ArrivalTrace(lam=[[100.0, 50.0]])
    cost = _cost(2, beta=10.0, M=1)
    rec = exact_opt_dp(trace, cost)
    assert rec.total_cost == pytest.approx(7.5)
    assert not rec.decisions.any()


def test_exact_dp_caches_demand_too_large_to_forward():
    """Two services of 1e308 add past float64 in slot 1, but caching both
    costs 2 beta plus 0.05 a slot: each cache set's forwarding is priced on
    the services it leaves out, so the sum of everything never enters."""
    trace = ArrivalTrace(lam=[[1e308, 1e308, 1.0], [1.0, 1.0, 1.0]])
    cost = _cost(3, beta=10.0, M=2)
    rec = exact_opt_dp(trace, cost)
    assert rec.decisions.tolist() == [[1, 1, 0], [1, 1, 0]]
    assert rec.total_cost == sopt_policy(trace, cost).total_cost == pytest.approx(20.1)


def test_exact_dp_tiny_beta_caches_top_m_every_slot():
    rng = rng_stream(5, "test:dp-beta0")
    lam = rng.poisson(40, (8, 5)).astype(float) + \
        np.arange(5)[None, :]  # break ties deterministically
    trace = ArrivalTrace(lam=lam)
    cost = _cost(5, beta=1e-9, M=2)
    rec = exact_opt_dp(trace, cost)
    theta = top_m_indicator(trace.lam, 2)
    per_slot_topm_forward = 0.05 * (trace.lam * (1 - theta)).sum()
    assert rec.total_cost == pytest.approx(per_slot_topm_forward, abs=1e-5)


def test_exact_dp_static_when_demand_is_static():
    lam = np.tile([90.0, 80.0, 2.0, 1.0], (20, 1))
    trace = ArrivalTrace(lam=lam)
    cost = _cost(4, beta=5.0, M=2)
    rec = exact_opt_dp(trace, cost)
    assert np.array_equal(rec.decisions, np.tile([1, 1, 0, 0], (20, 1)))


def test_exact_dp_budget_refusal():
    trace = ArrivalTrace(lam=np.ones((5, 20)))
    with pytest.raises(InstanceTooLargeError):
        exact_opt_dp(trace, _cost(20, M=2))
    trace2 = ArrivalTrace(lam=np.ones((200, 4)))
    with pytest.raises(InstanceTooLargeError):
        exact_opt_dp(trace2, _cost(4, M=2))


def test_exact_dp_self_check_raises_when_the_recount_disagrees(monkeypatch):
    from edgecache import baselines, model

    def inflated(trace, decisions, cost):
        fwd, sw = model.per_slot_costs(trace, decisions, cost)
        return fwd * 2.0, sw

    monkeypatch.setattr(baselines, "per_slot_costs", inflated)
    with pytest.raises(RuntimeError, match="recount"):
        exact_opt_dp(ArrivalTrace(lam=[[100.0, 50.0]]), _cost(2, beta=10.0, M=1))


def test_exact_dp_lower_bounds_every_policy():
    rng = rng_stream(6, "test:lb")
    lam = rng.poisson(25, (15, 6)).astype(float)
    trace = ArrivalTrace(lam=lam)
    cost = _cost(6, beta=4.0, M=2)
    opt = exact_opt_dp(trace, cost)
    candidates = [
        sopt_policy(trace, cost),
        rhc_policy(trace, cost, W=3),
        run_rosc(trace, RoscConfig(cost=cost, W=3, K=10, seed=0)),
        run_rosc(trace, RoscConfig(cost=cost, W=0, K=10, seed=1)),
    ]
    for rec in candidates:
        assert rec.total_cost >= opt.total_cost - 1e-9


def test_all_baselines_respect_capacity():
    rng = rng_stream(7, "test:cap")
    lam = rng.poisson(30, (12, 6)).astype(float)
    trace = ArrivalTrace(lam=lam)
    cost = _cost(6, beta=3.0, M=2)
    for rec in (rhc_policy(trace, cost, 3), chc_policy(trace, cost, 3),
                sopt_policy(trace, cost), exact_opt_dp(trace, cost),
                pseudo_opt(trace, cost, 30)):
        assert np.all(rec.decisions.sum(axis=1) <= cost.M + 1e-9)
        assert rec.total_cost == pytest.approx(
            running_total(*per_slot_costs(trace, rec.decisions, cost)), rel=1e-12, abs=1e-9)


def test_pseudo_opt_signed_gap_and_zero_iterations():
    rng = rng_stream(8, "test:pseudo")
    lam = rng.poisson(20, (10, 5)).astype(float)
    trace = ArrivalTrace(lam=lam)
    cost = _cost(5, beta=4.0, M=2)
    opt = exact_opt_dp(trace, cost)
    ps = pseudo_opt(trace, cost, 50)
    gap = ps.total_cost - opt.total_cost  # fractional relaxation: either sign
    assert np.isfinite(gap)

    from edgecache.gradient_pgd import offline_pgd
    zero = pseudo_opt(trace, cost, 0)
    assert zero.total_cost == pytest.approx(
        running_total(*per_slot_costs(trace, offline_pgd(trace, cost, 0), cost)))


def test_pseudo_opt_forwarding_profile_matches_sopt_on_stationary_trace():
    base = np.array([50.0, 40, 30, 6, 5, 4, 3, 2])
    trace = ArrivalTrace(lam=np.tile(base, (40, 1)))
    cost = _cost(8, beta=10.0, M=2)
    steady = sopt_policy(trace, cost).forward[-1]
    gaps = []
    for w_big in (10, 50, 300):
        rec = pseudo_opt(trace, cost, w_big)
        gaps.append(abs(rec.forward[-10:].mean() - steady))
    assert all(g <= 1e-6 for g in gaps)
    assert gaps == sorted(gaps, reverse=True) or max(gaps) <= 1e-9
