import copy
import dataclasses
import warnings

import numpy as np
import pytest

from edgecache.projection import project_bounded_simplex
from edgecache.sampler import (SamplePathEnsemble, quantize_probs,
                               rng_stream, update_ensemble)


@pytest.mark.parametrize("label", ["prediction-noise:-3", "rosc:sampler", "", "péage-緩存"])
def test_rng_stream_seeds_from_seed_and_label_bytes(label):
    """The stream is the SeedSequence of [seed mod 2^64, *label bytes], so a
    change to how the entropy is built cannot silently reseed runs."""
    for seed in (0, 1, 2**32 - 1, 2**32, 2**40 + 5, -1, -2**63, 2**64 - 1):
        entropy = [seed & 0xFFFFFFFFFFFFFFFF] + list(label.encode("utf-8"))
        expected = np.random.default_rng(np.random.SeedSequence(entropy))
        got = rng_stream(seed, label)
        assert got.standard_normal(8).tobytes() == expected.standard_normal(8).tobytes()
        assert got.integers(2**63, size=4).tobytes() == expected.integers(2**63, size=4).tobytes()


def test_quantize_examples():
    assert quantize_probs(np.array([0.237]), 100)[0] == pytest.approx(0.23)
    assert quantize_probs(np.array([1.0]), 100)[0] == 1.0
    # finite values far outside [0, 1] clip without overflowing p * K
    assert quantize_probs(np.array([1e308, -1e308, 1.5]), 100).tolist() == [1.0, 0.0, 1.0]
    np.testing.assert_allclose(quantize_probs(np.array([0.55, 0.45]), 10),
                               [0.5, 0.4])


def test_quantize_properties():
    rng = rng_stream(0, "test:quant")
    for _ in range(200):
        n = int(rng.integers(1, 20))
        M = int(rng.integers(1, n + 1))
        K = int(rng.choice([3, 10, 100]))
        p = project_bounded_simplex(rng.uniform(-0.5, 1.5, n), M)
        q = quantize_probs(p, K)
        assert np.all(q <= p + 1e-9)
        assert np.all(p - q < 1.0 / K)
        assert q.sum() <= p.sum() + 1e-9
        counts = q * K
        np.testing.assert_allclose(counts, np.rint(counts), atol=1e-9)


def test_update_reaches_exact_marginals_and_capacity():
    rng = rng_stream(1, "test:update")
    ens = SamplePathEnsemble.initial(K=10, N=6, M=2, k_star=3)
    for _ in range(60):
        p = project_bounded_simplex(rng.uniform(-0.4, 1.4, 6), 2)
        pq = quantize_probs(p, 10)
        ens = update_ensemble(ens, pq, rng)
        assert np.array_equal(ens.S.sum(axis=0), np.rint(pq * 10).astype(np.int64))
        assert ens.S.sum(axis=1).max() <= 2


def test_update_unchanged_when_targets_static():
    rng = rng_stream(2, "test:static")
    ens = SamplePathEnsemble.initial(K=4, N=3, M=1, k_star=0)
    ens = update_ensemble(ens, np.array([0.5, 0.25, 0.25]), rng)
    before = ens.S.copy()
    ens2 = update_ensemble(ens, np.array([0.5, 0.25, 0.25]), rng)
    assert np.array_equal(ens2.S, before)


def test_two_path_swap_case_every_resolution():
    """K=2, M=1: both paths hold service 0, targets move to [0.5, 0.5].
    Every random resolution must end with one path on each service, via one
    removal, one addition and at most one rebalance move; the transition
    contributes exactly one insertion, i.e. 0.5 per unit of path mass."""
    for seed in range(60):
        rng = rng_stream(seed, "test:swap")
        ens = SamplePathEnsemble.initial(K=2, N=2, M=1, k_star=0)
        ens = update_ensemble(ens, np.array([1.0, 0.0]), rng)
        assert np.array_equal(ens.S, [[1, 0], [1, 0]])
        nxt = update_ensemble(ens, np.array([0.5, 0.5]), rng)
        assert sorted(map(tuple, nxt.S.tolist())) == [(0, 1), (1, 0)]
        assert nxt.S.sum(axis=1).max() <= 1
        assert (nxt.insertions - ens.insertions) / nxt.K == 0.5


def test_three_quarters_on_four_paths():
    rng = rng_stream(3, "test:quarters")
    ens = SamplePathEnsemble.initial(K=4, N=1, M=1, k_star=2)
    ens = update_ensemble(ens, np.array([0.75]), rng)
    assert ens.S.sum() == 3


def test_expected_switching_static_and_fresh():
    """From the empty ensemble every occupied cell is an insertion; updates
    to unchanged targets add none."""
    ens = SamplePathEnsemble.initial(K=4, N=3, M=2, k_star=0)
    assert ens.insertions == 0
    rng = rng_stream(4, "test:es")
    pq = np.array([1.0, 0.5, 0.0])
    e1 = update_ensemble(ens, pq, rng)
    e3 = update_ensemble(update_ensemble(e1, pq, rng), pq, rng)
    assert e3.insertions == e1.insertions
    assert e1.insertions / e1.K == pytest.approx((4 + 2) / 4)


def test_switching_bound_monte_carlo():
    """Seed-averaged insertions stay within the 3x bound on the positive
    quantized motion (small version; the full suite runs in acceptance)."""
    K, n, M, T = 10, 6, 2, 8
    seq_rng = rng_stream(5, "test:bound-seq")
    targets = []
    for _ in range(T):
        p = project_bounded_simplex(seq_rng.uniform(-0.4, 1.4, n), M)
        targets.append(quantize_probs(p, K))
    motion, prev = 0.0, np.zeros(n)
    for pq in targets:
        motion += float(np.maximum(pq - prev, 0).sum())
        prev = pq
    totals = []
    for s in range(120):
        rng = rng_stream(s, "test:bound-run")
        ens = SamplePathEnsemble.initial(K, n, M, k_star=0)
        for pq in targets:
            ens = update_ensemble(ens, pq, rng)
        totals.append(ens.insertions / K)
    assert np.mean(totals) <= 3.0 * motion * 1.05


def test_decision_at_and_kstar():
    ens = SamplePathEnsemble.initial(K=3, N=2, M=1, k_star=1)
    ens.S[1, 1] = 1
    assert ens.S[ens.k_star].tolist() == [0, 1]
    one = SamplePathEnsemble.initial(K=1, N=2, M=1, k_star=0)
    one.S[0, 0] = 1
    assert one.S[one.k_star].tolist() == [1, 0]


def test_update_determinism():
    def run(seed):
        rng = rng_stream(seed, "test:det")
        ens = SamplePathEnsemble.initial(K=8, N=5, M=2, k_star=0)
        frames = []
        gen = rng_stream(99, "test:det-p")
        for _ in range(10):
            p = project_bounded_simplex(gen.uniform(-0.4, 1.4, 5), 2)
            ens = update_ensemble(ens, quantize_probs(p, 8), rng)
            frames.append(ens.S.copy())
        return frames

    a, b = run(7), run(7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = run(8)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_marginal_distribution_over_seeds():
    """Following a uniformly chosen path realizes the quantized marginals."""
    pq = np.array([0.6, 0.3, 0.1])
    hits = np.zeros(3)
    runs = 10_000
    for s in range(runs):
        rng = rng_stream(s, "test:marginal")
        k_star = int(rng_stream(s, "test:marginal-k").integers(10))
        ens = SamplePathEnsemble.initial(K=10, N=3, M=1, k_star=k_star)
        ens = update_ensemble(ens, pq, rng)
        hits += ens.S[ens.k_star]
    freq = hits / runs
    se = np.sqrt(pq * (1 - pq) / runs)
    assert np.all(np.abs(freq - pq) <= 3 * se)


def test_update_rejects_unquantized_targets():
    ens = SamplePathEnsemble.initial(K=5, N=2, M=1, k_star=0)
    with pytest.raises(ValueError):
        update_ensemble(ens, np.array([0.3, 0.1]), rng_stream(0, "x"))


def test_wide_update_keeps_every_invariant():
    """N=1000, K=100, M=10: after each of 50 updates the column counts hit
    the target, every path fits, the carried sums and insertion count equal
    a recount of S, the input (S and its sums) is untouched, and the step
    inserts exactly the positive column deltas plus the overflow the column
    step left.  The column step ignores M and draws first, so an uncapped
    run on a copy of the generator shows the state before the repair."""
    K, N, M = 100, 1000, 10
    gen = rng_stream(6, "test:wide-targets")
    rng = rng_stream(6, "test:wide-update")
    ens = SamplePathEnsemble.initial(K, N, M, k_star=0)
    for _ in range(50):
        pq = quantize_probs(project_bounded_simplex(gen.uniform(-8, 1, N), M), K)
        before = ens.S.copy()
        uncapped = dataclasses.replace(ens, M=N)
        mid = update_ensemble(uncapped, pq, copy.deepcopy(rng)).S
        counts, loads = ens.counts.copy(), ens.loads.copy()
        nxt = update_ensemble(ens, pq, rng)
        target = np.rint(pq * K).astype(np.int64)
        assert np.array_equal(nxt.S.sum(axis=0), target)
        assert nxt.S.sum(axis=1).max() <= M
        assert np.array_equal(nxt.counts, nxt.S.sum(axis=0))
        assert np.array_equal(nxt.loads, nxt.S.sum(axis=1))
        assert nxt.insertions - ens.insertions == np.count_nonzero(nxt.S > ens.S)
        assert np.array_equal(ens.S, before)
        assert np.array_equal(ens.counts, counts)
        assert np.array_equal(ens.loads, loads)
        positive = np.maximum(target - before.sum(axis=0), 0).sum()
        overflow = np.maximum(mid.sum(axis=1) - M, 0).sum()
        inserted = np.count_nonzero(mid > before) + np.count_nonzero(nxt.S > mid)
        assert inserted == positive + overflow
        ens = nxt


@pytest.mark.parametrize("add", [True, False], ids=["addition", "drop"])
def test_column_step_picks_paths_uniformly(add):
    """One addition into a column with v vacant paths lands on each of them
    with frequency 1/v; one drop leaves each occupied path with 1/o."""
    K, runs = 10, 6000
    occupied = np.array([1, 0, 1, 0, 0, 1, 0, 0, 1, 0], dtype=np.int8)
    eligible = np.flatnonzero(occupied != add)
    step = 1 if add else -1
    pq = np.array([(occupied.sum() + step) / K])
    hits = np.zeros(K)
    for s in range(runs):
        ens = SamplePathEnsemble(M=1, S=occupied[:, None].copy(), k_star=0)
        nxt = update_ensemble(ens, pq, rng_stream(s, "test:column-uniform"))
        hits += np.abs(nxt.S[:, 0] - occupied)
    assert hits.sum() == runs
    assert not hits[occupied == add].any()
    p = 1 / eligible.size
    freq = hits[eligible] / runs
    assert np.all(np.abs(freq - p) <= 3 * np.sqrt(p * (1 - p) / runs))


def test_explicit_ensemble_derives_its_sums():
    S = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.int8)
    ens = SamplePathEnsemble(M=2, S=S, k_star=0)
    assert ens.K == 2 and ens.insertions == 0
    assert ens.counts.tolist() == [1, 0, 2]
    assert ens.loads.tolist() == [2, 1]
    nxt = update_ensemble(ens, np.array([0.5, 0.5, 0.5]), rng_stream(0, "test:explicit"))
    assert np.array_equal(nxt.counts, nxt.S.sum(axis=0))
    assert np.array_equal(nxt.loads, nxt.S.sum(axis=1))
    assert nxt.insertions == np.count_nonzero(nxt.S > S)
    assert ens.counts.tolist() == [1, 0, 2] and ens.loads.tolist() == [2, 1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        quantize_probs(np.array([0.5, bad]), 10)


@pytest.mark.parametrize("K", [0, -3, 2.5, "10"])
def test_quantize_refuses_bad_K(K):
    with pytest.raises(ValueError, match="K must be"):
        quantize_probs(np.array([0.5]), K)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_update_refuses_non_finite_targets(bad):
    """The refusal names the non-finite value and comes before any cast, so
    no RuntimeWarning is raised on the way."""
    ens = SamplePathEnsemble.initial(K=4, N=2, M=1, k_star=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            update_ensemble(ens, np.array([0.5, bad]), rng_stream(0, "x"))


@pytest.mark.parametrize("kw", [{"K": 4.0}, {"M": 1.5}, {"K": "4"}, {"M": np.float64(1)}])
def test_initial_refuses_non_integer_sizes(kw):
    with pytest.raises(ValueError, match="must be an integer"):
        SamplePathEnsemble.initial(**{"K": 4, "N": 3, "M": 1, "k_star": 0, **kw})
