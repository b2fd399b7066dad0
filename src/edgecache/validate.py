"""Randomized validation suites behind the ``validate`` command.

Each suite returns a dict with at least ``{"pass": bool, "cases": int}``
plus suite-specific counters; the CLI aggregates them into a machine
readable report.  The same suites, at their contract sizes, form the bulk
of the acceptance test module.
"""

from __future__ import annotations

import numpy as np

from . import baselines
from .gradient_pgd import g_vec, offline_pgd
from .model import ArrivalTrace, CostModel, path_length, top_m_indicator
from .projection import project_bounded_simplex, project_bounded_simplex_oracle
from .rosc import RoscConfig, fractional_trace, run_rosc
from .sampler import (SamplePathEnsemble, expected_switching, quantize_probs,
                      rng_stream, update_ensemble)
from .bench import regret_bound, theorem_cost
from .workloads import PredictionOracle

PROJECTION_TOL = 1e-9   # fast projection vs. the KKT oracle, per entry
PARITY_TOL = 1e-9       # run_rosc vs. the step-by-step replay, per entry
INSERTION_SLACK = 1.05  # seed-averaged insertions may exceed 3x motion by 5%


def check_projection(cases: int = 10_000, seed: int = 0) -> dict:
    """Fast projection vs. exhaustive KKT oracle on random Gaussian inputs,
    one vector at a time and again as batches of the cases sharing (n, M),
    plus idempotence and non-expansiveness spot checks."""
    rng = rng_stream(seed, "validate:projection")
    worst = 0.0
    mismatches = 0
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    for _ in range(cases):
        n = int(rng.integers(2, 13))
        M = int(rng.integers(1, n + 1))
        z = rng.normal(rng.uniform(-1.0, 2.0), rng.uniform(0.25, 2.0), size=n)
        fast = project_bounded_simplex(z, M)
        exact = project_bounded_simplex_oracle(z, M)
        err = float(np.max(np.abs(fast - exact)))
        worst = max(worst, err)
        if err > PROJECTION_TOL:
            mismatches += 1
        inputs, answers = groups.setdefault((n, M), ([], []))
        inputs.append(z)
        answers.append(exact)
    batch_mismatches = 0
    for (n, M), (inputs, answers) in groups.items():
        rows = project_bounded_simplex(np.array(inputs), M)
        errs = np.max(np.abs(rows - np.array(answers)), axis=1)
        batch_mismatches += int(np.count_nonzero(errs > PROJECTION_TOL))
    idem_worst = 0.0
    nonexp_violations = 0
    for _ in range(min(cases, 2000)):
        n = int(rng.integers(2, 13))
        M = int(rng.integers(1, n + 1))
        z1 = rng.normal(0.5, 1.5, size=n)
        z2 = rng.normal(0.5, 1.5, size=n)
        y1 = project_bounded_simplex(z1, M)
        y2 = project_bounded_simplex(z2, M)
        idem_worst = max(idem_worst, float(np.max(np.abs(
            project_bounded_simplex(y1, M) - y1))))
        if np.linalg.norm(y1 - y2) > np.linalg.norm(z1 - z2) + 1e-12:
            nonexp_violations += 1
    ok = (mismatches == 0 and batch_mismatches == 0 and idem_worst <= 1e-12
          and nonexp_violations == 0)
    return {"pass": ok, "cases": cases, "mismatches": mismatches,
            "batch_mismatches": batch_mismatches,
            "worst_error": worst, "idempotence_worst": idem_worst,
            "nonexpansive_violations": nonexp_violations}


def _random_instance(rng, n_max=20, t_max=50, w_max=8):
    n = int(rng.integers(2, n_max + 1))
    T = int(rng.integers(3, t_max + 1))
    W = int(rng.integers(1, w_max + 1))
    M = int(rng.integers(1, min(n, 5) + 1))
    lam = rng.poisson(rng.uniform(1.0, 20.0), size=(T, n)).astype(float)
    trace = ArrivalTrace(lam=lam)
    beta_star = float(rng.uniform(1.0, 10.0))
    gamma = float(rng.uniform(0.02, 0.5))
    cost = CostModel.uniform(0.05, beta_star, n, M, gamma=gamma)
    return trace, cost, W


def online_pgd_reference(trace: ArrivalTrace, cost: CostModel, W: int,
                         predictions: PredictionOracle) -> np.ndarray:
    """Pre-rounding trace of the windowed online PGD replayed step by step,
    the reference ``run_rosc``'s sweeps must reproduce (Lemma 1): step t
    seeds slot t + W, then updates slots t + W - 1 down to t on forecasts
    made at t, each reading its predecessor's pre-update snapshot ``Pbar``."""
    T, N = trace.T, trace.N
    P = np.zeros((T + 1, N))
    Pbar = np.zeros((T + 1, N))
    for t in range(-W + 1, T + 1):
        window = predictions.predict_window(t, W) if W > 0 else None
        lookahead = window[W - 1] if W > 0 else predictions.predict_row(t - 1, t)
        if 1 <= t + W <= T:
            P[t + W] = top_m_indicator(lookahead, cost.M)
        for tau in range(min(t + W - 1, T), max(1, t) - 1, -1):
            grad = (g_vec(P[tau] - Pbar[tau - 1], cost.beta, cost.gamma)
                    - cost.alpha * window[tau - t])
            if tau < T:
                grad -= g_vec(P[tau + 1] - P[tau], cost.beta, cost.gamma)
            Pbar[tau] = P[tau]
            P[tau] = project_bounded_simplex(P[tau] - cost.eta * grad, cost.M)
    return P[1:]


def check_window_parity(instances: int = 50, seed: int = 0) -> dict:
    """Lemma 1: the pre-rounding trace of ``run_rosc`` must equal the
    step-by-step online replay elementwise, on exact and on noisy (R = 0.3)
    forecasts; on exact ones W offline full-horizon sweeps must too."""
    rng = rng_stream(seed, "validate:window-parity")
    worst = 0.0
    failures = 0
    for i in range(instances):
        trace, cost, W = _random_instance(rng)
        cfg = RoscConfig(cost=cost, W=W, K=10, seed=int(rng.integers(2**32)))
        err = 0.0
        for R in (0.0, 0.3):
            reference = online_pgd_reference(
                trace, cost, W, PredictionOracle(trace, R=R, seed=i))
            online = fractional_trace(run_rosc(
                trace, cfg, predictions=PredictionOracle(trace, R=R, seed=i)))
            err = max(err, float(np.max(np.abs(online - reference))))
            if R == 0.0:
                offline = offline_pgd(trace, cost, W)
                err = max(err, float(np.max(np.abs(offline - reference))))
        worst = max(worst, err)
        if err > PARITY_TOL:
            failures += 1
    return {"pass": failures == 0, "cases": instances,
            "failures": failures, "worst_error": worst}


def check_sampler(updates: int = 1000, seed: int = 0,
                  bound_seeds: int = 100) -> dict:
    """Ensemble invariants over random feasible targets, plus the insertion
    bound: seed-averaged insertions <= 3 * total positive quantized motion."""
    rng = rng_stream(seed, "validate:sampler")
    bad_marginal = bad_capacity = 0
    done = 0
    while done < updates:
        K = int(rng.choice([4, 10, 50, 100]))
        n = int(rng.integers(2, 31))
        M = int(rng.integers(1, min(n, 10) + 1))
        ens = SamplePathEnsemble.initial(K, n, M, k_star=0)
        steps = min(int(rng.integers(3, 12)), updates - done)
        for _ in range(steps):
            p = project_bounded_simplex(rng.uniform(-0.3, 1.3, size=n), M)
            pq = quantize_probs(p, K)
            ens = update_ensemble(ens, pq, rng)
            if not np.array_equal(ens.column_counts(),
                                  np.rint(pq * K).astype(np.int64)):
                bad_marginal += 1
            if int(ens.S.sum(axis=1).max()) > M:
                bad_capacity += 1
            done += 1

    # insertion bound, averaged over seeds on one fixed target sequence
    K, n, M, T = 10, 8, 3, 12
    seq_rng = rng_stream(seed, "validate:sampler-seq")
    targets = []
    for _ in range(T):
        p = project_bounded_simplex(seq_rng.uniform(-0.3, 1.3, size=n), M)
        targets.append(quantize_probs(p, K))
    motion = float(np.maximum(np.diff(targets, axis=0, prepend=0.0), 0.0).sum())
    totals = []
    for s in range(bound_seeds):
        run_rng = rng_stream(seed + 1000 + s, "validate:sampler-run")
        ens = SamplePathEnsemble.initial(K, n, M, k_star=0)
        frames = []
        for pq in targets:
            ens = update_ensemble(ens, pq, run_rng)
            frames.append(ens)
        totals.append(expected_switching(frames))
    mean_insertions = float(np.mean(totals))
    bound = 3.0 * motion * INSERTION_SLACK
    ok = bad_marginal == 0 and bad_capacity == 0 and mean_insertions <= bound
    return {"pass": ok, "cases": updates, "bad_marginal": bad_marginal,
            "bad_capacity": bad_capacity, "mean_insertions": mean_insertions,
            "insertion_bound": bound}


def _tiny_instance(rng):
    """Integer tidy-ladder trace with distinct per-slot counts and modest
    churn, sized for the exact dynamic program."""
    n = int(rng.integers(4, 9))
    M = int(rng.integers(1, 4))
    T = int(rng.integers(20, 41))
    base = 10 * np.arange(n, 0, -1) + rng.integers(0, 5)  # distinct integers
    ladder = list(rng.permutation(n))
    lam = np.zeros((T, n))
    for t in range(T):
        lam[t, ladder] = base
        if rng.random() < 0.15:  # occasional single-rank churn
            r = int(rng.integers(min(M + 1, n)))
            j = int(rng.integers(n))
            ladder[r], ladder[j] = ladder[j], ladder[r]
    return ArrivalTrace(lam=lam), M


def check_regret_ceiling(instances: int = 20, seeds: int = 100,
                         seed: int = 0) -> dict:
    """Seed-averaged regret against the exact dynamic optimum must sit
    below the theoretical ceiling evaluated at the measured path length."""
    rng = rng_stream(seed, "validate:ceiling")
    failures = 0
    checked = 0
    margins = []
    while checked < instances:
        trace, M = _tiny_instance(rng)
        H_T = path_length(trace, M)
        if not (0 < H_T < trace.T):
            continue
        cost = theorem_cost(CostModel.uniform(0.05, 2.0, trace.N, M), H_T, trace.T)
        W = int(rng.integers(1, 6))
        K = int(rng.choice([10, 20, 50]))
        opt = baselines.exact_opt_dp(trace, cost)
        totals = [run_rosc(trace, RoscConfig(cost=cost, W=W, K=K, seed=s)).total_cost
                  for s in range(seeds)]
        reg = float(np.mean(totals)) - opt.total_cost
        bound = regret_bound(cost, trace.N, trace.T,
                             trace.max_slot_total(), K, W, H_T)
        margins.append(bound - reg)
        if reg > bound:
            failures += 1
        checked += 1
    return {"pass": failures == 0, "cases": checked, "failures": failures,
            "min_margin": float(min(margins)) if margins else None}


# suite -> (function, the keyword arguments it takes)
CHECKS = {
    "projection": (check_projection, ("cases", "seed")),
    "lemma1": (check_window_parity, ("instances", "seed")),
    "sampler": (check_sampler, ("updates", "seed", "bound_seeds")),
    "theorem1": (check_regret_ceiling, ("instances", "seeds", "seed")),
}


def run_checks(names=None, **overrides) -> dict:
    """Run the named suites (all by default) and aggregate a report."""
    names = list(CHECKS) if not names else list(names)
    for key in ("cases", "instances", "updates", "seeds"):
        if overrides.get(key) is not None and overrides[key] < 1:
            raise ValueError(f"{key} must be at least 1, got {overrides[key]}")
    report = {"checks": {}, "pass": True}
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check '{name}'; available: {sorted(CHECKS)}")
        fn, params = CHECKS[name]
        result = fn(**{key: value for key, value in overrides.items()
                       if value is not None and key in params})
        report["checks"][name] = result
        report["pass"] = report["pass"] and result["pass"]
    return report
