"""Comparison policies: receding/committed horizon control, the static
offline optimum, the exact dynamic offline optimum (small instances), and a
fractional stand-in for the dynamic optimum at scale.

The horizon-control window problem couples services only through the
capacity constraint, so RHC here solves an exact 2-state dynamic program
per service and then repairs capacity per window slot by keeping the M
services with the largest window cost saving (ties toward the lower
index).  This is a heuristic relaxation of the joint integer program; its
gap on tiny windows is measured in the test suite.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .gradient_pgd import offline_pgd
from .model import (ArrivalTrace, CostModel, RunRecord, check_count,
                    per_slot_costs, running_total)
from .workloads import PredictionOracle


class InstanceTooLargeError(RuntimeError):
    """The exact dynamic program refuses instances over its budget."""


def solve_rhc_window(lam_hat: np.ndarray, x_prev: np.ndarray,
                     cost: CostModel) -> np.ndarray:
    """Capacity-repaired window plan; row i is the plan for window slot i.

    Per service: exact 0/1-state DP (forwarding while uncached, beta on a
    0 -> 1 flip, evictions free).  Then per window slot, keep at most M
    cached services, ranked by each service's DP saving over never caching.
    """
    span, N = lam_hat.shape
    fwd = cost.alpha * lam_hat                      # forwarding cost per slot if uncached
    g0, g1 = fwd[0], np.where(x_prev > 0, 0.0, cost.beta)
    # from0[i] / from1[i]: the best way into state 0 / 1 at slot i leaves state 1
    from0 = np.zeros((span, N), dtype=bool)
    from1 = np.zeros((span, N), dtype=bool)
    for i in range(1, span):
        from0[i], from1[i] = g1 < g0, g1 <= g0 + cost.beta
        g0, g1 = np.minimum(g0, g1) + fwd[i], np.minimum(g1, g0 + cost.beta)

    plan = np.empty((span, N), dtype=np.int8)
    state = g1 < g0                                 # ties resolve to not caching
    plan[span - 1] = state
    for i in range(span - 1, 0, -1):
        state = np.where(state, from1[i], from0[i])
        plan[i - 1] = state

    if plan.sum(axis=1).max() > cost.M:
        saving = fwd.sum(axis=0) - np.minimum(g0, g1)
        order = np.lexsort((np.arange(N), -saving))
        ranked = plan[:, order]
        ranked[np.cumsum(ranked, axis=1) > cost.M] = 0
        plan[:, order] = ranked
    return plan


def _horizon_plans(trace: ArrivalTrace, cost: CostModel, W: int,
                   predictions: PredictionOracle | None):
    """Yield slot t's window plan for t = 1 .. T, each solved from the
    first row of the plan before it (the RHC path).  The window holds slots
    t .. min(t + W - 1, T): trace rows, or forecasts made at t."""
    check_count("W", W)
    if W < 1:
        raise ValueError("horizon control needs a window of at least one slot")
    x_prev = np.zeros(trace.N)
    for t in range(1, trace.T + 1):
        span = min(W, trace.T - t + 1)
        lam_hat = (trace.lam[t - 1: t - 1 + span] if predictions is None
                   else predictions.predict_window(t, span))
        plan = solve_rhc_window(lam_hat, x_prev, cost)
        yield plan
        x_prev = plan[0]


def rhc_policy(trace: ArrivalTrace, cost: CostModel, W: int,
               predictions: PredictionOracle | None = None) -> RunRecord:
    """Receding horizon control: re-plan every slot, commit only the first."""
    decisions = np.zeros((trace.T, trace.N), dtype=np.int8)
    t0 = time.perf_counter()
    for t, plan in enumerate(_horizon_plans(trace, cost, W, predictions)):
        decisions[t] = plan[0]
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return _record("rhc", trace, decisions, cost, runtime_ms,
                   config={"W": W, "policy": "rhc"})


def chc_policy(trace: ArrivalTrace, cost: CostModel, W: int,
               predictions: PredictionOracle | None = None) -> RunRecord:
    """Committed horizon control: slot t's decision is the average of the
    last W window plans' entries for slot t, costed fractionally."""
    decisions = np.zeros((trace.T, trace.N))
    plans: list = []                                # oldest first; the last was made at t
    t0 = time.perf_counter()
    for t, plan in enumerate(_horizon_plans(trace, cost, W, predictions)):
        plans = (plans + [plan])[-W:]
        # the plan made k slots before t holds slot t in its row k
        votes = [p[len(plans) - 1 - i] for i, p in enumerate(plans)]
        decisions[t] = np.mean(votes, axis=0)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return _record("chc", trace, decisions, cost, runtime_ms,
                   config={"W": W, "policy": "chc"})


def sopt_policy(trace: ArrivalTrace, cost: CostModel) -> RunRecord:
    """Best static cache in hindsight: the top-M services by total demand
    among those whose total clears the instantiating threshold b*/alpha."""
    t0 = time.perf_counter()
    totals = trace.lam.sum(axis=0)
    threshold = cost.beta_star / cost.alpha
    order = np.lexsort((np.arange(trace.N), -totals))
    chosen = [n for n in order if totals[n] >= threshold][: cost.M]
    x = np.zeros(trace.N, dtype=np.int8)
    x[chosen] = 1
    decisions = np.tile(x, (trace.T, 1))
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return _record("sopt", trace, decisions, cost, runtime_ms,
                   config={"policy": "sopt"})


def exact_opt_dp(trace: ArrivalTrace, cost: CostModel) -> RunRecord:
    """Exact dynamic offline optimum by DP over cache sets of size <= M.

    State space is every subset of at most M services, so this refuses
    anything beyond desk scale.
    """
    T, N, M = trace.T, trace.N, cost.M
    if N > 10 or M > 4 or T > 50:
        raise InstanceTooLargeError(
            f"instance N={N}, M={M}, T={T} exceeds the exact-DP budget "
            "(N <= 10, M <= 4, T <= 50)")
    t0 = time.perf_counter()
    subsets = [frozenset(c) for m in range(M + 1)
               for c in itertools.combinations(range(N), m)]
    member = np.zeros((len(subsets), N))
    for i, s in enumerate(subsets):
        member[i, list(s)] = 1.0
    inst = member @ cost.beta                        # cost of caching each set from scratch
    pair_keep = (member * cost.beta) @ member.T      # beta mass shared by (prev, next)
    switch = inst[None, :] - pair_keep               # switch[i, j]: prev set i -> set j

    slot_forward = cost.alpha * (trace.lam.sum(axis=1)[:, None]
                                 - trace.lam @ member.T)   # (T, S)
    value = switch[0] + slot_forward[0]              # slot 1 from the empty set
    choice = np.zeros((T, len(subsets)), dtype=np.int32)
    for t in range(1, T):
        through = value[:, None] + switch
        choice[t] = np.argmin(through, axis=0)
        value = through[choice[t], np.arange(len(subsets))] + slot_forward[t]

    best = int(np.argmin(value))
    total = float(value[best])
    decisions = np.zeros((T, N), dtype=np.int8)
    s = best
    for t in range(T - 1, -1, -1):
        decisions[t] = member[s]
        s = int(choice[t][s]) if t > 0 else s
    runtime_ms = (time.perf_counter() - t0) * 1e3
    rec = _record("opt-dp", trace, decisions, cost, runtime_ms,
                  config={"policy": "opt-dp"})
    if not abs(rec.total_cost - total) < 1e-6 * max(1.0, abs(total)):
        raise RuntimeError(f"exact DP value {total!r} differs from the recount "
                           f"{rec.total_cost!r} of its decisions")
    return rec


def pseudo_opt(trace: ArrivalTrace, cost: CostModel, W_big: int = 300) -> RunRecord:
    """Fractional approximation of the dynamic optimum: many synchronous
    PGD sweeps over the whole horizon, costed fractionally.  A relaxation,
    so it can dip below the true integer optimum."""
    check_count("W_big", W_big, low=0)
    t0 = time.perf_counter()
    probs = offline_pgd(trace, cost, W_big)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return _record("pseudo-opt", trace, probs, cost, runtime_ms,
                   config={"policy": "pseudo-opt", "W_big": W_big})


def _record(policy: str, trace: ArrivalTrace, decisions, cost: CostModel,
            runtime_ms: float, config: dict) -> RunRecord:
    fwd, sw = per_slot_costs(trace, decisions, cost)
    return RunRecord(policy=policy, decisions=np.asarray(decisions),
                     forward=fwd, switch=sw, total_cost=running_total(fwd, sw),
                     runtime_ms=runtime_ms, config=config)
