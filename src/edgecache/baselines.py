"""Comparison policies: receding/committed horizon control, the static
offline optimum, the exact dynamic offline optimum (small instances), and a
fractional stand-in for the dynamic optimum at scale.

Horizon control couples services only through the capacity constraint, so a
window is an exact 2-state DP per service, then a capacity repair per window
slot that keeps the M services with the largest window cost saving (ties toward
the lower index): a heuristic relaxation of the joint integer program, whose
gap on tiny windows the test suite measures.  Forwarding costs are never
negative, so the DP has a closed form.  It runs over blocks of about 8192
window-services, one window per slot and zero forwarding rows past the horizon,
once per block, from an uncached start: a window's start is only its cost of
being cached in its first slot, and a cached start, which costs nothing, caches
every slot up to the last one that forwards.  A block's windows come from one
``predict_window`` call over the block's starts, on an exact oracle when none
is given.  The uncached plan is a subset of the cached one, so the block
commits every window at once, as a doubling scan of the carried cache; the
first window over capacity is repaired alone and the scan restarts after it.
``rhc`` keeps the first rows, ``chc`` adds each window's plan for its start
into a vote sum.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .gradient_pgd import offline_pgd
from .model import (ArrivalTrace, CostModel, RunRecord, check_count,
                    check_forecasts, check_width, per_slot_costs,
                    running_total, top_m_indicator)
from .workloads import PredictionOracle

BLOCK_SIZE = 8192                                   # window-services per DP block


class InstanceTooLargeError(RuntimeError):
    """The exact dynamic program refuses instances over its budget."""


def solve_rhc_window(fwd: np.ndarray, g1) -> tuple:
    """Exact per-service 0/1-state DP over a (W, B, n) block of windows:
    ``fwd[i, b]`` is window b's forwarding cost alpha * lam_hat in its slot i
    (zero past the horizon), ``g1`` the cost of being cached in slot 0 (0 if
    cached before the window, else beta); ties resolve to not caching.
    As ``fwd >= 0`` (arrivals, clipped forecasts, alpha > 0), being cached
    through any slot costs ``g1``, so the DP is ``g0``, the cost through a slot
    ending uncached, and a plan caches slot i if g1 < g0 in some slot >= i.
    Returns the (W, B, n) bool plans and the (B, n) g0 of the last slot; see
    ``_saving`` for what a plan saves."""
    plan, g0 = np.empty(fwd.shape, dtype=bool), 0.0     # nothing spent before slot 0
    for i in range(len(fwd)):       # by rows: a fresh (W, B, n) g0 costs page faults
        g0 = fwd[i] + np.minimum(g0, g1)
        np.less(g1, g0, out=plan[i])
    return _suffix_or(plan), g0


def _suffix_or(plan: np.ndarray) -> np.ndarray:
    """OR each row of a bool ``plan`` with every row after it, in place."""
    for i in range(len(plan) - 2, -1, -1):      # a row loop: accumulate is ~25x slower
        plan[i] |= plan[i + 1]
    return plan


def _saving(total, g0, g1):
    """A plan's saving over never caching: the window's forwarding ``total``
    less the DP's cost of its best plan, min(g0, g1) at the last slot."""
    return total - np.minimum(g0, g1)


def _repair(plan: np.ndarray, saving: np.ndarray, M: int) -> np.ndarray:
    """Keep at most M cached services in each row of ``plan``, in place:
    those with the largest saving, ties toward the lower index."""
    order = np.argsort(-saving, kind="stable")
    ranked = plan[:, order]
    ranked[np.cumsum(ranked, axis=1) > M] = 0
    plan[:, order] = ranked
    return plan


def rhc_window_plan(lam_hat: np.ndarray, x_prev, cost: CostModel) -> np.ndarray:
    """Capacity-repaired plan of one window from the cache ``x_prev``, row i
    for window slot i: a one-window block and the repair."""
    lam_hat = np.asarray(lam_hat, dtype=float)
    if not np.all(lam_hat >= 0):
        raise ValueError("forecasts must be >= 0: the window DP needs "
                         "forwarding costs that are never negative or NaN")
    fwd, g1 = (cost.alpha * lam_hat)[:, None], np.where(x_prev > 0, 0.0, cost.beta)
    plan, g0 = solve_rhc_window(fwd, g1)
    return _repair(plan[:, 0], _saving(fwd.sum(axis=0), g0, g1)[0], cost.M).view(np.int8)


def _carry_scan(c: np.ndarray, k: np.ndarray, x0: np.ndarray, out: np.ndarray):
    """out[b] = c[b] | (out[b - 1] & k[b]) from out[-1] = x0, as a doubling
    scan of the maps x -> c | (x & k), which compose as (c1, k1) then
    (c2, k2) = (c2 | c1 & k2, k1 & k2); x0 enters through row 0."""
    out[:] = c
    out[0] |= x0 & k[0]
    k, d = k.copy(), 1
    while d < len(out):
        out[d:] |= out[:-d] & k[d:]
        if 2 * d < len(out):        # the last step needs no composed k
            k[d:] &= k[:-d]         # numpy reads overlapping inputs as before
        d *= 2


def check_window(W) -> None:
    """Refuse a horizon-control window that is not a whole number of slots >= 1."""
    if check_count("W", W) < 1:
        raise ValueError("horizon control needs a window of at least one slot")


def _horizon_control(trace: ArrivalTrace, cost: CostModel, W: int,
                     predictions: PredictionOracle | None, rows: int):
    """Yield (t0, plans) per block of windows t0 + 1 .. t0 + B: ``plans[i, b]``
    is row i < ``rows`` of window t0 + 1 + b's repaired plan.  Window t holds
    the forecasts of slots t .. min(t + W - 1, T) made at t, one oracle call
    per block (an exact oracle when ``predictions`` is None), and starts from
    the first row of the plan before."""
    check_width(trace, cost)
    check_forecasts(trace, predictions)
    check_window(W)
    if predictions is None:
        predictions = PredictionOracle(trace)
    T, N = trace.T, trace.N
    B, x_prev = max(1, BLOCK_SIZE // N), np.zeros(N, dtype=bool)
    for t0 in range(0, T, B):
        nb = min(B, T - t0)
        # the block's windows in one call, zero past the horizon
        fwd = predictions.predict_window(np.arange(t0 + 1, t0 + nb + 1), W)
        fwd *= cost.alpha
        plan0, g0 = solve_rhc_window(fwd, cost.beta)          # uncached start
        # cached start: g1 = 0 <= g0 = fwd[i], so it caches slot i if a slot >= i forwards
        plan1 = _suffix_or(fwd > 0)
        total = None                    # summed on the block's first repair
        # fwd >= 0 makes plan0 a subset of plan1 row by row, so a window that
        # starts from cache x plans p0 | (x & p1), and window b commits its
        # row 0 from x[b] into x[b + 1]; each row of a plan holds the next,
        # so a window over capacity is over it in row 0
        p0, p1 = plan0[:rows], plan1[:rows]
        x, s, span = np.empty((nb + 1, N), dtype=bool), 0, nb
        x[0] = x_prev
        while s < nb:
            e = min(nb, s + span)
            _carry_scan(p0[0, s:e], p1[0, s:e], x[s], x[s + 1: e + 1])
            # services per row, summed as bytes: a bool sum casts each one
            over = x[s + 1: e + 1].view(np.uint8).sum(axis=1, dtype=np.intp) > cost.M
            b = s + int(over.argmax())
            if not over[b - s]:         # none over capacity: scan on, further
                s, span = e, 2 * span
                continue
            # the first window over capacity is repaired alone, from x[b]; a
            # cached start saves the window's whole forwarding ``total``
            if total is None:
                total = fwd.sum(axis=0)
                uncached = _saving(total, g0, cost.beta)
            plan = _repair(p1[:, b] & x[b] | p0[:, b],
                           np.where(x[b], total[b], uncached[b]), cost.M)
            p0[:, b] = p1[:, b] = plan      # so p1 & x | p0 is the repaired plan
            x[b + 1] = plan[0]
            # rescan from the next window, as far as the gap to this repair
            s, span = b + 1, b + 1 - s
        # row 0 of each plan is the cache it commits, repairs included
        yield t0, x[None, 1:] if rows == 1 else p1 & x[:nb] | p0
        x_prev = x[nb]


def rhc_policy(trace: ArrivalTrace, cost: CostModel, W: int,
               predictions: PredictionOracle | None = None) -> RunRecord:
    """Receding horizon control: re-plan every slot, commit only the first."""
    decisions = np.zeros((trace.T, trace.N), dtype=np.int8)
    t0 = time.perf_counter()
    for t, plans in _horizon_control(trace, cost, W, predictions, rows=1):
        decisions[t: t + plans.shape[1]] = plans[0]
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return _record("rhc", trace, decisions, cost, runtime_ms,
                   config={"W": W, "policy": "rhc"})


def chc_policy(trace: ArrivalTrace, cost: CostModel, W: int,
               predictions: PredictionOracle | None = None) -> RunRecord:
    """Committed horizon control: slot t's decision is the average of the
    last W window plans' entries for slot t, costed fractionally."""
    T = trace.T
    decisions = np.zeros((T, trace.N))              # the vote sum, then its mean
    t0 = time.perf_counter()
    for t, plans in _horizon_control(trace, cost, W, predictions, rows=W):
        # the plan made at slot t + b holds slot t + b + k in its row k
        for k, row in enumerate(plans[: T - t]):
            decisions[t + k: t + k + len(row)] += row[: T - t - k]
    decisions /= np.minimum(np.arange(1, T + 1), W)[:, None]
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return _record("chc", trace, decisions, cost, runtime_ms,
                   config={"W": W, "policy": "chc"})


def sopt_policy(trace: ArrivalTrace, cost: CostModel) -> RunRecord:
    """Best static cache in hindsight: caching service n from slot 1 on saves
    alpha * (its total demand) - beta_n; the cache is the top M positive savings."""
    check_width(trace, cost)
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):        # running_total refuses an overflow
        saving = cost.alpha * trace.lam.sum(axis=0) - cost.beta
    decisions = np.tile(top_m_indicator(saving, cost.M), (trace.T, 1))
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return _record("sopt", trace, decisions, cost, runtime_ms,
                   config={"policy": "sopt"})


def exact_opt_dp(trace: ArrivalTrace, cost: CostModel) -> RunRecord:
    """Exact dynamic offline optimum by DP over cache sets of size <= M.

    State space is every subset of at most M services, so this refuses
    anything beyond desk scale.
    """
    check_width(trace, cost)
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

    with np.errstate(over="ignore"):        # running_total refuses an overflow
        slot_forward = cost.alpha * (trace.lam @ (1.0 - member).T)   # (T, S)
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
    """Fractional stand-in for the dynamic optimum: many synchronous PGD
    sweeps over the whole horizon, costed fractionally.  Caching is a
    min-cost flow, whose LP relaxation has integral optima, so no fractional
    plan costs less than the optimum: this is an upper reference."""
    check_width(trace, cost)
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
