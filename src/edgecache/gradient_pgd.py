"""Smoothed surrogate cost, its gradient, and projected gradient descent.

The true per-slot cost charges ``beta_n`` for any positive caching
increment, which is not differentiable.  The surrogate replaces that term
with a quadratic ramp of width ``gamma`` followed by a linear segment, both
inflated 3x so the surrogate also pays for the overhead the randomized
rounding step introduces:

    switch_hat(d) = (3 b / g) d^2   for 0 <= d <= g
                  = 3 b d           for d > g
                  = 0               for d < 0

Its derivative in the current slot's probability is ``g_vec`` below.  A
probability vector appears in its own slot's surrogate and the next slot's,
so the slot gradient couples three consecutive vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ArrivalTrace, CostModel, DimensionError, indicator_path
from .projection import project_bounded_simplex


def g_vec(a, b, beta: np.ndarray, gamma: float) -> np.ndarray:
    """Marginal surrogate switching cost of raising b given previous level a,
    elementwise over aligned service vectors.

    Piecewise in d = b - a: zero for d < 0, (6 beta / gamma) d on
    0 <= d <= gamma (the boundary d = gamma included), 3 beta beyond.
    """
    return _g_fast(np.subtract(b, a, dtype=float), 6.0 * beta / gamma, 3.0 * beta, gamma)


def _g_fast(d: np.ndarray, ramp_coef: np.ndarray, cap: np.ndarray,
            gamma: float) -> np.ndarray:
    # g_vec of d = b - a, with ramp_coef = 6 beta / gamma and cap = 3 beta
    # precomputed by callers that reuse them across sweeps
    return np.where(d < 0, 0.0, np.where(d <= gamma, ramp_coef * d, cap))


def aux_cost(p_cur, p_prev, lambda_row, cost: CostModel) -> float:
    """Surrogate slot cost: smoothed 3x switching plus exact forwarding."""
    pc = np.asarray(p_cur, dtype=float)
    pp = np.asarray(p_prev, dtype=float)
    lam = np.asarray(lambda_row, dtype=float)
    if not (pc.shape == pp.shape == lam.shape == cost.beta.shape):
        raise DimensionError("p_cur, p_prev, lambda_row and beta differ in length")
    d = pc - pp
    quad = (0 <= d) & (d <= cost.gamma)
    lin = d > cost.gamma
    switching = (np.sum(3.0 * cost.beta[quad] / cost.gamma * d[quad] ** 2)
                 + np.sum(3.0 * cost.beta[lin] * d[lin]))
    return float(switching + cost.alpha * np.dot(lam, 1.0 - pc))


def aux_cost_total(probs, trace: ArrivalTrace, cost: CostModel) -> float:
    """Surrogate cost summed over the horizon, starting from an empty cache."""
    probs = np.asarray(probs, dtype=float)
    total = 0.0
    prev = np.zeros(trace.N)
    for t in range(trace.T):
        total += aux_cost(probs[t], prev, trace.lam[t], cost)
        prev = probs[t]
    return total


@dataclass
class WindowState:
    """Mutable per-run PGD state, owned by exactly one policy run.

    ``P[tau]`` is the current iterate for slot tau (row 0 is the fixed
    empty-cache slot 0); ``Pbar[tau]`` is the value ``P[tau]`` had before
    its most recent update, which later slots' backward terms read so that
    every slot sees neighbors with the same number of completed updates.
    """

    P: np.ndarray      # (T + 1, N), row tau = slot tau, row 0 all zero
    Pbar: np.ndarray   # same shape

    @classmethod
    def empty(cls, T: int, N: int) -> "WindowState":
        return cls(P=np.zeros((T + 1, N)), Pbar=np.zeros((T + 1, N)))

    @property
    def horizon(self) -> int:
        return self.P.shape[0] - 1


def window_gradient(state: WindowState, tau: int, lam_row, cost: CostModel) -> np.ndarray:
    """Gradient of the window objective in the slot-tau probability vector.

    Backward term reads the pre-update snapshot of slot tau - 1; the forward
    term reads the already-updated slot tau + 1 and is dropped at the final
    slot of the horizon.
    """
    T = state.horizon
    if not (1 <= tau <= T):
        raise ValueError(f"slot {tau} outside the horizon [1, {T}]")
    lam = np.asarray(lam_row, dtype=float)
    grad = (g_vec(state.Pbar[tau - 1], state.P[tau], cost.beta, cost.gamma)
            - cost.alpha * lam)
    if tau < T:
        grad = grad - g_vec(state.P[tau], state.P[tau + 1], cost.beta, cost.gamma)
    return grad


def pgd_window_update(state: WindowState, lam_window: np.ndarray,
                      cost: CostModel, t: int, W: int) -> WindowState:
    """One descending sweep of window slots [max(1, t), t + W - 1].

    ``lam_window`` row i holds the (possibly predicted) arrivals for slot
    t + i.  Slots beyond the horizon are skipped.  Updates run strictly in
    descending slot order; each slot snapshots itself into ``Pbar`` before
    stepping, then projects back onto the feasible set.
    """
    T = state.horizon
    hi = min(t + W - 1, T)
    lo = max(1, t)
    if hi < lo:
        return state
    gamma, eta, M = cost.gamma, cost.eta, cost.M
    ramp_coef = 6.0 * cost.beta / gamma
    cap = 3.0 * cost.beta
    fwd_pressure = cost.alpha * lam_window            # one multiply per sweep
    P, Pbar = state.P, state.Pbar
    for tau in range(hi, lo - 1, -1):
        p = P[tau]
        grad = _g_fast(p - Pbar[tau - 1], ramp_coef, cap, gamma) \
            - fwd_pressure[tau - t]
        if tau < T:
            grad -= _g_fast(P[tau + 1] - p, ramp_coef, cap, gamma)
        Pbar[tau] = p
        P[tau] = project_bounded_simplex(p - eta * grad, M)
    return state


def offline_pgd(trace: ArrivalTrace, cost: CostModel, iterations: int) -> np.ndarray:
    """Full-horizon synchronous PGD on the surrogate objective.

    Every slot starts from the previous slot's top-M indicator, then all
    slots step together for the given number of iterations, each sweep
    using only the previous sweep's values and projecting all T rows in one
    batched call.  Returns the (T, N) matrix of final probability vectors.
    """
    T, N = trace.T, trace.N
    theta = indicator_path(trace, cost.M).astype(float)
    Q = np.zeros((T + 1, N))
    Q[2:] = theta[:-1]  # slot t starts at the slot t-1 indicator; slot 1 at zero
    P = Q[1:]           # rows: slots 1..T, updated in place
    ramp_coef = 6.0 * cost.beta / cost.gamma
    cap = 3.0 * cost.beta
    pressure = cost.alpha * trace.lam
    diff = np.empty((T, N))
    step = np.empty((T, N))
    for _ in range(iterations):
        np.subtract(P, Q[:-1], out=diff)
        # slot t's switching derivative; slot t's forward term is the same
        # quantity at slot t + 1, absent at T
        g = _g_fast(diff, ramp_coef, cap, cost.gamma)
        np.subtract(g, pressure, out=step)
        step[:-1] -= g[1:]
        step *= cost.eta
        np.subtract(P, step, out=step)
        P[...] = project_bounded_simplex(step, cost.M)
    return P
