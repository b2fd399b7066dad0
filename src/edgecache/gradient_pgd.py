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
so the slot gradient couples three consecutive vectors.  One sweep,
``pgd_window_update``, steps every slot at once from the previous sweep:
``rosc`` seeds the slots, runs W sweeps (its online window updates, by
Lemma 1) and rounds once; ``offline_pgd`` sweeps on the true arrivals.
"""

from __future__ import annotations

import numpy as np

from .model import (ArrivalTrace, CostModel, per_slot_costs, running_total,
                    top_m_indicator)
from .projection import project_bounded_simplex
from .rowsplit import split_rows


def g_vec(d, beta: np.ndarray, gamma: float, out=None, mask=None) -> np.ndarray:
    """Marginal surrogate switching cost of a raise d = b - a over the
    previous level a, elementwise: zero for d < 0, (6 beta / gamma) d on
    0 <= d <= gamma (the boundary d = gamma included), 3 beta beyond.
    ``out`` (float) and ``mask`` (bool) are optional buffers shaped like d.
    maximum(0.0, d) returns d on tied zeros, so d = -0.0 gives -0.0."""
    out = np.maximum(0.0, d, out=out)
    np.multiply(out, 6.0 * beta / gamma, out=out)
    np.copyto(out, 3.0 * beta, where=np.greater(d, gamma, out=mask))
    return out


def aux_cost_total(probs, trace: ArrivalTrace, cost: CostModel) -> float:
    """Surrogate cost summed over the horizon, starting from an empty cache:
    exact forwarding plus the smoothed 3x switching of each raise d > 0,
    3 beta (min(d, gamma)^2 / gamma + d - min(d, gamma))."""
    forward, _ = per_slot_costs(trace, probs, cost)
    d = np.maximum(np.diff(probs, axis=0, prepend=0.0), 0.0)
    ramp = np.minimum(d, cost.gamma)
    switch = (ramp ** 2 / cost.gamma + d - ramp) @ (3.0 * cost.beta)
    return running_total(forward, switch)


def sweep_buffers(T: int, N: int) -> tuple:
    """The step, derivative and branch-mask scratch arrays
    ``pgd_window_update`` takes, allocated once per run."""
    return np.empty((T, N)), np.empty((T, N)), np.empty((T, N), dtype=bool)


def pgd_window_update(Q: np.ndarray, pressure: np.ndarray, cost: CostModel,
                      buffers: tuple) -> None:
    """One synchronous projected-gradient update of every slot, in place.

    ``Q`` is the (T + 1, N) iterate, row t slot t and row 0 the empty slot
    0; ``pressure`` the (T, N) forwarding pressure alpha * lam to charge.
    Slot t steps from the previous values of slots t - 1, t and t + 1
    (none after T); all T rows are projected in one batched call.  The
    steps run in ``split_rows`` chunks of rows; a chunk's last slot reads
    the next slot's derivative, which that chunk computes once more."""
    step, g, mask = buffers
    P = Q[1:]

    def descend(a, b):
        p, s, d = P[a:b], step[a:b], g[a:b]
        np.subtract(p, Q[a:b], out=s)
        # slot t's switching derivative; slot t's forward term is the same
        # quantity at slot t + 1
        g_vec(s, cost.beta, cost.gamma, out=d, mask=mask[a:b])
        np.subtract(d, pressure[a:b], out=s)
        s[:-1] -= d[1:]
        if b < len(P):
            s[-1] -= g_vec(P[b] - Q[b], cost.beta, cost.gamma)
        s *= cost.eta
        np.subtract(p, s, out=s)

    split_rows(descend, *P.shape)
    project_bounded_simplex(step, cost.M, out=P)


def offline_pgd(trace: ArrivalTrace, cost: CostModel, iterations: int) -> np.ndarray:
    """Full-horizon synchronous PGD on the surrogate objective: every slot
    starts from the previous slot's top-M indicator (slot 1 empty), then
    ``iterations`` sweeps run on the true arrivals.  Returns the (T, N)
    matrix of final probability vectors."""
    T, N = trace.T, trace.N
    Q = np.zeros((T + 1, N))
    Q[2:] = top_m_indicator(trace.lam[:-1], cost.M)
    pressure = cost.alpha * trace.lam
    buffers = sweep_buffers(T, N)
    for _ in range(iterations):
        pgd_window_update(Q, pressure, cost, buffers)
    return Q[1:]
