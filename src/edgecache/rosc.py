"""The randomized online caching policy.

Online, slot t receives W projected-gradient updates on the smoothed
surrogate cost at steps t - W + 1 .. t; by Lemma 1 these equal W
synchronous sweeps over the whole horizon, which is how they run here:

1. seed slot t with the top-M indicator of slot t - 1's forecast made W
   slots before t (true arrivals when W = 0; slot 1 starts empty);
2. run W sweeps of ``pgd_window_update``, sweep j charging each slot's
   forecast made W - j slots ahead;
3. in one rounding pass, quantize every slot, advance the sample-path
   ensemble slot by slot to match, and commit the followed path.

Decisions are always charged against the true arrivals, never forecasts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .gradient_pgd import pgd_window_update, sweep_buffers
from .model import (ArrivalTrace, CostModel, RunRecord, check_count,
                    running_total, slot_cost, top_m_indicator)
from .sampler import (SamplePathEnsemble, decision_at, quantize_probs,
                      rng_stream, update_ensemble)
from .workloads import PredictionOracle


@dataclass
class RoscConfig:
    """Knobs of one policy run: the cost model (its ``gamma``, hence ``eta``,
    is used as given; ``bench.theorem_cost`` sets it as Theorem 1 does),
    the forecast window W, the K sample paths and the seed."""

    cost: CostModel
    W: int = 10
    K: int = 100
    seed: int = 0

    def __post_init__(self):
        check_count("W", self.W)
        check_count("K", self.K)
        if self.W < 0:
            raise ValueError("prediction window W must be nonnegative")
        if self.K < 1:
            raise ValueError("K must be a positive integer")

    def as_dict(self) -> dict:
        return {
            "policy": "rosc",
            "alpha": self.cost.alpha,
            "beta_star": self.cost.beta_star,
            "M": self.cost.M,
            "gamma": self.cost.gamma,
            "eta": self.cost.eta,
            "W": self.W,
            "K": self.K,
            "seed": self.seed,
        }


def run_rosc(trace: ArrivalTrace, config: RoscConfig,
             predictions: PredictionOracle | None = None) -> RunRecord:
    """Execute the policy over the whole trace and return its record.

    ``predictions`` defaults to an exact oracle on the true trace.  The
    record's ``extras`` carry the pre-rounding probability trace
    (``fractional``), the followed path, and the ensemble-average insertion
    count.
    """
    cost = config.cost
    T, N, W, K = trace.T, trace.N, config.W, config.K
    if cost.n_services != N:
        raise ValueError("cost model width differs from the trace")
    if predictions is None:
        predictions = PredictionOracle(trace, R=0.0)

    kstar_rng = rng_stream(config.seed, "rosc:kstar")
    sampler_rng = rng_stream(config.seed, "rosc:sampler")
    k_star = int(kstar_rng.integers(K))

    ensemble = SamplePathEnsemble.initial(K, N, cost.M, k_star)
    decisions = np.zeros((T, N), dtype=np.int8)
    forward = np.zeros(T)
    switch = np.zeros(T)
    ens_insertions = 0
    prev_decision = np.zeros(N)

    t0 = time.perf_counter()
    Q = np.zeros((T + 1, N))  # row t: slot t; row 0: the empty slot 0
    lookahead = (predictions.predict_lead(W - 1) if W > 0
                 else predictions.trace.lam)
    Q[2:] = top_m_indicator(lookahead[:-1], cost.M)
    pressure = np.empty((T, N))
    buffers = sweep_buffers(T, N)
    for lead in range(W - 1, -1, -1):
        np.multiply(predictions.predict_lead(lead), cost.alpha, out=pressure)
        pgd_window_update(Q, pressure, cost, buffers)

    p_quant = quantize_probs(Q[1:], K)
    for t in range(T):
        prev_S = ensemble.S
        ensemble = update_ensemble(ensemble, p_quant[t], sampler_rng)
        ens_insertions += int(np.count_nonzero(ensemble.S > prev_S))
        x = decision_at(ensemble)
        decisions[t] = x
        forward[t], switch[t] = slot_cost(trace.lam[t], prev_decision, x, cost)
        prev_decision = x
    runtime_ms = (time.perf_counter() - t0) * 1e3

    return RunRecord(
        policy="rosc",
        decisions=decisions,
        forward=forward,
        switch=switch,
        total_cost=running_total(forward, switch),
        runtime_ms=runtime_ms,
        seed=config.seed,
        config=config.as_dict(),
        extras={
            "fractional": Q[1:],
            "k_star": k_star,
            "ensemble_insertions_per_path": ens_insertions / K,
        },
    )


def fractional_trace(record: RunRecord) -> np.ndarray:
    """Pre-rounding probability vectors of a completed run, one row per slot."""
    if "fractional" not in record.extras:
        raise ValueError(f"record for policy '{record.policy}' has no fractional trace")
    return record.extras["fractional"]

