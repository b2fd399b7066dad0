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

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .gradient_pgd import pgd_window_update, sweep_buffers
from .model import (ArrivalTrace, CostModel, RunRecord, running_total,
                    slot_cost, top_m_indicator)
from .sampler import (SamplePathEnsemble, decision_at, quantize_probs,
                      rng_stream, update_ensemble)
from .workloads import PredictionOracle


@dataclass
class RoscConfig:
    """Knobs of one policy run.

    gamma_policy "fixed" uses ``cost.gamma`` / ``cost.eta`` as given;
    "theorem" re-derives gamma = sqrt(H_T / T) and eta = gamma / (12 b*)
    from the supplied path-length and horizon hints.
    """

    cost: CostModel
    W: int = 10
    K: int = 100
    seed: int = 0
    gamma_policy: str = "fixed"
    path_length_hint: float | None = None
    horizon_hint: int | None = None

    def __post_init__(self):
        if self.W < 0:
            raise ValueError("prediction window W must be nonnegative")
        if self.K < 1:
            raise ValueError("K must be a positive integer")
        if self.gamma_policy not in ("fixed", "theorem"):
            raise ValueError("gamma_policy must be 'fixed' or 'theorem'")
        if self.gamma_policy == "theorem" and (
                self.path_length_hint is None or self.horizon_hint is None):
            raise ValueError("theorem mode needs path_length_hint and horizon_hint")

    def effective_cost(self) -> CostModel:
        if self.gamma_policy == "fixed":
            return self.cost
        gamma = float(np.sqrt(self.path_length_hint / self.horizon_hint))
        if not (0 < gamma < 1):
            raise ValueError(
                f"theorem mode gives gamma={gamma:.4g} outside (0, 1); "
                "needs 0 < H_T < T")
        return replace(self.cost, gamma=gamma,
                       eta=gamma / (12.0 * self.cost.beta_star))

    def as_dict(self) -> dict:
        cost = self.effective_cost()
        return {
            "policy": "rosc",
            "alpha": cost.alpha,
            "beta_star": cost.beta_star,
            "M": cost.M,
            "gamma": cost.gamma,
            "eta": cost.eta,
            "W": self.W,
            "K": self.K,
            "seed": self.seed,
            "gamma_policy": self.gamma_policy,
        }


def run_rosc(trace: ArrivalTrace, config: RoscConfig,
             predictions: PredictionOracle | None = None) -> RunRecord:
    """Execute the policy over the whole trace and return its record.

    ``predictions`` defaults to an exact oracle on the true trace.  The
    record's ``extras`` carry the pre-rounding probability trace
    (``fractional``), the followed path, and the ensemble-average insertion
    count.
    """
    cost = config.effective_cost()
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
    for t in range(2, T + 1):
        Q[t] = top_m_indicator(lookahead[t - 2], cost.M)
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


def write_effective_config(out_dir, config: dict) -> None:
    """Drop the fully resolved configuration next to a run's outputs."""
    with open(f"{out_dir}/effective_config.json", "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
