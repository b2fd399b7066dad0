"""The randomized online caching policy.

Each outer step t (starting W slots before the horizon so every slot gets a
full complement of window updates):

1. fetch the newest forecast, the arrivals of slot t + W - 1;
2. seed slot t + W's probability vector with that slot's top-M indicator;
3. sweep the window [t, t + W - 1] once with projected gradient descent on
   the smoothed surrogate cost (descending slot order);
4. once t >= 1, quantize slot t's probabilities, advance the sample-path
   ensemble to match them, and commit the followed path as the decision.

Decisions are always charged against the true arrivals, never forecasts.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .gradient_pgd import WindowState, pgd_window_update
from .model import (ArrivalTrace, CostModel, RunRecord, running_total,
                    slot_cost, top_m_indicator)
from .sampler import (SamplePathEnsemble, decision_at, pack_ensemble,
                      quantize_probs, rng_stream, update_ensemble)
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
        return self.cost.replace(gamma=gamma, eta=gamma / (12.0 * self.cost.beta_star))

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
             predictions: PredictionOracle | None = None,
             dump_path=None) -> RunRecord:
    """Execute the policy over the whole trace and return its record.

    ``predictions`` defaults to an exact oracle on the true trace.  The
    record's ``extras`` carry the pre-rounding probability trace
    (``fractional``), the followed path, and the ensemble-average insertion
    count.  With ``dump_path`` the per-slot ensembles are appended to a
    packed bitset file.
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

    state = WindowState.empty(T, N)
    ensemble = SamplePathEnsemble.initial(K, N, cost.M, k_star)
    decisions = np.zeros((T, N), dtype=np.int8)
    forward = np.zeros(T)
    switch = np.zeros(T)
    ens_insertions = 0
    prev_decision = np.zeros(N)
    dump = open(dump_path, "wb") if dump_path is not None else None

    t0 = time.perf_counter()
    try:
        for t in range(-W + 1, T + 1):
            if W > 0:
                window_hat = predictions.predict_window(t, W)
                lookahead = window_hat[W - 1]
            else:
                window_hat = None
                lookahead = predictions.predict_row(t - 1, t)
            theta_hat = top_m_indicator(lookahead, cost.M)
            if 1 <= t + W <= T:
                state.P[t + W] = theta_hat
            if W > 0:
                pgd_window_update(state, window_hat, cost, t, W)
            if t >= 1:
                prev_S = ensemble.S
                pq = quantize_probs(state.P[t], K)
                ensemble = update_ensemble(ensemble, pq, sampler_rng)
                ens_insertions += int(np.maximum(ensemble.S - prev_S, 0).sum())
                x = decision_at(ensemble)
                decisions[t - 1] = x
                forward[t - 1], switch[t - 1] = slot_cost(
                    trace.lam[t - 1], prev_decision, x, cost)
                prev_decision = x
                if dump is not None:
                    dump.write(pack_ensemble(ensemble.S))
    finally:
        if dump is not None:
            dump.close()
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
            "fractional": state.P[1:].copy(),
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
