"""Synthetic request workloads and the noisy prediction oracle.

Two trace families:

* ``gen_replacement`` -- a fixed ladder of popularity ranks with Zipf
  request shares; each rank's occupant is swapped for a random off-ladder
  service when its geometric dwell time expires.  Popularity ranking churns
  while the per-slot demand profile stays constant.
* ``gen_poisson`` -- services are born by per-group Poisson processes, live
  for their group's lifetime, and draw per-slot request volumes around a
  per-service popularity factor.

Both are pure functions of (params, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .model import ArrivalTrace
from .sampler import rng_stream


def _largest_remainder(total: int, shares: np.ndarray) -> np.ndarray:
    """Integer apportionment of ``total`` by ``shares``; sums exactly."""
    raw = shares / shares.sum() * total
    base = np.floor(raw).astype(np.int64)
    short = int(total - base.sum())
    if short > 0:
        # biggest fractional remainders win the leftover units, ties by rank
        order = np.lexsort((np.arange(raw.size), -(raw - base)))
        base[order[:short]] += 1
    return base


@dataclass(frozen=True)
class ReplacementParams:
    N: int
    T: int
    U: int = 200
    zipf_exponent: float = 0.8
    rank_lifetime_mean: float = 100.0
    num_ranks: int | None = None     # default: min(N // 2, 100), at least 1
    thinning: float | None = None    # keep-probability; None = exact totals

    def resolved_ranks(self) -> int:
        if self.num_ranks is not None:
            return self.num_ranks
        return max(1, min(self.N // 2, 100))


def gen_replacement(params: ReplacementParams, seed: int) -> ArrivalTrace:
    """Zipf ladder with randomly replaced rank occupants."""
    R = params.resolved_ranks()
    if not (1 <= R <= params.N):
        raise ValueError(f"num_ranks={R} outside [1, N={params.N}]")
    rng = rng_stream(seed, "workload:replacement")
    shares = np.arange(1, R + 1, dtype=float) ** (-params.zipf_exponent)
    rank_requests = _largest_remainder(params.U, shares)

    perm = rng.permutation(params.N)
    ladder = perm[:R].copy()                 # ladder[r] = service at rank r+1
    pool = list(perm[R:])                    # off-ladder services
    hazard = 0.0 if np.isinf(params.rank_lifetime_mean) else 1.0 / params.rank_lifetime_mean

    lam = np.zeros((params.T, params.N))
    for t in range(params.T):
        counts = rank_requests
        if params.thinning is not None:
            counts = rng.binomial(rank_requests, params.thinning)
        lam[t, ladder] = counts
        if hazard > 0.0 and pool:
            expired = np.flatnonzero(rng.random(R) < hazard)
            for r in expired:
                j = int(rng.integers(len(pool)))
                ladder[r], pool[j] = pool[j], ladder[r]
    return ArrivalTrace(
        lam=lam, U=float(params.U),
        meta={"generator": "replacement", "seed": seed, "params": asdict(params)})


@dataclass(frozen=True)
class PoissonParams:
    N: int
    T: int
    # (lifetime in slots, birth rate in services per slot) per group
    groups: tuple = ((10, 0.4), (50, 0.2), (100, 0.1), (500, 0.02), (1000, 0.01))
    per_service_volume: float = 2.0
    popularity_shape: float = 2.0    # Pareto shape of the per-service factor


def gen_poisson(params: PoissonParams, seed: int) -> ArrivalTrace:
    """Group-structured births with finite lifetimes and noisy volumes."""
    if any(lt <= 0 or rate < 0 for lt, rate in params.groups):
        raise ValueError("group lifetimes must be positive and rates nonnegative")
    rng = rng_stream(seed, "workload:poisson")
    free = list(range(params.N))             # FIFO: expired ids are recycled oldest-first
    active: dict[int, tuple[int, float]] = {}  # id -> (expiry slot, volume factor)

    lam = np.zeros((params.T, params.N))
    for t in range(params.T):
        for lifetime, rate in params.groups:
            if rate == 0.0:
                continue
            for _ in range(int(rng.poisson(rate))):
                if not free:
                    break  # catalog exhausted; drop the birth
                sid = free.pop(0)
                factor = 1.0 + rng.pareto(params.popularity_shape)
                active[sid] = (t + int(lifetime), factor)
        expired = [sid for sid, (end, _) in active.items() if end <= t]
        for sid in expired:
            del active[sid]
            free.append(sid)
        if active:
            ids = np.fromiter(active.keys(), dtype=np.int64)
            factors = np.array([active[s][1] for s in ids])
            lam[t, ids] = rng.poisson(params.per_service_volume * factors)
    U = float(lam.sum(axis=1).max())
    return ArrivalTrace(
        lam=lam, U=U,
        meta={"generator": "poisson", "seed": seed, "params": asdict(params)})


@dataclass(frozen=True)
class SqrtChurnParams:
    """Controlled family whose indicator path length grows like sqrt(T).

    A fixed ladder of distinct integer demands, plus ~sqrt(T) evenly spaced
    single-slot "blips" in which the two services around the top-M boundary
    trade places and revert.  Each blip moves the indicator twice, so
    H_T ~ 4 sqrt(T) while the demand profile itself stays stationary; a
    policy that chases every blip overpays instantiation, one that rides
    through loses only the small boundary demand gap.
    """

    N: int
    T: int
    M: int
    U: int = 120
    zipf_exponent: float = 0.8
    blips_per_sqrt: float = 1.0


def gen_sqrt_churn(params: SqrtChurnParams, seed: int) -> ArrivalTrace:
    R = min(params.N, max(2 * params.M, params.M + 2))
    if R < params.M + 1:
        raise ValueError("need at least M + 1 rankable services")
    rng = rng_stream(seed, "workload:sqrt_churn")
    shares = np.arange(1, R + 1, dtype=float) ** (-params.zipf_exponent)
    base = _largest_remainder(params.U, shares)
    # strictly decreasing integer counts keep the top-M ordering unambiguous
    rank_requests = (base + np.arange(R, 0, -1)).astype(float)

    ladder = rng.permutation(params.N)[:R]
    n_blips = max(1, int(round(params.blips_per_sqrt * np.sqrt(params.T))))
    gap = params.T / (n_blips + 1)
    blip_slots = {int(round(gap * (i + 1))) for i in range(n_blips)}

    swapped = rank_requests.copy()
    m = params.M
    swapped[m - 1], swapped[m] = swapped[m], swapped[m - 1]
    lam = np.zeros((params.T, params.N))
    for t in range(params.T):
        lam[t, ladder] = swapped if (t + 1) in blip_slots else rank_requests
    return ArrivalTrace(
        lam=lam, U=float(rank_requests.sum()),
        meta={"generator": "sqrt_churn", "seed": seed, "params": asdict(params)})


class PredictionOracle:
    """Multiplicative random-walk noise on future arrivals.

    The forecast of slot ``t`` made at slot ``tau <= t`` is
    ``lam * (1 + R * sum_{s=tau}^{t} e(s))`` clamped at zero, with one
    standard-normal draw ``e_n(s)`` per service and step, fixed per seed, so
    re-asking about the same slot from closer by shrinks the noise sum.
    Past slots (t < tau) return the true, already observed arrivals; slots
    outside the horizon return zero.  ``R = 0`` is an exact oracle.
    """

    def __init__(self, trace: ArrivalTrace, R: float = 0.0, seed: int = 0):
        if not (np.isfinite(R) and R >= 0):
            raise ValueError(f"noise weight R={R} must be finite and nonnegative")
        self.trace = trace
        self.R = float(R)
        self.seed = int(seed)
        self._rows: dict[int, np.ndarray] = {}

    def _noise(self, s: int) -> np.ndarray:
        row = self._rows.get(s)
        if row is None:
            row = rng_stream(self.seed, f"prediction-noise:{s}").standard_normal(self.trace.N)
            self._rows[s] = row
        return row

    def predict_lead(self, lead: int) -> np.ndarray:
        """(T, N) forecasts of every slot made ``lead`` slots ahead: row
        s - 1 equals ``predict_window(s - lead, lead + 1)[-1]`` bit for bit,
        from the same noise rows added in the same order."""
        if lead < 0:
            raise ValueError("lead must be nonnegative")
        if self.R == 0.0:
            return self.trace.lam
        T = self.trace.T
        noise = np.stack([self._noise(s) for s in range(1 - lead, T + 1)])
        walk = np.zeros((T, self.trace.N))
        for i in range(lead + 1):
            walk += noise[i: i + T]
        return np.maximum(self.trace.lam * (1.0 + self.R * walk), 0.0)

    def predict_row(self, t: int, tau: int) -> np.ndarray:
        """Forecast the whole arrival vector of slot t as seen from tau."""
        lam = self.trace.slot(t)
        if self.R == 0.0 or t < tau or not lam.any():
            return lam.copy() if 1 <= t <= self.trace.T else lam
        return self.predict_window(tau, t - tau + 1)[-1]

    def predict(self, n: int, t: int, tau: int) -> float:
        """Forecast for one service; repeated queries are consistent."""
        if not (0 <= n < self.trace.N):
            raise ValueError(f"service index {n} outside [0, {self.trace.N})")
        return float(self.predict_row(t, tau)[n])

    def predict_window(self, tau: int, W: int) -> np.ndarray:
        """(W, N) forecasts of slots tau .. tau + W - 1, all seen from tau."""
        out = np.zeros((W, self.trace.N))
        walk = np.zeros(self.trace.N)
        for i in range(W):
            t = tau + i
            if self.R != 0.0:
                walk += self._noise(t)
            lam = self.trace.slot(t)
            if 1 <= t <= self.trace.T:
                out[i] = np.maximum(lam * (1.0 + self.R * walk), 0.0)
        return out
