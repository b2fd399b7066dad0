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

import math
from dataclasses import dataclass, asdict

import numpy as np

from .model import ArrivalTrace, check_count, check_real
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


def _check_zipf(exponent, ranks: int) -> None:
    """Refuse a Zipf exponent whose ``ranks`` shares would not add up in
    float64: a negative one makes the last share, ranks ** -exponent, the
    largest, and their sum at most ranks ** (1 - exponent)."""
    top = math.log(np.finfo(float).max) - 1.0      # log of the largest sum, with slack
    low = 1.0 - top / math.log(ranks) if ranks > 1 else -math.inf
    check_real("zipf_exponent", exponent, low)


@dataclass(frozen=True)
class ReplacementParams:
    N: int
    T: int
    U: int = 200
    zipf_exponent: float = 0.8
    rank_lifetime_mean: float = 100.0
    num_ranks: int | None = None     # default: min(N // 2, 100), at least 1
    thinning: float | None = None    # keep-probability; None = exact totals

    def __post_init__(self):
        check_count("N", self.N, 1)
        check_count("T", self.T, 1)
        check_count("U", self.U, 0, 2**53)        # request totals exact in float64
        check_count("num_ranks", self.resolved_ranks(), 1, self.N)
        _check_zipf(self.zipf_exponent, self.resolved_ranks())
        if not (isinstance(self.rank_lifetime_mean, float)       # inf: never replaced
                and self.rank_lifetime_mean == math.inf):
            check_real("rank_lifetime_mean", self.rank_lifetime_mean, 0, open_low=True)
        if self.thinning is not None:
            check_real("thinning", self.thinning, 0, 1)

    def resolved_ranks(self) -> int:
        if self.num_ranks is not None:
            return self.num_ranks
        return max(1, min(self.N // 2, 100))


def gen_replacement(params: ReplacementParams, seed: int) -> ArrivalTrace:
    """Zipf ladder with randomly replaced rank occupants."""
    R = params.resolved_ranks()
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


# numpy's largest Poisson mean: rng.poisson refuses more, naming no parameter
POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass(frozen=True)
class PoissonParams:
    N: int
    T: int
    # (lifetime in slots, birth rate in services per slot) per group
    groups: tuple = ((10, 0.4), (50, 0.2), (100, 0.1), (500, 0.02), (1000, 0.01))
    per_service_volume: float = 2.0
    popularity_shape: float = 2.0    # Pareto shape of the per-service factor

    def __post_init__(self):
        check_count("N", self.N, 1)
        check_count("T", self.T, 1)
        if not (isinstance(self.groups, (tuple, list)) and all(
                isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in self.groups)):
            raise ValueError(f"groups must be (lifetime, rate) pairs, got {self.groups!r}")
        for i, (lifetime, rate) in enumerate(self.groups):
            check_real(f"groups[{i}] lifetime", lifetime, 0, open_low=True)
            check_real(f"groups[{i}] rate", rate, 0, POISSON_LAM_MAX)
        check_real("per_service_volume", self.per_service_volume, 0)
        check_real("popularity_shape", self.popularity_shape, 0, open_low=True)


def gen_poisson(params: PoissonParams, seed: int) -> ArrivalTrace:
    """Group-structured births with finite lifetimes and noisy volumes."""
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
            # in Python floats, where 0 * an inf factor is NaN without a warning
            if not float(params.per_service_volume) * float(factors.max()) <= POISSON_LAM_MAX:
                raise ValueError(
                    f"popularity_shape={params.popularity_shape!r} and per_service_volume="
                    f"{params.per_service_volume!r} give slot {t + 1} a Poisson mean past "
                    f"numpy's limit {POISSON_LAM_MAX:.4g}")
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

    def __post_init__(self):
        check_count("N", self.N, 2)
        check_count("M", self.M, 1, self.N - 1)     # M + 1 rankable services
        check_count("T", self.T, 1)
        check_count("U", self.U, 0, 2**53)
        _check_zipf(self.zipf_exponent, self.ranks())
        check_real("blips_per_sqrt", self.blips_per_sqrt, 0)

    def ranks(self) -> int:
        """Services on the ladder: the top M and at least two below them."""
        return min(self.N, max(2 * self.M, self.M + 2))


def gen_sqrt_churn(params: SqrtChurnParams, seed: int) -> ArrivalTrace:
    R = params.ranks()
    rng = rng_stream(seed, "workload:sqrt_churn")
    shares = np.arange(1, R + 1, dtype=float) ** (-params.zipf_exponent)
    base = _largest_remainder(params.U, shares)
    # strictly decreasing integer counts keep the top-M ordering unambiguous
    rank_requests = (base + np.arange(R, 0, -1)).astype(float)

    ladder = rng.permutation(params.N)[:R]
    # from 2T blips on every slot is one (gap < 1/2), so more change nothing
    root = np.sqrt(params.T)
    n_blips = max(1, int(round(min(params.blips_per_sqrt, 2 * root) * root)))
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


def _rows(a: np.ndarray, rows, cols) -> np.ndarray:
    """``a[rows]`` for an integer or an array of row indices, of the columns
    ``cols`` only when given: the band of rows they span is cut to ``cols``
    first, so no other column is copied."""
    if cols is None:
        return np.take(a, rows, axis=0)
    lo, hi = (np.min(rows), np.max(rows) + 1) if np.size(rows) else (0, 0)
    band = np.take(a[lo: hi], cols, axis=1)
    return np.take(band, rows - lo, axis=0)


class PredictionOracle:
    """Multiplicative random-walk noise on future arrivals.

    The forecast of slot ``t`` made at slot ``tau <= t`` is
    ``lam_t * (1 + R * (e(tau) + ... + e(t)))`` clamped at zero.  The noise
    rows ``e(1) .. e(T)``, one standard normal per service and slot, come from
    one stream seeded by ``seed``; they are drawn once per oracle, on its first
    noisy query, and kept as their running sums ``C`` (``C[0] = 0``), so every
    walk is ``C[t] - C[tau - 1]``.  Forecasts therefore do not depend on the
    order they are asked in, and re-asking about a slot from closer by shrinks
    its walk.  No noise precedes slot 1: a forecast made at tau < 1 equals the
    one made at slot 1.  Past slots (t < tau) return the true, already
    observed arrivals; slots outside 1 .. T return zero.  ``R = 0`` is an
    exact oracle and draws no noise.
    """

    def __init__(self, trace: ArrivalTrace, R: float = 0.0, seed: int = 0):
        self.trace = trace
        self.R = check_real("noise weight R", R, 0)
        self.seed = check_count("seed", seed, high=math.inf)
        self._sums = None           # C, drawn on the first noisy query

    def _forecast(self, t, tau, services=None) -> np.ndarray:
        """Forecasts of slots ``t`` made at ``tau`` (integers or arrays that
        broadcast), one row of N per pair (of the columns ``services`` when
        given): ``max(lam_t * (1 + R * (C[t] - C[max(tau, 1) - 1])), 0)``, the
        walk of a past slot zero, and zero outside 1 .. T."""
        T = self.trace.T
        # t clipped into 1 .. T: np.clip and take's mode="clip" cost more
        s = np.minimum(np.maximum(t, 1), T)
        out = _rows(self.trace.lam, s - 1, services)
        if self.R != 0.0:
            if self._sums is None:
                self._sums = np.zeros((T + 1, self.trace.N))
                noise = rng_stream(self.seed, "prediction-noise").standard_normal(
                    (T, self.trace.N))
                np.cumsum(noise, axis=0, out=self._sums[1:])
            # one base row per forecast time, broadcast over its slots
            u = np.minimum(np.maximum(tau, 1) - 1, T)
            walk = _rows(self._sums, s, services)
            walk -= _rows(self._sums, u, services)
            walk[s <= u] = 0.0      # past slots
            walk *= self.R
            walk += 1.0
            out *= walk
            np.maximum(out, 0.0, out=out)
        out[s != t] = 0.0       # slots outside 1 .. T
        return out

    def predict_lead(self, lead: int) -> np.ndarray:
        """(T, N) forecasts of every slot made ``lead`` slots ahead: row
        s - 1 equals ``predict_window(s - lead, lead + 1)[-1]`` bit for bit."""
        check_count("lead", lead, low=0)
        if self.R == 0.0:
            return self.trace.lam
        slots = np.arange(1, self.trace.T + 1)
        return self._forecast(slots, slots - lead)

    def predict_row(self, t: int, tau: int) -> np.ndarray:
        """Forecast the whole arrival vector of slot t as seen from tau."""
        check_count("t", t)
        check_count("tau", tau)
        return self._forecast(t, tau)

    def predict_window(self, tau, W: int, *, services=None) -> np.ndarray:
        """(W, N) forecasts of slots tau .. tau + W - 1, all made at tau; for
        a 1-D array of B starts, the (W, B, N) block of those windows, window b
        in column b.  ``services``, a 1-D array of service indices, keeps only
        those columns, in that order, bit for bit as in the full forecast;
        the default is every service."""
        starts = np.asarray(tau)
        if starts.ndim > 1 or starts.dtype.kind not in "iu":
            raise ValueError(f"tau must be an integer or a 1-D array of integers, got {tau!r}")
        check_count("W", W, low=0)
        if services is not None:
            services = np.asarray(services)
            if (services.ndim != 1 or services.dtype.kind not in "iu"
                    or not np.all((services >= 0) & (services < self.trace.N))):
                raise ValueError("services must be a 1-D array of service indices "
                                 f"in 0 .. {self.trace.N - 1}, got {services!r}")
        starts = starts.astype(np.int64, copy=False)
        return self._forecast(np.add.outer(np.arange(W), starts), starts, services)
