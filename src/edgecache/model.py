"""Domain types and cost accounting for edge service caching.

Conventions used throughout the package:

* Time slots are 1-indexed in all docs and file formats; ``ArrivalTrace.lam``
  row ``i`` holds slot ``i + 1``.  Every quantity at slots t <= 0 is zero.
* Caching decisions are plain numpy vectors of length N.  Binary decisions
  use {0,1} entries; fractional decisions live in the bounded simplex
  ``{p in [0,1]^N : sum(p) <= M}``.
* All types are values: nothing here mutates its inputs, so everything is
  safe to share across worker processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FEAS_TOL = 1e-9  # numerical slack on the capacity constraint sum(p) <= M


class DimensionError(ValueError):
    """Vector/matrix length mismatch between related arguments."""


def check_count(name: str, value) -> None:
    """Refuse a size that is not a Python or numpy integer (2.5, "3")."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CostModel:
    """Pricing and algorithm parameters shared by every policy.

    alpha:  cost per forwarded request.
    beta:   per-service instantiating cost, length N.
    M:      cache capacity (number of services), 1 <= M <= N.
    gamma:  smoothing width of the surrogate switching cost, in (0, 1).
    """

    alpha: float
    beta: np.ndarray
    M: int
    gamma: float = 0.05

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        for name, value in (("alpha", self.alpha), ("beta", beta), ("gamma", self.gamma)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if beta.ndim != 1 or beta.size == 0 or np.any(beta <= 0):
            raise ValueError("beta must be a vector of positive costs")
        if not (0 < self.gamma < 1):
            raise ValueError("gamma must lie in (0, 1)")
        check_count("M", self.M)
        if not (1 <= self.M <= beta.size):
            raise ValueError(f"M={self.M} outside [1, N={beta.size}]")

    @property
    def eta(self) -> float:
        """Gradient step size gamma / (12 b*), the one Theorem 1 assumes."""
        return self.gamma / (12.0 * self.beta_star)

    @property
    def beta_star(self) -> float:
        return float(np.max(self.beta))

    @property
    def n_services(self) -> int:
        return int(self.beta.size)

    @classmethod
    def uniform(cls, alpha: float, beta_star: float, n_services: int, M: int,
                gamma: float = 0.05) -> "CostModel":
        """All services share the same instantiating cost beta_star."""
        return cls(alpha=alpha, beta=np.full(n_services, float(beta_star)),
                   M=M, gamma=gamma)


@dataclass(frozen=True)
class ArrivalTrace:
    """Request counts per slot and service: ``lam[t-1, n]`` requests for
    service n in slot t.  ``U`` is the declared per-slot total cap, if any."""

    lam: np.ndarray
    U: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 2 or lam.shape[0] < 1 or lam.shape[1] < 1:
            raise DimensionError(f"trace must be a T x N matrix, got {lam.shape}")
        if not np.isfinite(lam).all():
            raise ValueError("lam must hold finite arrival counts")
        if np.any(lam < 0):
            raise ValueError("arrival counts must be nonnegative")
        if self.U is not None and np.any(lam.sum(axis=1) > self.U + FEAS_TOL):
            raise ValueError("a slot exceeds the declared per-slot cap U")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def T(self) -> int:
        return int(self.lam.shape[0])

    @property
    def N(self) -> int:
        return int(self.lam.shape[1])

    def slot(self, t: int) -> np.ndarray:
        """Arrival row for 1-indexed slot t; zeros outside [1, T]."""
        if 1 <= t <= self.T:
            return self.lam[t - 1]
        return np.zeros(self.N)

    def max_slot_total(self) -> float:
        return float(self.lam.sum(axis=1).max())


def slot_cost(lambda_row, x_prev, x_cur, cost: CostModel) -> tuple[float, float]:
    """(forwarding, switching) pair for one slot: alpha * sum_n lambda_n *
    (1 - x_n) and sum_n beta_n * max(x_n - x_prev_n, 0), with x = x_cur
    possibly fractional in [0,1]; evictions are free."""
    lam, xp, xc = (np.asarray(v, dtype=float) for v in (lambda_row, x_prev, x_cur))
    if not (lam.shape == xp.shape == xc.shape == cost.beta.shape):
        raise DimensionError("lambda_row, x_prev, x_cur and beta differ in shape")
    return (float(cost.alpha * np.dot(lam, 1.0 - xc)),
            float(np.dot(cost.beta, np.maximum(xc - xp, 0.0))))


def total_cost_F(trace: ArrivalTrace, decisions, cost: CostModel) -> float:
    """Total cost of a decision sequence over the whole horizon.

    ``decisions`` is a length-T sequence of vectors (binary or fractional);
    the slot-0 cache is empty, so slot 1 pays instantiation for everything
    it caches.
    """
    return running_total(*per_slot_costs(trace, decisions, cost))


def per_slot_costs(trace: ArrivalTrace, decisions, cost: CostModel):
    """Per-slot (forwarding, switching) arrays for a decision sequence:
    ``slot_cost`` of every slot at once, from an empty slot-0 cache."""
    dec = np.asarray(decisions, dtype=float)
    if dec.shape != (trace.T, trace.N):
        raise DimensionError(f"decisions shape {dec.shape} != {(trace.T, trace.N)}")
    fwd = cost.alpha * np.einsum("tn,tn->t", trace.lam, 1.0 - dec)
    sw = np.maximum(np.diff(dec, axis=0, prepend=0.0), 0.0) @ cost.beta
    return fwd, sw


def running_total(forward, switch) -> float:
    """Sum of per-slot costs, added slot after slot: adding a run's CSV rows
    in order gives the same float."""
    return float(np.cumsum(forward + switch)[-1])


def top_m_indicator(lam, M: int) -> np.ndarray:
    """0/1 marks of the M most-requested services of one slot, or of every
    row of a (T, N) matrix.

    Ties break toward the lower service index.  Services with zero demand
    are never marked, so fewer than M entries may be set.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim not in (1, 2):
        raise DimensionError(f"lam must be a vector or a T x N matrix, got {lam.shape}")
    if M > lam.shape[-1]:
        raise ValueError(f"M={M} exceeds the number of services {lam.shape[-1]}")
    # Stable sort on the negated rows: equal counts keep index order.
    top = np.argsort(-lam, axis=-1, kind="stable")[..., :M]
    theta = np.zeros(lam.shape, dtype=np.int8)
    np.put_along_axis(theta, top, np.take_along_axis(lam, top, axis=-1) > 0, axis=-1)
    return theta


def path_length(trace: ArrivalTrace, M: int) -> float:
    """Cumulative L1 churn of the top-M indicator, starting from empty."""
    theta = top_m_indicator(trace.lam, M)
    return float(np.abs(np.diff(theta, axis=0, prepend=0)).sum())


def in_bounded_simplex(p, M: int, tol: float = FEAS_TOL) -> bool:
    """True when p is a feasible fractional caching vector."""
    v = np.asarray(p, dtype=float)
    return bool(np.all(v >= -tol) and np.all(v <= 1 + tol) and v.sum() <= M + tol)


# ---------------------------------------------------------------------------
# Trace serialization: CSV with header t,s1,...,sN plus a JSON sidecar.
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    # integers print without a decimal point; floats use shortest round-trip
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


def save_trace(trace: ArrivalTrace, csv_path) -> Path:
    """Write the trace CSV and its JSON sidecar; returns the sidecar path."""
    csv_path = Path(csv_path)
    cols = [f"s{i + 1}" for i in range(trace.N)]
    with open(csv_path, "w") as fh:
        fh.write("t," + ",".join(cols) + "\n")
        for t in range(trace.T):
            fh.write(str(t + 1) + "," + ",".join(_fmt(v) for v in trace.lam[t]) + "\n")
    sidecar = csv_path.with_suffix(".json")
    meta = dict(trace.meta)
    doc = {
        "T": trace.T,
        "N": trace.N,
        "U": trace.U,
        "seed": meta.pop("seed", None),
        "generator": meta.pop("generator", None),
        "params": meta.pop("params", meta or None),
    }
    with open(sidecar, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar


def load_trace(csv_path) -> ArrivalTrace:
    """Read a trace CSV (and JSON sidecar, if present) back into memory."""
    csv_path = Path(csv_path)
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "t":
            raise ValueError(f"{csv_path}: expected header starting with 't'")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{csv_path}, line {lineno}: {len(cells)} columns, "
                                 f"the header has {len(header)}")
            try:
                t, *values = (float(v) for v in cells)
            except ValueError as exc:
                raise ValueError(f"{csv_path}, line {lineno}: {exc}") from None
            if t != len(rows) + 1:
                raise ValueError(f"{csv_path}, line {lineno}: slot t={cells[0]}, "
                                 f"expected {len(rows) + 1}")
            rows.append(values)
    lam = np.asarray(rows, dtype=float)
    U = None
    meta: dict = {}
    sidecar = csv_path.with_suffix(".json")
    if sidecar.exists():
        with open(sidecar) as fh:
            doc = json.load(fh)
        U = doc.get("U")
        meta = {k: doc.get(k) for k in ("seed", "generator", "params")
                if doc.get(k) is not None}
    return ArrivalTrace(lam=lam, U=U, meta=meta)


@dataclass
class RunRecord:
    """Everything one policy execution produced, for reporting and replay.

    ``decisions`` is the (T, N) matrix of per-slot caching vectors (binary
    for integral policies, fractional otherwise).  ``extras`` carries
    policy-specific artifacts, e.g. the pre-rounding probability trace.
    """

    policy: str
    decisions: np.ndarray
    forward: np.ndarray
    switch: np.ndarray
    total_cost: float
    runtime_ms: float
    seed: int | None = None
    config: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def T(self) -> int:
        return int(self.decisions.shape[0])

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,forward_cost,switch_cost,total_cost\n")
            for t in range(self.T):
                f, s = self.forward[t], self.switch[t]
                fh.write(f"{t + 1},{_fmt(f)},{_fmt(s)},{_fmt(f + s)}\n")

    def summary(self) -> dict:
        return {
            "policy": self.policy,
            "config": self.config,
            "total_cost": self.total_cost,
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
