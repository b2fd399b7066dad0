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
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FEAS_TOL = 1e-9  # numerical slack on the capacity constraint sum(p) <= M


class DimensionError(ValueError):
    """Vector/matrix length mismatch between related arguments."""


INT64_MAX = int(np.iinfo(np.int64).max)


def _refuse(name: str, kind: str, value, low, high, open_low=False, open_high=False):
    span = ("(" if open_low or low == -math.inf else "[") + f"{low}, {high}" + (
        ")" if open_high or high == math.inf else "]")
    raise ValueError(f"{name} must be {kind} in {span}, got {value!r}")


def check_count(name: str, value, low=-math.inf, high=INT64_MAX) -> int:
    """``value`` as an int: a Python or numpy integer (not a bool or a
    timedelta) in [low, high].  The default ceiling is int64's, where every
    numpy size lives; a seed, which is any integer, passes ``high=math.inf``."""
    if (isinstance(value, (bool, np.timedelta64)) or not isinstance(value, (int, np.integer))
            or not low <= value <= high):
        _refuse(name, "an integer", value, low, high)
    return int(value)


def check_real(name: str, value, low=-math.inf, high=math.inf, *,
               open_low: bool = False, open_high: bool = False) -> float:
    """``value`` as a float: a finite real scalar (int, Fraction, numpy int or
    float) in [low, high], an end open when asked.  Bools, strings, None,
    complex values, arrays (0-d too), NaN, +-inf and ints or Fractions past
    float64 raise ValueError naming ``name``."""
    try:
        number = (float(value) if isinstance(value, numbers.Real)
                  and not isinstance(value, (bool, np.timedelta64)) else math.nan)
    except OverflowError:                       # an int or Fraction past float64
        number = math.nan
    if not (math.isfinite(number) and (low < number if open_low else low <= number)
            and (number < high if open_high else number <= high)):
        _refuse(name, "a finite real", value, low, high, open_low, open_high)
    return number


def real_array(name: str, values, low=-math.inf, *, open_low: bool = False) -> np.ndarray:
    """``values`` as a float64 array (not a copy when it already is one) whose
    every entry would pass ``check_real(name, entry, low)``; the first that
    would not, or a ragged nesting, raises its ValueError."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValueError(f"{name} must be a rectangular array, got {values!r}") from None
    if arr.dtype.kind not in "iuf":     # bools, strings, complex, objects: entry by entry
        arr = np.array([check_real(name, v, low, open_low=open_low) for v in arr.flat],
                       dtype=float).reshape(arr.shape)
    with np.errstate(over="ignore"):    # a longdouble past float64 turns inf, refused below
        arr = arr.astype(float, copy=False)
    ok = np.isfinite(arr) & (arr > low if open_low else arr >= low)
    if not ok.all():
        check_real(name, float(arr[~ok][0]), low, open_low=open_low)
    return arr


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
        beta = real_array("beta", self.beta, 0, open_low=True)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError("beta must be a vector of positive costs")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        alpha = check_real("alpha", self.alpha, 0, open_low=True)
        gamma = check_real("gamma", self.gamma, 0, 1, open_low=True, open_high=True)
        # kept as given, unless numpy would compute on it as an object (a Fraction)
        for name, number in (("alpha", alpha), ("gamma", gamma)):
            if not isinstance(getattr(self, name), (int, float, np.number)):
                object.__setattr__(self, name, number)
        check_count("M", self.M, 1, beta.size)

    @property
    def eta(self) -> float:
        """Gradient step size gamma / (12 b*), the one Theorem 1 assumes."""
        return self.gamma / (12.0 * self.beta_star)

    @property
    def beta_star(self) -> float:
        return float(np.max(self.beta))

    @classmethod
    def uniform(cls, alpha: float, beta_star: float, n_services: int, M: int,
                gamma: float = 0.05) -> "CostModel":
        """All services share the same instantiating cost beta_star."""
        beta_star = check_real("beta_star", beta_star, 0, open_low=True)
        n_services = check_count("n_services", n_services, 1)
        return cls(alpha=alpha, beta=np.full(n_services, beta_star), M=M, gamma=gamma)


@dataclass(frozen=True)
class ArrivalTrace:
    """Request counts per slot and service: ``lam[t-1, n]`` requests for
    service n in slot t.  ``U`` is the declared per-slot total cap, if any."""

    lam: np.ndarray
    U: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lam = real_array("lam", self.lam, 0)
        if lam.ndim != 2 or lam.shape[0] < 1 or lam.shape[1] < 1:
            raise DimensionError(f"lam must be a T x N matrix, got shape {lam.shape}")
        if self.U is not None:
            if np.any(lam.sum(axis=1) > check_real("U", self.U, 0) + FEAS_TOL):
                raise ValueError("a slot exceeds the declared per-slot cap U")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def T(self) -> int:
        return int(self.lam.shape[0])

    @property
    def N(self) -> int:
        return int(self.lam.shape[1])

    def max_slot_total(self) -> float:
        return float(self.lam.sum(axis=1).max())


def check_width(trace: ArrivalTrace, cost: CostModel) -> None:
    """Refuse a cost model priced for another number of services than the trace."""
    if cost.beta.size != trace.N:
        raise DimensionError("cost model width differs from the trace")


def check_forecasts(trace: ArrivalTrace, predictions) -> None:
    """Refuse a prediction oracle (any object with a ``trace``) built on
    other arrivals than ``trace``; the identity test spares the usual case."""
    if (predictions is not None and predictions.trace is not trace
            and not np.array_equal(predictions.trace.lam, trace.lam)):
        raise ValueError("the prediction oracle was built on another trace")


def slot_cost(lambda_row, x_prev, x_cur, cost: CostModel) -> tuple[float, float]:
    """(forwarding, switching) pair for one slot: alpha * sum_n lambda_n *
    (1 - x_n) and sum_n beta_n * max(x_n - x_prev_n, 0), with x = x_cur
    possibly fractional in [0,1]; evictions are free."""
    lam, xp, xc = (np.asarray(v, dtype=float) for v in (lambda_row, x_prev, x_cur))
    if not (lam.shape == xp.shape == xc.shape == cost.beta.shape):
        raise DimensionError("lambda_row, x_prev, x_cur and beta differ in shape")
    return (float(cost.alpha * np.dot(lam, 1.0 - xc)),
            float(np.dot(cost.beta, np.maximum(xc - xp, 0.0))))


def per_slot_costs(trace: ArrivalTrace, decisions, cost: CostModel):
    """Per-slot (forwarding, switching) arrays for a decision sequence:
    ``slot_cost`` of every slot at once, from an empty slot-0 cache."""
    dec = np.asarray(decisions)
    if dec.dtype.kind not in "biuf":    # objects, strings: no float loop reads them
        dec = dec.astype(float)
    if dec.shape != (trace.T, trace.N):
        raise DimensionError(f"decisions shape {dec.shape} != {(trace.T, trace.N)}")
    # one float buffer, laid out like dec: first 1 - x, then the raises
    # x_t - x_{t-1}; the float loops cast 0/1 decisions as they read them
    buf = np.subtract(1.0, dec, dtype=float)
    fwd = cost.alpha * np.einsum("tn,tn->t", trace.lam, buf)
    buf[0] = dec[0]
    np.subtract(dec[1:], dec[:-1], out=buf[1:], dtype=float)
    np.maximum(buf, 0.0, out=buf)
    return fwd, buf @ cost.beta


def running_total(forward, switch) -> float:
    """Sum of per-slot costs, added slot after slot: adding a run's CSV rows
    in order gives the same float.  A total that overflows is refused."""
    with np.errstate(over="ignore"):            # refused below, by name
        total = float(np.cumsum(forward + switch)[-1])
    if not np.isfinite(total):
        raise ValueError(f"the run's total cost overflows to {total!r}: "
                         "per-slot costs too large to add in float64")
    return total


def top_m_indicator(lam, M: int) -> np.ndarray:
    """0/1 marks of the M most-requested services of one slot, or of every
    row of a (T, N) matrix.

    Ties break toward the lower service index.  Services with zero demand
    are never marked, so fewer than M entries may be set.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim not in (1, 2):
        raise DimensionError(f"lam must be a vector or a T x N matrix, got {lam.shape}")
    check_count("M", M, 0, lam.shape[-1])
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


def _json_number(value):
    """A knob kept as given (a numpy scalar, a Fraction) as a JSON number."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_trace(trace: ArrivalTrace, csv_path) -> Path:
    """Write the trace CSV and its JSON sidecar; returns the sidecar path."""
    csv_path = Path(csv_path)
    meta = dict(trace.meta)
    doc = {
        "T": trace.T,
        "N": trace.N,
        "U": trace.U,
        "seed": meta.pop("seed", None),
        "generator": meta.pop("generator", None),
        "params": meta.pop("params", meta or None),
    }
    text = json.dumps(doc, indent=2, sort_keys=True, default=_json_number)   # before any write
    cols = [f"s{i + 1}" for i in range(trace.N)]
    with open(csv_path, "w") as fh:
        fh.write("t," + ",".join(cols) + "\n")
        for t in range(trace.T):
            fh.write(str(t + 1) + "," + ",".join(_fmt(v) for v in trace.lam[t]) + "\n")
    sidecar = csv_path.with_suffix(".json")
    sidecar.write_text(text + "\n")
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
        try:
            doc = json.loads(sidecar.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sidecar}: not valid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{sidecar}: expected a JSON object")
        U = doc.get("U")
        if U is not None:
            check_real(f"{sidecar}: U", U, 0)
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
            json.dump(self.summary(), fh, indent=2, sort_keys=True, default=_json_number)
            fh.write("\n")
