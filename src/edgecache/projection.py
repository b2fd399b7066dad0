"""Exact Euclidean projections onto the simplex and the bounded simplex.

``project_bounded_simplex`` maps any z in R^N onto
``D = {p in [0,1]^N : sum(p) <= M}`` in O(N log N); given a (B, N) array it
projects each row, and a single vector is projected as a one-row batch.
Rows whose clamp is feasible keep it.  Otherwise the answer is
clip(z - tau, 0, 1) for the unique tau > 0 at which the clipped sum equals
M.  Each such row's merged breakpoints z and z - 1, shifted to the row's
maximum so that huge magnitudes cannot overflow the prefix sums, are walked
in one vectorized pass to the segment where the clipped sum crosses M, and
tau solves that segment's linear equation.  A large batch is projected in
chunks of rows on the host's cores (``rowsplit``), with the same bits.

Non-finite input raises ``ValueError``.

``project_bounded_simplex_oracle`` solves the same problem by exhaustively
enumerating sorted active-set partitions of the KKT system.  It is
deliberately independent of the fast path and exists only to validate it.
"""

from __future__ import annotations

import numpy as np

from .model import DimensionError
from .rowsplit import split_rows


def project_bounded_simplex(z, M: int, out=None) -> np.ndarray:
    """Exact projection of z onto {p in [0,1]^N : sum(p) <= M}.

    A (B, N) array projects each of its rows onto the same set, into
    ``out`` when given, a float64 array that must not share memory with z.
    Raises ``DimensionError`` for other shapes and ``ValueError`` for an M
    outside [1, N], for non-finite entries or for an unusable ``out``.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.size == 0:
        raise DimensionError(
            "project_bounded_simplex needs a nonempty vector or (B, N) array")
    N = z.shape[-1]
    if not (1 <= M <= N):
        raise ValueError(f"M={M} outside [1, N={N}]")
    # min and max propagate NaN and reach any infinity without a temporary
    if not (np.isfinite(z.min()) and np.isfinite(z.max())):
        raise ValueError("project_bounded_simplex needs finite input")
    if out is not None and (z.ndim != 2 or np.shape(out) != z.shape
                            or getattr(out, "dtype", None) != np.float64
                            or np.shares_memory(out, z)):
        raise ValueError("out takes a (B, N) float64 result and must not share "
                         "memory with z")
    if z.ndim == 2:
        return _project_rows(z, M, out)
    return _project_rows(z[None, :], M)[0]


def _project_rows(z: np.ndarray, M: int, out=None) -> np.ndarray:
    """Row-wise ``project_bounded_simplex`` of a finite (B, N) array, into
    ``out`` when given, one ``split_rows`` chunk of rows at a time."""
    if out is None:
        out = np.empty(z.shape)
    split_rows(lambda a, b: _project_chunk(z[a:b], M, out[a:b]), *z.shape)
    return out


def _project_chunk(z: np.ndarray, M: int, out: np.ndarray) -> None:
    """Row-wise projection of the finite (B, N) array z into ``out``.

    Rows whose clamp fits keep it.  For the others, in depth coordinates
    x = max(row) - max(z, 0) >= 0 and s = max(row) - tau, the clipped sum
    f(s) = sum clip(s - x, 0, 1) rises from 0 at s = 0, gaining slope 1 at
    each entry breakpoint s = x_j and losing it at each pin breakpoint
    s = x_j + 1.  One sorted walk over both kinds of breakpoint finds the
    segment where f crosses M, and s follows from that segment's counts.

    Only each row's L largest entries are walked, L the most positive
    entries in any active row of z: tau > 0 whenever capacity binds, so
    entries at or below zero stay at zero.  A larger L only adds
    breakpoints past a row's crossing, so each row comes out the same bit
    for bit whatever rows share its call.  Only the first M + 1 pin
    breakpoints are walked: pinning M + 1 entries would already exceed M.
    """
    np.clip(z, 0.0, 1.0, out=out)
    active = np.flatnonzero(out.sum(axis=1) > M)
    if active.size == 0:
        return
    work = z[active]
    work.sort(axis=1)
    # sorted rows put their positive entries last; L counts them in the row
    # with the most, and is > M because the clamp overflows
    N = work.shape[1]
    L = N - int(np.argmax(work.max(axis=0) > 0.0))
    top = np.maximum(work[:, -L:], 0.0)
    m = top[:, -1:]
    x = np.subtract(m, top[:, ::-1])               # ascending; x[:, 0] == 0
    rows = np.arange(x.shape[0])

    # Merged breakpoints, ascending, with the kind in the lowest mantissa
    # bit: even for entry, odd for pin.  All keys are >= 0, so their int64
    # views sort like the floats; the tag moves a key by at most one ulp,
    # which shifts f by rounding only, and s below is recomputed exactly.
    P = L + M + 1
    keys = np.empty((x.shape[0], P))
    keys[:, :L] = x
    np.add(x[:, :M + 1], 1.0, out=keys[:, L:])
    bits = keys.view(np.int64)
    bits[:, :L] &= ~1
    bits[:, L:] |= 1
    bits.sort(axis=1, kind="stable")                # two ascending runs: a merge
    pinned = np.cumsum(bits & 1, axis=1)             # pinned count after each breakpoint
    interior = np.arange(1, P + 1) - 2 * pinned       # slope of f after each breakpoint
    f = np.cumsum(interior[:, :-1] * np.diff(keys, axis=1), axis=1)
    seg = np.count_nonzero(f < M, axis=1)             # f crosses M after breakpoint seg

    k1 = pinned[rows, seg]
    n_int = interior[rows, seg]
    k2 = seg + 1 - k1
    X = np.zeros((x.shape[0], L + 1))
    np.cumsum(x, axis=1, out=X[:, 1:])
    gap = X[rows, k2] - X[rows, k1] + (M - k1)
    # n_int == 0 only when rounding puts the crossing on a flat segment,
    # where all M top entries are pinned; the next depth is then inside it
    s = np.where(n_int > 0, gap / np.maximum(n_int, 1), x[:, M])

    # clip(z - tau, 0, 1) with tau = m - s, taken as (max(z, 0) - m) + s so
    # that a huge m cannot absorb s
    np.take(z, active, axis=0, out=work)
    np.maximum(work, 0.0, out=work)
    work -= m
    work += s[:, None]
    np.maximum(work, 0.0, out=work)
    np.minimum(work, 1.0, out=work)
    out[active] = work


def project_bounded_simplex_oracle(z, M: int) -> np.ndarray:
    """Reference projection by exhaustive KKT active-set enumeration.

    Every optimal point partitions the descending-sorted coordinates into a
    prefix at 1, an interior block equal to z - rho, and a suffix at 0.  For
    each (prefix, interior) split the multiplier rho has a closed form; the
    unique split whose multipliers have the right signs is the answer.
    Limited to N <= 20 since it scans all O(N^2) splits.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise DimensionError("oracle needs a nonempty vector")
    if z.size > 20:
        raise ValueError("oracle is an exhaustive check, use N <= 20")
    if not (1 <= M <= z.size):
        raise ValueError(f"M={M} outside [1, N={z.size}]")
    n = z.size

    # Case 1: capacity constraint inactive.
    clamped = np.clip(z, 0.0, 1.0)
    if clamped.sum() <= M:
        return clamped

    # Case 2: capacity active, sum(y) = M exactly.
    order = np.argsort(-z, kind="stable")
    zs = z[order]
    prefix = np.concatenate([[0.0], np.cumsum(zs)])
    tol = 1e-10
    for n_ones in range(0, min(M, n) + 1):
        for n_int in range(0, n - n_ones + 1):
            if n_int == 0:
                if n_ones != M:
                    continue
                # ones then zeros; need some rho with zs[one] >= rho+1 >= zs[zero]+1
                hi = zs[n_ones - 1] - 1.0 if n_ones else np.inf
                lo = zs[n_ones] if n_ones < n else -np.inf
                if hi < lo - tol:
                    continue
                ys = np.concatenate([np.ones(n_ones), np.zeros(n - n_ones)])
            else:
                blk = slice(n_ones, n_ones + n_int)
                rho = (prefix[n_ones + n_int] - prefix[n_ones] - (M - n_ones)) / n_int
                if n_ones and zs[n_ones - 1] < rho + 1.0 - tol:
                    continue  # a pinned-at-1 coordinate lacks its multiplier
                if zs[n_ones] > rho + 1.0 + tol or zs[n_ones + n_int - 1] < rho - tol:
                    continue  # interior block leaves (rho, rho + 1)
                if n_ones + n_int < n and zs[n_ones + n_int] > rho + tol:
                    continue  # a zeroed coordinate lacks its multiplier
                ys = np.concatenate([
                    np.ones(n_ones),
                    np.clip(zs[blk] - rho, 0.0, 1.0),
                    np.zeros(n - n_ones - n_int),
                ])
            y = np.empty(n)
            y[order] = ys
            return y
    raise RuntimeError("no KKT-consistent partition found; the oracle is broken")
