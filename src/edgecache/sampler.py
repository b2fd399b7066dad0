"""Randomized rounding of fractional caching vectors via K sample paths.

The ensemble keeps K synchronized binary cache vectors, each carrying
probability mass 1/K; the policy follows one path, chosen uniformly once
per run.  After every update the column means equal the quantized target
probabilities exactly, every path respects the capacity M, and the number
of per-path insertions stays proportional to the movement of the targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent, reproducible generator for (seed, label).

    Identical arguments yield bit-identical streams regardless of creation
    order, which keeps whole runs replayable from a single seed.  The uint32
    entropy is what ``SeedSequence`` makes of ``[seed mod 2^64, *label bytes]``.
    """
    seed &= 0xFFFFFFFFFFFFFFFF
    words = np.array([seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed], dtype=np.uint32)
    entropy = np.concatenate([words, np.frombuffer(label.encode("utf-8"), dtype=np.uint8)])
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class SamplePathEnsemble:
    """K binary cache vectors of width N, capacity M per path, plus the
    index of the path the policy follows."""

    K: int
    M: int
    S: np.ndarray        # (K, N) int8 in {0, 1}
    k_star: int          # 0-based row the policy follows

    @classmethod
    def initial(cls, K: int, N: int, M: int, k_star: int) -> "SamplePathEnsemble":
        if K < 1:
            raise ValueError("K must be a positive integer")
        if not (0 <= k_star < K):
            raise ValueError("k_star outside [0, K)")
        if not (1 <= M <= N):
            raise ValueError(f"M={M} outside [1, N={N}]")
        return cls(K=K, M=M, S=np.zeros((K, N), dtype=np.int8), k_star=k_star)

    @property
    def N(self) -> int:
        return int(self.S.shape[1])

    def column_counts(self) -> np.ndarray:
        return self.S.sum(axis=0, dtype=np.int64)


def quantize_probs(p, K: int) -> np.ndarray:
    """Round each probability down to a multiple of 1/K.

    Flooring (rather than rounding) keeps the quantized sum at or below the
    original sum, which is what guarantees the capacity rebalance below can
    always find a deficit path.  A 1e-9 nudge absorbs float noise on values
    that are already exact multiples.
    """
    p = np.asarray(p, dtype=float)
    counts = np.floor(p * K + 1e-9)
    return np.clip(counts, 0, K) / K


def update_ensemble(ensemble: SamplePathEnsemble, p_quant,
                    rng: np.random.Generator) -> SamplePathEnsemble:
    """Advance the ensemble one slot so column means match ``p_quant``.

    Each changed service flips on (or off) a uniformly chosen subset of the
    paths lacking (or holding) it, drawn for all services at once as the
    smallest of one uniform key per eligible cell.  Paths left above
    capacity are then repaired in rounds: overfull paths, lowest index
    first, are paired with distinct deficit paths in random order, and each
    hands its partner a uniformly chosen service the partner lacks.  All
    randomness comes from ``rng``, so a run is a pure function of its seed.
    """
    K, M = ensemble.K, ensemble.M
    raw = np.asarray(p_quant, dtype=float) * K
    target = np.rint(raw).astype(np.int64)
    if raw.shape != (ensemble.N,):
        raise ValueError("p_quant length differs from the ensemble width")
    if np.any(np.abs(raw - target) > 1e-6):
        raise ValueError("targets are not multiples of 1/K; apply quantize_probs first")
    if np.any(target < 0) or np.any(target > K):
        raise ValueError("quantized probabilities outside [0, 1]")
    if target.sum() > K * M:
        raise ValueError("quantized load exceeds K * M; quantize_probs not applied?")
    S = ensemble.S.copy()
    # int32 counts of 0/1 entries are exact below 2^31 paths and services,
    # and sum in half the time of int64 ones
    current = S.sum(axis=0, dtype=np.int32)

    cols = np.flatnonzero(target != current)
    if cols.size:
        delta = target[cols] - current[cols]
        need = np.abs(delta)
        # a cell is eligible if vacant for an addition or occupied for a drop;
        # masked cells sort last, so the first |delta| rows of a column's key
        # order are a uniform subset of its eligible paths
        keys = rng.random((K, cols.size))
        keys[S[:, cols] == (delta > 0)] = 2.0
        if np.any((keys < 2.0).sum(axis=0) < need):
            raise RuntimeError("more additions requested than vacant paths; "
                               "ensemble invariants are broken")
        order = np.argsort(keys, axis=0)
        chosen = np.arange(K)[:, None] < need
        S[order[chosen], cols[np.nonzero(chosen)[1]]] ^= 1

    # Capacity repair: total load K * sum(pQ) <= K * M, so an overfull row
    # implies an underfull one, and every move shrinks the total overflow by
    # one; hence at most K * M moves.  A round's pairs share no path.
    row_sums = S.sum(axis=1, dtype=np.int32)
    over = np.flatnonzero(row_sums > M)
    # zero-target columns are empty after the column step: scan the others
    live = np.flatnonzero(target) if over.size else None
    moves = 0
    while over.size:
        deficits = np.flatnonzero(row_sums < M)
        if deficits.size == 0:
            raise RuntimeError("no deficit path during rebalance; "
                               "ensemble invariants are broken")
        pairs = min(over.size, deficits.size)
        src, dst = over[:pairs], rng.permutation(deficits)[:pairs]
        # an overfull path holds more services than a deficit one, so each
        # pair has at least one movable service; pick one per pair uniformly
        occupied = S[:, live]
        pair, movable = np.nonzero(occupied[src] > occupied[dst])
        counts = np.bincount(pair, minlength=pairs)
        n2 = live[movable[np.cumsum(counts) - counts + rng.integers(counts)]]
        S[src, n2] = 0
        S[dst, n2] = 1
        row_sums[src] -= 1
        row_sums[dst] += 1
        moves += pairs
        if moves > K * M:
            raise RuntimeError("rebalance failed to terminate")
        over = np.flatnonzero(row_sums > M)

    return SamplePathEnsemble(K=K, M=M, S=S, k_star=ensemble.k_star)


def expected_switching(ensembles) -> float:
    """Ensemble-average insertion count over a run.

    (1/K) * sum over slots, paths and services of positive flips, starting
    from the all-empty ensemble.
    """
    S = np.stack([ens.S for ens in ensembles])
    return int(np.maximum(np.diff(S, axis=0, prepend=0), 0).sum()) / ensembles[0].K


def decision_at(ensemble: SamplePathEnsemble) -> np.ndarray:
    """The binary cache vector of the followed path."""
    return ensemble.S[ensemble.k_star].copy()

