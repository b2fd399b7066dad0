"""Randomized rounding of fractional caching vectors via K sample paths.

The ensemble keeps K synchronized binary cache vectors, each carrying
probability mass 1/K; the policy follows one path, chosen uniformly once
per run.  After every update the column means equal the quantized target
probabilities exactly, every path respects the capacity M, and the number
of per-path insertions stays proportional to the movement of the targets.
An ensemble is a value that carries its column and row sums and its
insertion count, so an update costs what changes plus one scan for the
count, and never alters its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import check_count


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent, reproducible generator for (seed, label).

    Identical arguments yield bit-identical streams regardless of creation
    order, which keeps whole runs replayable from a single seed, any integer
    that ``check_count`` takes.  The uint32 entropy is what ``SeedSequence``
    makes of ``[seed mod 2^64, *label bytes]``.
    """
    seed = check_count("seed", seed, high=np.inf) & 0xFFFFFFFFFFFFFFFF
    words = np.array([seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed], dtype=np.uint32)
    entropy = np.concatenate([words, np.frombuffer(label.encode("utf-8"), dtype=np.uint8)])
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class SamplePathEnsemble:
    """K binary cache vectors of width N, capacity M per path, the index of
    the path the policy follows, the column and row sums of ``S`` (derived
    from ``S`` when not passed), and the cells that went 0 -> 1 over the
    updates that produced it.  A value: ``update_ensemble`` never changes
    ``S`` in place, and a caller should not either."""

    M: int
    S: np.ndarray        # (K, N) int8 in {0, 1}
    k_star: int          # 0-based row the policy follows
    counts: np.ndarray | None = None   # (N,) int64 column sums of S
    loads: np.ndarray | None = None    # (K,) int64 row sums of S
    insertions: int = 0

    def __post_init__(self):
        if self.counts is None or self.loads is None:
            self.counts, self.loads = (self.S.sum(axis=a, dtype=np.int64) for a in (0, 1))

    @classmethod
    def initial(cls, K: int, N: int, M: int, k_star: int) -> "SamplePathEnsemble":
        check_count("K", K, low=1)
        check_count("M", M, 1, N)
        check_count("k_star", k_star, 0, K - 1)
        return cls(M=M, S=np.zeros((K, N), dtype=np.int8), k_star=k_star)

    @property
    def K(self) -> int:
        return int(self.S.shape[0])

    @property
    def N(self) -> int:
        return int(self.S.shape[1])


def quantize_probs(p, K: int) -> np.ndarray:
    """Round each probability down to a multiple of 1/K.

    Flooring (rather than rounding) keeps the quantized sum at or below the
    original sum, which is what guarantees the capacity rebalance below can
    always find a deficit path.  A 1e-9 nudge absorbs float noise on values
    that are already exact multiples.
    """
    check_count("K", K, low=1)
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("p holds non-finite values")
    return np.floor(np.clip(p, 0, 1) * K + 1e-9) / K


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
    The new counts are the targets; the loads move by one per flipped cell
    and per repair move; the insertions grow by the cells that went 0 -> 1.
    """
    K, M, N = ensemble.K, ensemble.M, ensemble.N
    p = np.asarray(p_quant, dtype=float)
    if p.shape != (N,):
        raise ValueError("p_quant length differs from the ensemble width")
    if not np.isfinite(p).all():
        raise ValueError("p_quant holds non-finite values")
    # more than half a step of 1/K outside [0, 1] rounds to a count outside [0, K]
    if p.min() < -0.5 / K or p.max() > 1 + 0.5 / K:
        raise ValueError("quantized probabilities outside [0, 1]")
    raw = p * K
    target = np.rint(raw)
    if np.abs(raw - target).max() > 1e-6:
        raise ValueError("targets are not multiples of 1/K; apply quantize_probs first")
    target = target.astype(np.int64)
    if target.sum() > K * M:
        raise ValueError("quantized load exceeds K * M; quantize_probs not applied?")
    S = ensemble.S.copy()
    loads = ensemble.loads.copy()

    cols = (target != ensemble.counts).nonzero()[0]
    if cols.size:
        delta = target[cols] - ensemble.counts[cols]
        # a cell is eligible if vacant for an addition or occupied for a drop;
        # ineligible keys move to [1, 2) and sort last, so the |delta|
        # smallest keys of a column (distinct uniform draws) pick a uniform
        # subset of its eligible paths
        block = S[:, cols]
        keys = rng.random((K, cols.size))
        keys += block == (delta > 0)
        cut = np.sort(keys, axis=0)[np.abs(delta) - 1, np.arange(cols.size)]
        if cut.max() >= 1.0:
            raise RuntimeError("more additions requested than vacant paths; "
                               "ensemble invariants are broken")
        hit = keys <= cut
        S[:, cols] = block ^ hit
        loads += hit @ np.sign(delta)

    # Capacity repair: total load K * sum(pQ) <= K * M, so an overfull row
    # implies an underfull one, and every move shrinks the total overflow by
    # one; hence at most K * M moves.  A round's pairs share no path.
    over = (loads > M).nonzero()[0]
    moves = 0
    while over.size:
        deficits = (loads < M).nonzero()[0]
        if deficits.size == 0:
            raise RuntimeError("no deficit path during rebalance; "
                               "ensemble invariants are broken")
        pairs = min(over.size, deficits.size)
        src, dst = over[:pairs], rng.permutation(deficits)[:pairs]
        # an overfull path holds more services than a deficit one, so each
        # pair has at least one movable service; pick one per pair uniformly
        pair, movable = np.divmod(
            (S.take(src, axis=0) > S.take(dst, axis=0)).ravel().nonzero()[0], N)
        counts = np.bincount(pair, minlength=pairs)
        n2 = movable[np.cumsum(counts) - counts + rng.integers(counts)]
        S[src, n2] = 0
        S[dst, n2] = 1
        loads[src] -= 1
        loads[dst] += 1
        moves += pairs
        if moves > K * M:
            raise RuntimeError("rebalance failed to terminate")
        over = (loads > M).nonzero()[0]

    return SamplePathEnsemble(
        M=M, S=S, k_star=ensemble.k_star, counts=target, loads=loads,
        insertions=ensemble.insertions + int(np.count_nonzero(S > ensemble.S)))

