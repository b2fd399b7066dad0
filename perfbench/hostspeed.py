"""Host-speed calibration for the end-to-end timings.

On a shared host the speed of a core drifts by up to 2x over minutes, far
more than the bounds a change is held to, and a median within one run cannot
remove drift that outlasts the run.  So every timed call is bracketed by a
fixed calibration kernel that does not touch edgecache, and the call's wall
time is scaled by ``REFERENCE_S / calibration time``: the time the call would
have taken on the host at its reference speed.  The raw wall times are
printed next to the scaled ones.

The kernel mixes what the policies spend their time on: small numpy vector
operations (clip, sort, cumulative sum) with interpreted loops, as in the
projection; piecewise ``where`` over a (W, N) block, as in the gradients and
the baselines' dynamic program; and int8 (K, N) reductions, as in the sampler.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the host the benchmark was defined on (2-core
# x86_64, Python 3.11.7, numpy 2.4.6).  It only sets the scale of the
# reported times; changing it rescales every timing metric.
REFERENCE_S = 0.0120

_RNG = np.random.default_rng(20230111)
_ROWS = _RNG.normal(0.5, 1.0, size=(128, 128))
_WIDE = _RNG.normal(0.5, 1.0, size=(10, 1000))
_BITS = (_RNG.random((100, 1000)) < 0.1).astype(np.int8)


def calibrate() -> float:
    """Wall seconds of one run of the fixed kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for z in _ROWS:
        clipped = np.minimum(np.maximum(z, 0.0), 1.0)
        acc += float(np.cumsum(np.sort(z))[-1]) + float(clipped.sum())
        for i in range(200):
            acc += i * 0.5
    for _ in range(40):
        acc += float(np.where(_WIDE < 0.0, 0.0, np.where(_WIDE <= 0.5, 2.0 * _WIDE, 1.0)).sum())
        acc += int(_BITS.sum(axis=0, dtype=np.int64).max())
        acc += int(np.count_nonzero(_BITS != _BITS[::-1]))
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale for a call bracketed by calibrations taking ``before`` and ``after``."""
    return REFERENCE_S / (0.5 * (before + after))
