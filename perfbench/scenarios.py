"""Benchmark workloads: instances built from a seed, and one call per policy.

Every workload uses alpha = 0.05, beta* = 10 (ratio 200), gamma = 0.05 and a
W = 10 forecast window.  Horizons are short enough that the offline
reference (``pseudo_opt``, 300 synchronous sweeps) runs several times within
one measured run; each workload's reason is in ``BENCHMARK.json``.

The benchmark reaches the library only through its public functions and
reads only the generated traces and the returned ``RunRecord``s.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass
from functools import partial

import edgecache as ec

ALPHA, BETA_STAR, GAMMA, W = 0.05, 10.0, 0.05, 10
PSEUDO_SWEEPS = 300
POLICIES = ("rosc", "rhc", "chc", "pseudo_opt")
ROSC_SEEDS = 5  # rosc's cost is the mean over sampler seeds 0-4

# Lifetimes of at most 100 slots make the birth-death process stationary well
# inside a 300-slot horizon (the library's default groups live up to 1000
# slots), and Pareto shape 3 gives popularity a finite variance; with the
# defaults, cost and work per slot differ by 10-25% from one seed to the next.
POISSON_GROUPS = ((10, 2.0), (50, 1.0), (100, 0.5))


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str       # replacement | poisson | sqrt_churn
    N: int
    T: int
    M: int
    K: int
    R: float = 0.0       # forecast noise weight; 0 is an exact oracle
    U: int = 120         # per-slot request total of the sqrt-churn ladder


WORKLOADS = {w.name: w for w in (
    Workload("desk-exact", "replacement", N=100, T=300, M=10, K=100),
    Workload("desk-noisy", "replacement", N=100, T=300, M=10, K=100, R=0.03),
    Workload("poisson-wide", "poisson", N=1000, T=300, M=10, K=100),
    Workload("regret-small", "sqrt_churn", N=30, T=300, M=3, K=32),
)}


def make_trace(w: Workload, seed: int) -> ec.ArrivalTrace:
    if w.generator == "replacement":
        return ec.gen_replacement(ec.ReplacementParams(N=w.N, T=w.T), seed)
    if w.generator == "poisson":
        return ec.gen_poisson(ec.PoissonParams(N=w.N, T=w.T, groups=POISSON_GROUPS,
                                               popularity_shape=3.0), seed)
    return ec.gen_sqrt_churn(ec.SqrtChurnParams(N=w.N, T=w.T, M=w.M, U=w.U), seed)


class Instance:
    """One workload's trace and cost model at one seed.

    With R > 0 every policy call gets its own fresh ``PredictionOracle``
    seeded by the workload seed, so forecasts are part of the input and no
    call reuses another's cached noise.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.trace = make_trace(workload, seed)
        self.cost = ec.CostModel.uniform(ALPHA, BETA_STAR, workload.N, workload.M,
                                         gamma=GAMMA)
        self.oracle()  # built here too, so set-up time includes an oracle build

    def oracle(self):
        if self.workload.R == 0.0:
            return None
        return ec.PredictionOracle(self.trace, R=self.workload.R, seed=self.seed)

    def call(self, policy: str, rosc_seed: int = 0, span=None):
        """Run one policy; returns (record, wall seconds of the call).

        ``span`` is an optional context-manager factory the tracer passes to
        mark the call as a root span.
        """
        oracle = self.oracle()
        trace, cost, w = self.trace, self.cost, self.workload
        if policy == "rosc":
            cfg = ec.RoscConfig(cost=cost, W=W, K=w.K, seed=rosc_seed)
            fn = partial(ec.run_rosc, trace, cfg, predictions=oracle)
        elif policy == "rhc":
            fn = partial(ec.rhc_policy, trace, cost, W, predictions=oracle)
        elif policy == "chc":
            fn = partial(ec.chc_policy, trace, cost, W, predictions=oracle)
        elif policy == "pseudo_opt":
            fn = partial(ec.pseudo_opt, trace, cost, PSEUDO_SWEEPS)
        else:
            raise ValueError(f"unknown policy {policy!r}")
        gc.collect()
        with span(policy) if span is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            rec = fn()
            dt = time.perf_counter() - t0
        return rec, dt
