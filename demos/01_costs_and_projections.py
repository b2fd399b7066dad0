# Core building blocks: cost accounting, top-M indicators, and exact
# projection onto the bounded simplex.
#
# Run:  python3 demos/01_costs_and_projections.py

import numpy as np

from edgecache import (ArrivalTrace, CostModel, path_length,
                       project_bounded_simplex, project_bounded_simplex_oracle,
                       slot_cost, top_m_indicator)
from edgecache.model import per_slot_costs, running_total

# --- a tiny two-service world -------------------------------------------
cost = CostModel.uniform(alpha=0.05, beta_star=10.0, n_services=2, M=1)
trace = ArrivalTrace(lam=[[100, 50], [100, 50], [20, 90]])

# slot_cost gives one slot's (forwarding, switching) pair
forward, switch = slot_cost(trace.lam[0], [0, 0], [1, 0], cost)
print("slot 1, caching service 1 only: forwarding", forward, "+ switching", switch)
print("cost of flipping the cache:", slot_cost(trace.lam[0], [1, 0], [0, 1], cost)[1])

# caching service 1 for two slots, then switching to service 2
decisions = np.array([[1, 0], [1, 0], [0, 1]])
print("total cost of a 3-slot plan:", running_total(*per_slot_costs(trace, decisions, cost)))

# the top-M indicator drives both the policy warm start and the
# non-stationarity measure ("path length")
for t in range(trace.T):
    print(f"slot {t + 1}: top-1 indicator = {top_m_indicator(trace.lam[t], 1)}")
print("path length of the trace at M=1:", path_length(trace, 1))

# --- projection onto {p in [0,1]^N : sum(p) <= M} ------------------------
z = np.array([1.2, 1.1, 0.9, 0.1])
y = project_bounded_simplex(z, M=2)
print("\nprojection of", z, "->", y, " (sum", y.sum(), ")")

# the fast O(N log N) routine agrees with an exhaustive KKT enumeration
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(2000):
    n = int(rng.integers(2, 13))
    M = int(rng.integers(1, n + 1))
    v = rng.normal(0.5, 1.5, n)
    worst = max(worst, float(np.max(np.abs(
        project_bounded_simplex(v, M) - project_bounded_simplex_oracle(v, M)))))
print("worst deviation from the KKT oracle over 2000 random cases:", worst)
