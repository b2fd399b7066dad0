# Dynamic regret on a desk-size instance: exact dynamic optimum by DP,
# measured regret of the randomized policy, and the theoretical ceiling.
#
# Run:  python3 demos/03_regret_and_the_ceiling.py

import numpy as np

from edgecache import (ArrivalTrace, CostModel, RoscConfig, exact_opt_dp,
                       path_length, regret_bound, run_rosc, theorem_cost)

rng = np.random.default_rng(1)

# a small ladder whose occupants swap occasionally
n, M, T = 6, 2, 30
base = np.array([50, 40, 8, 6, 4, 2], dtype=float)
order = list(range(n))
lam = np.zeros((T, n))
for t in range(T):
    lam[t, order] = base
    if rng.random() < 0.2:
        i, j = rng.integers(n, size=2)
        order[i], order[j] = order[j], order[i]
trace = ArrivalTrace(lam=lam)

H_T = path_length(trace, M)
# the step size Theorem 1 assumes: gamma = sqrt(H_T / T), eta = gamma / (12 b*)
cost = theorem_cost(CostModel.uniform(0.05, 2.0, n, M), H_T, T)
opt = exact_opt_dp(trace, cost)
print(f"instance: N={n}, M={M}, T={T}, measured path length H_T={H_T}")
print(f"exact dynamic optimum: {opt.total_cost:.2f}")

W, K, seeds = 3, 20, 200
costs = [run_rosc(trace, RoscConfig(cost=cost, W=W, K=K, seed=s)).total_cost
         for s in range(seeds)]
avg_regret = float(np.mean(costs)) - opt.total_cost
print(f"mean cost over {seeds} seeds: {np.mean(costs):.2f}"
      f"  -> regret {avg_regret:.2f}")

ceiling = regret_bound(cost, n, T, trace.max_slot_total(), K, W, H_T)
print(f"theoretical ceiling: {ceiling:.1f}  (measured/ceiling ="
      f" {avg_regret / ceiling:.4f})")
