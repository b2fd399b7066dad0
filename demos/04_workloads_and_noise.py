# The synthetic workload families and the noisy forecast oracle.
#
# Run:  python3 demos/04_workloads_and_noise.py

from edgecache import (CostModel, PoissonParams, PredictionOracle,
                       ReplacementParams, RoscConfig, gen_poisson,
                       gen_replacement, path_length, run_rosc, save_trace)

# --- replacement family: fixed Zipf demand, churning rank occupants ------
rep = gen_replacement(ReplacementParams(N=200, T=1000, U=200), seed=0)
print("replacement: per-slot totals all equal",
      int(rep.lam.sum(axis=1).max()), "requests")
print("  top-10 churn per slot:", round(path_length(rep, 10) / rep.T, 3))

# --- poisson family: group births, finite lifetimes, noisy volumes -------
poi = gen_poisson(PoissonParams(N=200, T=1000), seed=0)
tot = poi.lam.sum(axis=1)
print("poisson: per-slot totals fluctuate:",
      f"min={tot.min():.0f} mean={tot.mean():.0f} max={tot.max():.0f}")
print("  top-10 churn per slot:", round(path_length(poi, 10) / poi.T, 3))

# traces round-trip through CSV + JSON sidecar, here in the working directory
sidecar = save_trace(rep, "replacement_demo.csv")
print("wrote replacement_demo.csv with sidecar", sidecar)

# --- forecast noise: a per-service random walk scaled by R ---------------
oracle = PredictionOracle(rep, R=0.03, seed=1)
t = 500
for lag in (0, 4, 9):
    truth = rep.lam[t - 1].sum()
    seen = oracle.predict_row(t, t - lag).sum()
    print(f"forecast of slot {t} from {lag} slots out: "
          f"{seen:.1f} vs truth {truth:.1f}")

# the randomized policy decides on forecasts but is charged on the truth
cost = CostModel.uniform(0.05, 10.0, rep.N, 10)
clean = run_rosc(rep, RoscConfig(cost=cost, W=10, K=100, seed=0))
noisy = run_rosc(rep, RoscConfig(cost=cost, W=10, K=100, seed=0),
                 predictions=oracle)
print(f"\ncost/slot with exact forecasts: {clean.total_cost / rep.T:.3f}")
print(f"cost/slot with 3% noise weight:  {noisy.total_cost / rep.T:.3f}")
