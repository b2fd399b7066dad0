"""End-to-end metrics: every policy timed with tracing off, outputs checked.

Timings are wall times scaled to the host's reference speed (``hostspeed``).

A run is a sequence of rounds.  Round r calls ``rosc`` with sampler seed
r mod 5, then ``rhc`` and ``chc``.  Round 0 is a warm run whose timings are
discarded.  ``pseudo_opt`` joins rounds 1-5 only, because one call costs as
much as several rounds of the others; the warm round has already run the
projection it spends its time in, and each call makes 300 sweeps.

Timings are medians over the timed calls.  Costs are deterministic, so each
distinct call's first record serves, and every repeat must match it byte
for byte.
"""

from __future__ import annotations

import resource
import statistics
import time

import hostspeed
from checks import Tally, check_parity, check_same, checked_call
from scenarios import POLICIES, ROSC_SEEDS, W

MIN_ROUNDS = 6       # the warm round, rosc seeds 1-4, then seed 0 again
PSEUDO_SAMPLES = 5   # timed pseudo_opt calls, in rounds 1-5
HARD_STOP_S = 120.0  # start no new round after this, whatever --seconds says

END_TO_END_UNITS = {
    "setup_s": "s",
    "rosc_ms_per_slot": "ms",
    "rhc_ms_per_slot": "ms",
    "chc_ms_per_slot": "ms",
    "pseudo_opt_s": "s",
    "rosc_cost_ratio": "ratio",
    "rhc_cost_ratio": "ratio",
    "chc_cost_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def measure(inst, seconds: float, tally: Tally) -> tuple[dict, dict, dict]:
    """Rounds of every policy until ``seconds`` have passed.

    Returns the host-speed-scaled and the raw timing samples per policy,
    and the first record of each distinct call.
    """
    scaled: dict[str, list[float]] = {p: [] for p in POLICIES}
    raw: dict[str, list[float]] = {p: [] for p in POLICIES}
    first: dict[tuple, object] = {}
    start = time.perf_counter()
    cal_before = hostspeed.calibrate()
    rnd = 0
    while rnd < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_STOP_S:
            break
        for policy in POLICIES:
            if policy == "pseudo_opt" and not 1 <= rnd <= PSEUDO_SAMPLES:
                continue
            rosc_seed = rnd % ROSC_SEEDS
            rec, dt = checked_call(inst, tally, policy, rosc_seed)
            cal_after = hostspeed.calibrate()
            if rec is not None and rnd > 0:
                raw[policy].append(dt)
                scaled[policy].append(dt * hostspeed.factor(cal_before, cal_after))
            cal_before = cal_after
            if rec is None:
                continue
            key = (policy, rosc_seed if policy == "rosc" else None)
            if key in first:
                tally.record(check_same(policy, first[key], rec))
            else:
                first[key] = rec
        rnd += 1
    if inst.workload.R == 0.0 and ("rosc", 0) in first:
        tally.record(check_parity(first[("rosc", 0)], inst.trace, inst.cost, W))
    return scaled, raw, first


def end_to_end(inst, seconds: float, setup_s: float, tally: Tally) -> dict:
    times, raw, first = measure(inst, seconds, tally)
    T = inst.trace.T
    values = {"setup_s": setup_s}
    for policy in ("rosc", "rhc", "chc"):
        if times[policy]:
            values[f"{policy}_ms_per_slot"] = statistics.median(times[policy]) / T * 1e3
    if times["pseudo_opt"]:
        values["pseudo_opt_s"] = statistics.median(times["pseudo_opt"])
    reference = first.get(("pseudo_opt", None))
    rosc_costs = [first[("rosc", s)].total_cost for s in range(ROSC_SEEDS)
                  if ("rosc", s) in first]
    costs = {"rosc": statistics.fmean(rosc_costs)} if rosc_costs else {}
    costs.update({p: first[(p, None)].total_cost for p in ("rhc", "chc") if (p, None) in first})
    if reference is not None:
        for policy, total in costs.items():
            values[f"{policy}_cost_ratio"] = total / reference.total_cost
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print("timing samples: " + ", ".join(f"{p}={len(v)}" for p, v in times.items()))
    for policy in POLICIES:
        if len(times[policy]) >= 2:
            q = statistics.quantiles(times[policy], n=4)
            print(f"  {policy:<10} s/call scaled median {statistics.median(times[policy]):.4f}"
                  f" (quartiles {q[0]:.4f} .. {q[2]:.4f}), raw median"
                  f" {statistics.median(raw[policy]):.4f}")
    if reference is not None:
        print(f"cost per slot: pseudo_opt {reference.total_cost / T:.4f}, " + ", ".join(
            f"{p} {c / T:.4f}" for p, c in costs.items()))
        if "rosc" in costs:
            print(f"rosc regret per slot (mean of seeds 0-{ROSC_SEEDS - 1} minus "
                  f"pseudo_opt): {(costs['rosc'] - reference.total_cost) / T:.4f}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items() if name in values}


