"""Per-layer metrics from a traced run, kept apart from the timed run.

1. An untraced reference round: one call of each policy (``rosc`` seed 0).
2. A traced round of the same calls.  Its decisions and costs must equal the
   reference byte for byte; every layer metric except the slot latencies and
   the overhead comes from this round.
3. Alternating untraced and traced ``rosc`` calls until ``--seconds`` have
   passed: ``trace.overhead_pct`` compares their medians, and the traced
   calls give the per-slot latency distribution.

Which end-to-end metric each layer should move is listed in ``LAYER_UNITS``.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from checks import Tally, check_same, checked_call
from scenarios import POLICIES, ROSC_SEEDS
from tracing import Tracer, slot_intervals_us, summarize

MIN_PAIRS = 5
HARD_STOP_S = 120.0

LAYER_UNITS = {
    # rosc_ms_per_slot on desk-exact, pseudo_opt_s on regret-small
    "projection.ms": "ms",
    "projection.calls": "count",
    "projection.elements": "count",
    "projection.capacity_active_share": "ratio",
    # rosc_ms_per_slot everywhere; offline_self_ms moves pseudo_opt_s
    "gradient_pgd.window_self_ms": "ms",
    "gradient_pgd.window_sweeps": "count",
    "gradient_pgd.offline_self_ms": "ms",
    # rosc_ms_per_slot on poisson-wide; RNG order moves rosc_cost_ratio
    "sampler.update_ms": "ms",
    "sampler.quantize_ms": "ms",
    "sampler.calls": "count",
    "sampler.resampled_services": "count",
    "sampler.rebalance_moves": "count",
    "sampler.insertions_per_path": "count",
    "sampler.insertion_bound_ratio": "ratio",
    # every *_ms_per_slot on desk-noisy, near 0 with exact forecasts
    "workloads.forecast_ms": "ms",
    "workloads.forecast_calls": "count",
    # small everywhere
    "model.seed_ms": "ms",
    "model.costing_ms": "ms",
    "model.costing_calls": "count",
    # rhc_ms_per_slot and chc_ms_per_slot, most on poisson-wide
    "baselines.rhc_solve_ms": "ms",
    "baselines.chc_solve_ms": "ms",
    "baselines.window_solves": "count",
    "baselines.self_ms": "ms",
    # the per-slot decision latency behind rosc_ms_per_slot
    "rosc.self_ms": "ms",
    "rosc.slot_p50_us": "us",
    "rosc.slot_p99_us": "us",
    "trace.overhead_pct": "%",
}

ROSC_LAYERS = ("workloads.forecast", "model.seed", "gradient_pgd.window", "projection",
               "sampler.quantize", "sampler.update", "model.costing")


def _layer_values(tracer: Tracer) -> dict:
    cells = summarize(tracer.spans)
    present = tracer.layers_present()

    def total(layer, key, roots=None):
        return sum(c[key] for (root, name), c in cells.items()
                   if name == layer and (roots is None or root in roots))

    counts = tracer.counts
    v = {}
    if "projection" in present:
        calls = total("projection", "calls")
        v["projection.ms"] = total("projection", "ms")
        v["projection.calls"] = calls
        v["projection.elements"] = counts["projection.elements"]
        v["projection.capacity_active_share"] = counts["projection.capacity_active"] / max(calls, 1)
    if "gradient_pgd.window" in present:
        v["gradient_pgd.window_self_ms"] = total("gradient_pgd.window", "self_ms")
        v["gradient_pgd.window_sweeps"] = total("gradient_pgd.window", "calls")
    if "gradient_pgd.offline" in present:
        v["gradient_pgd.offline_self_ms"] = total("gradient_pgd.offline", "self_ms")
    if "sampler.update" in present:
        K = counts.get("sampler.K", 1)
        insertions = counts["sampler.insertions"] / K
        v["sampler.update_ms"] = total("sampler.update", "ms")
        v["sampler.calls"] = total("sampler.update", "calls")
        v["sampler.resampled_services"] = counts["sampler.resampled_services"]
        v["sampler.rebalance_moves"] = counts["sampler.rebalance_moves"]
        v["sampler.insertions_per_path"] = insertions
        motion = counts["sampler.positive_motion"] / K
        v["sampler.insertion_bound_ratio"] = insertions / (3.0 * motion) if motion else 0.0
    if "sampler.quantize" in present:
        v["sampler.quantize_ms"] = total("sampler.quantize", "ms")
    if "workloads.forecast" in present:
        v["workloads.forecast_ms"] = total("workloads.forecast", "ms")
        v["workloads.forecast_calls"] = total("workloads.forecast", "calls")
    if "model.seed" in present:
        v["model.seed_ms"] = total("model.seed", "ms")
    if "model.costing" in present:
        v["model.costing_ms"] = total("model.costing", "ms")
        v["model.costing_calls"] = total("model.costing", "calls")
    if "baselines.solve" in present:
        v["baselines.rhc_solve_ms"] = total("baselines.solve", "ms", {"rhc"})
        v["baselines.chc_solve_ms"] = total("baselines.solve", "ms", {"chc"})
        v["baselines.window_solves"] = total("baselines.solve", "calls")
    v["baselines.self_ms"] = total("rhc", "self_ms") + total("chc", "self_ms")
    v["rosc.self_ms"] = total("rosc", "self_ms")

    print("traced round, per policy and layer: calls, ms, self ms")
    for (root, name), c in sorted(cells.items()):
        print(f"  {root:<10} {name:<22} {c['calls']:>8} {c['ms']:>11.3f} {c['self_ms']:>11.3f}")
    rosc_ms = total("rosc", "ms")
    if rosc_ms:
        shares = {layer: total(layer, "self_ms", {"rosc"}) / rosc_ms
                  for layer in ROSC_LAYERS if layer in present}
        shares["rosc"] = v["rosc.self_ms"] / rosc_ms
        print("rosc_shares: " + json.dumps({k: round(x, 4) for k, x in shares.items()}))
    if tracer.absent:
        print("absent bindings (their metrics are left out): " + ", ".join(tracer.absent))
    return v


def per_layer(inst, seconds: float, tally: Tally) -> dict:
    reference = {}
    for policy in POLICIES:
        rec, _ = checked_call(inst, tally, policy)
        if rec is not None:
            reference[policy] = rec

    tracer = Tracer()
    traced_rosc = None
    with tracer.installed():
        for policy in POLICIES:
            rec, _ = checked_call(inst, tally, policy, span=tracer.span)
            if rec is not None and policy in reference:
                tally.record(check_same(policy, reference[policy], rec))
            if policy == "rosc":
                traced_rosc = rec
    values = _layer_values(tracer)
    if traced_rosc is not None and "sampler.insertions_per_path" in values:
        own = traced_rosc.extras.get("ensemble_insertions_per_path")
        if own is not None:
            gap = abs(own - values["sampler.insertions_per_path"])
            tally.record([] if gap <= 1e-9 else
                         [f"sampler: counted insertions per path differ from rosc's by {gap}"])

    # Alternate which side goes first so drift in the host's load hits both.
    plain, traced = [], []
    slots = Tracer()
    start = time.perf_counter()
    pair = 0
    while pair < MIN_PAIRS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > HARD_STOP_S:
            break
        seed = pair % ROSC_SEEDS
        for traced_side in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_side:
                with slots.installed():
                    rec, dt = checked_call(inst, tally, "rosc", seed, span=slots.span)
            else:
                rec, dt = checked_call(inst, tally, "rosc", seed)
            if rec is not None:
                (traced if traced_side else plain).append(dt)
        pair += 1
    if plain and traced:
        values["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1) * 100
    intervals = slot_intervals_us(slots.spans)
    if intervals:
        values["rosc.slot_p50_us"] = float(np.percentile(intervals, 50))
        values["rosc.slot_p99_us"] = float(np.percentile(intervals, 99))
        print(f"slot latency samples: {len(intervals)} from {len(traced)} traced rosc calls")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in LAYER_UNITS.items() if name in values}
