"""The benchmark's layer bindings are called, not only present.

``perfbench/tracing.py`` wraps named library bindings from outside; a layer
whose binding exists but is no longer called would read 0 without any
absent-binding warning.  Small traced runs pin how often each layer is
entered under each policy.
"""

import importlib.util
from pathlib import Path

import pytest

from edgecache import (CostModel, PredictionOracle, RoscConfig,
                       SqrtChurnParams, chc_policy, gen_sqrt_churn, pseudo_opt,
                       rhc_policy, run_rosc)

ROOT = Path(__file__).resolve().parents[1]
T, N, M, W, K, SWEEPS = 24, 12, 3, 4, 10, 7
BLOCKS = 1      # horizon-control blocks of 8192 // N windows: one forecast call and one DP each


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced():
    tracing = _load_tracing()
    trace = gen_sqrt_churn(SqrtChurnParams(N=N, T=T, M=M, U=60), 1)
    # a cheap switch and a wide smoothing make rosc drop services and
    # repair capacity, so its insertions differ from the targets' motion
    cost = CostModel.uniform(0.05, 0.5, N, M, gamma=0.5)
    calls = {
        "rosc": lambda: run_rosc(trace, RoscConfig(cost=cost, W=W, K=K, seed=2)),
        "rhc": lambda: rhc_policy(trace, cost, W,
                                  predictions=PredictionOracle(trace, R=0.3, seed=1)),
        "rhc-exact": lambda: rhc_policy(trace, cost, W),
        "chc": lambda: chc_policy(trace, cost, W,
                                  predictions=PredictionOracle(trace, R=0.3, seed=1)),
        "pseudo_opt": lambda: pseudo_opt(trace, cost, SWEEPS),
    }
    tracer = tracing.Tracer()
    records = {}
    with tracer.installed():
        for name, call in calls.items():
            with tracer.span(name):
                records[name] = call()
    cells = tracing.summarize(tracer.spans)
    layers = {root: {layer: c["calls"] for (r, layer), c in cells.items()
                     if r == root and layer != root} for root in calls}
    return tracer, layers, records


def test_every_binding_is_present(traced):
    tracer, _, _ = traced
    assert tracer.absent == []


@pytest.mark.parametrize("root, expected", [
    ("rosc", {"model.seed": 1, "gradient_pgd.window": W, "projection": W,
              "sampler.quantize": 1, "sampler.update": T, "model.costing": T}),
    ("rhc", {"workloads.forecast": BLOCKS, "baselines.solve": BLOCKS, "model.costing": 1}),
    ("chc", {"workloads.forecast": BLOCKS, "baselines.solve": BLOCKS, "model.costing": 1}),
    ("pseudo_opt", {"gradient_pgd.offline": 1, "projection": SWEEPS,
                    "model.costing": 1}),
    # exact forecasts take the same path: one exact-oracle call per block
    ("rhc-exact", {"workloads.forecast": BLOCKS, "baselines.solve": BLOCKS, "model.costing": 1}),
])
def test_each_layer_is_entered_per_policy(traced, root, expected):
    _, layers, _ = traced
    assert layers[root] == expected


def test_traced_insertions_match_the_run(traced):
    tracer, _, records = traced
    own = records["rosc"].extras["ensemble_insertions_per_path"]
    assert own > 0
    assert tracer.counts["sampler.insertions"] == own * K
