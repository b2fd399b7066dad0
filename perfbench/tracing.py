"""Spans around edgecache's layers, recorded from outside the library.

A ``Tracer`` replaces each layer's public function at the binding its caller
uses (for example ``edgecache.rosc.update_ensemble``, not the defining
module's name), records one span per call with its parent, and restores
every binding on exit.  A binding the library no longer has is listed in
``Tracer.absent``; the metrics that depend on it are left out.

Counters are computed from a call's arguments and result after its span has
closed.  That bookkeeping time is charged to the parent span's ``excluded``
field, so self times do not include it.
"""

from __future__ import annotations

import contextlib
import importlib
import time

import numpy as np

# Span fields, kept in plain lists because the projection wrapper runs
# hundreds of thousands of times per traced round.
NAME, PARENT, START, END, EXCLUDED = range(5)


def _count_projection(counts, args, kwargs, out):
    z = np.asarray(args[0] if args else kwargs["z"], dtype=float)
    M = args[1] if len(args) > 1 else kwargs["M"]
    counts["projection.elements"] += z.size
    # same test the projection makes before its capacity-active branch
    if np.minimum(np.maximum(z, 0.0), 1.0).sum() > M:
        counts["projection.capacity_active"] += 1


def _count_update(counts, args, kwargs, out):
    ens = args[0] if args else kwargs["ensemble"]
    p_quant = args[1] if len(args) > 1 else kwargs["p_quant"]
    before = ens.S
    current = before.sum(axis=0, dtype=np.int64)
    delta = np.rint(np.asarray(p_quant, dtype=float) * ens.K).astype(np.int64) - current
    flips = int(np.count_nonzero(out.S != before))
    moved = int(np.abs(delta).sum())
    counts["sampler.resampled_services"] += int(np.count_nonzero(delta))
    counts["sampler.rebalance_moves"] += (flips - moved) // 2
    counts["sampler.insertions"] += int(np.count_nonzero(out.S > before))
    # column means equal the previous quantized target after every update,
    # so the positive motion of the targets is the positive part of delta
    counts["sampler.positive_motion"] += int(np.maximum(delta, 0).sum())
    counts["sampler.K"] = ens.K


# (layer, module, attribute path, counter).  The attribute path is the name
# the caller looks up at call time.
BINDINGS = (
    ("projection", "edgecache.gradient_pgd", "project_bounded_simplex", _count_projection),
    ("gradient_pgd.window", "edgecache.rosc", "pgd_window_update", None),
    ("gradient_pgd.offline", "edgecache.baselines", "offline_pgd", None),
    ("sampler.update", "edgecache.rosc", "update_ensemble", _count_update),
    ("sampler.quantize", "edgecache.rosc", "quantize_probs", None),
    ("workloads.forecast", "edgecache.workloads", "PredictionOracle.predict_window", None),
    ("workloads.forecast", "edgecache.workloads", "PredictionOracle.predict_row", None),
    ("model.seed", "edgecache.rosc", "top_m_indicator", None),
    ("model.costing", "edgecache.rosc", "slot_cost", None),
    ("model.costing", "edgecache.baselines", "per_slot_costs", None),
    ("baselines.solve", "edgecache.baselines", "solve_rhc_window", None),
)


class Tracer:
    """In-memory spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {
            "projection.elements": 0, "projection.capacity_active": 0,
            "sampler.resampled_services": 0, "sampler.rebalance_moves": 0,
            "sampler.insertions": 0, "sampler.positive_motion": 0,
        }
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                t0 = clock()
                count(counts, args, kwargs, out)
                if stack:
                    spans[stack[-1]][EXCLUDED] += clock() - t0
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a policy call."""
        span = [name, self._stack[-1] if self._stack else -1,
                time.perf_counter(), 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding present, and restore them all on exit."""
        saved = []
        self.absent = []
        try:
            for layer, module_name, path, count in BINDINGS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layers_present(self) -> set[str]:
        return {layer for layer, module_name, path, _ in BINDINGS
                if f"{module_name}.{path}" not in self.absent}


def _roots(spans: list[list]) -> list[int]:
    """Index of the outermost span each span ran under (itself for a root)."""
    roots: list[int] = []
    for i, s in enumerate(spans):
        roots.append(i if s[PARENT] < 0 else roots[s[PARENT]])
    return roots


def summarize(spans: list[list]) -> dict:
    """Per-(root name, layer) totals: calls, ms (duration) and self ms.

    A root is a span the benchmark opened around a policy call.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    out: dict[tuple[str, str], dict] = {}
    for i, r in enumerate(_roots(spans)):
        s = spans[i]
        dur = s[END] - s[START]
        cell = out.setdefault((spans[r][NAME], s[NAME]), {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        cell["calls"] += 1
        cell["ms"] += dur * 1e3
        cell["self_ms"] += (dur - child_s[i] - s[EXCLUDED]) * 1e3
    return out


def slot_intervals_us(spans: list[list], root_name: str = "rosc") -> list[float]:
    """Intervals between successive costing calls inside each ``root_name``
    span: one per slot after the first."""
    intervals: list[float] = []
    last: dict[int, float] = {}
    for i, r in enumerate(_roots(spans)):
        s = spans[i]
        if spans[r][NAME] != root_name or s[NAME] != "model.costing":
            continue
        if r in last:
            intervals.append((s[START] - last[r]) * 1e6)
        last[r] = s[START]
    return intervals
