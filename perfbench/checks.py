"""Output checks on the records a policy call returns.

Each ``check_*`` function returns a list of failure messages; an empty list
is a pass.  ``Tally`` counts every checked operation against the failed ones.
"""

from __future__ import annotations

import numpy as np

from edgecache.gradient_pgd import offline_pgd
from edgecache.model import in_bounded_simplex, per_slot_costs
from edgecache.rosc import fractional_trace

COST_TOL = 1e-9
PARITY_TOL = 1e-9


def check_record(policy: str, rec, trace, cost) -> list[str]:
    """Feasibility of the decisions and agreement of the reported costs."""
    errors = []
    dec = np.asarray(rec.decisions)
    if dec.shape != (trace.T, trace.N):
        return [f"{policy}: decisions shape {dec.shape} != {(trace.T, trace.N)}"]
    if policy in ("rosc", "rhc"):
        if not np.isin(dec, (0, 1)).all():
            errors.append(f"{policy}: integral decisions hold values other than 0/1")
        if (dec.sum(axis=1) > cost.M).any():
            errors.append(f"{policy}: a decision row caches more than M={cost.M}")
    elif not all(in_bounded_simplex(row, cost.M) for row in dec):
        errors.append(f"{policy}: a decision row leaves the bounded simplex")
    if policy == "rosc":
        if not all(in_bounded_simplex(row, cost.M) for row in fractional_trace(rec)):
            errors.append("rosc: a fractional row leaves the bounded simplex")
    fwd, sw = per_slot_costs(trace, dec, cost)
    gap = max(float(np.max(np.abs(fwd - rec.forward))),
              float(np.max(np.abs(sw - rec.switch))))
    if gap > COST_TOL:
        errors.append(f"{policy}: per-slot costs differ from a recount by {gap:.3g}")
    total = float(np.sum(fwd + sw))
    if abs(total - rec.total_cost) > COST_TOL * max(1.0, abs(total)):
        errors.append(f"{policy}: total_cost {rec.total_cost!r} != recount {total!r}")
    return errors


def check_parity(rec, trace, cost, W: int) -> list[str]:
    """Lemma 1: with exact forecasts the online pre-rounding trace equals W
    synchronous offline sweeps."""
    gap = float(np.max(np.abs(fractional_trace(rec) - offline_pgd(trace, cost, W))))
    if gap > PARITY_TOL:
        return [f"rosc: online/offline parity gap {gap:.3g} > {PARITY_TOL}"]
    return []


def check_same(policy: str, first, again) -> list[str]:
    """Two records of the same call must match byte for byte."""
    for field in ("decisions", "forward", "switch"):
        a, b = np.asarray(getattr(first, field)), np.asarray(getattr(again, field))
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return [f"{policy}: {field} differ between two runs of the same input"]
    if first.total_cost != again.total_cost:
        return [f"{policy}: total_cost differs between two runs of the same input"]
    return []


class Tally:
    """Attempted and failed operations, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def checked_call(inst, tally: Tally, policy: str, rosc_seed: int = 0, span=None):
    """One policy call plus its output checks; returns (record or None, seconds)."""
    try:
        rec, dt = inst.call(policy, rosc_seed, span=span)
    except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
        tally.record([f"{policy}: {type(exc).__name__}: {exc}"])
        return None, 0.0
    tally.record(check_record(policy, rec, inst.trace, inst.cost))
    return rec, dt
