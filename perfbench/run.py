#!/usr/bin/env python3
"""Outside-in benchmark of edgecache: policy latency, cost and layer split.

Run from the repository root:

    python3 perfbench/run.py --workload desk-exact --seed 1 --seconds 25 --trace 0

``--trace 0`` times every policy with tracing off and prints the end-to-end
metrics; ``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  Workloads are defined in ``scenarios.py``.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return {"nproc": nproc, "thread_caps": {v: int(os.environ[v]) for v in THREAD_VARS}}


def import_library() -> float:
    """Import edgecache (and numpy with it) from this checkout; returns seconds."""
    src = ROOT / "src"
    if not (src / "edgecache" / "__init__.py").is_file():
        sys.exit(f"perfbench: no edgecache sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import edgecache
    elapsed = time.perf_counter() - t0
    if Path(edgecache.__file__).resolve().parent != (src / "edgecache").resolve():
        sys.exit(f"perfbench: edgecache was imported from {edgecache.__file__}, not {src}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    host = cap_threads()
    import_s = import_library()
    import numpy as np
    import hostspeed
    from checks import Tally
    from endtoend import end_to_end
    from layers import per_layer
    from scenarios import WORKLOADS, Instance

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cal_before = hostspeed.calibrate()
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inst = Instance(workload, args.seed)
        builds.append(time.perf_counter() - t0)
    raw_setup_s = import_s + statistics.median(builds)
    setup_s = raw_setup_s * hostspeed.factor(cal_before, hostspeed.calibrate())

    host.update(python=platform.python_version(), numpy=np.__version__,
                machine=platform.machine())
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"workload: {workload}  seed={args.seed}  trace={args.trace}")
    print(f"setup: import {import_s:.4f} s + median build {statistics.median(builds):.4f} s"
          f" = {raw_setup_s:.4f} s raw, {setup_s:.4f} s scaled")

    tally = Tally()
    if args.trace:
        metrics = per_layer(inst, args.seconds, tally)
    else:
        metrics = end_to_end(inst, args.seconds, setup_s, tally)
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6f} {m['unit']}")
    for err in tally.errors[:20]:
        print("FAILED: " + err)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
