#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads desk-exact,poisson-wide --seeds 1-10

For every workload and seed this runs ``run.py`` once in a child process
(one at a time), then prints each metric's median, quartiles and spread
(interquartile distance over the median).  ``--trace-seed`` adds one traced
run per workload.  ``--label`` appends the summary as a point to
``trajectory.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                     "spread": (q3 - q1) / med if med else None,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--label", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"label": args.label, "run_seconds": seconds, "seeds": parse_seeds(args.seeds),
             "workloads": {}}
    for workload in workloads:
        results = []
        for seed in point["seeds"]:
            result, lines = run_once(workload, seed, seconds, 0)
            results.append(result)
            point.setdefault("host", json.loads(lines[0].removeprefix("host: ")))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        entry = {"failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": summarise(results)}
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] is None or s["spread"] < bounds.get(name, 1) / 3 else "  <- spread >= bound/3"
            print(f"  {name:<22} median {s['median']:.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{flag}")
        if args.trace_seed is not None:
            result, lines = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer_seed"] = args.trace_seed
            entry["rosc_shares"] = next(
                (json.loads(line.removeprefix("rosc_shares: ")) for line in lines
                 if line.startswith("rosc_shares: ")), None)
            entry["failed"] += result["failed"]
            entry["attempted"] += result["attempted"]
            print(f"  traced: correct={result['correct']} shares={entry['rosc_shares']}")
        point["workloads"][workload] = entry
    if args.label:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append(point)
        path.write_text(json.dumps(points, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
