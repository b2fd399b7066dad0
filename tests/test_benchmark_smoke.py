"""One short run of the outside-in benchmark per mode.

``perfbench/run.py`` imports library names at start-up and wraps named
bindings when tracing; a rename in ``src/edgecache`` makes it exit before
its JSON line or drop metrics.  These runs catch that before a benchmark
round does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regret-small",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    doc = json.loads(lines[-1])
    assert doc["failed"] == 0, proc.stdout
    assert doc["attempted"] > 0
    return doc, proc.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_benchmark_reports_every_declared_metric(trace, section):
    doc, stdout = _run(trace)
    assert doc["metrics"], "no metrics reported"
    assert set(doc["metrics"]) == {m["name"] for m in DECLARED[section]}
    assert "absent bindings" not in stdout
