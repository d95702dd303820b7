"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

METRIC = re.compile(r"^(\S+)\s+metric (\S+) (\S+) (\S+) n=(\d+)$")
OPS_FAILED = re.compile(r"^(\S+)\s+ops_failed (\S+) ratio ")


def test_registry_lists_the_metrics_the_benchmark_prints():
    registry = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in registry["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in registry["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in registry["workloads"]] == list(WORKLOAD_NAMES)


def test_smoke_reports_every_metric_with_unit_and_no_failures():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--seed", "3"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    seen = {}
    ops_failed = {}
    for line in proc.stdout.splitlines():
        if match := METRIC.match(line):
            workload, name, value, unit, count = match.groups()
            seen[workload, name] = unit
            assert math.isfinite(float(value)) and int(count) >= 1, line
        elif match := OPS_FAILED.match(line):
            ops_failed.setdefault(match.group(1), []).append(float(match.group(2)))
    for workload in WORKLOAD_NAMES:
        for name, unit in END_TO_END + PER_LAYER:
            assert seen.get((workload, name)) == unit, (workload, name)
        assert ops_failed[workload] == [0.0, 0.0], workload
    assert "problem" not in proc.stdout
