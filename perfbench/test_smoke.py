"""Smoke tests for the benchmark; outside the tier-1 suite.

    python3 -m pytest perfbench/test_smoke.py

pytest's configured testpaths name tests/ only, so the tier-1 run does
not collect this file.  The smoke run takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def test_benchmark_json_declares_the_metrics_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_interquartile_mean_ignores_the_outer_quarters():
    assert run.interquartile_mean([100, 1, 2, 3, 4, 5, 6, 7]) == 4.5


def test_host_clock_scales_by_the_probes_near_each_time():
    clock = run.HostClock()
    clock.close()
    clock.samples = [(0.0, 2.0), (0.05, 2.0), (0.10, 1.0), (0.15, 1.0)]
    ref = run.PROBE_REF_MS
    assert clock.factor(0.0, 0.06) == ref / 2.0
    assert clock.factor(0.07, 0.08) == ref / 2.0  # no probe inside: the latest before
    # 1.0 has no probe within PROBE_EVERY_S: the latest before it is used
    assert clock.local_factors([0.0, 0.125, 1.0]) == [ref / 2.0, ref / 1.0, ref / 1.0]


def test_smoke_run_reports_every_metric_finite_with_its_unit():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    assert json.loads(out.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-wide",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
