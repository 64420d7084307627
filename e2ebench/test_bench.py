"""Self-tests of the benchmark, on shrunken ("smoke") workloads.

    python3 -m pytest e2ebench/test_bench.py -q      (from the repo root)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import run

ROOT = Path(__file__).resolve().parent.parent
DECLARED = run.declared_metrics(ROOT)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    doc = run.run(workload, 0, 0.0, trace, ROOT, smoke=True)
    assert doc["correct"] and doc["failed"] == 0
    assert doc["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert sorted(doc["metrics"]) == sorted(declared)
    for name, metric in doc["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    if trace:
        # tracing changes no result
        assert doc["traced_digests"] == doc["digests"]


def test_corrupted_or_missing_digest_is_a_failure():
    clean = run.run("fig10_grid", 0, 0.0, False, ROOT, smoke=True)
    assert clean["failed"] == 0
    oracle = dict(clean["digests"])
    first = sorted(oracle)[0]
    oracle[first] = "0" * 64
    oracle["NOPE/baseline"] = "f" * 64
    doc = run.run("fig10_grid", 0, 0.0, False, ROOT, smoke=True,
                  expected=oracle)
    assert not doc["correct"]
    assert doc["failed"] == 2
    assert doc["attempted"] == clean["attempted"] + 1


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert common.tail_percentile(range(100), 0.99) is None
    assert common.tail_percentile(range(1000), 0.99) == 989
    assert common.tail_percentile(range(1200), 0.99) == 1187
    assert common.tail_percentile([], 0.5) is None
    assert common.tail_percentile(range(21), 0.5) == 10


def test_absent_percentile_is_reported_absent_not_zero():
    passes = [{"stage": {"warm_p99_s": common.tail_percentile(range(50), 0.99)}}]
    assert run._stage_medians(passes) == {"warm_p99_s": None}
    values = {"setup_s": 1.0, "peak_rss_mb": 1.0, "pass_s": 1.0,
              "cell_p50_s": None}
    metrics = run.report(values, DECLARED["end_to_end"])
    assert "cell_p50_s" not in metrics
    assert metrics["pass_s"]["value"] == 1.0


def test_speed_meter_scales_each_unit_by_the_probes_nearest_it():
    ref = common.PROBE_REF_S
    meter = common.SpeedMeter()
    meter.samples = ([(t, ref) for t in range(5)]
                     + [(t, 2 * ref) for t in range(100, 105)])
    assert meter.scale([(1.0, 3.0), (101.0, 3.0)]) == [3.0, 1.5]
    meter.probe(2)
    assert len(meter.samples) == 12 and meter.samples[-1][1] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "fig10_grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
