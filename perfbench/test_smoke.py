"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Every workload runs for a moment with a few trials, traced and untraced; the
test checks that each metric BENCHMARK.json names is emitted with its unit
and that a broken workload config is reported as a failed operation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
         1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}

# 2000 steps instead of 20 000 keep the test short; the RMSE check still
# averages enough steps (3.09-3.24 m over 10 seeds) to be stream-independent.
TINY_TRACK = """
[scenario]
steps = 2000
segments = 500.0 0.001 0.002; 500.0 -0.002 0.001; 500.0 -0.001 -0.002; 500.0 -0.003 -0.001
"""


def tiny(name: str, tmp_path: Path) -> run.Workload:
    w = run.WORKLOADS[name]
    if w.command == "track":
        cfg = tmp_path / "track.cfg"
        cfg.write_text(TINY_TRACK)
        return replace(w, config=cfg)
    return replace(w, trials=100 if w.command == "sweep-roc" else 6)


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, info = run.measure(tiny(name, tmp_path), seed=3, seconds=0.01, trace=trace)
    json.dumps(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["check_failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == UNITS[trace]
    assert info["nproc"] >= 1 and info["seed"] == 3 and info["numpy"]


def test_invalid_config_counts_as_a_failed_operation(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nsteps = -5\n")
    workload = replace(run.WORKLOADS["sweep_distance_stock"], config=bad)
    result, info = run.measure(workload, seed=3, seconds=0.01, trace=0)
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert set(result["metrics"]) == set(UNITS[0])
    assert info["checks_failed"] >= 1


@pytest.mark.parametrize("csv_text", [
    "step,est_x,est_y,true_x,true_y\n",  # header only
    "step,est_x,est_y,true_x,true_y\n0,1.0\n",  # truncated row
])
def test_malformed_artifacts_count_as_a_failed_operation(csv_text, tmp_path, monkeypatch):
    def write_malformed(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "track.csv").write_text(csv_text)
        return 0

    puedet = run.import_puedet()
    monkeypatch.setattr(puedet.cli, "main", write_malformed)
    result, info = run.measure(tiny("track_long", tmp_path), seed=3, seconds=0.01, trace=0)
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert info["checks_failed"] >= 1
