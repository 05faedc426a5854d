"""Smoke test of the benchmark at a tiny length (a few seconds).

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every named metric is emitted with its unit, that a
corrupted forward pass is counted as failed operations instead of crashing
or passing, and that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
from ddcn import model as MD  # noqa: E402
from ddcn import numerics as N  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())

# The verify workload cut to a couple of steps and the two cheapest checks.
TINY = replace(bench.WORKLOADS["verify"], min_steps=2, min_cycles=1,
               gradcheck_ops=(("gelu", "l1_loss"),), gradcheck_model=False)


def run_tiny(tmp_path, trace: bool) -> dict:
    result = bench.run_workload(TINY, seed=0, seconds=0.1, trace=trace, root=tmp_path)
    assert not (tmp_path / ".perfbench_work").exists()
    return result


@pytest.mark.parametrize("trace,key,table", [(False, "end_to_end", bench.END_TO_END),
                                             (True, "per_layer", bench.PER_LAYER)])
def test_every_named_metric_is_emitted_with_its_unit(tmp_path, trace, key, table):
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
    assert declared == table
    result = run_tiny(tmp_path, trace)
    line = run.summary(result, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(declared)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == declared[name][0]
        assert math.isfinite(entry["value"]), name
    if not trace:
        assert all(line["metrics"][name]["value"] > 0 for name in declared)
        assert all(result["metrics"][name] > 0 for name in bench.REPORTED)


def test_nan_forward_is_counted_as_failures(tmp_path, monkeypatch):
    def nan_forward(self, x, debug=False):
        shape = (x.shape[0], self.config.in_channels) + self.grid_size
        return N.Tensor._wrap(np.full(shape, np.nan, dtype=self.dtype))

    monkeypatch.setattr(MD.DDCN, "forward", nan_forward)
    result = run_tiny(tmp_path, trace=False)
    line = run.summary(result, trace=False)
    assert not line["correct"]
    # Every train step and eval call, the FLOP gate and the f64 gate fail.
    assert line["failed"] >= 4
    assert line["attempted"] > line["failed"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = SPEC["command"] + ["--workload", "verify", "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workloads_and_predictions_name_real_things():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(bench.WORKLOADS)
    assert set(PREDICTIONS["workloads"]) == set(bench.WORKLOADS)
    known = set(bench.END_TO_END) | set(bench.REPORTED) | set(bench.PER_LAYER)
    ids = [p["id"] for p in PREDICTIONS["predictions"]]
    assert len(ids) == len(set(ids))
    for p in PREDICTIONS["predictions"]:
        assert set(p["layer_metrics"]) <= set(bench.PER_LAYER), p["id"]
        assert set(p["moves"]) | set(p["unchanged"]) <= known, p["id"]
        assert set(p["workloads"]) <= set(bench.WORKLOADS), p["id"]
