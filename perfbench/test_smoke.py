"""Smoke test of the benchmark itself, at toy sizes.

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q

Pins the metric names and units the runs emit to those in BENCHMARK.json,
checks that every workload passes its output check, and that a fixed seed
reproduces its digests.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_spec_lists_the_workloads_and_metrics_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == run.END_TO_END
    assert _units(SPEC["per_layer"]) == tracing.metric_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_emits_every_metric_and_passes(workload, trace, tmp_path):
    size = workloads.SIZES["toy"][workload]
    out = run.measure(workload, 3, 1, trace, size, tmp_path)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in out["metrics"].items()} == _units(want)
    json.dumps(out, allow_nan=False)
    if trace:
        assert out["metrics"]["trace.absent_layers"]["value"] == 0
        assert out["metrics"]["trace.hook_errors"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_fixed_seed_reproduces_digests(tmp_path):
    size = workloads.SIZES["toy"]["mid"]
    first = run.measure("mid", 5, 1, 0, size, tmp_path)
    stored = json.loads((tmp_path / "digests.json").read_text())
    second = run.measure("mid", 5, 1, 0, size, tmp_path)
    assert first["correct"] and second["correct"]
    assert json.loads((tmp_path / "digests.json").read_text()) == stored
    assert len(stored) == first["attempted"]


def test_a_removed_layer_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "gone.layer",
                        ["imin.sampling:no_such_function",
                         "imin.no_such_module:f"])
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == {"gone.layer"}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mid", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
