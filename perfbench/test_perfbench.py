"""Smoke test of the benchmark itself, on a tiny scene.

Runs every workload untraced and traced with ``--smoke`` and checks that the
result line has the documented shape, that every metric named in
BENCHMARK.json is emitted with its unit, and that the trace attributes work
to the right layers. Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, run_py=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300)
    return proc


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            settings = next(json.loads(line.split(" ", 1)[1])
                            for line in lines if line.startswith("settings "))
            out[workload, trace] = json.loads(lines[-1]), settings
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(results, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for workload in WORKLOADS:
        result, _ = results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_attributes_work_to_layers(results):
    layers = {w: {name: m["value"]
                  for name, m in results[w, 1][0]["metrics"].items()}
              for w in WORKLOADS}
    # the smoke scene calibrates one node: 3 reference voxel grids per node
    assert layers["calibrate"]["registration.voxel_downsample.ref.calls"] == 3
    assert layers["experiments"]["pipeline.detect_per_frame.calls"] == 8
    for workload in ("detect-track", "experiments"):
        values = layers[workload]
        frames = results[workload, 1][1]["frames"]
        assert (values["detector.kdtree.background.builds"]
                == frames * values["pipeline.detect_per_frame.calls"])
        assert not any(v for name, v in values.items()
                       if name.startswith("registration."))
    assert not any(v for name, v in layers["calibrate"].items()
                   if name.startswith("detector."))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    proc = run_bench("calibrate", 0, run_py=bench / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
