"""`scripts/bench.py`'s bookkeeping, each in a fresh interpreter (the script pins
the BLAS thread count in its environment when imported): a label's medians over
runs whose metrics differ, and the options it rejects before it builds a suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "scripts"), str(ROOT / "src")])}


def test_median_over_runs_whose_metrics_differ():
    # an old run holds a retired metric, a new one a metric added since: each
    # median is over the runs that hold the metric
    runs = [{"writer_ms": {"validity_csv": 90.0, "project_plane": 0.5}, "operation_s": 1.5},
            {"writer_ms": {"validity_csv": 80.0}, "operation_s": 1.0, "mc_gate_ms": 300.0},
            {"writer_ms": {"validity_csv": 70.0}, "operation_s": 2.0, "mc_gate_ms": 200.0}]
    code = f"import bench, json; print(json.dumps(bench.median_of({runs!r})))"
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "writer_ms": {"validity_csv": 80.0, "project_plane": 0.5}, "operation_s": 1.5,
        "mc_gate_ms": 250.0}


@pytest.mark.parametrize("options, message", [
    (["--repeats", "0"], "--repeats must be at least 1"),
    (["--repeats", "-1"], "--repeats must be at least 1"),
    (["--against", str(ROOT / "src"), "--against-label", "change"],
     "--against-label must differ from --label"),
])
def test_rejected_options_exit_2_and_write_nothing(tmp_path, options, message):
    out = tmp_path / "BENCH_init.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), "--suite", "init",
                           "--label", "change", "--out", str(out), *options], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not out.exists()
