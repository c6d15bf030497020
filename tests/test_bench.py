"""`scripts/bench.py`'s bookkeeping, each in a fresh interpreter (the script pins
the BLAS thread count in its environment when imported): a label's medians over
runs whose metrics differ and over its newest tree's runs, and the options it
rejects before it builds a suite."""

import json
import os
import shutil
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


# one timed and one counted metric, each a constant, timed on the tree on PYTHONPATH
CONSTANT_SUITE = """
import sys, bench
bench.SUITES = {{"constant": lambda tree: ({{("x_s",): (lambda: None, lambda s: {value})}},
                                          {{"count": {value}}})}}
sys.argv = ["bench.py", "--suite", "constant", "--label", "change", "--out", {out!r},
            "--repeats", "{repeats}"]
sys.exit(bench.main())
"""


def test_median_over_the_newest_trees_runs(tmp_path):
    # three runs of one tree, then two of an edited copy, under one label: the
    # median is the second tree's, and every run keeps the tree it timed
    out = tmp_path / "BENCH_constant.json"
    for tree, value, repeats in (("first", 1.0, 3), ("second", 3.0, 2)):
        shutil.copytree(ROOT / "src" / "lyapcert", tmp_path / tree / "lyapcert")
        with open(tmp_path / tree / "lyapcert" / "__init__.py", "a") as init:
            init.write(f"# {tree}\n")
        env = {**ENV, "PYTHONPATH": os.pathsep.join([str(ROOT / "scripts"),
                                                     str(tmp_path / tree)])}
        code = CONSTANT_SUITE.format(value=value, out=str(out), repeats=repeats)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text())["labels"]["change"]
    assert entry["median"] == {"x_s": 3.0, "count": 3.0}
    first, second = entry["runs"][0]["tree"], entry["runs"][-1]["tree"]
    assert first != second
    assert [run["tree"] for run in entry["runs"]] == [first] * 3 + [second] * 2


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
