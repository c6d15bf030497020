"""Each output check accepts the program's real output and rejects a deliberately wrong one.

    python3 -m pytest perfbench/tests -q

The certificate fixtures run adapt -> verify -> roa once, on the preset's own
test tuple and the committed meta checkpoint (about 3 s).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def fixed_task(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("fixed")
    env = {**os.environ, **run.child_env()}
    adapted = out / "ip_stochastic_l" / "adapted_checkpoint.json"
    for command, ckpt in (("adapt", run.CHECKPOINT), ("verify", adapted), ("roa", adapted)):
        subprocess.run([sys.executable, "-m", "lyapcert.cli", command, "--preset",
                        "ip_stochastic_l", "--checkpoint", str(ckpt), "--out", str(out)],
                       cwd=ROOT, env=env, check=True, capture_output=True)
    return out / "ip_stochastic_l"


@pytest.fixture(scope="module")
def certificate(fixed_task):
    layers = checks.load_mlp(fixed_task / "adapted_checkpoint.json")
    roa = json.loads((fixed_task / "roa.json").read_text())
    nodes = checks.NodeMap(fixed_task / "validity_map.csv", roa["grid"]["radius"],
                           roa["grid"]["nodes_per_axis"])
    return layers, nodes, roa


def test_program_output_passes_every_check(fixed_task):
    assert checks.check_outputs("adapt_certify", fixed_task) == {
        "nonempty": True, "gate_rejected": False, "containment_violations": 0}


def test_gate_rejection_is_counted_only_where_asked(fixed_task, tmp_path):
    rejected = tmp_path / "rejected"
    shutil.copytree(fixed_task, rejected)
    mc = json.loads((rejected / "roa_mc.json").read_text())
    (rejected / "roa_mc.json").write_text(json.dumps({**mc, "fraction": 0.0}))
    assert checks.check_outputs("adapt_certify", rejected, "gate")["gate_rejected"]
    assert not checks.check_outputs("adapt_certify", fixed_task, "gate")["gate_rejected"]
    with pytest.raises(checks.CheckFailure, match="mc fraction"):
        checks.check_outputs("adapt_certify", rejected)


def test_changed_vbar_in_validity_map_fails(certificate):
    layers, nodes, _ = certificate
    wrong = copy.copy(nodes)
    wrong.vbar = nodes.vbar.copy()
    wrong.vbar[len(wrong.vbar) // 3] += 1e-6
    with pytest.raises(checks.CheckFailure, match="forward pass"):
        checks.check_validity_map(layers, wrong)


def test_raised_level_fails_area_check(certificate):
    layers, _, roa = certificate
    checks.check_roa_area(layers, roa)
    with pytest.raises(checks.CheckFailure, match="Monte-Carlo area"):
        checks.check_roa_area(layers, {**roa, "c": roa["c"] * 1.1})


def test_empty_certificate_with_area_fails(certificate):
    layers, _, roa = certificate
    with pytest.raises(checks.CheckFailure, match="empty certificate"):
        checks.check_roa_area(layers, {**roa, "empty": True})


def test_mc_fraction_below_one_fails():
    checks.check_mc_gate({"empty": True}, {"fraction": 0.5})
    with pytest.raises(checks.CheckFailure, match="mc fraction"):
        checks.check_mc_gate({"empty": False}, {"fraction": 0.999})


@pytest.mark.parametrize("samples, steps", [(51, 10), (50, 11)])
def test_adaptation_over_budget_fails(samples, steps):
    checks.check_adapt_budget({"samples_used": 50, "steps_used": 10})
    with pytest.raises(checks.CheckFailure, match="adaptation used"):
        checks.check_adapt_budget({"samples_used": samples, "steps_used": steps})


def test_containment_counts_the_unsound_level_cap(certificate):
    layers, nodes, roa = certificate
    assert checks.containment_violations(layers, nodes, roa) > 0
    # 2.93 is below the cap that interval bounds give for this candidate.
    assert checks.containment_violations(layers, nodes, {**roa, "c": 2.93}) == 0


def test_loss_curve_must_fall():
    checks.check_loss_curve({"loss_curve": [3.0] * 10 + [1.0] * 10})
    with pytest.raises(checks.CheckFailure, match="did not fall"):
        checks.check_loss_curve({"loss_curve": [1.0] * 10 + [3.0] * 10})


def _table(**changes):
    rows = [{"method": m, "area": 20.0, "c": 1.0, "mc_fraction": 1.0, "test_samples": 50,
             "test_steps": 10, "status": "ok"} for m in checks.COMPARED]
    rows.append({"method": "SOS_LF_TS", "area": "", "c": "", "mc_fraction": "",
                 "test_samples": "", "test_steps": "", "status": "not implemented"})
    rows[2].update(changes)
    return {"rows": rows}


@pytest.mark.parametrize("changes, message", [
    ({"status": "unsound certificate: mc fraction 0.9990"}, "status"),
    ({"test_steps": 11}, "budget"),
    ({"mc_fraction": 0.99}, "mc fraction"),
])
def test_comparison_rejects_bad_rows(changes, message):
    checks.check_comparison(_table())
    with pytest.raises(checks.CheckFailure, match=message):
        checks.check_comparison(_table(**changes))


def test_repetitions_must_match_bytewise():
    run.check_same_bytes({"a.json": b"1"}, {"a.json": b"1"})
    with pytest.raises(run.CheckFailure, match="differs"):
        run.check_same_bytes({"a.json": b"1"}, {"a.json": b"2"})
    with pytest.raises(run.CheckFailure, match="artifact sets"):
        run.check_same_bytes({"a.json": b"1"}, {})


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["op_s", "setup_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in run.PER_LAYER]


def test_run_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "meta_fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_clock_advances_while_the_host_runs():
    clock = run.HostClock(min(os.sched_getaffinity(0)))
    clock.start()
    try:
        time.sleep(0.3)
        assert 0.05 < clock.now() < 3.0
    finally:
        clock.stop()
