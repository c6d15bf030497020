import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lyapcert import baselines, cli, dynamics, meta, net, roa, verify
from lyapcert.config import (MAX_GRID_NODES, ConfigError, MetaBlock, NlfBlock, PRESETS,
                             config_from_dict, config_hash, config_to_dict, load_config)
from lyapcert.loss import TightenedLossConfig

from helpers import gate_case, nominal_system, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]

PRESET_HASHES = {
    "ip_stochastic_l": "8c1ff8d758badd91",
    "ip_stochastic_lb": "da4ae98f363fc48d",
    "ip_stochastic_lmgb": "3858c0688629bd06",
    "mg3_dc12": "6b6ebdde6f85f3ea",
    "mg3_dc123": "839349b3da374182",
    "mg5_dc12": "130750f58306e04f",
    "mg5_dcall": "0a940afaade67675",
    "cf_m": "765d08a2dac40ee9",
    "cf_mrd": "864faaefe18f2f05",
}


def mini_config(tmp_path, **overrides):
    """A desk-second pendulum config for CLI round trips."""
    payload = {
        "name": "mini",
        "system": {
            "system_id": "pendulum",
            "theta0": [0.5, 0.15, 9.81, 0.1],
            "theta_test": [0.6, 0.15, 9.81, 0.1],
            "sigma_diag": [0.05, 0.0, 0.0, 0.0],
        },
        "meta": {"meta_steps": 40, "tasks_per_step": 2, "n_tasks": 2,
                 "m_batches": 2, "k_train": 8, "j_test": 8},
        "loss": {"eps1": 1.0, "eps2": 1.0},
        "verify": {"d0": 3.0, "nodes_per_axis": 41, "exempt_radius": 0.9,
                   "max_rounds": 1, "min_green_fraction": 0.0},
        "roa": {"mc_samples": 20, "mc_horizon": 5.0, "mc_tol": 0.5},
        "nlf": {"n_samples": 200, "n_steps": 30, "lr": 0.01, "batch_size": 32},
        "hidden": [8],
    }
    payload.update(overrides)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(payload))
    return path


def run(tmp_path, argv) -> int:
    """`lyapcert <argv> --out <tmp_path>/out`: a test's runs write under its own tmp_path."""
    return cli.main([*argv, "--out", str(tmp_path / "out")])


class TestConfig:
    def test_presets_parse_and_hash(self):
        assert len(PRESETS) == 9
        for name, cfg in PRESETS.items():
            assert cfg.name == name
            assert len(config_hash(cfg)) == 16
            rebuilt = config_from_dict(config_to_dict(cfg))
            assert config_hash(rebuilt) == config_hash(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        path = mini_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["verify"]["typo_field"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="typo_field"):
            load_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = mini_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["unexpected"] = {}
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="unexpected"):
            load_config(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_bad_system_values(self, tmp_path):
        path = mini_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["system"]["theta0"] = [-1.0, 0.15, 9.81, 0.1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_mc_gate_cap_counts_the_asked_steps(self, tmp_path):
        """The gate's cap is on mc_horizon / mc_step as asked: 1,000,000 steps of 0.01
        parse. On a stiff loop the gate splits each asked step (`roa.gate_step`), so it
        may integrate more steps than the cap counts."""
        block = load_config(mini_config(tmp_path, roa={"mc_samples": 20,
                                                        "mc_horizon": 10000.0})).roa
        assert block.mc_horizon / block.mc_step == 1_000_000
        _, step, stiff = gate_case("ip_stochastic_l", 0.254)
        assert step < stiff.mc_step

    def test_preset_hashes_pinned(self):
        # the config schema feeds every artifact stamp: a changed hash means
        # a changed schema or preset
        assert {name: config_hash(cfg) for name, cfg in PRESETS.items()} == PRESET_HASHES

    @pytest.mark.parametrize("block, key, value", [
        ("verify", "nodes_per_axis", 40),
        ("verify", "nodes_per_axis", 1),
        ("verify", "nodes_per_axis", 41.0),
        ("verify", "shrink_factor", 1.5),
        ("verify", "shrink_factor", 0.0),
        ("verify", "max_rounds", 0),
        ("verify", "d0", -1.0),
        ("verify", "exempt_radius", -0.1),
        ("verify", "min_green_fraction", 1.5),
        ("verify", "min_green_fraction", -0.1),
        ("verify", "d0", 0.0),
        ("roa", "mc_samples", 0),
        ("roa", "mc_step", 0.0),
        ("roa", "mc_horizon", 0.001),
        ("roa", "mc_tol", -1.0),
        ("roa", "plane", [0, 0]),
        ("roa", "plane", [0, 2]),
        ("nlf", "n_samples", 0),
        ("nlf", "n_steps", -1),
        ("nlf", "lr", 0.0),
        ("meta", "mode", "third_order"),
        ("meta", "inner_lr", 0.0),
        ("meta", "k_test", -1),
        ("meta", "n_tasks", 0),
        ("loss", "eps1", 0.0),
        ("seeds", "master", -1),
        ("system", "sigma_diag", [0.05, 0.0, 0.0]),
        ("system", "sigma_diag", [-0.05, 0.0, 0.0, 0.0]),
        ("meta", "adapt_samples", 60),          # over the test-time budget
        ("meta", "k_test", 20),
        ("meta", "m_batches", 0),
        ("meta", "k_train", 0),
        ("meta", "j_test", 0),
        ("meta", "adapt_samples", 0),
        ("nlf", "batch_size", 0),
        ("verify", "nodes_per_axis", 7073),     # 7073^2 nodes, over the grid cap
        ("system", "system_id", "quadrotor"),
        ("system", "theta0", [0.5, 0.15, 9.81]),        # a pendulum has 4 parameters
        ("system", "theta_test", [0.6, 0.0, 9.81, 0.1]),
        (None, "system", {"system_id": "microgrid", "theta0": [2.0], "theta_test": [2.0],
                          "sigma_diag": [0.0]}),        # one droop is no network
        (None, "out_dir", "elsewhere"),         # the output root is --out alone
        ("seeds", "fallback", [2, 3, 4]),       # no fallback list: criterion 7 keeps its own
        ("roa", "mc_horizon", 10000.01),        # 1,000,001 RK4 steps of 0.01, over the cap
    ])
    def test_bad_block_value_exits_2_before_training(self, tmp_path, capsys, block, key, value):
        path = mini_config(tmp_path)
        payload = json.loads(path.read_text())
        (payload.setdefault(block, {}) if block else payload)[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=block or key):
            load_config(path)
        assert run(tmp_path, ["train-meta", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key, value, expected", [
        ("system", "sigma_diag", [float("inf"), 0.0, 0.0, 0.0], cli.EXIT_NUMERIC),
        ("verify", "d0", float("nan"), cli.EXIT_NUMERIC),
        ("meta", "k_test", float("inf"), cli.EXIT_NUMERIC),
        (None, "hidden", [float("-inf")], cli.EXIT_NUMERIC),
        ("verify", "d0", True, cli.EXIT_CONFIG),
        ("loss", "eps2", True, cli.EXIT_CONFIG),
        ("system", "theta_test", [True, 0.15, 9.81, 0.1], cli.EXIT_CONFIG),
    ])
    def test_bad_number_exit_code_before_training(self, tmp_path, capsys, block, key, value,
                                                  expected):
        """A non-finite number, as a value or a list entry, exits 4; a boolean where a
        number belongs exits 2; both when the config is parsed."""
        path = mini_config(tmp_path)
        payload = json.loads(path.read_text())
        (payload.setdefault(block, {}) if block else payload)[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises((ConfigError, FloatingPointError), match=key):
            load_config(path)
        assert run(tmp_path, ["train-meta", "--config", str(path)]) == expected
        assert capsys.readouterr().err.startswith(
            "numeric failure" if expected == cli.EXIT_NUMERIC else "config error")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train-meta", "adapt", "verify", "roa"])
    @pytest.mark.parametrize("block, key, value", [
        (None, "hidden", [16.7, 16]),           # a width that is not an integer
        ("roa", "plane", [0, 1.5]),             # an axis that is not an integer
        (None, "name", 5),                      # a number where a string belongs
        (None, "name", "../escaped"),           # artifacts would leave --out
        (None, "name", "sub/dir"),
        (None, "name", ""),
        (None, "name", "."),
        (None, "name", ".."),
        ("verify", "nodes_per_axis", 7073),     # 7073^2 nodes, over the grid cap
    ])
    def test_bad_setting_exits_2_before_any_work(self, tmp_path, capsys, command, block, key,
                                                  value):
        """Every command rejects a mistyped value, a name that is not a plain directory
        name and a grid over the node cap when the config is parsed: a one-line error,
        exit 2, before a checkpoint is read or anything is trained or written."""
        path = mini_config(tmp_path)
        payload = json.loads(path.read_text())
        (payload.setdefault(block, {}) if block else payload)[key] = value
        path.write_text(json.dumps(payload))
        argv = [command, "--config", str(path)]
        if command != "train-meta":
            argv += ["--checkpoint", str(ROOT / "perfbench" / "data" / "meta_checkpoint.json")]
        assert run(tmp_path, argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1 and key in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.json"]

    def test_plane_above_two_dimensions(self):
        """Above two dimensions the plane areas are measured and maps drawn on is
        roa.plane (two dimensions: test_two_dim_system_ignores_configured_plane)."""
        assert PRESETS["cf_m"].plane == PRESETS["cf_m"].roa.plane == (0, 2)
        assert PRESETS["mg3_dc12"].plane == PRESETS["mg3_dc12"].roa.plane == (0, 1)

    def test_float_fields_take_integers(self, tmp_path):
        """A JSON integer where a float belongs parses, and is hashed as written."""
        cfg = load_config(mini_config(tmp_path, loss={"eps1": 1, "eps2": 1.0}))
        assert type(cfg.loss.eps1) is int and cfg.loss == TightenedLossConfig(1.0, 1.0)
        assert config_hash(cfg) != config_hash(load_config(mini_config(tmp_path)))

    def test_network_larger_than_init_fit_exits_2(self, tmp_path, capsys):
        """The bowl init solves normal equations in the network's parameters; a network
        with more parameters than the fit's points is rejected when the config is parsed."""
        path = mini_config(tmp_path, hidden=[64, 64])
        assert run(tmp_path, ["train-meta", "--config", str(path)]) == cli.EXIT_CONFIG
        # 2 * 64 + 64 weights and biases, 64 * 64 + 64, then 64 + 1 for the output
        assert "4417 parameters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset, dim", [("ip_stochastic_l", 2), ("mg3_dc12", 3)])
    def test_grid_just_above_the_cap_exits_2(self, tmp_path, capsys, preset, dim):
        """The largest odd nodes_per_axis within the grid cap parses; the next one
        exits 2 when the config is parsed, before any grid is built."""
        within = int(round(MAX_GRID_NODES ** (1 / dim))) | 1
        while within**dim > MAX_GRID_NODES:
            within -= 2
        payload = config_to_dict(PRESETS[preset])
        for nodes in (within, within + 2):
            payload["verify"]["nodes_per_axis"] = nodes
            path = tmp_path / f"{preset}.json"
            path.write_text(json.dumps(payload))
            if nodes == within:
                assert load_config(path).verify.nodes_per_axis == nodes
                continue
            assert nodes**dim - MAX_GRID_NODES < 0.03 * MAX_GRID_NODES   # just above
            assert run(tmp_path, ["train-meta", "--config", str(path)]) == cli.EXIT_CONFIG
            assert f"more than {MAX_GRID_NODES:,} nodes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exit_2(self, tmp_path):
        path = mini_config(tmp_path)
        code = run(tmp_path, ["train-meta", "--config", str(path), "--seed", "-1"])
        assert code == cli.EXIT_CONFIG

    def test_hash_changes_with_content(self, tmp_path):
        cfg_a = load_config(mini_config(tmp_path))
        cfg_b = load_config(mini_config(tmp_path, name="mini2"))
        assert config_hash(cfg_a) != config_hash(cfg_b)


class TestCliCommands:
    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "system": {"system_id": "pendulum"}}))
        code = run(tmp_path, ["train-meta", "--config", str(path)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_preset_exit_2(self, tmp_path):
        assert run(tmp_path, ["compare", "--config", "/nonexistent/x.json"]) == cli.EXIT_CONFIG

    def test_full_mini_pipeline(self, tmp_path):
        cfg_path = mini_config(tmp_path)
        out = tmp_path / "out" / "mini"
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_OK
        ckpt = out / "meta_checkpoint.json"
        assert ckpt.exists()
        assert (out / "region.json").exists()

        assert run(tmp_path, ["adapt", "--config", str(cfg_path),
                              "--checkpoint", str(ckpt)]) == cli.EXIT_OK
        adapted = out / "adapted_checkpoint.json"
        ledger = json.loads((out / "adapt_ledger.json").read_text())
        assert ledger["samples_used"] <= 50 and ledger["steps_used"] <= 10

        assert run(tmp_path, ["verify", "--config", str(cfg_path),
                              "--checkpoint", str(adapted)]) == cli.EXIT_OK
        assert (out / "validity_map.csv").exists()
        import xml.dom.minidom
        xml.dom.minidom.parseString((out / "validity_map.svg").read_text())

        assert run(tmp_path, ["roa", "--config", str(cfg_path),
                              "--checkpoint", str(adapted)]) == cli.EXIT_OK
        roa_payload = json.loads((out / "roa.json").read_text())
        assert "c" in roa_payload and "config_hash" in roa_payload

        assert run(tmp_path, ["simulate", "--config", str(cfg_path),
                              "--x0", "0.2,0.0", "--h", "0.01", "--horizon", "2.0"]) == cli.EXIT_OK
        assert (out / "trajectory.csv").exists()
        assert (out / "trajectory.svg").exists()

    def test_adapt_k_zero_identity(self, tmp_path):
        cfg_path = mini_config(tmp_path)
        payload = json.loads(cfg_path.read_text())
        payload["meta"]["k_test"] = 0
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "out" / "mini"
        run(tmp_path, ["train-meta", "--config", str(cfg_path)])
        run(tmp_path, ["adapt", "--config", str(cfg_path),
                       "--checkpoint", str(out / "meta_checkpoint.json")])
        theta0, _, _ = net.load_checkpoint(out / "meta_checkpoint.json")
        theta1, _, _ = net.load_checkpoint(out / "adapted_checkpoint.json")
        np.testing.assert_array_equal(theta0, theta1)

    def test_missing_checkpoint_exit_2(self, tmp_path):
        cfg_path = mini_config(tmp_path)
        code = run(tmp_path, ["verify", "--config", str(cfg_path),
                              "--checkpoint", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_CONFIG

    def test_arch_mismatch_exit_2(self, tmp_path):
        cfg_path = mini_config(tmp_path)
        bad = tmp_path / "bad_ckpt.json"
        arch = net.Architecture(3, (4,))
        save_checkpoint(bad, net.init_params(arch, 0), arch)
        code = run(tmp_path, ["verify", "--config", str(cfg_path), "--checkpoint", str(bad)])
        assert code == cli.EXIT_CONFIG

    def test_region_failure_exit_3(self, tmp_path, capsys):
        cfg_path = mini_config(tmp_path, name="hard",
                               verify={"d0": 3.0, "nodes_per_axis": 41,
                                       "exempt_radius": 0.0, "max_rounds": 1,
                                       "min_green_fraction": 1.0})
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_VERIFICATION
        # one line per task (n_tasks = 2): interior green fraction, red counts by condition
        lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("task ")]
        assert len(lines) == 2
        for i, line in enumerate(lines):
            assert line.startswith(f"task {i}: interior green fraction ")
            assert "positivity" in line and "decrease" in line

    def test_map_only_commands_extract_no_roa(self, tmp_path, monkeypatch):
        def no_roa(*args, **kwargs):
            raise AssertionError("roa.largest_level_set called by a map-only command")

        monkeypatch.setattr(roa, "largest_level_set", no_roa)
        cfg_path = mini_config(tmp_path)
        out = tmp_path / "out" / "mini"
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_OK
        assert run(tmp_path, ["verify", "--config", str(cfg_path),
                              "--checkpoint", str(out / "meta_checkpoint.json")]) == cli.EXIT_OK
        summary = json.loads((out / "validity_summary.json").read_text())
        worst = summary["worst_bounds"]
        assert set(worst) == {"vbar_low", "lie_high"}
        assert all(len(bound["node"]) == 2 and math.isfinite(bound["bound"])
                   for bound in worst.values())

    def test_train_meta_rerun_bitwise(self, tmp_path):
        cfg_path = mini_config(tmp_path)
        out = tmp_path / "out" / "mini"
        run(tmp_path, ["train-meta", "--config", str(cfg_path)])
        first = (out / "meta_checkpoint.json").read_bytes()
        run(tmp_path, ["train-meta", "--config", str(cfg_path)])
        assert (out / "meta_checkpoint.json").read_bytes() == first

    def test_train_report_keys(self, tmp_path):
        """train_report.json holds the stamp, the loss curve and the checkpoint's name;
        the settings are in config_echo.json alone."""
        cfg_path = mini_config(tmp_path)
        out = tmp_path / "out" / "mini"
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_OK
        report = json.loads((out / "train_report.json").read_text())
        assert set(report) == {"config_hash", "seed", "preset", "loss_curve", "checkpoint"}
        assert report["checkpoint"] == "meta_checkpoint.json"
        assert len(report["loss_curve"]) == 40
        assert json.loads((out / "config_echo.json").read_text())["meta"]["meta_steps"] == 40

    def test_compare_mini(self, tmp_path):
        cfg_path = mini_config(tmp_path)
        out = tmp_path / "out" / "mini"
        assert run(tmp_path, ["compare", "--config", str(cfg_path)]) == cli.EXIT_OK
        rows = json.loads((out / "comparison.json").read_text())["rows"]
        methods = {r["method"] for r in rows}
        assert {"META_NLF", "NLF_TS", "T_NLF", "QLF_TS", "SOS_LF_TS"} == methods
        first = (out / "comparison.csv").read_bytes()
        assert run(tmp_path, ["compare", "--config", str(cfg_path)]) == cli.EXIT_OK
        assert (out / "comparison.csv").read_bytes() == first

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "sub" / "file.json"
        cli.atomic_write_json(target, {"a": 1})
        assert json.loads(target.read_text()) == {"a": 1}
        leftovers = [p for p in target.parent.iterdir() if p.name != "file.json"]
        assert not leftovers
        plain = tmp_path / "sub" / "plain.txt"
        plain.write_text("x")
        assert target.stat().st_mode == plain.stat().st_mode

    def test_vacuous_region_exits_2(self, tmp_path, capsys):
        # an exemption ball wider than the region leaves no node to check
        cfg_path = mini_config(tmp_path, verify={"d0": 1.0, "exempt_radius": 1.1,
                                                 "max_rounds": 3, "min_green_fraction": 0.0})
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert "exempt_radius" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_region_without_checked_interior_node_exits_3(self, tmp_path, capsys):
        # a 3 x 3 grid has only the origin off its boundary layer
        cfg_path = mini_config(tmp_path, verify={"d0": 3.0, "nodes_per_axis": 3,
                                                 "exempt_radius": 0.9, "max_rounds": 1,
                                                 "min_green_fraction": 0.0})
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_VERIFICATION
        assert "0 interior nodes checked" in capsys.readouterr().err
        assert not (tmp_path / "out" / "mini" / "meta_checkpoint.json").exists()


@pytest.fixture
def mini_checkpoint(tmp_path):
    arch = net.Architecture(2, (8,))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, net.init_params(arch, 0), arch)
    truncated = tmp_path / "truncated.json"
    truncated.write_text(path.read_text()[:40])
    return path, truncated


def test_artifacts_share_one_mode_and_leave_no_temp_file(tmp_path, mini_checkpoint):
    ckpt, _ = mini_checkpoint
    cfg_path = mini_config(tmp_path)
    for command in ("verify", "roa"):
        assert run(tmp_path, [command, "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
    out = tmp_path / "out" / "mini"
    names = sorted(p.name for p in out.iterdir())
    assert names == ["roa.json", "roa_boundary.csv", "roa_mc.json", "roa_overlay.svg",
                     "validity_map.csv", "validity_map.svg", "validity_summary.json"]
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert {(out / name).stat().st_mode for name in names} == {plain.stat().st_mode}


def test_artifacts_do_not_depend_on_the_output_root(tmp_path, mini_checkpoint):
    """The output root is no setting: verify and roa of one checkpoint into two --out
    roots write byte-identical <name>/ trees, config_hash stamps included."""
    ckpt, _ = mini_checkpoint
    cfg_path = mini_config(tmp_path)
    trees = []
    for out in (tmp_path / "first", tmp_path / "second" / "nested"):
        for command in ("verify", "roa"):
            assert cli.main([command, "--config", str(cfg_path), "--checkpoint", str(ckpt),
                             "--out", str(out)]) == cli.EXIT_OK
        tree = out / "mini"
        trees.append({str(p.relative_to(tree)): p.read_bytes() for p in tree.rglob("*")})
    assert len(trees[0]) == 7 and trees[0] == trees[1]


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """verify and roa of the committed checkpoint on the ip_stochastic_l grid (31,877
    nodes) write byte-identical trees at one and at two BLAS threads: the map's
    matrix products have at most verify.BLOCK rows. A one-pass sweep of all nodes
    gave validity_map.csv other last bits at two threads."""
    checkpoint = ROOT / "perfbench" / "data" / "meta_checkpoint.json"
    trees = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        out = tmp_path / threads
        for command in ("verify", "roa"):
            subprocess.run([sys.executable, "-m", "lyapcert.cli", command, "--preset",
                            "ip_stochastic_l", "--checkpoint", str(checkpoint), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
        tree = out / "ip_stochastic_l"
        trees.append({str(p.relative_to(tree)): p.read_bytes() for p in tree.rglob("*")})
    assert len(trees[0]) == 7 and trees[0] == trees[1]


def test_adapt_queries_the_test_system_at_its_budget(tmp_path, mini_checkpoint, monkeypatch):
    """`adapt` evaluates the test system's field at exactly meta.adapt_samples states,
    the count its ledger reports."""
    rows = []
    f_batch = dynamics.ClosedLoopSystem.f_batch

    def counted(self, X):
        rows.append(X.shape[0])
        return f_batch(self, X)

    monkeypatch.setattr(dynamics.ClosedLoopSystem, "f_batch", counted)
    ckpt, _ = mini_checkpoint
    assert run(tmp_path, ["adapt", "--config", str(mini_config(tmp_path)),
                          "--checkpoint", str(ckpt)]) == cli.EXIT_OK
    ledger = json.loads((tmp_path / "out" / "mini" / "adapt_ledger.json").read_text())
    assert sum(rows) == ledger["samples_used"] == MetaBlock().adapt_samples


@pytest.mark.parametrize("argv", [
    ["train-meta", "--mode", "first_order"],
    ["compare", "--mode", "first_order"],
    ["adapt", "--checkpoint", "{ckpt}", "--k", "0"],
    ["adapt", "--checkpoint", "{ckpt}", "--samples", "10"],
])
def test_removed_flags_exit_2(tmp_path, mini_checkpoint, capsys, argv):
    """The test-time budget and the meta-gradient mode live in the meta block only: a
    command line that still passes --mode, --k or --samples is a usage error, exit 2,
    before anything is written."""
    argv = [a.format(ckpt=mini_checkpoint[0]) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, [argv[0], "--config", str(mini_config(tmp_path)), *argv[1:]])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_roa_gate_rejection_exit_3(tmp_path, mini_checkpoint, monkeypatch, capsys):
    """A certificate the rollouts refute exits 3 once its artifacts are written.

    The test pendulum (l = 4) has an unstable origin, and the doctored level
    set raises c to claim the whole grid ball."""
    ckpt, _ = mini_checkpoint
    cfg_path = mini_config(tmp_path, system={"system_id": "pendulum",
                                             "theta0": [0.5, 0.15, 9.81, 0.1],
                                             "theta_test": [4.0, 0.15, 9.81, 0.1],
                                             "sigma_diag": [0.05, 0.0, 0.0, 0.0]})
    out = tmp_path / "out" / "mini"
    code = run(tmp_path, ["roa", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
    assert code == cli.EXIT_OK
    assert json.loads((out / "roa_mc.json").read_text())["vacuous"]
    for name in ("roa.json", "roa_mc.json"):
        (out / name).unlink()

    def raised(vmap, grid, plane):
        rows = np.nonzero(~grid.boundary)[0]
        return roa.RoaResult(c=float(np.max(vmap.vbar[rows])), member_rows=rows,
                             area=float(rows.size * grid.cell_volume), plane=plane)

    monkeypatch.setattr(roa, "largest_level_set", raised)
    capsys.readouterr()
    code = run(tmp_path, ["roa", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
    assert code == cli.EXIT_VERIFICATION
    assert "verification failure" in capsys.readouterr().err
    assert not json.loads((out / "roa.json").read_text())["empty"]
    mc = json.loads((out / "roa_mc.json").read_text())
    assert mc["fraction"] < 1.0 and mc["step"] == 0.01


@pytest.mark.parametrize("argv, expected", [
    (["adapt", "--checkpoint", "{directory}"], cli.EXIT_CONFIG),
    (["adapt", "--checkpoint", "{missing}"], cli.EXIT_CONFIG),
    (["adapt", "--checkpoint", "{truncated}"], cli.EXIT_CONFIG),
    (["verify", "--checkpoint", "{truncated}"], cli.EXIT_CONFIG),
    (["roa", "--checkpoint", "{truncated}"], cli.EXIT_CONFIG),
    (["simulate", "--x0", "0.2,0.0", "--h", "0"], cli.EXIT_CONFIG),
    (["simulate", "--x0", "1,2,3"], cli.EXIT_CONFIG),
    (["simulate", "--x0", "1,abc"], cli.EXIT_CONFIG),
    (["simulate", "--x0", "1,nan"], cli.EXIT_NUMERIC),
    (["simulate", "--x0", "0.2,0.0", "--h", "inf", "--horizon", "inf"], cli.EXIT_NUMERIC),
    (["simulate", "--x0", "0.2,0.0", "--horizon", "nan"], cli.EXIT_NUMERIC),
    (["simulate", "--x0", "0.2,0.0", "--h", "0.1", "--horizon", "0.05"], cli.EXIT_CONFIG),
    (["verify", "--checkpoint", "{directory}"], cli.EXIT_CONFIG),
    (["roa", "--checkpoint", "{directory}"], cli.EXIT_CONFIG),
    # over the step cap: horizon / h overflows to infinity, or asks for 1e10 steps
    (["simulate", "--x0", "0.2,0.0", "--h", "1e-300", "--horizon", "1e10"], cli.EXIT_CONFIG),
    (["simulate", "--x0", "0.2,0.0", "--h", "1e-7", "--horizon", "1000"], cli.EXIT_CONFIG),
])
def test_bad_cli_input_exit_code(tmp_path, mini_checkpoint, capsys, argv, expected):
    """Bad command-line input exits with a one-line message before the output
    directory is made. A directory given as the checkpoint is unreadable; so is a
    file the user may not read (the same OSError path), which is not tested, as
    root reads any file."""
    _, truncated = mini_checkpoint
    cfg_path = mini_config(tmp_path)
    argv = [a.format(truncated=truncated, directory=tmp_path, missing=tmp_path / "nope.json")
            for a in argv]
    assert run(tmp_path, [argv[0], "--config", str(cfg_path), *argv[1:]]) == expected
    assert capsys.readouterr().err.count("\n") == 1   # a one-line message, not a traceback
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_dynamics_exit_4(tmp_path, mini_checkpoint, capsys):
    """A test-time pendulum of mass 1e-320 has infinite dynamics: the MC gate's
    linearization finds them, and roa exits 4."""
    ckpt, _ = mini_checkpoint
    cfg_path = mini_config(tmp_path, system={"system_id": "pendulum",
                                             "theta0": [0.5, 0.15, 9.81, 0.1],
                                             "theta_test": [0.6, 1e-320, 9.81, 0.1],
                                             "sigma_diag": [0.05, 0.0, 0.0, 0.0]},
                           verify={"d0": 3.0, "nodes_per_axis": 11, "exempt_radius": 0.9})
    code = run(tmp_path, ["roa", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure")


@pytest.mark.parametrize("command", ["adapt", "verify", "roa"])
@pytest.mark.parametrize("radius, bad_theta, expected", [
    (-1.0, False, cli.EXIT_CONFIG),
    (0.0, False, cli.EXIT_CONFIG),
    ("abc", False, cli.EXIT_CONFIG),
    (float("nan"), False, cli.EXIT_NUMERIC),
    (10**400, False, cli.EXIT_NUMERIC),
    (3.0, True, cli.EXIT_NUMERIC),
    pytest.param(None, False, cli.EXIT_CONFIG, id="extra-not-an-object"),
])
def test_bad_checkpoint_content_exit_code(tmp_path, capsys, command, radius, bad_theta, expected):
    """A checkpoint radius that is not a positive number, or an `extra` that is not a
    JSON object (the None row: `extra` is 5), exits 2; a non-finite radius or
    parameter exits 4; both before the output directory is made."""
    arch = net.Architecture(2, (8,))
    theta = net.init_params(arch, 0)
    if bad_theta:
        theta[3] = np.nan
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, theta, arch, extra=5 if radius is None else {"radius": radius})
    cfg_path = mini_config(tmp_path)
    code = run(tmp_path, [command, "--config", str(cfg_path), "--checkpoint", str(ckpt)])
    assert code == expected
    assert capsys.readouterr().err   # a one-line message, not a traceback
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["adapt", "verify", "roa"])
@pytest.mark.parametrize("key, value", [("hidden", [16.7, 16]), ("input_dim", 2.0)])
def test_checkpoint_shape_not_integer_exit_2(tmp_path, capsys, command, key, value):
    """A layer width or input dimension that is not an integer exits 2 before any
    artifact is written, in place of a width cut to an integer or a traceback."""
    payload = json.loads((ROOT / "perfbench" / "data" / "meta_checkpoint.json").read_text())
    payload["arch"][key] = value
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(payload))
    code = cli.main([command, "--preset", "ip_stochastic_l", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("artifact error")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["adapt", "verify", "roa"])
@pytest.mark.parametrize("radius", [0.5, 1.1])
def test_radius_within_exemption_radius_exit_2(tmp_path, capsys, command, radius):
    """A region no larger than the exemption ball certifies nothing: the benchmark's
    checkpoint restamped with a radius at or below ip_stochastic_l's exempt_radius
    (1.1) exits 2 before any artifact is written."""
    theta, arch, extra = net.load_checkpoint(ROOT / "perfbench" / "data" / "meta_checkpoint.json")
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, theta, arch, extra={**extra, "radius": radius})
    assert PRESETS["ip_stochastic_l"].verify.exempt_radius == 1.1
    code = cli.main([command, "--preset", "ip_stochastic_l", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "exemption radius" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-meta", "verify"])
def test_out_through_a_file_exit_2(tmp_path, capsys, monkeypatch, mini_checkpoint, command):
    """An --out whose path runs through a regular file exits 2 with one line on stderr;
    train-meta does so before any training."""
    def no_training(*args):
        raise AssertionError("trained before the output directory was made")

    monkeypatch.setattr(baselines, "meta_train_for", no_training)
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    argv = [command, "--config", str(mini_config(tmp_path)), "--out", str(blocker / "out")]
    if command == "verify":
        argv += ["--checkpoint", str(mini_checkpoint[0])]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert blocker.read_text() == "x"


def test_two_dim_system_ignores_configured_plane(tmp_path):
    """A 2-d config whose roa.plane is (1, 0) measures and draws on (0, 1): its verify
    and roa artifacts are those of the (0, 1) config but for the stamp, and roa.json
    has "plane": null."""
    outs = []
    for plane in ([0, 1], [1, 0]):
        payload = config_to_dict(PRESETS["ip_stochastic_l"])
        payload["roa"].update(plane=plane, mc_samples=50)
        path = tmp_path / f"plane{plane[0]}.json"
        path.write_text(json.dumps(payload))
        assert load_config(path).plane == (0, 1)
        for command in ("verify", "roa"):
            assert cli.main([command, "--config", str(path), "--out",
                             str(tmp_path / f"out{plane[0]}"), "--checkpoint",
                             str(ROOT / "perfbench" / "data" / "meta_checkpoint.json")]) == 0
        outs.append(tmp_path / f"out{plane[0]}" / "ip_stochastic_l")
    for name in ("validity_map.svg", "roa_overlay.svg", "roa_boundary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    reports = [json.loads((out / "roa.json").read_text()) for out in outs]
    for report in reports:
        del report["config_hash"]
    assert reports[0] == reports[1] and reports[0]["plane"] is None and not reports[0]["empty"]


def test_benchmark_wrapped_names_resolve():
    """The benchmark's tracer patches library functions by name and reads some
    arguments by position; installing it fails if a wrapped name is gone."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                         str(ROOT / "perfbench")])}
    script = "import traced_cli; traced_cli.install(traced_cli.Recorder())"
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(meta.meta_train)[2] == "meta_cfg"
    assert params(verify.check_validity)[2] == "grid"
    assert params(net.loss_gradient)[2] == "batch"
    assert params(dynamics.simulate_batch)[1:4] == ["X0", "h", "horizon"]
    arch = net.Architecture(2, (4,))
    trained = baselines.train_nlf(nominal_system("pendulum"), 1.0, arch,
                                  TightenedLossConfig(), NlfBlock(10, 3, 0.01, 4), seed=0)
    assert trained[2] == 3


@pytest.mark.parametrize("workload", ["meta_fit", "adapt_certify", "compare_mg3"])
@pytest.mark.parametrize("seed", [0, 101])
def test_benchmark_inputs_parse(tmp_path, workload, seed):
    """Every config the benchmark's set-up step writes loads under the parse rules."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_inputs(workload, seed, tmp_path)
    configs = [p for p in tmp_path.glob("*.json") if p.name != "inputs.json"]
    assert configs
    for path in configs:
        load_config(path)
