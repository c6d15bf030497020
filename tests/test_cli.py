import argparse
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lyapcert import baselines, cli, dynamics, meta, net, roa, verify
from lyapcert.config import (MAX_RADIUS, MEMORY_BUDGET, ConfigError, MetaBlock, NlfBlock,
                             PRESETS, config_from_dict, config_hash, config_to_dict, load_config,
                             nominal_microgrid)
from lyapcert.baselines import QuadraticLyapunov
from lyapcert.loss import TightenedLossConfig

from helpers import nominal_system, row_of, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]

PRESET_HASHES = {
    "ip_stochastic_l": "8deb8d33039ddc68",
    "ip_stochastic_lb": "e20b35e0c2b68287",
    "ip_stochastic_lmgb": "1b2eca58aab93d79",
    "mg3_dc12": "758eb272e35bba7e",
    "mg3_dc123": "92a0ce0201e509d6",
    "mg5_dc12": "471f20ddb09d33cd",
    "mg5_dcall": "c52c9eacc8ed0a23",
    "cf_m": "15ef4630f1461f9e",
    "cf_mrd": "90ef99e17f36311d",
}


# the keys of a task's report in region.json's history
TASK_REPORT_KEYS = {"green_fraction", "red_positivity", "red_positivity_at_node", "red_decrease",
                    "red_decrease_at_node", "checked", "c", "area", "binding"}

# a verify block no mini run passes: with no node exempt, the nodes next to the origin
# have vbar_low <= 0 and cap every certificate at c = 0
HARD_VERIFY = {"d0": 3.0, "nodes_per_axis": 41, "exempt_radius": 0.0, "max_rounds": 1}


def mini_config(tmp_path, **overrides):
    """A desk-second pendulum config for CLI round trips; `train-meta` certifies both
    of its tasks (c > 0) at the first radius."""
    payload = {
        "name": "mini",
        "system": {
            "system_id": "pendulum",
            "theta0": [0.5, 0.15, 9.81, 0.1],
            "theta_test": [0.6, 0.15, 9.81, 0.1],
            "sigma_diag": [0.05, 0.0, 0.0, 0.0],
        },
        "meta": {"meta_steps": 200, "tasks_per_step": 2, "n_tasks": 2,
                 "m_batches": 2, "k_train": 8, "j_test": 8},
        "loss": {"eps1": 1.0, "eps2": 1.0},
        "verify": {"d0": 2.0, "nodes_per_axis": 81, "exempt_radius": 0.9, "max_rounds": 1},
        "roa": {"mc_samples": 20},
        "nlf": {"n_samples": 200, "n_steps": 30, "lr": 0.01, "batch_size": 32},
        "hidden": [8],
    }
    payload.update(overrides)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(payload))
    return path


def bowl_map(grid, red, vbar_low=None, lie_high=None):
    """A map of Vbar = |x|^2 and Lie = -|x|^2, green at every non-exempt node, with
    0.9 of each as its cell bounds; the `red` rows take the given vbar_low or lie_high."""
    vbar = np.sum(grid.coords(np.arange(grid.n_nodes)) ** 2, axis=1)
    bounds = {"vbar_low": 0.9 * vbar, "lie_high": -0.9 * vbar}
    for key, value in (("vbar_low", vbar_low), ("lie_high", lie_high)):
        if value is not None:
            bounds[key][red] = value
    return verify.ValidityMap(vbar=vbar, lie=-vbar, exempt=grid.exempt, **bounds)


def stderr_tasks(err):
    """The task records of a failing train-meta's stderr, one JSON object a line."""
    return [json.loads(line.split(": ", 1)[1]) for line in err.splitlines()
            if line.startswith("task ")]


def run(tmp_path, argv) -> int:
    """`lyapcert <argv> --out <tmp_path>/out`: a test's runs write under its own tmp_path."""
    return cli.main([*argv, "--out", str(tmp_path / "out")])


def microgrid_block(n):
    """The config's system block of an n-droop microgrid at its nominal droops."""
    droops = list(nominal_microgrid(n))
    return {"system_id": "microgrid", "theta0": droops, "theta_test": droops,
            "sigma_diag": [0.0] * n}


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
        ("verify", "shrink_factor", 1.0),
        ("verify", "exempt_radius", 2.0),      # the radius itself: every node exempt
        ("verify", "d0", 0.0),
        ("roa", "mc_samples", 0),
        ("roa", "mc_step", 0.0),
        ("roa", "plane", [0, 1, 2]),
        ("roa", "plane", [0, -1]),
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
        ("verify", "nodes_per_axis", 7073),     # 7073^2 box nodes, over the memory budget
        ("system", "system_id", "quadrotor"),
        ("system", "theta0", [0.5, 0.15, 9.81]),        # a pendulum has 4 parameters
        ("system", "theta_test", [0.6, 0.0, 9.81, 0.1]),
        (None, "system", {"system_id": "microgrid", "theta0": [2.0], "theta_test": [2.0],
                          "sigma_diag": [0.0]}),        # one droop is no network
        (None, "out_dir", "elsewhere"),         # the output root is --out alone
        ("seeds", "fallback", [2, 3, 4]),       # no fallback list: criterion 7 keeps its own
        ("verify", "d0", 1e155),                # the grid's coordinates square to infinity
        ("verify", "d0", 1e300),
        ("verify", "max_rounds", 1001),
        # counts far past float range: the budget is checked in integers, so exit 2, not 4
        pytest.param("verify", "nodes_per_axis", 10**100 + 1, id="verify-nodes_per_axis-1e100+1"),
        pytest.param("meta", "meta_steps", 10**30, id="meta-meta_steps-1e30"),
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
        ("verify", "nodes_per_axis", 7073),     # 7073^2 box nodes, over the memory budget
    ])
    def test_bad_setting_exits_2_before_any_work(self, tmp_path, capsys, command, block, key,
                                                  value):
        """Every command rejects a mistyped value, a name that is not a plain directory
        name and a grid over the memory budget when the config is parsed: a one-line error,
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

    def test_plane_above_two_dimensions(self, monkeypatch):
        """Above two dimensions the plane areas are measured and maps drawn on is
        roa.plane (two dimensions: test_two_dim_system_ignores_configured_plane);
        `compare`'s grid carries it, and the `verify` block's exempt ball."""
        class Certified(Exception):
            pass

        def certify(candidate, system, grid):
            raise Certified(grid)

        # no bowl fit or training before the grid is read
        monkeypatch.setattr(net, "shaped_init", lambda arch, seed, radius: None)
        monkeypatch.setattr(baselines, "meta_nlf", lambda cfg, system, radius, theta0:
                            baselines.qlf_ts(system))
        monkeypatch.setattr(baselines, "certify_candidate", certify)
        for preset, plane in (("cf_m", (0, 2)), ("mg3_dc12", (0, 1)), ("ip_stochastic_l", (0, 1))):
            cfg = PRESETS[preset]
            assert cfg.roa.plane == plane
            with pytest.raises(Certified) as info:
                baselines.compare(cfg)
            grid = info.value.args[0]
            assert grid.plane == plane
            norms = np.linalg.norm(grid.coords(np.arange(grid.n_nodes)), axis=1)
            np.testing.assert_array_equal(grid.exempt, norms <= cfg.verify.exempt_radius)

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

    @pytest.mark.parametrize("overrides, block, key, at_cap, step, stage", [
        # each stage of config.peak_bytes grown alone on the 2-d mini config
        pytest.param({}, "verify", "nodes_per_axis", 4303, 2, "grid", id="grid-2d"),
        pytest.param({"system": microgrid_block(3)}, "verify", "nodes_per_axis", 263, 2, "grid",
                     id="grid-3d"),
        pytest.param({}, "roa", "mc_samples", 1_561_870, 1, "Monte-Carlo gate", id="gate"),
        pytest.param({}, "nlf", "n_samples", 13_883_318, 1, "NLF training set", id="nlf-set"),
        pytest.param({}, "meta", "meta_steps", 11_359_115, 1, "loss curve", id="curve"),
        # the task family, (n_tasks + 1) x m_batches x (k_train + j_test) rows
        pytest.param({"meta": {"n_tasks": 20, "m_batches": 1, "tasks_per_step": 1}}, "meta",
                     "j_test", 1_058_894, 1, "task family", id="family"),
        # one meta-step's widest call, tasks_per_step x max(2 k_train, j_test) rows
        pytest.param({"meta": {"tasks_per_step": 2}}, "meta", "k_train", 524_999, 1,
                     "gradient call", id="step-hvp"),
        pytest.param({"meta": {"tasks_per_step": 2}}, "meta", "j_test", 976_171, 1,
                     "gradient call", id="step-test"),
        # that call and an NLF batch at 400 hidden units, 33 kB a row
        pytest.param({"meta": {"tasks_per_step": 1}, "hidden": [400]}, "meta", "j_test",
                     60_012, 1, "gradient call", id="step-units"),
        pytest.param({"nlf": {"n_samples": 100_000}, "hidden": [400]}, "nlf", "batch_size",
                     60_100, 1, "gradient call", id="nlf-units"),
    ])
    def test_product_at_its_cap_parses_one_above_exits_2(self, tmp_path, capsys, monkeypatch,
                                                         overrides, block, key, at_cap, step,
                                                         stage):
        """The memory budget caps every count that sizes a stage: at the largest value
        whose stages' estimated peaks sum to at most MEMORY_BUDGET the config parses;
        one count more exits 2 when the config is parsed, before any work, with one
        stderr line naming that stage, as the largest, and the key; nothing is written."""
        def no_training(*args):
            raise AssertionError("trained on a count over the budget")

        monkeypatch.setattr(baselines, "meta_train_for", no_training)
        monkeypatch.setattr(net, "shaped_init", no_training)   # a round's first work
        payload = json.loads(mini_config(tmp_path).read_text())
        for name, value in overrides.items():
            payload[name] = {**payload[name], **value} if isinstance(value, dict) else value
        for value in (at_cap, at_cap + step):
            payload[block][key] = value
            path = tmp_path / "capped.json"
            path.write_text(json.dumps(payload))
            if value == at_cap:
                assert getattr(getattr(load_config(path), block), key) == at_cap
                continue
            assert run(tmp_path, ["train-meta", "--config", str(path)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"{MEMORY_BUDGET:,} B" in err
            assert f"the largest is the {stage}" in err and f"{block}.{key}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["capped.json", "mini.json"]

    def test_wide_network_at_the_sample_cap_exits_2(self, tmp_path, capsys):
        """Hidden (400,) takes 33 kB per NLF row: a full batch of 100,000 samples (about
        3.3 GB) exits 2, naming the gradient call, although the same counts at hidden
        (8,) parse and the training set itself takes 14 MB."""
        nlf = {"n_samples": 100_000, "n_steps": 1, "lr": 0.01, "batch_size": 100_000}
        assert load_config(mini_config(tmp_path, hidden=[8], nlf=nlf)).nlf == NlfBlock(**nlf)
        path = mini_config(tmp_path, hidden=[400], nlf=nlf)
        assert run(tmp_path, ["compare", "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{MEMORY_BUDGET:,} B memory budget" in err and "the largest is the gradient call" in err
        assert not (tmp_path / "out").exists()

    def test_most_axes_the_budget_admits(self, tmp_path):
        """At 3 nodes per axis, the fewest, the budget admits a 15-d grid and not a 16-d
        one; over 15 axes the squared coordinates `verify.build_grid` sums stay finite
        up to MAX_RADIUS plus the collar (3 nodes per axis: spacing = radius). No grid
        is built."""
        def microgrid(n):
            return mini_config(tmp_path, system=microgrid_block(n),
                               verify={"d0": 3.0, "nodes_per_axis": 3, "exempt_radius": 0.9})
        dim = 15
        assert load_config(microgrid(dim)).architecture().input_dim == dim
        with pytest.raises(ConfigError, match="verify.nodes_per_axis"):
            load_config(microgrid(dim + 1))
        collar = MAX_RADIUS + math.sqrt(dim) * MAX_RADIUS / 2.0
        assert np.isfinite(np.sum(np.full(dim, collar) ** 2))

    @pytest.mark.parametrize("old, new, key", [
        pytest.param('"name": "mini"', '"name": "mini", "name": "other"', "name", id="top-level"),
        pytest.param('"hidden"', '"meta": {"meta_steps": 5}, "hidden"', "meta", id="block"),
        pytest.param('"meta": {', '"meta": {"meta_steps": 5, ', "meta_steps", id="in-a-block"),
    ])
    def test_repeated_key_exits_2(self, tmp_path, capsys, old, new, key):
        """A key repeated at any level of a config file exits 2 naming it, in place of
        its last copy silently winning."""
        path = mini_config(tmp_path)
        path.write_text(path.read_text().replace(old, new, 1))
        code = run(tmp_path, ["simulate", "--config", str(path), "--x0", "0.2,0.0"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: repeated key {key!r}\n"
        assert not (tmp_path / "out").exists()

    def test_last_radius_is_the_schedules(self, tmp_path):
        """The exemption check reads the last radius of the schedule `train-meta` runs,
        round by round: 1.0 x 0.7 four times is 0.24009999999999992, a bit below
        1.0 x 0.7 ** 4, so that exempt_radius exempts the whole last region."""
        radii = []
        verify.select_valid_region(lambda d: radii.append(d) or (None, False), 1.0, 0.7, 5)
        assert radii == list(verify.region_radii(1.0, 0.7, 5))
        assert radii[-1] == 0.24009999999999992 < 1.0 * 0.7 ** 4
        block = {"d0": 1.0, "shrink_factor": 0.7, "max_rounds": 5,
                 "exempt_radius": radii[-1], "nodes_per_axis": 41}
        with pytest.raises(ConfigError, match="last round's radius 0.24009999999999992"):
            load_config(mini_config(tmp_path, verify=block))
        grid = verify.build_grid(radii[-1], 41, 2, radii[-1])
        assert not np.any(~grid.exempt & ~grid.boundary)   # no interior node checked
        assert load_config(mini_config(tmp_path, verify={**block, "exempt_radius": 0.24}))

    @pytest.mark.parametrize("nodes_per_axis, dim", [(201, 2), (9, 6)])
    def test_largest_radius_builds_its_full_ball(self, tmp_path, nodes_per_axis, dim):
        """At MAX_RADIUS the grid keeps every node it keeps at radius 1, and a config
        at the cap parses."""
        assert verify.build_grid(MAX_RADIUS, nodes_per_axis, dim).n_nodes \
            == verify.build_grid(1.0, nodes_per_axis, dim).n_nodes
        assert load_config(mini_config(tmp_path, verify={"d0": MAX_RADIUS})).verify.d0 \
            == MAX_RADIUS

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

    def test_checkpoint_of_another_family_exits_2(self, tmp_path, capsys):
        """A 2-droop microgrid checkpoint has the pendulum's input dimension, but the
        family it names is not the config's: every checkpoint command exits 2 unwritten."""
        cfg_path = mini_config(tmp_path)
        ckpt = tmp_path / "mg2.json"
        arch = net.Architecture(2, (8,))
        save_checkpoint(ckpt, net.init_params(arch, 0), arch,
                        extra={"radius": 3.0, "system_id": "microgrid"})
        for command in ("adapt", "verify", "roa"):
            argv = [command, "--config", str(cfg_path), "--checkpoint", str(ckpt)]
            assert run(tmp_path, argv) == cli.EXIT_CONFIG
            assert "'microgrid' family" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_region_failure_exit_3(self, tmp_path, capsys):
        cfg_path = mini_config(tmp_path, name="hard", verify=HARD_VERIFY)
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_VERIFICATION
        # one line per task (n_tasks = 2): the empty certificate and what bound it, the
        # interior green fraction, red counts by condition
        tasks = stderr_tasks(capsys.readouterr().err)
        assert len(tasks) == 2
        for task in tasks:
            assert set(task) == TASK_REPORT_KEYS and (task["c"], task["area"]) == (0.0, 0.0)
            assert task["binding"]["kind"] in ("boundary layer", "red positivity",
                                               "red decrease")

    def test_region_failure_writes_region_json(self, tmp_path, capsys):
        """A run with no valid region records its round in region.json before exiting 3:
        the radius, the rejection and each task's report, as stderr prints it."""
        cfg_path = mini_config(tmp_path, name="hard", verify=HARD_VERIFY)
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_VERIFICATION
        printed = stderr_tasks(capsys.readouterr().err)
        out = tmp_path / "out" / "hard"
        region = json.loads((out / "region.json").read_text())
        assert (region["radius"], region["rounds"], region["accepted"]) == (3.0, 1, False)
        (only,) = region["history"]
        assert only["radius"] == 3.0 and not only["accepted"] and len(only["tasks"]) == 2
        assert printed == only["tasks"]
        for task in only["tasks"]:
            assert set(task) == TASK_REPORT_KEYS
            assert task["green_fraction"] < 1.0 and task["checked"] > 0
            assert (task["c"], task["area"]) == (0.0, 0.0)
            assert task["binding"]["kind"] in ("boundary layer", "red positivity",
                                               "red decrease")
        assert not (out / "meta_checkpoint.json").exists()

    def test_region_json_records_every_round(self, tmp_path, monkeypatch):
        """A run accepted after a rejected round records both rounds in region.json, and
        its radius is the accepted round's. The first round is rejected by reporting
        its certificates as empty."""
        extract = roa.largest_level_set

        def first_round_certifies_nothing(vmap, grid):
            result = extract(vmap, grid)
            return replace(result, c=0.0, area=0.0) if grid.radius == 2.5 else result

        monkeypatch.setattr(roa, "largest_level_set", first_round_certifies_nothing)
        cfg_path = mini_config(tmp_path, verify={"d0": 2.5, "nodes_per_axis": 81,
                                                 "exempt_radius": 0.9, "max_rounds": 3})
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_OK
        out = tmp_path / "out" / "mini"
        region = json.loads((out / "region.json").read_text())
        assert (region["radius"], region["rounds"], region["accepted"]) == (2.5 * 0.8, 2, True)
        assert [(r["radius"], r["accepted"]) for r in region["history"]] == [
            (2.5, False), (2.5 * 0.8, True)]
        assert all(len(r["tasks"]) == 2 for r in region["history"])
        for task in (task for r in region["history"] for task in r["tasks"]):
            assert set(task) == TASK_REPORT_KEYS
            assert task["red_positivity_at_node"] <= task["red_positivity"]
            assert task["red_decrease_at_node"] <= task["red_decrease"]
        assert all(task["c"] > 0.0 for task in region["history"][1]["tasks"])
        _, _, extra = net.load_checkpoint(out / "meta_checkpoint.json")
        assert (extra["radius"], extra["rounds"]) == (2.5 * 0.8, 2)

    @pytest.mark.parametrize("node_sign, at_node", [(1.0, False), (-1.0, True)])
    def test_red_nodes_by_cause(self, monkeypatch, node_sign, at_node):
        """A map whose cell bounds fail at every node counts every checked interior node
        red by condition; of them, red at the node itself are none when every node
        value passes (Vbar(u) > 0, Lie(u) < 0), and all when every one fails."""
        grid = verify.build_grid(1.0, 9, 2, exempt_radius=0.3)
        ones = np.ones(grid.n_nodes)
        vmap = verify.ValidityMap(vbar=node_sign * ones, lie=-node_sign * ones,
                                  vbar_low=-ones, lie_high=ones, exempt=grid.exempt)
        monkeypatch.setattr(verify, "check_validity", lambda *args: vmap)
        task = cli._certify_task(None, None, grid)
        checked = int(np.sum(~grid.boundary & ~grid.exempt))
        red = checked if at_node else 0
        assert checked > 0 and {key: task[key] for key in TASK_REPORT_KEYS - {
            "c", "area", "binding"}} == {
            "green_fraction": float(np.mean(grid.exempt[~grid.boundary])),
            "red_positivity": checked, "red_positivity_at_node": red,
            "red_decrease": checked, "red_decrease_at_node": red, "checked": checked}

    def test_map_only_commands_extract_no_roa(self, tmp_path, monkeypatch):
        def no_roa(*args, **kwargs):
            raise AssertionError("roa.largest_level_set called by a map-only command")

        cfg_path = mini_config(tmp_path)
        out = tmp_path / "out" / "mini"
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_OK
        monkeypatch.setattr(roa, "largest_level_set", no_roa)
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
        """train_report.json holds the stamp, the loss curve, the checkpoint's name and
        how training ended: the final and least step loss and the largest |theta| of
        the checkpoint; the settings are in config_echo.json alone."""
        cfg_path = mini_config(tmp_path)
        out = tmp_path / "out" / "mini"
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_OK
        report = json.loads((out / "train_report.json").read_text())
        assert set(report) == {"config_hash", "seed", "preset", "loss_curve", "checkpoint",
                               "final_loss", "least_loss", "max_abs_theta"}
        assert report["checkpoint"] == "meta_checkpoint.json"
        curve = report["loss_curve"]
        assert len(curve) == 200
        assert (report["final_loss"], report["least_loss"]) == (curve[-1], min(curve))
        theta, _, _ = net.load_checkpoint(out / "meta_checkpoint.json")
        assert report["max_abs_theta"] == np.max(np.abs(theta))
        assert json.loads((out / "config_echo.json").read_text())["meta"]["meta_steps"] == 200

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
                                                 "max_rounds": 3})
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
        assert "exempt_radius" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_region_without_checked_interior_node_exits_3(self, tmp_path, capsys):
        # a 3 x 3 grid has only the origin off its boundary layer
        cfg_path = mini_config(tmp_path, verify={"d0": 3.0, "nodes_per_axis": 3,
                                                 "exempt_radius": 0.9, "max_rounds": 1})
        assert run(tmp_path, ["train-meta", "--config", str(cfg_path)]) == cli.EXIT_VERIFICATION
        assert [task["checked"] for task in stderr_tasks(capsys.readouterr().err)] == [0, 0]
        assert not (tmp_path / "out" / "mini" / "meta_checkpoint.json").exists()

    def test_round_with_an_empty_certificate_is_rejected(self, tmp_path, capsys, monkeypatch):
        """Every task's map is green but for one positivity-red node next to the exempt
        ball, whose vbar_low < 0 caps every level set at c = 0: the round is rejected
        though its greens are above 0.995, and each stderr line names that node."""
        def one_red_node(candidate, system, grid):
            red = row_of(grid, (19, 0))   # (0.95, 0) on the mini grid, spacing 0.05
            return bowl_map(grid, red, vbar_low=-1.0)

        monkeypatch.setattr(verify, "check_validity", one_red_node)
        assert run(tmp_path, ["train-meta", "--config", str(mini_config(tmp_path))]) \
            == cli.EXIT_VERIFICATION
        region = json.loads((tmp_path / "out" / "mini" / "region.json").read_text())
        (only,) = region["history"]
        assert not only["accepted"] and len(only["tasks"]) == 2
        for task in only["tasks"]:
            assert task["green_fraction"] > 0.995 and (task["c"], task["area"]) == (0.0, 0.0)
            assert task["binding"]["node"] == pytest.approx([0.95, 0.0], abs=1e-12)
            assert (task["binding"]["kind"], task["binding"]["vbar_low"]) == ("red positivity",
                                                                              -1.0)
        assert stderr_tasks(capsys.readouterr().err) == only["tasks"]

    def test_round_below_the_old_green_rule_is_accepted(self, tmp_path, monkeypatch):
        """Every task's map is decrease-red at each node beyond |x| 1.5, so its green
        fraction is far below 0.995, but its level set inside is non-empty: the round is
        accepted."""
        def red_rim(candidate, system, grid):
            norms = np.linalg.norm(grid.coords(np.arange(grid.n_nodes)), axis=1)
            return bowl_map(grid, norms > 1.5, lie_high=1.0)

        monkeypatch.setattr(verify, "check_validity", red_rim)
        assert run(tmp_path, ["train-meta", "--config", str(mini_config(tmp_path))]) == cli.EXIT_OK
        region = json.loads((tmp_path / "out" / "mini" / "region.json").read_text())
        assert (region["rounds"], region["accepted"]) == (1, True)
        for task in region["history"][0]["tasks"]:
            assert task["green_fraction"] < 0.995 and task["c"] > 0.0
            assert task["binding"]["kind"] == "red decrease"

    def test_region_json_holds_each_tasks_level_set(self, tmp_path, monkeypatch):
        """Each task's c, area and binding node in region.json are those of
        roa.largest_level_set on that task's map."""
        extract, seen = roa.largest_level_set, []

        def spy(vmap, grid):
            seen.append((extract(vmap, grid), vmap, grid))
            return seen[-1][0]

        monkeypatch.setattr(roa, "largest_level_set", spy)
        assert run(tmp_path, ["train-meta", "--config", str(mini_config(tmp_path))]) == cli.EXIT_OK
        region = json.loads((tmp_path / "out" / "mini" / "region.json").read_text())
        tasks = region["history"][0]["tasks"]
        assert len(seen) == len(tasks) == 2
        for task, (result, vmap, grid) in zip(tasks, seen):
            assert (task["c"], task["area"]) == (result.c, result.area) and result.c > 0.0
            assert task["binding"]["node"] == grid.coords(result.binding).tolist()
            assert task["binding"]["vbar_low"] == vmap.vbar_low[result.binding]

    @pytest.mark.parametrize("kind", ["red decrease", "red positivity", "boundary layer"])
    def test_binding_node_names_its_kind(self, monkeypatch, kind):
        """A doctored map with one blocked interior node at (1, 0) reports that node as
        binding, with its kind and vbar_low; with none, a boundary-layer node binds."""
        grid = verify.build_grid(2.0, 41, 2, exempt_radius=0.5)
        red = row_of(grid, (10, 0))
        vmap = {"red decrease": bowl_map(grid, red, lie_high=1.0),
                "red positivity": bowl_map(grid, red, vbar_low=-0.5),
                "boundary layer": bowl_map(grid, [])}[kind]
        monkeypatch.setattr(verify, "check_validity", lambda *args: vmap)
        task = cli._certify_task(None, None, grid)
        result = roa.largest_level_set(vmap, grid)
        assert (task["c"], task["area"]) == (result.c, result.area)
        assert (result.c > 0.0) == (kind != "red positivity")   # there vbar_low < 0 caps
        assert task["binding"] == {"node": grid.coords(result.binding).tolist(), "kind": kind,
                                   "vbar_low": float(vmap.vbar_low[result.binding])}
        assert (result.binding == red) == (kind != "boundary layer")


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

    def raised(vmap, grid):
        rows = np.nonzero(~grid.boundary)[0]
        return roa.RoaResult(c=float(np.max(vmap.vbar[rows])), member_rows=rows,
                             area=float(rows.size * grid.spacing**2), binding=None)

    monkeypatch.setattr(roa, "largest_level_set", raised)
    capsys.readouterr()
    code = run(tmp_path, ["roa", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
    assert code == cli.EXIT_VERIFICATION
    err = capsys.readouterr().err
    assert "verification failure" in err and "no proven basin at this step" in err
    assert not json.loads((out / "roa.json").read_text())["empty"]
    mc = json.loads((out / "roa_mc.json").read_text())
    assert mc["fraction"] == 0.0 and mc["step"] == 0.01
    assert mc["diverged"] == mc["capped"] == 0      # no basin: no rollout was integrated


def test_roa_gate_failure_names_its_rollouts(tmp_path, mini_checkpoint, monkeypatch, capsys):
    """A refuted certificate's roa_mc.json and stderr line count the rollouts that
    diverged and those still outside the basin at the step cap."""
    def refuted(system, certificates, grid, n_samples, h, seed):
        return [roa.ConvergenceCheck(n_samples, h, n_samples - 5, 3, 2) for _ in certificates]

    monkeypatch.setattr(roa, "monte_carlo_convergence", refuted)
    ckpt, _ = mini_checkpoint
    cfg_path = mini_config(tmp_path)
    code = run(tmp_path, ["roa", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
    assert code == cli.EXIT_VERIFICATION
    assert "3 diverged, 2 outside the basin at the step cap" in capsys.readouterr().err
    mc = json.loads((tmp_path / "out" / "mini" / "roa_mc.json").read_text())
    assert (mc["fraction"], mc["diverged"], mc["capped"]) == (0.75, 3, 2)


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


class InfiniteLie:
    """x_dot = -x, except x_dot_1 = +inf at the lattice point (2, 2) and -inf at (2, -2):
    with V = |x|^2 the Lie values there are +inf and -inf."""

    dim = 2

    def f_batch(self, X):
        F = -X
        F[np.all(np.isclose(X, (0.4, 0.4)), axis=1), 0] = np.inf
        F[np.all(np.isclose(X, (0.4, -0.4)), axis=1), 0] = -np.inf
        return F


@pytest.mark.filterwarnings("error")
def test_infinite_lie_values_give_infinite_bounds(tmp_path):
    """An infinite Lie value of either sign gives its node and its face neighbors a
    +inf lie_high, with no RuntimeWarning and no NaN bound; the worst bound is then
    +inf, which the JSON writer refuses, naming the file and writing nothing."""
    grid = verify.build_grid(1.0, 11, 2, exempt_radius=0.25)
    vmap = verify.check_validity(QuadraticLyapunov(np.eye(2)), InfiniteLie(), grid)
    rows = [row_of(grid, (2, 2)), row_of(grid, (2, -2))]
    assert vmap.lie[rows].tolist() == [np.inf, -np.inf]
    assert not np.isnan(vmap.lie_high).any() and not np.isnan(vmap.vbar_low).any()
    blocked = set(grid.face_neighbors(np.array(rows)).ravel().tolist()) | set(rows)
    assert set(np.nonzero(vmap.lie_high == np.inf)[0].tolist()) == blocked
    worst = cli._worst_bounds(vmap, grid)["lie_high"]
    assert worst["bound"] == np.inf
    assert worst["node"] in grid.coords(sorted(blocked)).tolist()
    with pytest.raises(FloatingPointError, match="validity_summary.json"):
        cli.atomic_write_json(tmp_path / "validity_summary.json", {"worst_bounds": worst})
    assert not list(tmp_path.iterdir())


def test_infinite_lie_value_exits_4_naming_the_summary(tmp_path, mini_checkpoint, capsys,
                                                        monkeypatch):
    ckpt, _ = mini_checkpoint
    field = dynamics.ClosedLoopSystem.f_batch

    def infinite_rim(self, X):
        F = field(self, X)
        F[X[:, 0] > 1.5, 1] = np.inf   # the rim of the mini config's ball of radius 2
        return F

    monkeypatch.setattr(dynamics.ClosedLoopSystem, "f_batch", infinite_rim)
    cfg_path = mini_config(tmp_path)
    assert run(tmp_path, ["verify", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) \
        == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "validity_summary.json" in err
    assert err.count("\n") == 1 and "NaN" not in err
    assert not list((tmp_path / "out" / "mini").iterdir())   # no map without its summary


@pytest.mark.parametrize("command", ["adapt", "verify", "roa"])
@pytest.mark.parametrize("radius, bad_theta, expected", [
    (-1.0, False, cli.EXIT_CONFIG),
    (0.0, False, cli.EXIT_CONFIG),
    ("abc", False, cli.EXIT_CONFIG),
    (float("nan"), False, cli.EXIT_NUMERIC),
    (10**400, False, cli.EXIT_NUMERIC),
    (3.0, True, cli.EXIT_NUMERIC),
    pytest.param(None, False, cli.EXIT_CONFIG, id="extra-not-an-object"),
    (1e155, False, cli.EXIT_CONFIG),              # over MAX_RADIUS
    (1e300, False, cli.EXIT_CONFIG),
])
def test_bad_checkpoint_content_exit_code(tmp_path, capsys, command, radius, bad_theta, expected):
    """A checkpoint radius that is not a positive number at most MAX_RADIUS, or an
    `extra` that is not a JSON object (the None row: `extra` is 5), exits 2; a
    non-finite radius or parameter exits 4; both before the output directory is made."""
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
@pytest.mark.parametrize("key, value", [
    ("hidden", [16.7, 16]), ("input_dim", 2.0),
    # theta's 337 values as 337 rows of one, as numeric strings, as booleans
    pytest.param("theta", lambda theta: [[t] for t in theta], id="theta-rows"),
    pytest.param("theta", lambda theta: [repr(t) for t in theta], id="theta-strings"),
    pytest.param("theta", lambda theta: [t > 0 for t in theta], id="theta-booleans"),
])
def test_checkpoint_shape_not_integer_exit_2(tmp_path, capsys, command, key, value):
    """A layer width or input dimension that is not an integer, or a theta that is not
    a flat list of JSON numbers, exits 2 before any artifact is written, in place of a
    width cut to an integer, a value cast to a number or a traceback."""
    payload = json.loads((ROOT / "perfbench" / "data" / "meta_checkpoint.json").read_text())
    if key == "theta":
        payload["theta"] = value(payload["theta"])
    else:
        payload["arch"][key] = value
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(payload))
    code = cli.main([command, "--preset", "ip_stochastic_l", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("artifact error")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["adapt", "verify", "roa"])
def test_checkpoint_of_another_network_exit_2(tmp_path, capsys, command):
    """A checkpoint whose hidden widths are not the config's exits 2 with one artifact
    error line before any artifact is written: the memory budget bounds the config's
    network alone, and a wider one's block arrays would go past it."""
    arch = net.Architecture(2, (32,))
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, net.init_params(arch, 0), arch)
    code = run(tmp_path, [command, "--config", str(mini_config(tmp_path)),
                          "--checkpoint", str(ckpt)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("artifact error") and err.count("\n") == 1
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
    monkeypatch.setattr(net, "shaped_init", no_training)   # a round's first work
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    argv = [command, "--config", str(mini_config(tmp_path)), "--out", str(blocker / "out")]
    if command == "verify":
        argv += ["--checkpoint", str(mini_checkpoint[0])]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("file error") and err.count("\n") == 1
    assert blocker.read_text() == "x"


# the artifact each command writes last (train-meta: first), and the input faults
# each reaches: {fault: (commands, the start of the one stderr line)}
SQUATTED = {"train-meta": "region.json", "adapt": "adapt_ledger.json",
            "verify": "validity_map.svg", "roa": "roa_mc.json", "simulate": "trajectory.svg",
            "compare": "comparison.json"}
CHECKPOINT_COMMANDS = ["adapt", "verify", "roa"]
FILE_FAULTS = {
    "artifact-path-is-a-directory": (sorted(SQUATTED), "file error"),
    "config-utf16": (sorted(SQUATTED), "config error"),
    "config-nested-too-deep": (sorted(SQUATTED), "config error"),
    "checkpoint-nested-too-deep": (CHECKPOINT_COMMANDS, "artifact error"),
    "checkpoint-repeats-radius": (CHECKPOINT_COMMANDS, "artifact error"),
}
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("fault, command", [(fault, command)
                                            for fault, (commands, _) in FILE_FAULTS.items()
                                            for command in commands])
def test_file_fault_exits_2_in_one_line(tmp_path, capsys, fault, command):
    """An artifact path a directory holds, a config that is not UTF-8 (UTF-16 with its
    byte-order mark), a config or checkpoint nested deeper than the decoder goes and a
    checkpoint that repeats a key exit 2 with one line on stderr, in place of a
    traceback or the key's last copy winning, and leave no temp file behind."""
    cfg_path = mini_config(tmp_path)
    arch = net.Architecture(2, (8,))
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, net.init_params(arch, 0), arch, extra={"radius": 3.0})
    if fault == "artifact-path-is-a-directory":
        (tmp_path / "out" / "mini" / SQUATTED[command]).mkdir(parents=True)
    elif fault == "config-utf16":
        cfg_path.write_bytes(b"\xff\xfe" + cfg_path.read_text().encode("utf-16-le"))
    elif fault == "config-nested-too-deep":
        cfg_path.write_text(DEEP)
    elif fault == "checkpoint-nested-too-deep":
        ckpt.write_text(DEEP)
    else:
        ckpt.write_text(ckpt.read_text().replace('"radius": 3.0', '"radius": 3.0, "radius": 2.0'))
    argv = [command, "--config", str(cfg_path)]
    if command in CHECKPOINT_COMMANDS:
        argv += ["--checkpoint", str(ckpt)]
    if command == "simulate":
        argv += ["--x0", "0.2,0.0"]
    assert run(tmp_path, argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(FILE_FAULTS[fault][1]) and err.count("\n") == 1, err
    assert not list(tmp_path.rglob("*.tmp"))


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
        assert load_config(path).roa.plane == tuple(plane)
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


@pytest.mark.parametrize("command, fields", [
    pytest.param("adapt", {"meta": {"adapt_alpha": 1e200}}, id="adapt-meta-adapt_alpha"),
    pytest.param("compare", {"nlf": {"lr": 1e200}}, id="compare-nlf-lr"),
    pytest.param("compare", {"nlf": {"lr": 1e308, "n_steps": 1}}, id="compare-nlf-lr-last-step"),
])
def test_diverging_step_size_leaks_no_runtime_warning(tmp_path, mini_checkpoint, command,
                                                      fields):
    """At a step size of 1e200 the training loops diverge, and at 1e308 the one NLF
    step overflows: `adapt` exits 4 naming the test-time step and writes nothing,
    `compare` reports the NonFiniteLoss of NLF_TS and T_NLF in their rows, and no
    numpy RuntimeWarning reaches stderr."""
    cfg_path = mini_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    for block, values in fields.items():
        payload[block].update(values)
    cfg_path.write_text(json.dumps(payload))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if command == "adapt":
        argv += ["--checkpoint", str(mini_checkpoint[0])]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "lyapcert.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert "RuntimeWarning" not in proc.stderr
    if command == "adapt":
        assert proc.returncode == cli.EXIT_NUMERIC
        assert proc.stderr.startswith("numeric failure: non-finite gradient or parameters "
                                      "at test-time step ")
        assert not (tmp_path / "out").exists()
    else:
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        rows = json.loads((tmp_path / "out" / "mini" / "comparison.json").read_text())["rows"]
        assert [row["method"] for row in rows
                if row["status"].startswith("NonFiniteLoss: ")] == ["NLF_TS", "T_NLF"]


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
    trained = baselines.train_nlf(nominal_system("pendulum"), 1.0, arch, TightenedLossConfig(),
                                  NlfBlock(10, 3, 0.01, 4), seed=0,
                                  theta0=net.shaped_init(arch, 0, 1.0))
    assert trained[2] == 3


def write_benchmark_inputs(workload, seed, out):
    """The configs the benchmark's set-up step writes for one workload, into out."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_inputs(workload, seed, out)


@pytest.mark.parametrize("workload", ["meta_fit", "adapt_certify", "compare_mg3"])
@pytest.mark.parametrize("seed", [0, 101])
def test_benchmark_inputs_parse(tmp_path, workload, seed):
    """Every config the benchmark's set-up step writes loads under the parse rules."""
    write_benchmark_inputs(workload, seed, tmp_path)
    configs = [p for p in tmp_path.glob("*.json") if p.name != "inputs.json"]
    assert configs
    for path in configs:
        load_config(path)


def test_benchmark_meta_fit_accepts_at_the_first_round(tmp_path):
    """The benchmark's meta_fit operation is one train-meta run, and it times one
    region round: its config is accepted at the first radius. A change that costs it
    a second round doubles the work the workload measures."""
    write_benchmark_inputs("meta_fit", 0, tmp_path)
    assert run(tmp_path, ["train-meta", "--config", str(tmp_path / "meta_fit.json")]) \
        == cli.EXIT_OK
    region = json.loads((tmp_path / "out" / "meta_fit" / "region.json").read_text())
    assert (region["rounds"], region["accepted"]) == (1, True)


# each subcommand's option strings; the config source is one required choice on all
SHARED_OPTIONS = {"-h", "--help", "--config", "--preset", "--seed", "--out"}
COMMAND_OPTIONS = {
    "train-meta": SHARED_OPTIONS,
    "adapt": SHARED_OPTIONS | {"--checkpoint"},
    "verify": SHARED_OPTIONS | {"--checkpoint"},
    "roa": SHARED_OPTIONS | {"--checkpoint"},
    "simulate": SHARED_OPTIONS | {"--x0", "--h", "--horizon"},
    "compare": SHARED_OPTIONS,
}


def test_each_command_keeps_its_options():
    sub, = (action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    assert {name: {flag for action in parser._actions for flag in action.option_strings}
            for name, parser in sub.choices.items()} == COMMAND_OPTIONS


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_config_source_is_one_required_choice(tmp_path, capsys, monkeypatch, mini_checkpoint,
                                              command):
    """--preset with --config, and neither of them, are usage errors on every command:
    exit 2 before <--out>/<name> exists, in place of the preset silently winning."""
    def no_work(*args):
        raise AssertionError("a command ran on one of two config sources")

    monkeypatch.setattr(baselines, "meta_train_for", no_work)
    monkeypatch.setattr(net, "shaped_init", no_work)   # a round's first work
    monkeypatch.setattr(baselines, "compare", no_work)
    ckpt = ["--checkpoint", str(mini_checkpoint[0])]
    needs = {"adapt": ckpt, "verify": ckpt, "roa": ckpt, "simulate": ["--x0", "0.2,0.0"]}
    both = ["--preset", "ip_stochastic_l", "--config", str(mini_config(tmp_path))]
    for source, message in ((both, "not allowed with argument"),
                            ([], "one of the arguments --config --preset is required")):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, [command, *source, *needs.get(command, [])])
        assert exc.value.code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


META_CHAIN = ["train-meta", "adapt", "verify", "roa"]


@pytest.mark.parametrize("codes, skip_compare, called, expected", [
    pytest.param({"train-meta": 3}, False, ["train-meta", "compare"], 3, id="meta-fails"),
    pytest.param({"train-meta": 3}, True, ["train-meta"], 3, id="meta-fails-skip-compare"),
    pytest.param({"roa": 3, "compare": 4}, False, [*META_CHAIN, "compare"], 3, id="both-fail"),
    pytest.param({"compare": 4}, False, [*META_CHAIN, "compare"], 4, id="compare-fails"),
    pytest.param({}, False, [*META_CHAIN, "compare"], 0, id="all-pass"),
])
def test_run_preset_runs_compare_after_the_meta_chain_fails(tmp_path, monkeypatch, codes,
                                                            skip_compare, called, expected):
    """The meta chain stops at its first failing step; compare, which needs no meta
    checkpoint, still runs unless --skip-compare; the exit code is the first nonzero."""
    spec = importlib.util.spec_from_file_location("run_preset",
                                                  ROOT / "scripts" / "run_preset.py")
    run_preset = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_preset)
    calls = []

    def fake_main(argv):
        calls.append(argv)
        return codes.get(argv[0], 0)

    monkeypatch.setattr(cli, "main", fake_main)
    argv = ["--preset", "ip_stochastic_l", "--out", str(tmp_path)]
    assert run_preset.main(argv + ["--skip-compare"] * skip_compare) == expected
    assert [call[0] for call in calls] == called
    assert all(call[-4:] == argv for call in calls)
