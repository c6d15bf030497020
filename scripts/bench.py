#!/usr/bin/env python3
"""Time the meta-training layers, the Monte-Carlo gate, the bowl init, the
artifact writers or grid certification into a BENCH JSON file.

Example, once per source tree to compare (runs under one label accumulate):

    PYTHONPATH=src python scripts/bench.py --suite meta_step --label change
    PYTHONPATH=src python scripts/bench.py --suite gate --label change
    PYTHONPATH=src python scripts/bench.py --suite init --label change
    PYTHONPATH=src python scripts/bench.py --suite writers --label change
    PYTHONPATH=src python scripts/bench.py --suite cert --label change

The `meta_step` suite (default output `BENCH_meta_step.json`) measures, with
BLAS pinned to one thread, on the `meta_fit` family (the `ip_stochastic_l`
preset at 1,000 meta-steps, region radius 3.2):

- `loss_gradient_us`: microseconds per `net.loss_gradient` call on the
  preset's 16x16 network at n = 50, 200 and 800 rows (median of repeats)
- `hvps_us`: microseconds per `net.hvps` call at P = 4 tasks of n = 50 rows
  (one finite-difference gradient call on 2P = 8 points)
- `meta_step_ms`: milliseconds per meta-step of `meta.meta_train`, 1,000 steps
- `minflt_per_step`: minor page faults (`ru_minflt`) per meta-step over the
  first `meta.meta_train` run, right after the bowl init as `train-meta` runs it
- `shaped_init_s`: seconds per `net.shaped_init` at that radius
- `train_meta_s`: wall seconds of one `lyapcert train-meta --seed 101` on that
  config, a fresh interpreter each time

The `gate` suite (default output `BENCH_gate.json`) measures, on the test
systems of `ip_stochastic_l` (pendulum) and `mg3_dc12` (3-d microgrid), one
`dynamics.simulate_batch` case each (500 states drawn over the preset's region,
500 steps of 0.01) with the retirement ball `roa.monte_carlo_convergence`
builds for that system and step:

- `rollout_ns_per_state_step`: nanoseconds per requested RK4 state-step
  (states x steps)
- `row_steps`: the state-steps actually integrated, rows retired in the ball
  or diverged no longer counting (rows handed to `f_batch`, over its 4 stages)
- `compare_mg3_s`: wall seconds of one `lyapcert compare --seed 101` on
  `mg3_dc12` at 300 meta-steps, 800 NLF steps and 500 MC rollouts, a fresh
  interpreter each time

The `init` suite (default output `BENCH_init.json`) measures, with BLAS pinned
to one thread, at the `meta_fit` setting (`ip_stochastic_l` network, 2-d input,
radius 3.2) and the `compare_mg3` setting (`mg3_dc12` network, 3-d input,
radius 3.0):

- `shaped_init_s`: seconds per `net.shaped_init` (the bowl fit on
  `net.INIT_POINTS` seeded points)
- `fit_rms` and `max_abs_theta`: the RMS residual of that fit on its points and
  the largest absolute weight it returns
- `train_meta_s` and `compare_mg3_s`: wall seconds of one `lyapcert train-meta`
  on the `meta_fit` config and one `lyapcert compare` on the `compare_mg3`
  config, `--seed 101`, a fresh interpreter each time

The `writers` suite (default output `BENCH_writers.json`) measures, with BLAS
pinned to one thread, on the benchmark's `fixed` task (the `ip_stochastic_l`
preset; `perfbench/data/meta_checkpoint.json` adapted by `lyapcert adapt`,
31,877 grid nodes):

- `writer_ms`: milliseconds per call of each artifact writer on the adapted
  candidate's validity map and certificate, its text made in full:
  `validity_csv` (`verify.export_validity_csv`), `validity_svg` and
  `overlay_svg` (`svg.render_validity_svg` without and with the ROA) and
  `boundary_csv` (`roa.export_boundary_csv`)
- `check_validity_ms` and `mc_gate_ms`: milliseconds per `verify.check_validity`
  and per `roa.monte_carlo_convergence` at the preset's 1,000 rollouts
- `operation_s`: wall seconds of one adapt -> verify -> roa operation, three
  fresh interpreters, as the benchmark's `adapt_certify` workload runs it

The `cert` suite (default output `BENCH_cert.json`) measures, with BLAS pinned
to one thread, grid certification on three grids: `pendulum`, the
`ip_stochastic_l` test system on 201 nodes per axis with the committed (16, 16)
meta checkpoint at its radius; `mg3`, the `mg3_dc12` test system on 41 per axis
and `mg5`, the `mg5_dc12` test system on 15 per axis, each with its preset
network's bowl init (`net.shaped_init`) at the preset's d0:

- `nodes`: the grid's nodes (the ball and its collar)
- `peak_rss_mb`: the peak resident set (`VmHWM`, the interpreter's own) of a
  fresh interpreter that builds the grid, maps it (`verify.check_validity`),
  extracts the level set and writes the validity CSV and SVG through
  `cli.atomic_write_text`; `base_rss_mb` is that interpreter's peak before
  the grid is built, with the candidate made
- `ms_per_1e4_nodes`: milliseconds per 10^4 grid nodes of `build_grid`,
  `check_validity` (`sweep`), `largest_level_set` (`level_set`),
  `export_validity_csv` (`validity_csv`) and `render_validity_svg`
  (`validity_svg`), each writer's text made in full

The script only calls functions both layouts of these writers have (a string,
or blocks of text), so the same script can time an older source tree: run it
with PYTHONPATH pointing at that tree's `src`.

Each run is stored under its label with the machine's description; `median`
holds each metric's median over the label's runs.
"""

import os

# pin BLAS to one thread before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from lyapcert import baselines, dynamics, meta, net, roa, svg, verify
from lyapcert.config import PRESETS, config_to_dict

RADIUS = 3.2
CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "meta_checkpoint.json"
ROWS = (50, 200, 800)
HVP_TASKS, HVP_ROWS = 4, 50
ROLLOUT_STATES, ROLLOUT_STEPS, ROLLOUT_H = 500, 500, 0.01


def meta_fit_config():
    cfg = PRESETS["ip_stochastic_l"]
    return replace(cfg, name="meta_fit", meta=replace(cfg.meta, meta_steps=1000),
                   verify=replace(cfg.verify, d0=RADIUS))


def compare_mg3_config():
    cfg = PRESETS["mg3_dc12"]
    return replace(cfg, name="compare_mg3", meta=replace(cfg.meta, meta_steps=300),
                   nlf=replace(cfg.nlf, n_steps=800), roa=replace(cfg.roa, mc_samples=500))


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def cli_seconds(cfg, args: list[str], repeats: int) -> float:
    """Median wall seconds of one lyapcert command on cfg, a fresh interpreter each time."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / f"{cfg.name}.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        argv = [sys.executable, "-m", "lyapcert.cli", *args, "--config", str(cfg_path),
                "--seed", "101", "--out", str(Path(tmp) / "out")]
        env = {**os.environ, "PYTHONPATH": str(Path(net.__file__).parents[1])}
        return median_time(lambda: subprocess.run(argv, env=env, check=True,
                                                  stdout=subprocess.DEVNULL), repeats)


def measure_meta_step(repeats: int) -> dict:
    cfg = meta_fit_config()
    m, arch = cfg.meta, cfg.architecture()
    _, family = baselines.task_family(cfg, RADIUS)
    theta0 = net.shaped_init(arch, cfg.seeds.net_seed, RADIUS)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    meta.meta_train(family, arch, m, cfg.loss, cfg.seeds.net_seed, theta0=theta0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    rng = np.random.default_rng(0)
    calls = 200

    grad_us = {}
    for n in ROWS:
        batch = (rng.uniform(-RADIUS, RADIUS, (n, arch.input_dim)),
                 rng.normal(size=(n, arch.input_dim)))
        per_run = median_time(lambda: [net.loss_gradient(theta0, arch, batch, cfg.loss)
                                       for _ in range(calls)], repeats)
        grad_us[str(n)] = round(1e6 * per_run / calls, 1)

    batch = (rng.uniform(-RADIUS, RADIUS, (HVP_TASKS, HVP_ROWS, arch.input_dim)),
             rng.normal(size=(HVP_TASKS, HVP_ROWS, arch.input_dim)))
    v = rng.normal(size=(HVP_TASKS, arch.n_params))
    hvp_s = median_time(lambda: [net.hvps(theta0, arch, batch, cfg.loss, v)
                                 for _ in range(calls)], repeats)

    step_s = median_time(lambda: meta.meta_train(family, arch, m, cfg.loss, cfg.seeds.net_seed,
                                                 theta0=theta0), repeats)
    init_s = median_time(lambda: net.shaped_init(arch, cfg.seeds.net_seed, RADIUS), repeats)
    return {"loss_gradient_us": grad_us,
            "hvps_us": round(1e6 * hvp_s / calls, 1),
            "meta_step_ms": round(1e3 * step_s / m.meta_steps, 3),
            "minflt_per_step": round(faults / m.meta_steps, 3),
            "shaped_init_s": round(init_s, 3),
            "train_meta_s": round(cli_seconds(cfg, ["train-meta"], repeats), 3)}


class RowCounter:
    """A system whose f_batch counts the rows it evaluates."""

    def __init__(self, system):
        self.system, self.rows = system, 0

    def f_batch(self, X):
        self.rows += X.shape[0]
        return self.system.f_batch(X)


def measure_gate(repeats: int) -> dict:
    rollout_ns, row_steps = {}, {}
    for label, preset in (("pendulum", "ip_stochastic_l"), ("mg3_dc12", "mg3_dc12")):
        cfg = PRESETS[preset]
        system = dynamics.build_system(cfg.system.test())
        X0 = dynamics.sample_ball(np.random.default_rng(0), ROLLOUT_STATES, system.dim,
                                  cfg.verify.d0)
        # the gate keeps ROLLOUT_H (its mc_step) as its step for both systems
        ball = roa.retirement_ball(system, ROLLOUT_H, cfg.roa.mc_tol)
        run_s = median_time(lambda: dynamics.simulate_batch(
            system, X0, ROLLOUT_H, ROLLOUT_STEPS * ROLLOUT_H, ball), repeats)
        rollout_ns[label] = round(1e9 * run_s / (ROLLOUT_STATES * ROLLOUT_STEPS), 1)
        counter = RowCounter(system)
        dynamics.simulate_batch(counter, X0, ROLLOUT_H, ROLLOUT_STEPS * ROLLOUT_H, ball)
        row_steps[label] = counter.rows // 4
    return {"rollout_ns_per_state_step": rollout_ns, "row_steps": row_steps,
            "compare_mg3_s": round(cli_seconds(compare_mg3_config(), ["compare"], repeats), 3)}


def measure_init(repeats: int) -> dict:
    init_s, fit_rms, max_abs_theta = {}, {}, {}
    for cfg in (meta_fit_config(), compare_mg3_config()):
        arch, seed, radius = cfg.architecture(), cfg.seeds.net_seed, cfg.verify.d0
        init_s[cfg.name] = round(median_time(lambda: net.shaped_init(arch, seed, radius),
                                             repeats), 3)
        theta = net.shaped_init(arch, seed, radius)
        X = dynamics.sample_ball(np.random.default_rng(seed), net.INIT_POINTS, arch.input_dim,
                                 radius)
        residual = net.MlpLyapunov(theta, arch).value(X) - net.INIT_SCALE * (
            np.linalg.norm(X, axis=1) / radius) ** 2
        fit_rms[cfg.name] = round(float(np.sqrt(np.mean(residual ** 2))), 6)
        max_abs_theta[cfg.name] = round(float(np.max(np.abs(theta))), 4)
    return {"shaped_init_s": init_s, "fit_rms": fit_rms, "max_abs_theta": max_abs_theta,
            "train_meta_s": round(cli_seconds(meta_fit_config(), ["train-meta"], repeats), 3),
            "compare_mg3_s": round(cli_seconds(compare_mg3_config(), ["compare"], repeats), 3)}


def full_text(text) -> int:
    """Length of a writer's text, made in full: a string, or its blocks in turn."""
    return len(text) if isinstance(text, str) else sum(map(len, text))


def measure_writers(repeats: int) -> dict:
    cfg = replace(PRESETS["ip_stochastic_l"], name="fixed")
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "fixed.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        env = {**os.environ, "PYTHONPATH": str(Path(net.__file__).parents[1])}
        adapted = Path(tmp) / "out" / cfg.name / "adapted_checkpoint.json"

        def operation():
            for command, checkpoint in (("adapt", CHECKPOINT), ("verify", adapted),
                                        ("roa", adapted)):
                subprocess.run([sys.executable, "-m", "lyapcert.cli", command, "--config",
                                str(cfg_path), "--checkpoint", str(checkpoint), "--out",
                                str(Path(tmp) / "out")], env=env, check=True,
                               stdout=subprocess.DEVNULL)

        operation_s = median_time(operation, repeats)
        theta, arch, extra = net.load_checkpoint(adapted)

    candidate = net.MlpLyapunov(theta, arch)
    system = dynamics.build_system(cfg.system.test())
    grid = verify.build_grid(extra["radius"], cfg.verify.nodes_per_axis, system.dim)
    vmap, result = baselines.certify_candidate(candidate, system, grid, cfg.verify, cfg.plane)
    calls = {
        "validity_csv": lambda: full_text(verify.export_validity_csv(vmap, grid)),
        "validity_svg": lambda: full_text(svg.render_validity_svg(vmap, grid)),
        "overlay_svg": lambda: full_text(svg.render_validity_svg(vmap, grid, roa=result)),
        "boundary_csv": lambda: roa.export_boundary_csv(result, grid),
    }
    check_s = median_time(lambda: verify.check_validity(
        candidate, system, grid, exempt_radius=cfg.verify.exempt_radius), repeats)
    gate_s = median_time(lambda: roa.monte_carlo_convergence(
        system, [(result, candidate)], grid, cfg.roa.mc_samples, cfg.roa.mc_step,
        cfg.roa.mc_horizon, cfg.roa.mc_tol, cfg.seeds.master), repeats)
    return {"writer_ms": {name: round(1e3 * median_time(fn, repeats), 2)
                          for name, fn in calls.items()},
            "check_validity_ms": round(1e3 * check_s, 2),
            "mc_gate_ms": round(1e3 * gate_s, 1),
            "operation_s": round(operation_s, 3)}


CERT_CASES = {"pendulum": ("ip_stochastic_l", 201), "mg3": ("mg3_dc12", 41),
              "mg5": ("mg5_dc12", 15)}

CERT_PEAK = """
import resource, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from bench import cert_case
from lyapcert import cli, roa, svg, verify


def peak_kb():
    # VmHWM, unlike ru_maxrss, does not count the resident set of the launching process
    try:
        return next(int(line.split()[1]) for line in open("/proc/self/status")
                    if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


candidate, system, cfg, radius, nodes = cert_case(sys.argv[2])
base = peak_kb()
grid = verify.build_grid(radius, nodes, system.dim)
vmap = verify.check_validity(candidate, system, grid, exempt_radius=cfg.verify.exempt_radius)
roa.largest_level_set(vmap, grid, cfg.plane)
cli.atomic_write_text(Path(sys.argv[3]) / "validity_map.csv", verify.export_validity_csv(vmap, grid))
cli.atomic_write_text(Path(sys.argv[3]) / "validity_map.svg",
                      svg.render_validity_svg(vmap, grid, axes=cfg.plane))
print(base, peak_kb())
"""


def cert_case(name: str):
    """(candidate, test system, preset config, radius, nodes per axis) of a cert grid."""
    preset, nodes = CERT_CASES[name]
    cfg = PRESETS[preset]
    system = dynamics.build_system(cfg.system.test())
    if name == "pendulum":
        theta, arch, extra = net.load_checkpoint(CHECKPOINT)
        radius = extra["radius"]
    else:
        arch, radius = cfg.architecture(), cfg.verify.d0
        theta = net.shaped_init(arch, cfg.seeds.net_seed, radius)
    return net.MlpLyapunov(theta, arch), system, cfg, radius, nodes


def measure_cert(repeats: int) -> dict:
    nodes, peak, base, stage_ms = {}, {}, {}, {}
    env = {**os.environ, "PYTHONPATH": str(Path(net.__file__).parents[1])}
    for name in CERT_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, "-c", CERT_PEAK, str(Path(__file__).parent),
                                   name, tmp], env=env, check=True, capture_output=True,
                                  text=True)
        base_kb, peak_kb = map(int, proc.stdout.split())
        base[name], peak[name] = round(base_kb / 1024, 2), round(peak_kb / 1024, 2)

        candidate, system, cfg, radius, per_axis = cert_case(name)
        grid = verify.build_grid(radius, per_axis, system.dim)
        exempt = cfg.verify.exempt_radius
        vmap = verify.check_validity(candidate, system, grid, exempt_radius=exempt)
        stages = {
            "build_grid": lambda: verify.build_grid(radius, per_axis, system.dim),
            "sweep": lambda: verify.check_validity(candidate, system, grid, exempt_radius=exempt),
            "level_set": lambda: roa.largest_level_set(vmap, grid, cfg.plane),
            "validity_csv": lambda: full_text(verify.export_validity_csv(vmap, grid)),
            "validity_svg": lambda: full_text(svg.render_validity_svg(vmap, grid,
                                                                      axes=cfg.plane)),
        }
        nodes[name] = grid.n_nodes
        stage_ms[name] = {stage: round(1e3 * median_time(fn, repeats) * 1e4 / grid.n_nodes, 3)
                          for stage, fn in stages.items()}
    return {"nodes": nodes, "peak_rss_mb": peak, "base_rss_mb": base,
            "ms_per_1e4_nodes": stage_ms}


SUITES = {"meta_step": measure_meta_step, "gate": measure_gate, "init": measure_init,
          "writers": measure_writers, "cert": measure_cert}


def median_of(runs: list) -> dict:
    """Each metric's median over the runs, nested dicts metric by metric."""
    if isinstance(runs[0], dict):
        return {key: median_of([r[key] for r in runs]) for key in runs[0]}
    return round(float(np.median(runs)), 6)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", choices=sorted(SUITES), default="meta_step")
    parser.add_argument("--label", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", help="BENCH JSON file (default BENCH_<suite>.json)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    run = SUITES[args.suite](args.repeats)
    path = Path(args.out or f"BENCH_{args.suite}.json")
    bench = json.loads(path.read_text()) if path.exists() else {
        "script": "scripts/bench.py",
        "machine": {"cpu": cpu_model(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "labels": {},
    }
    entry = bench["labels"].setdefault(args.label, {"runs": []})
    entry["runs"].append(run)
    entry["median"] = median_of(entry["runs"])
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps({args.label: run}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
