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
500 steps of 0.01) with the retirement region `roa.monte_carlo_convergence`
builds for that system, step and step count (a tree from before the region
came gets its retirement ball):

- `rollout_ns_per_state_step`: nanoseconds per requested RK4 state-step
  (states x steps)
- `row_steps`: the state-steps actually integrated, rows retired in the region
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
to one thread, grid certification on five grids: `pendulum` and `pendulum_801`,
the `ip_stochastic_l` test system on 201 and 801 nodes per axis with the
committed (16, 16) meta checkpoint at its radius; `mg3`, the `mg3_dc12` test
system on 41 per axis, `mg5`, the `mg5_dc12` test system on 15 per axis, and
`fan`, the 6-d `cf_m` test system on 9 per axis, each with its preset network's
bowl init (`net.shaped_init`) at the preset's d0:

- `nodes`: the grid's nodes (the ball and its collar)
- `peak_rss_mb`: the peak resident set (`VmHWM`, the interpreter's own) of a
  fresh interpreter that builds the grid, maps it (`verify.check_validity`),
  extracts the level set and writes the validity CSV and SVG through
  `cli.atomic_write_text`; `base_rss_mb` is that interpreter's peak before
  the grid is built, with the candidate made
- `ms_per_1e4_nodes`: milliseconds per 10^4 grid nodes of `build_grid`,
  `check_validity` (`sweep`), the `estimate_lipschitz` part of that sweep
  (`lipschitz`, fed the map's Lie values as both of its node arrays: its time
  follows the grid's neighbor table, not the values), `largest_level_set`
  (`level_set`), `export_validity_csv` (`validity_csv`) and
  `render_validity_svg` (`validity_svg`), each writer's text made in full

The script only calls functions both layouts of these writers have (a string,
or blocks of text), so the same script can time an older source tree: run it
with PYTHONPATH pointing at that tree's `src`.

The `init`, `gate` and `cert` suites also run alternated in one process, which
resolves stage changes smaller than the drift between separate runs:

    PYTHONPATH=src python scripts/bench.py --suite gate --label change \
        --against ../parent/src --against-label parent

imports the other tree's package under another name and, `--repeats` times,
times every metric once on each tree, in turn, the tree that goes first
swapping each time (the `lyapcert` commands and the cert suite's peak-memory
interpreters run on the tree's own `src`). Each pair adds one run to each
label, so the labels' runs pair up in order; the printed `wins` count the
pairs in which the `--label` tree was faster.

Each run is stored under its label with the machine's description; `median`
holds each metric's median over the label's runs.
"""

import os

# pin BLAS to one thread before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import importlib
import importlib.util
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

import lyapcert
from lyapcert import baselines, dynamics, meta, net, roa, svg, verify
from lyapcert.config import PRESETS, config_to_dict

RADIUS = 3.2
CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "meta_checkpoint.json"
ROWS = (50, 200, 800)
HVP_TASKS, HVP_ROWS = 4, 50
ROLLOUT_STATES, ROLLOUT_STEPS, ROLLOUT_H = 500, 500, 0.01


class Tree:
    """One source tree's lyapcert package: the modules the init, gate and cert suites
    call, and the `src` directory its commands run from."""

    def __init__(self, package):
        self.src = Path(package.__file__).parents[1]
        for name in ("config", "dynamics", "net", "roa", "svg", "verify"):
            setattr(self, name, importlib.import_module(f"{package.__name__}.{name}"))


def load_tree(src: str, name: str) -> Tree:
    """The lyapcert package under `src`, imported as the top-level package `name`."""
    init = Path(src).resolve() / "lyapcert" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return Tree(package)


HERE = Tree(lyapcert)


def meta_fit_config(tree: Tree = HERE):
    cfg = tree.config.PRESETS["ip_stochastic_l"]
    return replace(cfg, name="meta_fit", meta=replace(cfg.meta, meta_steps=1000),
                   verify=replace(cfg.verify, d0=RADIUS))


def compare_mg3_config(tree: Tree = HERE):
    cfg = tree.config.PRESETS["mg3_dc12"]
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


def cli_command(cfg, args: list[str], tree: Tree = HERE):
    """A call that runs one lyapcert command on cfg, `--seed 101`, in a fresh
    interpreter on the tree's `src`."""
    env = {**os.environ, "PYTHONPATH": str(tree.src)}

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / f"{cfg.name}.json"
            cfg_path.write_text(json.dumps(tree.config.config_to_dict(cfg)))
            subprocess.run([sys.executable, "-m", "lyapcert.cli", *args, "--config",
                            str(cfg_path), "--seed", "101", "--out", str(Path(tmp) / "out")],
                           env=env, check=True, stdout=subprocess.DEVNULL)
    return run


def cli_seconds(cfg, args: list[str], repeats: int) -> float:
    """Median wall seconds of one lyapcert command on cfg, a fresh interpreter each time."""
    return median_time(cli_command(cfg, args), repeats)


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


def seconds(s: float) -> float:
    return round(s, 3)


def gate_suite(tree: Tree) -> tuple[dict, dict]:
    """The gate suite on one tree: {(metric, key): (call, its seconds -> the metric)}
    and the counted metrics."""
    timed, row_steps = {}, {}
    horizon = ROLLOUT_STEPS * ROLLOUT_H
    for label, preset in (("pendulum", "ip_stochastic_l"), ("mg3_dc12", "mg3_dc12")):
        cfg = tree.config.PRESETS[preset]
        system = tree.dynamics.build_system(cfg.system.test())
        X0 = tree.dynamics.sample_ball(np.random.default_rng(0), ROLLOUT_STATES, system.dim,
                                       cfg.verify.d0)
        # the gate keeps ROLLOUT_H (its mc_step) as its step for both systems
        if hasattr(tree.roa, "retirement_region"):
            region = tree.roa.retirement_region(system, ROLLOUT_H, cfg.roa.mc_tol, ROLLOUT_STEPS)
        else:   # a tree from before the region retires rows in its ball
            region = tree.roa.retirement_ball(system, ROLLOUT_H, cfg.roa.mc_tol)
        timed["rollout_ns_per_state_step", label] = (
            functools.partial(tree.dynamics.simulate_batch, system, X0, ROLLOUT_H, horizon,
                              region),
            lambda s: round(1e9 * s / (ROLLOUT_STATES * ROLLOUT_STEPS), 1))
        counter = RowCounter(system)
        tree.dynamics.simulate_batch(counter, X0, ROLLOUT_H, horizon, region)
        row_steps[label] = counter.rows // 4
    timed["compare_mg3_s",] = (cli_command(compare_mg3_config(tree), ["compare"], tree), seconds)
    return timed, {"row_steps": row_steps}


def init_suite(tree: Tree) -> tuple[dict, dict]:
    """The init suite on one tree, laid out as `gate_suite`'s."""
    timed, fit_rms, max_abs_theta = {}, {}, {}
    for cfg in (meta_fit_config(tree), compare_mg3_config(tree)):
        arch, seed, radius = cfg.architecture(), cfg.seeds.net_seed, cfg.verify.d0
        timed["shaped_init_s", cfg.name] = (
            functools.partial(tree.net.shaped_init, arch, seed, radius), seconds)
        theta = tree.net.shaped_init(arch, seed, radius)
        X = tree.dynamics.sample_ball(np.random.default_rng(seed), tree.net.INIT_POINTS,
                                      arch.input_dim, radius)
        residual = tree.net.MlpLyapunov(theta, arch).value(X) - tree.net.INIT_SCALE * (
            np.linalg.norm(X, axis=1) / radius) ** 2
        fit_rms[cfg.name] = round(float(np.sqrt(np.mean(residual ** 2))), 6)
        max_abs_theta[cfg.name] = round(float(np.max(np.abs(theta))), 4)
    timed["train_meta_s",] = (cli_command(meta_fit_config(tree), ["train-meta"], tree), seconds)
    timed["compare_mg3_s",] = (cli_command(compare_mg3_config(tree), ["compare"], tree), seconds)
    return timed, {"fit_rms": fit_rms, "max_abs_theta": max_abs_theta}


def suite_times(suites: list[tuple[dict, dict]], repeats: int) -> list[dict]:
    """Per tree, {(metric, key): seconds of each call}: `repeats` rounds, each timing
    every metric once on every tree in turn, the tree that goes first swapping each
    round."""
    times = [{key: [] for key in timed} for timed, _ in suites]
    for r in range(repeats):
        order = list(range(len(suites)))[::1 if r % 2 == 0 else -1]
        for key in suites[0][0]:
            for i in order:
                call = suites[i][0][key][0]
                start = time.perf_counter()
                call()
                times[i][key].append(time.perf_counter() - start)
    return times


def suite_run(suite: tuple[dict, dict], times: dict, pick) -> dict:
    """One run's metrics: the counted ones and each timed one from pick(its seconds)."""
    timed, counted = suite
    run = {metric: dict(values) for metric, values in counted.items()}
    for path, (_, unit) in timed.items():
        node = run
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = unit(pick(times[path]))
    return run


def this_tree(suite_of):
    """A suite measured on this tree alone: each metric's median over the repeats."""
    def measure(repeats: int) -> dict:
        suite = suite_of(HERE)
        return suite_run(suite, suite_times([suite], repeats)[0], np.median)
    return measure


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


CERT_CASES = {"pendulum": ("ip_stochastic_l", 201), "pendulum_801": ("ip_stochastic_l", 801),
              "mg3": ("mg3_dc12", 41), "mg5": ("mg5_dc12", 15), "fan": ("cf_m", 9)}

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


def cert_case(name: str, tree: Tree = HERE):
    """(candidate, test system, preset config, radius, nodes per axis) of a cert grid."""
    preset, nodes = CERT_CASES[name]
    cfg = tree.config.PRESETS[preset]
    system = tree.dynamics.build_system(cfg.system.test())
    if preset == "ip_stochastic_l":
        theta, arch, extra = tree.net.load_checkpoint(CHECKPOINT)
        radius = extra["radius"]
    else:
        arch, radius = cfg.architecture(), cfg.verify.d0
        theta = tree.net.shaped_init(arch, cfg.seeds.net_seed, radius)
    return tree.net.MlpLyapunov(theta, arch), system, cfg, radius, nodes


def cert_stages(tree: Tree, name: str) -> tuple[int, dict]:
    """A cert grid's node count and the calls of its stages, on one tree."""
    candidate, system, cfg, radius, per_axis = cert_case(name, tree)
    exempt = cfg.verify.exempt_radius
    grid = tree.verify.build_grid(radius, per_axis, system.dim)
    vmap = tree.verify.check_validity(candidate, system, grid, exempt_radius=exempt)
    return grid.n_nodes, {
        "build_grid": lambda: tree.verify.build_grid(radius, per_axis, system.dim),
        "sweep": lambda: tree.verify.check_validity(candidate, system, grid,
                                                    exempt_radius=exempt),
        "lipschitz": lambda: tree.verify.estimate_lipschitz(vmap.lie, vmap.lie, grid),
        "level_set": lambda: tree.roa.largest_level_set(vmap, grid, cfg.plane),
        "validity_csv": lambda: full_text(tree.verify.export_validity_csv(vmap, grid)),
        "validity_svg": lambda: full_text(tree.svg.render_validity_svg(vmap, grid,
                                                                       axes=cfg.plane)),
    }


def cert_suite(tree: Tree) -> tuple[dict, dict]:
    """The cert suite on one tree, laid out as `gate_suite`'s."""
    timed, nodes, peak, base = {}, {}, {}, {}
    env = {**os.environ, "PYTHONPATH": str(tree.src)}
    for name in CERT_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, "-c", CERT_PEAK, str(Path(__file__).parent),
                                   name, tmp], env=env, check=True, capture_output=True,
                                  text=True)
        base_kb, peak_kb = map(int, proc.stdout.split())
        base[name], peak[name] = round(base_kb / 1024, 2), round(peak_kb / 1024, 2)
        nodes[name], stages = cert_stages(tree, name)
        for stage, call in stages.items():
            timed["ms_per_1e4_nodes", name, stage] = (
                call, lambda s, n=nodes[name]: round(1e3 * s * 1e4 / n, 3))
    return timed, {"nodes": nodes, "peak_rss_mb": peak, "base_rss_mb": base}


PAIRED = {"cert": cert_suite, "gate": gate_suite, "init": init_suite}
SUITES = {"meta_step": measure_meta_step, "writers": measure_writers,
          **{name: this_tree(suite_of) for name, suite_of in PAIRED.items()}}


def median_of(runs: list) -> dict:
    """Each metric's median over the runs, nested dicts metric by metric."""
    if isinstance(runs[0], dict):
        return {key: median_of([r[key] for r in runs]) for key in runs[0]}
    return round(float(np.median(runs)), 6)


def alternated_runs(suite_of, against: str, repeats: int) -> tuple[list, list, dict]:
    """This tree's and the other tree's runs, one pair per repeat, and per timed metric
    the pairs in which this tree was faster."""
    suites = [suite_of(HERE), suite_of(load_tree(against, "lyapcert_against"))]
    times = suite_times(suites, repeats)
    runs = [[suite_run(suite, tree_times, lambda ts, r=r: ts[r]) for r in range(repeats)]
            for suite, tree_times in zip(suites, times)]
    wins = {"/".join(key): f"{sum(a < b for a, b in zip(times[0][key], times[1][key]))}"
                           f"/{repeats}" for key in times[0]}
    return runs[0], runs[1], wins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", choices=sorted(SUITES), default="meta_step")
    parser.add_argument("--label", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", help="BENCH JSON file (default BENCH_<suite>.json)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--against", metavar="SRC",
                        help="another tree's src directory, timed alternated with this one "
                             "in this process (init, gate and cert suites)")
    parser.add_argument("--against-label", default="parent",
                        help="column name of the --against tree (default parent)")
    args = parser.parse_args()

    if args.against:
        if args.suite not in PAIRED:
            parser.error(f"--against runs only the {', '.join(sorted(PAIRED))} suites")
        mine, theirs, wins = alternated_runs(PAIRED[args.suite], args.against, args.repeats)
        new_runs = {args.label: mine, args.against_label: theirs}
    else:
        new_runs, wins = {args.label: [SUITES[args.suite](args.repeats)]}, None
    path = Path(args.out or f"BENCH_{args.suite}.json")
    bench = json.loads(path.read_text()) if path.exists() else {
        "script": "scripts/bench.py",
        "machine": {"cpu": cpu_model(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "labels": {},
    }
    for label, runs in new_runs.items():
        entry = bench["labels"].setdefault(label, {"runs": []})
        entry["runs"].extend(runs)
        entry["median"] = median_of(entry["runs"])
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps({label: median_of(runs) for label, runs in new_runs.items()}))
    if wins is not None:
        print(json.dumps({"wins": wins}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
