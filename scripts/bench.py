#!/usr/bin/env python3
"""Time the meta-training layers, the Monte-Carlo gate, the bowl init or grid
certification into a BENCH JSON file, on this source tree alone or alternated
with another one.

Example, once per source tree to compare (runs under one label accumulate):

    PYTHONPATH=src python scripts/bench.py --suite meta_step --label change
    PYTHONPATH=src python scripts/bench.py --suite gate --label change
    PYTHONPATH=src python scripts/bench.py --suite init --label change
    PYTHONPATH=src python scripts/bench.py --suite cert --label change

or both trees alternated in one process, which resolves changes smaller than
the drift between separate runs (any suite):

    PYTHONPATH=src python scripts/bench.py --suite gate --label change \
        --against ../parent/src --against-label parent

The `meta_step` suite (default output `BENCH_meta_step.json`) measures, with
BLAS pinned to one thread, on the `meta_fit` family (the benchmark's config from
`perfbench/inputs.py`: the `ip_stochastic_l` preset at 1,000 meta-steps, region
radius 3.2):

- `loss_gradient_us`: microseconds per `net.loss_gradient` call on the
  preset's 16x16 network at n = 50, 200 and 800 rows, over 200 calls
- `inner_us`, `outer_us` and `hvps_us`: microseconds per call of the three
  stacked calls of a second-order meta-step at P = 4 tasks, over 200 calls each:
  the inner gradients (`net.loss_gradients` on 4 tasks of n = 50 rows at one
  theta), the outer gradients and losses (`net.loss_gradients` with `values` on
  4 tasks of n = 32 rows at 4 distinct thetas) and `net.hvps` (one
  finite-difference gradient call on 2P = 8 points of the inner batch)
- `meta_step_ms`: milliseconds per meta-step of one `meta.meta_train` run,
  1,000 steps
- `minflt_per_step`: minor page faults (`ru_minflt`) per meta-step over a
  `meta.meta_train` run right after the bowl init, as `train-meta` runs it, in
  a fresh interpreter on the tree's `src` (fault counts follow the heap's
  history, so a second tree in this process would not read its own)
- `train_meta_s`: wall seconds of one `lyapcert train-meta --seed 101` on that
  config

The `gate` suite (default output `BENCH_gate.json`) measures:

- `rollout_ns_per_state_step`: nanoseconds per requested RK4 state-step
  (states x steps) of one `dynamics.simulate_batch` case on each of the test
  systems of `ip_stochastic_l` (pendulum) and `mg3_dc12` (3-d microgrid):
  500 states drawn over the preset's region, 500 steps of 0.01, with the
  basin `roa.monte_carlo_convergence` builds for that system and step
- `row_steps`: per preset, the state-steps the gate integrates on the
  preset's test system (rows handed to `f_batch`, over its 4 stages) when it
  rolls 500 states drawn over the preset's region out at its gate step until
  each enters the basin, diverges or reaches the step cap

and, on the benchmark's `fixed` task (the `ip_stochastic_l` preset with
`perfbench/data/meta_checkpoint.json`, 31,877 grid nodes):

- `mc_gate_ms`: milliseconds per `roa.monte_carlo_convergence` at the preset's
  1,000 rollouts, on the certificate of the checkpoint adapted as `lyapcert
  adapt` adapts it
- `adapt_certify_s`: wall seconds of one adapt -> verify -> roa operation, as
  the benchmark's `adapt_certify` workload runs it
- `compare_mg3_s`: wall seconds of one `lyapcert compare --seed 101` on
  `mg3_dc12` at 300 meta-steps, 800 NLF steps and 500 MC rollouts

The `init` suite (default output `BENCH_init.json`) measures, with BLAS pinned
to one thread, at the `meta_fit` setting (`ip_stochastic_l` network, 2-d input,
radius 3.2) and the `compare_mg3` setting (`mg3_dc12` network, 3-d input,
radius 3.0):

- `shaped_init_s`: seconds per `net.shaped_init` (the bowl fit on
  `net.INIT_POINTS` seeded points)
- `fit_rms` and `max_abs_theta`: the RMS residual of that fit on its points and
  the largest absolute weight it returns

Each metric comes from one suite: the `train-meta` run is timed in `meta_step`,
the `compare` and adapt -> verify -> roa runs in `gate`, the bowl fit in `init`.

The `cert` suite (default output `BENCH_cert.json`) measures, with BLAS pinned
to one thread, grid certification on five grids: `pendulum` and `pendulum_801`,
the `ip_stochastic_l` test system on 201 and 801 nodes per axis with the
committed (16, 16) meta checkpoint at its radius; `mg3`, the `mg3_dc12` test
system on 41 per axis, `mg5`, the `mg5_dc12` test system on 15 per axis, and
`fan`, the 6-d `cf_m` test system on 9 per axis, each with its preset network's
bowl init (`net.shaped_init`) at the preset's d0:

- `nodes`: the grid's nodes (the ball and its collar)
- `peak_rss_mb`: the peak resident set (`VmHWM`, the interpreter's own) of a
  fresh interpreter on the tree's `src` that builds the grid, maps it
  (`verify.check_validity`), extracts the level set and writes the validity
  CSV and SVG through `cli.atomic_write_text`; `base_rss_mb` is that
  interpreter's peak before the grid is built, with the candidate made
- `map_faults`: the minor page faults (`ru_minflt`) of a fresh interpreter's
  second `check_validity` of the grid, after its first: what a later map of a
  process (`train-meta`'s rounds, `compare`'s methods) pays for memory the
  heap gave back
- `ms_per_1e4_nodes`: milliseconds per 10^4 grid nodes of `build_grid`,
  `check_validity` (`sweep`), the `estimate_lipschitz` part of that sweep
  (`lipschitz`, fed the map's Lie values as both of its node arrays: its time
  follows the grid's face-neighbor lookup, not the values), `largest_level_set`
  (`level_set`), `export_validity_csv` (`validity_csv`),
  `render_validity_svg` without and with the level set (`validity_svg`,
  `overlay_svg`) and `export_boundary_csv` (`boundary_csv`), each writer's
  text made in full

A suite is built once on each tree (its setup and counted metrics); each timed
metric is then one call. `--repeats` rounds each time every metric once on each
tree in turn, the tree that goes first swapping each round, and each round adds
one run to each label. `--against` imports the other tree's package under
another name; the `lyapcert` commands and the fresh interpreters run on each
tree's own `src`, a fresh interpreter each command. With two trees the labels'
runs pair up in order, and the printed `wins` count the pairs in which the
`--label` tree was faster. The writers' text is a string or blocks of text, so
an older tree times the same. The `cert` and `gate` suites pass the exemption
radius and the plane to `build_grid` alone, so they take no tree whose grid
does not carry them (`--against` such a tree fails in `build_grid`), and the
`gate` suite takes no tree without the gate's basin (`roa.basin`); the other
suites take any tree.

Each run is stored under its label, in a file that describes the machine, with
the identity of the tree it timed (`tree`, a short hash of the tree's
`lyapcert/*.py`) beside its `metrics`; a label's `median` holds each metric's
median over the runs of the label's newest tree that hold it, so runs of an
older tree (or of a record made before runs carried their tree) stay in the
file but leave the median.
`BENCH_writers.json` is the record of a retired `writers` suite, whose metrics
the `cert` and `gate` suites now hold.
"""

import os

# pin BLAS to one thread before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import copy
import functools
import hashlib
import importlib
import importlib.util
import json
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import lyapcert

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHECKPOINT = PERFBENCH / "data" / "meta_checkpoint.json"
ROWS = (50, 200, 800)
HVP_TASKS, HVP_ROWS, OUTER_ROWS = 4, 50, 32
CALLS = 200
ROLLOUT_STATES, ROLLOUT_STEPS, ROLLOUT_H = 500, 500, 0.01
ROLLOUT_LABELS = {"ip_stochastic_l": "pendulum", "mg3_dc12": "mg3_dc12"}   # timed presets


class Tree:
    """One source tree's lyapcert package: the modules the suites call, and the `src`
    directory its commands and fresh interpreters run from."""

    def __init__(self, package):
        self.src = Path(package.__file__).resolve().parents[1]
        for name in ("baselines", "cli", "config", "dynamics", "meta", "net", "roa", "svg",
                     "verify"):
            setattr(self, name, importlib.import_module(f"{package.__name__}.{name}"))


def tree_id(tree: Tree) -> str:
    """A short hash of the tree's `lyapcert/*.py` sources, file by file in name order."""
    digest = hashlib.sha256()
    for path in sorted((tree.src / "lyapcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


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
# the benchmark's workload configs, derived from this tree's presets
_spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def workload_config(tree: Tree, spec: dict, name: str):
    """The config `perfbench/inputs.py` derives from `spec`, parsed by the tree."""
    return tree.config.config_from_dict(inputs.derived_config(spec, name))


def meta_fit_config(tree: Tree = HERE):
    return workload_config(tree, inputs.META_FIT, "meta_fit")


def compare_mg3_config(tree: Tree):
    return workload_config(tree, inputs.COMPARE_MG3, "compare_mg3")


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def tree_env(tree: Tree) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree.src)}


def cli_call(tree: Tree, cfg, *commands: list[str]):
    """A call that runs lyapcert commands in turn on cfg, each `[command, *options]`
    in a fresh interpreter on the tree's `src`, in one scratch directory that holds
    the config (`config.json`) and the output root (`out`)."""
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "config.json").write_text(json.dumps(tree.config.config_to_dict(cfg)))
            for command in commands:
                subprocess.run([sys.executable, "-m", "lyapcert.cli", *command, "--config",
                                "config.json", "--out", "out"], cwd=tmp, env=tree_env(tree),
                               check=True, stdout=subprocess.DEVNULL)
    return run


FRESH = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench; "
         "print(json.dumps(getattr(bench, sys.argv[2])(*sys.argv[3:])))")


def fresh(tree: Tree, function: str, *args: str):
    """This script's `function(*args)`, run in a fresh interpreter on the tree's `src`."""
    proc = subprocess.run([sys.executable, "-c", FRESH, str(Path(__file__).parent), function,
                           *args], env=tree_env(tree), check=True, capture_output=True,
                          text=True)
    return json.loads(proc.stdout)


def seconds(s: float) -> float:
    return round(s, 3)


def repeated(fn, *args):
    """A call that makes CALLS calls of fn(*args)."""
    def run():
        for _ in range(CALLS):
            fn(*args)
    return run


def per_call_us(s: float) -> float:
    return round(1e6 * s / CALLS, 1)


def meta_fit_start(tree: Tree = HERE):
    """The `meta_fit` config, its network, task family and bowl init, as `train-meta`
    starts its first round."""
    cfg = meta_fit_config(tree)
    arch = cfg.architecture()
    return (cfg, arch, tree.baselines.task_family(cfg, cfg.verify.d0)[1],
            tree.net.shaped_init(arch, cfg.seeds.net_seed, cfg.verify.d0))


def meta_step_faults() -> float:
    """Minor page faults per meta-step over a `meta_train` run right after the bowl
    init, as `train-meta` runs it; called through `fresh`."""
    cfg, arch, family, theta0 = meta_fit_start()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    HERE.meta.meta_train(family, arch, cfg.meta, cfg.loss, cfg.seeds.net_seed, theta0=theta0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return round(faults / cfg.meta.meta_steps, 3)


def meta_step_suite(tree: Tree) -> tuple[dict, dict]:
    """The meta_step suite on one tree: {(metric, key): (call, its seconds -> the
    metric)} and the counted metrics."""
    cfg, arch, family, theta0 = meta_fit_start(tree)
    seed, radius = cfg.seeds.net_seed, cfg.verify.d0
    rng = np.random.default_rng(0)
    timed = {}
    for n in ROWS:
        batch = (rng.uniform(-radius, radius, (n, arch.input_dim)),
                 rng.normal(size=(n, arch.input_dim)))
        timed["loss_gradient_us", str(n)] = (
            repeated(tree.net.loss_gradient, theta0, arch, batch, cfg.loss), per_call_us)
    batch = (rng.uniform(-radius, radius, (HVP_TASKS, HVP_ROWS, arch.input_dim)),
             rng.normal(size=(HVP_TASKS, HVP_ROWS, arch.input_dim)))
    v = rng.normal(size=(HVP_TASKS, arch.n_params))
    outer = (rng.uniform(-radius, radius, (HVP_TASKS, OUTER_ROWS, arch.input_dim)),
             rng.normal(size=(HVP_TASKS, OUTER_ROWS, arch.input_dim)))
    timed["inner_us",] = (repeated(tree.net.loss_gradients, theta0, arch, batch, cfg.loss),
                          per_call_us)
    timed["outer_us",] = (repeated(functools.partial(tree.net.loss_gradients, values=True),
                                   theta0 - 0.01 * v, arch, outer, cfg.loss), per_call_us)
    timed["hvps_us",] = (repeated(tree.net.hvps, theta0, arch, batch, cfg.loss, v), per_call_us)
    timed["meta_step_ms",] = (
        functools.partial(tree.meta.meta_train, family, arch, cfg.meta, cfg.loss, seed,
                          theta0=theta0),
        lambda s: round(1e3 * s / cfg.meta.meta_steps, 3))
    timed["train_meta_s",] = (cli_call(tree, cfg, ["train-meta", "--seed", "101"]), seconds)
    return timed, {"minflt_per_step": fresh(tree, "meta_step_faults")}


class RowCounter:
    """A system whose f_batch counts the rows it evaluates."""

    def __init__(self, system):
        self.system, self.rows = system, 0

    def f_batch(self, X):
        self.rows += X.shape[0]
        return self.system.f_batch(X)


def gate_suite(tree: Tree) -> tuple[dict, dict]:
    """The gate suite on one tree, laid out as `meta_step_suite`'s."""
    timed, row_steps = {}, {}
    for name, cfg in tree.config.PRESETS.items():
        system = tree.dynamics.build_system(cfg.system.system_id, cfg.system.theta_test)
        X0 = tree.dynamics.sample_ball(np.random.default_rng(0), ROLLOUT_STATES, system.dim,
                                       cfg.verify.d0)
        step = tree.roa.gate_step(system, cfg.roa.mc_step)
        counter = RowCounter(system)
        tree.dynamics.simulate_batch(counter, X0, step, tree.dynamics.MAX_RK4_STEPS * step,
                                     tree.roa.basin(system, step))
        row_steps[name] = counter.rows // 4
        if name in ROLLOUT_LABELS:   # the gate keeps ROLLOUT_H (its mc_step) as its step
            timed["rollout_ns_per_state_step", ROLLOUT_LABELS[name]] = (
                functools.partial(tree.dynamics.simulate_batch, system, X0, ROLLOUT_H,
                                  ROLLOUT_STEPS * ROLLOUT_H, tree.roa.basin(system, ROLLOUT_H)),
                lambda s: round(1e9 * s / (ROLLOUT_STATES * ROLLOUT_STEPS), 1))

    # the fixed task: the checkpoint adapted and certified as `adapt` and `roa` do
    cfg = workload_config(tree, {"preset": inputs.ADAPT_PRESET}, "fixed")
    theta, arch, extra = tree.net.load_checkpoint(CHECKPOINT)
    system = tree.dynamics.build_system(cfg.system.system_id, cfg.system.theta_test)
    theta = tree.baselines.test_time_update(cfg, theta, arch, system, extra["radius"],
                                            cfg.seeds.adapt_seed)
    candidate = tree.net.MlpLyapunov(theta, arch)
    grid = tree.verify.build_grid(extra["radius"], cfg.verify.nodes_per_axis, system.dim,
                                  cfg.verify.exempt_radius, cfg.roa.plane)
    _, result = tree.baselines.certify_candidate(candidate, system, grid)
    mc = cfg.roa
    timed["mc_gate_ms",] = (
        functools.partial(tree.roa.monte_carlo_convergence, system, [(result, candidate)],
                          grid, mc.mc_samples, mc.mc_step, cfg.seeds.master),
        lambda s: round(1e3 * s, 1))
    adapted = str(Path("out", cfg.name, "adapted_checkpoint.json"))
    timed["adapt_certify_s",] = (
        cli_call(tree, cfg, ["adapt", "--checkpoint", str(CHECKPOINT)],
                 ["verify", "--checkpoint", adapted], ["roa", "--checkpoint", adapted]),
        seconds)
    timed["compare_mg3_s",] = (cli_call(tree, compare_mg3_config(tree),
                                        ["compare", "--seed", "101"]), seconds)
    return timed, {"row_steps": row_steps}


def init_suite(tree: Tree) -> tuple[dict, dict]:
    """The init suite on one tree, laid out as `meta_step_suite`'s."""
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
    return timed, {"fit_rms": fit_rms, "max_abs_theta": max_abs_theta}


def full_text(text) -> int:
    """Length of a writer's text, made in full: a string, or its blocks in turn."""
    return len(text) if isinstance(text, str) else sum(map(len, text))


CERT_CASES = {"pendulum": ("ip_stochastic_l", 201), "pendulum_801": ("ip_stochastic_l", 801),
              "mg3": ("mg3_dc12", 41), "mg5": ("mg5_dc12", 15), "fan": ("cf_m", 9)}


def cert_case(name: str, tree: Tree = HERE):
    """(candidate, test system, preset config, radius, nodes per axis) of a cert grid."""
    preset, nodes = CERT_CASES[name]
    cfg = tree.config.PRESETS[preset]
    system = tree.dynamics.build_system(cfg.system.system_id, cfg.system.theta_test)
    if preset == "ip_stochastic_l":
        theta, arch, extra = tree.net.load_checkpoint(CHECKPOINT)
        radius = extra["radius"]
    else:
        arch, radius = cfg.architecture(), cfg.verify.d0
        theta = tree.net.shaped_init(arch, cfg.seeds.net_seed, radius)
    return tree.net.MlpLyapunov(theta, arch), system, cfg, radius, nodes


def peak_kb() -> int:
    # VmHWM, unlike ru_maxrss, does not count the resident set of the launching process
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cert_peak(name: str) -> tuple[int, int]:
    """Peak resident kB with a cert grid's candidate made, then after building the
    grid, mapping it, extracting its level set and writing the validity CSV and SVG;
    called through `fresh`."""
    candidate, system, cfg, radius, nodes = cert_case(name)
    base = peak_kb()
    grid = HERE.verify.build_grid(radius, nodes, system.dim, cfg.verify.exempt_radius,
                                  cfg.roa.plane)
    vmap = HERE.verify.check_validity(candidate, system, grid)
    HERE.roa.largest_level_set(vmap, grid)
    with tempfile.TemporaryDirectory() as tmp:
        HERE.cli.atomic_write_text(Path(tmp) / "validity_map.csv",
                                   HERE.verify.export_validity_csv(vmap, grid))
        HERE.cli.atomic_write_text(Path(tmp) / "validity_map.svg",
                                   HERE.svg.render_validity_svg(vmap, grid))
    return base, peak_kb()


def cert_map_faults(name: str) -> int:
    """Minor page faults of a cert grid's second map, after its first, in one process;
    called through `fresh`."""
    candidate, system, cfg, radius, nodes = cert_case(name)
    grid = HERE.verify.build_grid(radius, nodes, system.dim, cfg.verify.exempt_radius,
                                  cfg.roa.plane)
    HERE.verify.check_validity(candidate, system, grid)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    HERE.verify.check_validity(candidate, system, grid)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def cert_stages(tree: Tree, name: str) -> tuple[int, dict]:
    """A cert grid's node count and the calls of its stages, on one tree."""
    candidate, system, cfg, radius, per_axis = cert_case(name, tree)
    settings = (radius, per_axis, system.dim, cfg.verify.exempt_radius, cfg.roa.plane)
    grid = tree.verify.build_grid(*settings)
    vmap = tree.verify.check_validity(candidate, system, grid)
    result = tree.roa.largest_level_set(vmap, grid)
    return grid.n_nodes, {
        "build_grid": lambda: tree.verify.build_grid(*settings),
        "sweep": lambda: tree.verify.check_validity(candidate, system, grid),
        "lipschitz": lambda: tree.verify.estimate_lipschitz(vmap.lie, vmap.lie, grid),
        "level_set": lambda: tree.roa.largest_level_set(vmap, grid),
        "validity_csv": lambda: full_text(tree.verify.export_validity_csv(vmap, grid)),
        "validity_svg": lambda: full_text(tree.svg.render_validity_svg(vmap, grid)),
        "overlay_svg": lambda: full_text(tree.svg.render_validity_svg(vmap, grid, roa=result)),
        "boundary_csv": lambda: full_text(tree.roa.export_boundary_csv(result, grid)),
    }


def cert_suite(tree: Tree) -> tuple[dict, dict]:
    """The cert suite on one tree, laid out as `meta_step_suite`'s."""
    timed, nodes, peak, base, faults = {}, {}, {}, {}, {}
    for name in CERT_CASES:
        base_kb, peak_kb = fresh(tree, "cert_peak", name)
        base[name], peak[name] = round(base_kb / 1024, 2), round(peak_kb / 1024, 2)
        faults[name] = fresh(tree, "cert_map_faults", name)
        nodes[name], stages = cert_stages(tree, name)
        for stage, call in stages.items():
            timed["ms_per_1e4_nodes", name, stage] = (
                call, lambda s, n=nodes[name]: round(1e3 * s * 1e4 / n, 3))
    return timed, {"nodes": nodes, "peak_rss_mb": peak, "base_rss_mb": base,
                   "map_faults": faults}


SUITES = {"cert": cert_suite, "gate": gate_suite, "init": init_suite,
          "meta_step": meta_step_suite}


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


def suite_run(suite: tuple[dict, dict], times: dict, r: int) -> dict:
    """Round r's run: the counted metrics and each timed one from its seconds in that
    round."""
    timed, counted = suite
    run = copy.deepcopy(counted)
    for path, (_, unit) in timed.items():
        node = run
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = unit(times[path][r])
    return run


def median_of(runs: list) -> dict:
    """Each metric's median over the runs that hold it, nested dicts metric by metric."""
    if isinstance(runs[0], dict):
        keys = dict.fromkeys(key for run in runs for key in run)
        return {key: median_of([run[key] for run in runs if key in run]) for key in keys}
    return round(float(np.median(runs)), 6)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", choices=sorted(SUITES), default="meta_step")
    parser.add_argument("--label", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", help="BENCH JSON file (default BENCH_<suite>.json)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--against", metavar="SRC",
                        help="another tree's src directory, timed alternated with this one "
                             "in this process")
    parser.add_argument("--against-label", default="parent",
                        help="column name of the --against tree (default parent)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.against and args.against_label == args.label:
        parser.error("--against-label must differ from --label")

    trees = {args.label: HERE}
    if args.against:
        trees[args.against_label] = load_tree(args.against, "lyapcert_against")
    suites = [SUITES[args.suite](tree) for tree in trees.values()]
    times = suite_times(suites, args.repeats)
    new_runs = {label: [suite_run(suite, tree_times, r) for r in range(args.repeats)]
                for label, suite, tree_times in zip(trees, suites, times)}
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
        tree = tree_id(trees[label])
        entry["runs"].extend({"tree": tree, "metrics": run} for run in runs)
        entry["median"] = median_of([run["metrics"] for run in entry["runs"]
                                     if run.get("tree") == tree])
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps({label: median_of(runs) for label, runs in new_runs.items()}))
    if args.against:   # per timed metric, the pairs in which this tree was faster
        mine, theirs = times
        wins = {"/".join(key): sum(a < b for a, b in zip(mine[key], theirs[key]))
                for key in mine}
        print(json.dumps({"wins": {key: f"{n}/{args.repeats}" for key, n in wins.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
