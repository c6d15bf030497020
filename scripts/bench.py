#!/usr/bin/env python3
"""Time the meta-training layers and record them in a BENCH JSON file.

Example, once per source tree to compare (runs under one label accumulate):

    PYTHONPATH=src python scripts/bench.py --label change --out BENCH_meta_step.json

Measures, with BLAS pinned to one thread, on the `meta_fit` family (the
`ip_stochastic_l` preset at 1,000 meta-steps, region radius 3.2):

- `loss_gradient_us`: microseconds per `net.loss_gradient` call on the
  preset's 16x16 network at n = 50, 200 and 800 rows (median of repeats)
- `meta_step_ms`: milliseconds per meta-step of `meta.meta_train`, 1,000 steps
- `shaped_init_s`: seconds per `net.shaped_init` at that radius
- `train_meta_s`: wall seconds of one `lyapcert train-meta --seed 101` on that
  config, a fresh interpreter each time

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
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from lyapcert import dynamics, meta, net
from lyapcert.config import PRESETS, config_to_dict

RADIUS = 3.2
ROWS = (50, 200, 800)


def meta_fit_config():
    cfg = PRESETS["ip_stochastic_l"]
    return replace(cfg, name="meta_fit", meta=replace(cfg.meta, meta_steps=1000),
                   verify=replace(cfg.verify, d0=RADIUS))


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


def measure(repeats: int) -> dict:
    cfg = meta_fit_config()
    m, arch = cfg.meta, cfg.architecture()
    tasks = [dynamics.build_dataset(dynamics.build_system(p), RADIUS, m.k_train, m.j_test,
                                    m.m_batches, cfg.seeds.task_seed + 7 * i)
             for i, p in enumerate(dynamics.sample_tasks(cfg.system.nominal(), cfg.system.sigma_diag,
                                                         m.n_tasks, cfg.seeds.task_seed))]
    theta0 = net.shaped_init(arch, cfg.seeds.net_seed, RADIUS)
    rng = np.random.default_rng(0)
    calls = 200

    grad_us = {}
    for n in ROWS:
        batch = (rng.uniform(-RADIUS, RADIUS, (n, arch.input_dim)),
                 rng.normal(size=(n, arch.input_dim)))
        per_run = median_time(lambda: [net.loss_gradient(theta0, arch, batch, cfg.loss)
                                       for _ in range(calls)], repeats)
        grad_us[str(n)] = round(1e6 * per_run / calls, 1)

    step_s = median_time(lambda: meta.meta_train(tasks, arch, m, cfg.loss, cfg.seeds.net_seed,
                                                 theta0=theta0), repeats)
    init_s = median_time(lambda: net.shaped_init(arch, cfg.seeds.net_seed, RADIUS), repeats)

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "meta_fit.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        argv = [sys.executable, "-m", "lyapcert.cli", "train-meta", "--config", str(cfg_path),
                "--seed", "101", "--out", str(Path(tmp) / "out")]
        env = {**os.environ, "PYTHONPATH": str(Path(net.__file__).parents[1])}
        cli_s = median_time(lambda: subprocess.run(argv, env=env, check=True,
                                                   stdout=subprocess.DEVNULL), repeats)

    return {"loss_gradient_us": grad_us,
            "meta_step_ms": round(1e3 * step_s / m.meta_steps, 3),
            "shaped_init_s": round(init_s, 3),
            "train_meta_s": round(cli_s, 3)}


def median_of(runs: list[dict]) -> dict:
    def med(values):
        return round(float(np.median(values)), 3)
    out = {key: med([r[key] for r in runs]) for key in runs[0] if key != "loss_gradient_us"}
    out["loss_gradient_us"] = {n: med([r["loss_gradient_us"][n] for r in runs])
                               for n in runs[0]["loss_gradient_us"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", default="BENCH_meta_step.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    run = measure(args.repeats)
    path = Path(args.out)
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
