"""Workload inputs: configs derived from the shipped presets, and the test tuples.

Run as a script in a fresh interpreter, as the benchmark's set-up step:

    python3 perfbench/inputs.py <workload> <seed> <out_dir>

It writes `inputs.json` (the list of operations of one round, plus the pool of
seed-drawn tasks for `adapt_certify`) and one config JSON per distinct config
into <out_dir>. The same seed always writes byte-identical files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from lyapcert.config import PRESETS, config_to_dict

# Reduced budgets; README.md says how each was chosen.
META_FIT = {"preset": "ip_stochastic_l", "meta": {"meta_steps": 1000}, "verify": {"d0": 3.2}}
COMPARE_MG3 = {"preset": "mg3_dc12", "meta": {"meta_steps": 300}, "nlf": {"n_steps": 800},
               "roa": {"mc_samples": 500}}
ADAPT_PRESET = "ip_stochastic_l"
# Pendulum length of the "gate" task: inside the training spread, but short
# enough that the MC gate's fixed RK4 step is unstable (see the README).
GATE_LENGTH = 0.254
# Where each seed-drawn tuple of a round lies, in training sigmas from the nominal.
DRAWS = ((-0.8, 0.0), (0.4, 1.0), (0.4, 1.0))
MAX_ROUNDS = 40


def derived_config(spec: dict, name: str) -> dict:
    payload = config_to_dict(PRESETS[spec["preset"]])
    payload["name"] = name
    for block, values in spec.items():
        if block != "preset":
            payload[block].update(values)
    return payload


def test_tuples(seed: int, rounds: int) -> list[list[float]]:
    """Three pendulum tuples per round: one shorter and two longer than the nominal.

    Only the components with a nonzero training sigma vary. The shorter one is
    drawn from [nominal - 0.8 sigma, nominal), the longer ones from
    [nominal + 0.4 sigma, nominal + sigma]. With the committed checkpoint the
    shorter lengths certify a small level set (c near 0.7-0.9) and the longer
    ones a large one (c near 3). With the two fixed tasks every round holds
    three large certificates of five, so the median operation is always a
    large-certificate task. Lengths under 0.28 are left out: there the MC
    gate's RK4 step h = 0.01 is outside RK4's stability region and a nonempty
    certificate is rejected, a fault the fixed "gate" task counts on inputs
    that do not depend on the seed (see the README).
    """
    system = PRESETS[ADAPT_PRESET].system
    theta0 = np.asarray(system.theta0)
    sigma = np.asarray(system.sigma_diag)
    rng = np.random.default_rng([seed, 20])
    tuples = []
    for _ in range(rounds):
        for low, high in DRAWS:
            draw = theta0 + sigma * rng.uniform(low, high, size=theta0.size)
            tuples.append([float(v) for v in draw])
    return tuples


def write_inputs(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    configs: dict[str, dict] = {}
    if workload == "meta_fit":
        configs["meta_fit"] = derived_config(META_FIT, "meta_fit")
        plan = {"round": ["meta_fit"]}
    elif workload == "compare_mg3":
        configs["compare_mg3"] = derived_config(COMPARE_MG3, "compare_mg3")
        plan = {"round": ["compare_mg3"]}
    elif workload == "adapt_certify":
        # Two fixed tasks start every round: the preset's own test tuple and
        # the short "gate" pendulum. The seed only draws the others.
        configs["fixed"] = derived_config({"preset": ADAPT_PRESET}, "fixed")
        configs["gate"] = derived_config({"preset": ADAPT_PRESET}, "gate")
        configs["gate"]["system"]["theta_test"][0] = GATE_LENGTH
        pool = []
        for i, values in enumerate(test_tuples(seed, MAX_ROUNDS)):
            name = f"task{i:03d}"
            cfg = derived_config({"preset": ADAPT_PRESET}, name)
            cfg["system"]["theta_test"] = values
            configs[name] = cfg
            pool.append(name)
        plan = {"fixed": ["fixed", "gate"], "pool": pool, "per_round": len(DRAWS)}
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    for name, cfg in configs.items():
        (out / f"{name}.json").write_text(json.dumps(cfg, indent=1, sort_keys=True))
    (out / "inputs.json").write_text(json.dumps({"workload": workload, "seed": seed, **plan},
                                                indent=1, sort_keys=True))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit("usage: inputs.py <workload> <seed> <out_dir>")
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
