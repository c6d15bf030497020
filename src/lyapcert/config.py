"""Experiment configuration: typed blocks, JSON parsing, hashing, presets.

A config file is a single JSON object with the blocks below. The blocks are
the settings the library runs on (the `loss` block is the loss module's own
`TightenedLossConfig`); each one validates its values when it is built, so a
bad value fails before any training starts. With `cli`'s checks of the
command line and of checkpoints, they are the only place a setting is
checked: the library trusts what it receives. Unknown keys are rejected
anywhere in the tree so typos fail loudly, and every value must have its
field's annotated type. A config is the whole experiment: where its
artifacts go is the command line's `--out`, not a setting. The hash of the
canonical JSON form is embedded in every artifact a run writes; reruns with the
same hash and seed reproduce artifacts bitwise, into any output root.

Presets cover the nine benchmark rows (pendulum x3, three-microgrid x2,
five-microgrid x2, ducted fan x2) with the published nominal/test parameter
tuples baked in. Everything the source material leaves open (task spreads,
training budgets, grid resolutions, seeds) is pinned here; the pinned seeds
were screened so the shipped pendulum presets certify on this configuration.
The 5-d and 6-d rows are resolution limited on a desk machine: their covering
radius tau is a large fraction of the region radius, so certificates there are
typically empty and the rows exist to exercise the pipeline honestly, not to
reproduce areas.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .dynamics import NOMINAL_FAN, NOMINAL_PENDULUM, ParamVector, nominal_microgrid
from .loss import TightenedLossConfig
from .net import INIT_POINTS, Architecture


TEST_TIME_SAMPLES = 50   # the test-time adaptation budget: samples
TEST_TIME_STEPS = 10     # and gradient steps
# Grid nodes (nodes_per_axis ** state dim, the box the ball is cut from) a config may
# ask for. Grid, map and level set of a (16, 16) network peak at 53-113 B per box
# node in 1 to 6 dimensions, and `compare`, which holds one map at a time, at 134 B
# in 2-d, so every command on a grid at the cap stays under 2 GB.
MAX_GRID_NODES = 10_000_000
# RK4 steps of one rollout a config or `simulate` may ask for (horizon / step):
# 500x the default run of 2,000 steps. The Monte-Carlo gate may still split each
# asked step on a stiff loop (`roa.gate_step`), and it steps mc_samples rows per method.
MAX_RK4_STEPS = 1_000_000


class ConfigError(Exception):
    """Malformed configuration; message names the offending field."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass(frozen=True)
class SystemBlock:
    """The benchmark system and its nominal and test-time parameter tuples:
    pendulum (l, m, g, b), microgrid (dc_1..dc_N, N >= 2) or fan (m, J, r, g, d)."""

    system_id: str
    theta0: tuple[float, ...]
    theta_test: tuple[float, ...]
    sigma_diag: tuple[float, ...]

    def __post_init__(self):
        _require(self.system_id in ("pendulum", "microgrid", "fan"),
                 f"unknown system_id {self.system_id!r}")
        n = len(self.theta0)
        if self.system_id == "microgrid":
            _require(n >= 2, "a microgrid needs at least 2 droop coefficients")
        else:
            expected = 4 if self.system_id == "pendulum" else 5
            _require(n == expected, f"{self.system_id} expects {expected} parameters, got {n}")
        _require(len(self.theta_test) == n, "theta_test must have as many entries as theta0")
        _require(all(math.isfinite(v) and v > 0 for v in self.theta0 + self.theta_test),
                 "every theta0 and theta_test entry must be finite and positive")
        _require(len(self.sigma_diag) == n and min(self.sigma_diag) >= 0,
                 "sigma_diag needs one nonnegative entry per parameter")

    def nominal(self) -> ParamVector:
        return ParamVector(self.system_id, tuple(map(float, self.theta0)))

    def test(self) -> ParamVector:
        return ParamVector(self.system_id, tuple(map(float, self.theta_test)))


@dataclass(frozen=True)
class MetaBlock:
    """MAML schedule, task family size and the test-time adaptation budget."""

    inner_lr: float = 0.01        # adaptation step size
    meta_lr: float = 0.002        # meta step size
    tasks_per_step: int = 4       # meta-batch size P
    meta_steps: int = 2000
    k_test: int = 10              # test-time adaptation steps
    mode: str = "second_order"    # or "first_order"
    n_tasks: int = 6
    m_batches: int = 25
    k_train: int = 32
    j_test: int = 32
    adapt_alpha: float = 0.02
    adapt_samples: int = 50

    def __post_init__(self):
        _require(min(self.inner_lr, self.meta_lr, self.adapt_alpha) > 0,
                 "step sizes must be positive")
        _require(min(self.tasks_per_step, self.meta_steps, self.n_tasks, self.m_batches,
                     self.k_train, self.j_test, self.adapt_samples) >= 1 and self.k_test >= 0,
                 "task, batch, step and sample counts must be >= 1, k_test >= 0")
        _require(self.mode in ("first_order", "second_order"),
                 "mode must be 'first_order' or 'second_order'")
        _require(self.adapt_samples <= TEST_TIME_SAMPLES and self.k_test <= TEST_TIME_STEPS,
                 f"the test-time budget is at most {TEST_TIME_SAMPLES} adapt_samples and "
                 f"{TEST_TIME_STEPS} k_test steps")


@dataclass(frozen=True)
class VerifyBlock:
    """Region radius schedule and the grid certification settings."""

    d0: float = 4.0
    nodes_per_axis: int = 201
    shrink_factor: float = 0.8
    max_rounds: int = 3
    exempt_radius: float = 1.0
    min_green_fraction: float = 1.0

    def __post_init__(self):
        _require(self.d0 > 0 and self.exempt_radius >= 0,
                 "d0 must be positive, exempt_radius nonnegative")
        _require(self.nodes_per_axis >= 3 and self.nodes_per_axis % 2 == 1,
                 "nodes_per_axis must be odd and >= 3 so the origin is a node")
        _require(0.0 < self.shrink_factor < 1.0, "shrink_factor must lie in (0, 1)")
        _require(self.max_rounds >= 1, "max_rounds must be >= 1")
        _require(0.0 <= self.min_green_fraction <= 1.0,
                 "min_green_fraction must lie in [0, 1]")
        last_radius = self.d0 * self.shrink_factor ** (self.max_rounds - 1)
        _require(self.exempt_radius < last_radius,
                 f"exempt_radius must stay below the last round's radius {last_radius:g}, "
                 f"or every node of that region is exempt")


@dataclass(frozen=True)
class RoaBlock:
    mc_samples: int = 1000
    mc_step: float = 0.01
    mc_horizon: float = 20.0
    mc_tol: float = 1e-2
    plane: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        _require(self.mc_samples >= 1 and self.mc_step > 0 and self.mc_tol > 0,
                 "mc_samples, mc_step and mc_tol must be positive")
        _require(self.mc_horizon >= self.mc_step, "mc_horizon must be >= mc_step")
        _require(self.mc_horizon / self.mc_step <= MAX_RK4_STEPS,
                 f"mc_horizon / mc_step asks for more than {MAX_RK4_STEPS:,} RK4 steps")
        _require(len(self.plane) == 2 and self.plane[0] != self.plane[1]
                 and min(self.plane) >= 0, "plane must name two distinct axes")


@dataclass(frozen=True)
class NlfBlock:
    """Training budget of the plain NLF baselines."""

    n_samples: int = 20000
    n_steps: int = 5000
    lr: float = 0.01
    batch_size: int = 128

    def __post_init__(self):
        _require(self.n_samples >= 1 and self.batch_size >= 1 and self.n_steps >= 0,
                 "n_samples and batch_size must be >= 1, n_steps >= 0")
        _require(self.lr > 0, "lr must be positive")


@dataclass(frozen=True)
class SeedBlock:
    master: int = 0
    task_seed: int = 0
    net_seed: int = 0
    adapt_seed: int = 123

    def __post_init__(self):
        _require(min(self.master, self.task_seed, self.net_seed, self.adapt_seed) >= 0,
                 "seeds must be nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    system: SystemBlock
    meta: MetaBlock = MetaBlock()
    loss: TightenedLossConfig = TightenedLossConfig()
    verify: VerifyBlock = VerifyBlock()
    roa: RoaBlock = RoaBlock()
    nlf: NlfBlock = NlfBlock()
    seeds: SeedBlock = SeedBlock()
    hidden: tuple[int, ...] = (16, 16)

    def __post_init__(self):
        _require(self.name not in ("", ".", "..") and Path(self.name).name == self.name,
                 f"name {self.name!r} must be a plain directory name, or artifacts leave --out")
        arch = self.architecture()
        _require(arch.n_params <= INIT_POINTS, f"hidden {list(self.hidden)} gives a network of "
                 f"{arch.n_params} parameters, more than the {INIT_POINTS} points its bowl init fits")
        _require(max(self.roa.plane) < arch.input_dim,
                 "roa.plane names an axis beyond the state dimension")
        _require(self.verify.nodes_per_axis ** arch.input_dim <= MAX_GRID_NODES,
                 f"verify.nodes_per_axis {self.verify.nodes_per_axis} gives a grid of more than "
                 f"{MAX_GRID_NODES:,} nodes in {arch.input_dim} dimensions")

    def architecture(self) -> Architecture:
        return Architecture(input_dim=self.system.nominal().state_dim, hidden=self.hidden)

    @property
    def plane(self) -> tuple[int, int]:
        """The state plane areas are measured and maps drawn on: `roa.plane` above two
        dimensions, (0, 1) in two."""
        return self.roa.plane if self.system.nominal().state_dim > 2 else (0, 1)


def _parse_value(kind, value, path: str):
    """A tuple field's list as a tuple of its entries, a scalar as it is, each checked
    against the field's annotation `kind`: a non-finite number raises FloatingPointError,
    a value of another type (a boolean included) ConfigError; float takes integers too."""
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(_parse_value(get_args(kind)[0], entry, path) for entry in value)
    if isinstance(value, float) and not math.isfinite(value):
        raise FloatingPointError(f"{path}: non-finite number {value!r}")
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    return value


def _build_block(cls, payload: dict, path: str):
    """A config block (the top level included) from its JSON object, its blocks built
    in turn; unknown keys raise ConfigError, and each value is parsed by its field's
    annotation."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object")
    kinds = get_type_hints(cls)
    unknown = set(payload) - set(kinds)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {key: _build_block(kinds[key], value, key) if is_dataclass(kinds[key])
              else _parse_value(kinds[key], value, f"{path}.{key}")
              for key, value in payload.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(payload: dict) -> ExperimentConfig:
    return _build_block(ExperimentConfig, payload, "top level")


def load_config(path) -> ExperimentConfig:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(payload)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    payload = asdict(cfg)

    def listify(obj):
        if isinstance(obj, tuple):
            return [listify(v) for v in obj]
        if isinstance(obj, dict):
            return {k: listify(v) for k, v in obj.items()}
        return obj

    return listify(payload)


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Presets: one per benchmark row.

def _pendulum_preset(name, theta_test, sigma, task_seed, meta_steps=8000,
                     m_batches=30, k_train=50) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        system=SystemBlock("pendulum", NOMINAL_PENDULUM, theta_test, sigma),
        meta=MetaBlock(meta_steps=meta_steps, m_batches=m_batches, k_train=k_train),
        loss=TightenedLossConfig(1.0, 1.0),
        verify=VerifyBlock(d0=4.0, nodes_per_axis=201, exempt_radius=1.1,
                           min_green_fraction=0.995),
        nlf=NlfBlock(n_samples=20000, n_steps=8000, lr=0.002, batch_size=256),
        seeds=SeedBlock(master=0, task_seed=task_seed, net_seed=0, adapt_seed=123),
    )


def _microgrid_preset(name, n, theta_test, sigma) -> ExperimentConfig:
    big = n >= 5
    return ExperimentConfig(
        name=name,
        system=SystemBlock("microgrid", nominal_microgrid(n), theta_test, sigma),
        meta=MetaBlock(meta_steps=6000, m_batches=30, k_train=50),
        loss=TightenedLossConfig(0.5, 0.5) if not big else TightenedLossConfig(0.3, 0.3),
        verify=VerifyBlock(d0=3.0 if not big else 2.0,
                           nodes_per_axis=41 if not big else 15,
                           exempt_radius=0.8 if not big else 0.7,
                           min_green_fraction=0.995),
        roa=RoaBlock(plane=(0, 1)),
        nlf=NlfBlock(n_samples=20000, n_steps=8000, lr=0.002, batch_size=256),
        seeds=SeedBlock(master=0, task_seed=0, net_seed=0, adapt_seed=123),
    )


def _fan_preset(name, theta_test, sigma) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        system=SystemBlock("fan", NOMINAL_FAN, theta_test, sigma),
        meta=MetaBlock(meta_steps=3000, m_batches=20, k_train=32),
        loss=TightenedLossConfig(0.1, 0.1),
        verify=VerifyBlock(d0=1.0, nodes_per_axis=9, exempt_radius=0.4,
                           min_green_fraction=0.995),
        roa=RoaBlock(plane=(0, 2), mc_horizon=20.0),
        nlf=NlfBlock(n_samples=20000, n_steps=5000, lr=0.002, batch_size=256),
        seeds=SeedBlock(master=0, task_seed=0, net_seed=0, adapt_seed=123),
    )


PRESETS = {
    "ip_stochastic_l": _pendulum_preset(
        "ip_stochastic_l", (1.2, 0.15, 9.81, 0.1), (0.25, 0.0, 0.0, 0.0), task_seed=113),
    "ip_stochastic_lb": _pendulum_preset(
        "ip_stochastic_lb", (1.35, 0.15, 9.81, 0.2), (0.25, 0.0, 0.0, 0.05), task_seed=113),
    "ip_stochastic_lmgb": _pendulum_preset(
        "ip_stochastic_lmgb", (1.0, 0.2, 9.0, 0.2), (0.15, 0.02, 0.4, 0.04),
        task_seed=18, meta_steps=6000, m_batches=25, k_train=32),
    "mg3_dc12": _microgrid_preset(
        "mg3_dc12", 3, (3.0, 4.3, 2.0), (0.6, 0.6, 0.0)),
    "mg3_dc123": _microgrid_preset(
        "mg3_dc123", 3, (2.5, 4.5, 3.9), (0.6, 0.6, 0.6)),
    "mg5_dc12": _microgrid_preset(
        "mg5_dc12", 5, (3.5, 3.5, 2.0, 2.0, 2.0), (0.6, 0.6, 0.0, 0.0, 0.0)),
    "mg5_dcall": _microgrid_preset(
        "mg5_dcall", 5, (3.5, 3.5, 3.0, 4.0, 3.2), (0.6, 0.6, 0.6, 0.6, 0.6)),
    "cf_m": _fan_preset(
        "cf_m", (13.0, 0.0462, 0.15, 0.28, 0.1), (0.8, 0.0, 0.0, 0.0, 0.0)),
    "cf_mrd": _fan_preset(
        "cf_mrd", (13.0, 0.0462, 0.165, 0.28, 0.15), (0.8, 0.0, 0.006, 0.0, 0.02)),
}
