"""Comparison methods, all certified through the same verify/roa pipeline.

Access regimes mirror the benchmark protocol:

* QLF(TS) and NLF(TS) see only the test-time system (QLF through its
  linearization, NLF through a large training budget);
* T-NLF fully trains on the nominal system and then fine-tunes under the
  `meta` block's test-time budget (at most 50 samples / 10 steps);
* the meta pipeline trains across sampled tasks and adapts under the same
  test-time budget.

The network methods start from the bowl-shaped initialization, a pure geometry
fit on no dynamics data (so access regimes are unaffected), fit at three seeds:
META-NLF at `seeds.net_seed`, NLF(TS) and T-NLF at the master seed + 1 and + 2.
Every method's result carries the sample/step counters of its test-time access so
the budget contract is assertable, and every extracted ROA is re-validated by
Monte-Carlo rollouts before its area enters a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import meta, net, roa, verify
from .config import ExperimentConfig, NlfBlock, VerifyBlock
from .control import is_hurwitz, solve_lyapunov
from .dynamics import ClosedLoopSystem, build_dataset, build_system, sample_labelled, sample_tasks
from .loss import TightenedLossConfig

METHODS = ("META_NLF", "NLF_TS", "T_NLF", "QLF_TS")


class NotHurwitz(Exception):
    """The closed-loop linearization at the origin is unstable."""


class QuadraticLyapunov:
    """V(x) = x^T P x with its exact gradient 2 P x, P symmetric PD."""

    def __init__(self, P: np.ndarray):
        self.P = 0.5 * (P + P.T)

    def value(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.einsum("bi,ij,bj->b", X, self.P, X)

    def gradient(self, X: np.ndarray) -> np.ndarray:
        return 2.0 * (np.atleast_2d(X) @ self.P)

    def value_and_gradient(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.value(X), self.gradient(X)


@dataclass(frozen=True, eq=False)
class MethodResult:
    """One method's line of a comparison. A method that fails before certification,
    and the SOS placeholder, have no candidate, ROA or counts; `mc_fraction` is None
    when the Monte-Carlo gate had no rollouts to run."""
    method: str
    status: str                      # "ok", the gate's rejection or the method's error
    candidate: object = None
    roa: roa.RoaResult | None = None
    test_samples: int | None = None
    test_steps: int | None = None
    mc_fraction: float | None = None

    def row(self) -> dict:
        """The comparison.csv / .json row, "" for what is absent; area and c only for
        a certificate that passed the gate."""
        ok = self.status == "ok"
        row = {"method": self.method, "area": self.roa.area if ok else None,
               "c": self.roa.c if ok else None, "mc_fraction": self.mc_fraction,
               "test_samples": self.test_samples, "test_steps": self.test_steps,
               "status": self.status}
        return {key: "" if value is None else value for key, value in row.items()}


def certify_candidate(candidate, system: ClosedLoopSystem, grid: verify.GridSpec,
                      settings: VerifyBlock,
                      plane: tuple[int, int]) -> tuple[verify.ValidityMap, roa.RoaResult]:
    vmap = verify.check_validity(candidate, system, grid, exempt_radius=settings.exempt_radius)
    return vmap, roa.largest_level_set(vmap, grid, plane=plane)


def train_nlf(system: ClosedLoopSystem, radius: float, arch: net.Architecture,
              loss_cfg: TightenedLossConfig, budget: NlfBlock,
              seed: int) -> tuple[np.ndarray, int, int]:
    """Plain minibatch gradient descent on one system's data (no meta-learning),
    from the bowl-shaped init. Returns (theta, samples_used, steps_used)."""
    X, Y = sample_labelled(system, np.random.default_rng(seed), budget.n_samples, radius)
    rng = np.random.default_rng(seed + 1)
    theta = net.shaped_init(arch, seed, radius)
    for step in range(budget.n_steps):
        idx = rng.integers(X.shape[0], size=min(budget.batch_size, X.shape[0]))
        with np.errstate(over="ignore", invalid="ignore"):   # a diverged step raises below
            theta = theta - budget.lr * net.loss_gradient(theta, arch, (X[idx], Y[idx]), loss_cfg)
        if not np.all(np.isfinite(theta)):
            raise meta.NonFiniteLoss(
                f"non-finite gradient or parameters at NLF training step {step}", step)
    return theta, budget.n_samples, budget.n_steps


def qlf_ts(system_test: ClosedLoopSystem) -> tuple[QuadraticLyapunov, int, int]:
    """Quadratic baseline from the closed-loop linearization at the origin."""
    A = system_test.linearization()
    if not is_hurwitz(A):
        raise NotHurwitz("test-time closed loop linearization is not Hurwitz")
    return QuadraticLyapunov(solve_lyapunov(A, np.eye(system_test.dim))), 0, 0


def nlf_ts(system_test: ClosedLoopSystem, radius: float, arch: net.Architecture,
           loss_cfg: TightenedLossConfig, budget: NlfBlock,
           seed: int) -> tuple[net.MlpLyapunov, int, int]:
    """Fully trained NLF with explicit access to the test-time system."""
    theta, samples, steps = train_nlf(system_test, radius, arch, loss_cfg, budget, seed)
    return net.MlpLyapunov(theta, arch), samples, steps


def test_time_update(cfg: ExperimentConfig, theta: np.ndarray, arch: net.Architecture,
                     system_test: ClosedLoopSystem, radius: float, seed: int) -> np.ndarray:
    """The test-time update under the `meta` block's budget: `adapt_samples` labelled
    states of the test-time system on the ball of the given radius, drawn from
    default_rng(seed), and `k_test` full-batch steps of size `adapt_alpha` from theta."""
    m = cfg.meta
    batch = sample_labelled(system_test, np.random.default_rng(seed), m.adapt_samples, radius)
    return meta.test_time_adapt(theta, arch, batch, m.adapt_alpha, m.k_test, cfg.loss)


def t_nlf(system_nominal: ClosedLoopSystem, system_test: ClosedLoopSystem, radius: float,
          cfg: ExperimentConfig, seed: int) -> tuple[net.MlpLyapunov, int, int]:
    """Transfer baseline: full nominal training under the `nlf` block, then the
    test-time update META-NLF gets."""
    arch = cfg.architecture()
    theta, _, _ = train_nlf(system_nominal, radius, arch, cfg.loss, cfg.nlf, seed)
    theta = test_time_update(cfg, theta, arch, system_test, radius, seed + 101)
    return net.MlpLyapunov(theta, arch), cfg.meta.adapt_samples, cfg.meta.k_test


def meta_nlf(cfg: ExperimentConfig, system_test: ClosedLoopSystem,
             radius: float) -> tuple[net.MlpLyapunov, int, int]:
    """Meta-train across sampled tasks, then adapt to the test-time system
    under the 50/10 budget."""
    arch = cfg.architecture()
    theta = test_time_update(cfg, meta_train_for(cfg, radius)[0].theta_mnlf, arch,
                             system_test, radius, cfg.seeds.adapt_seed)
    return net.MlpLyapunov(theta, arch), cfg.meta.adapt_samples, cfg.meta.k_test


def task_family(cfg: ExperimentConfig, radius: float
                ) -> tuple[list[ClosedLoopSystem], tuple[np.ndarray, ...]]:
    """The task family around the nominal parameters: each task's system, and the
    tasks' datasets on the ball of the given radius stacked on a leading task axis,
    (X_tr, Y_tr, X_te, Y_te) of shape (n_tasks, m_batches, rows, d)."""
    m, task_seed = cfg.meta, cfg.seeds.task_seed
    systems = [build_system(cfg.system.system_id, values) for values in sample_tasks(
        cfg.system.theta0, cfg.system.sigma_diag, m.n_tasks, task_seed)]
    datasets = [build_dataset(system, radius, m.k_train, m.j_test, m.m_batches,
                              task_seed + 7 * i) for i, system in enumerate(systems)]
    return systems, tuple(np.stack(column) for column in zip(*datasets))


def meta_train_for(cfg: ExperimentConfig, radius: float) -> tuple[
        meta.MetaTrainReport, list[ClosedLoopSystem], tuple[np.ndarray, ...]]:
    """Meta-train on the task family on the ball of the given radius from the shaped
    init. Returns the training report and the family's systems and datasets."""
    systems, family = task_family(cfg, radius)
    arch, net_seed = cfg.architecture(), cfg.seeds.net_seed
    report = meta.meta_train(family, arch, cfg.meta, cfg.loss, net_seed,
                             theta0=net.shaped_init(arch, net_seed, radius))
    return report, systems, family


def compare(cfg: ExperimentConfig) -> list[MethodResult]:
    """Run every method under its access regime, then certify each candidate on
    one grid, one `verify` block and one plane; one result per method in
    METHODS order, then the SOS placeholder.

    Per-method failures are recorded without aborting the others. Each
    validity map is dropped once its ROA is extracted, so one map is held at a
    time. The certificates are then gated by one Monte-Carlo sweep: a nonempty
    ROA counts only if every rollout from inside it converges. The adaptive
    methods keep the test-time budget because the `meta` block cannot exceed it.
    """
    system_nom = build_system(cfg.system.system_id, cfg.system.theta0)
    system_test = build_system(cfg.system.system_id, cfg.system.theta_test)
    grid = verify.build_grid(cfg.verify.d0, cfg.verify.nodes_per_axis, system_test.dim)
    seed, arch, radius = cfg.seeds.master, cfg.architecture(), grid.radius
    runners = {
        "META_NLF": lambda: meta_nlf(cfg, system_test, radius),
        "NLF_TS": lambda: nlf_ts(system_test, radius, arch, cfg.loss, cfg.nlf, seed + 1),
        "T_NLF": lambda: t_nlf(system_nom, system_test, radius, cfg, seed + 2),
        "QLF_TS": lambda: qlf_ts(system_test),
    }

    results = []
    for method in METHODS:
        try:
            candidate, samples, steps = runners[method]()
        except (NotHurwitz, meta.NonFiniteLoss) as exc:
            results.append(MethodResult(method, f"{type(exc).__name__}: {exc}"))
            continue
        _, result = certify_candidate(candidate, system_test, grid, cfg.verify, cfg.plane)
        results.append(MethodResult(method, "ok", candidate, result, samples, steps))
    certified = [i for i, result in enumerate(results) if result.roa is not None]
    mc = cfg.roa
    checks = roa.monte_carlo_convergence(
        system_test, [(results[i].roa, results[i].candidate) for i in certified], grid,
        mc.mc_samples, mc.mc_step, mc.mc_horizon, mc.mc_tol, seed + 1000)
    for i, check in zip(certified, checks):
        if not check.vacuous:
            status = ("ok" if check.fraction >= 1.0
                      else f"unsound certificate: mc fraction {check.fraction:.4f}")
            results[i] = replace(results[i], status=status, mc_fraction=check.fraction)
    return results + [MethodResult("SOS_LF_TS", "not implemented")]
