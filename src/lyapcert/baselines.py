"""Comparison methods, all certified through the same verify/roa pipeline.

Access regimes mirror the benchmark protocol:

* QLF(TS) and NLF(TS) see only the test-time system (QLF through its
  linearization, NLF through a large training budget);
* T-NLF fully trains on the nominal system and then fine-tunes on a
  50-sample / 10-step test-time budget;
* the meta pipeline trains across sampled tasks and adapts under the same
  test-time budget.

All network methods start from the same bowl-shaped initialization (a pure
geometry fit, no dynamics data involved, so access regimes are unaffected).
Every report carries the sample/step counters of its test-time access so the
budget contract is assertable, and every extracted ROA is re-validated by
Monte-Carlo rollouts before it enters a comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import meta, net, roa, verify
from .config import TEST_TIME_STEPS, ExperimentConfig, MetaBlock, NlfBlock, VerifyBlock
from .control import NotStabilizing, is_hurwitz, solve_lyapunov
from .dynamics import ClosedLoopSystem, TaskDataset, build_dataset, build_system, sample_tasks
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
class BaselineReport:
    roa: roa.RoaResult
    vmap: verify.ValidityMap
    candidate: object
    test_samples_used: int
    test_steps_used: int
    mc_fraction: float | None = None
    error: str | None = None


def certify_candidate(candidate, system: ClosedLoopSystem, grid: verify.GridSpec,
                      settings: VerifyBlock,
                      plane: tuple[int, int] | None = None) -> tuple[verify.ValidityMap, roa.RoaResult]:
    vmap = verify.check_validity(candidate, system, grid, exempt_radius=settings.exempt_radius)
    result = roa.largest_level_set(vmap, grid, plane=plane)
    return vmap, result


def train_nlf(system: ClosedLoopSystem, radius: float, arch: net.Architecture,
              loss_cfg: TightenedLossConfig, budget: NlfBlock,
              seed: int) -> tuple[np.ndarray, int, int]:
    """Plain minibatch gradient descent on one system's data (no meta-learning),
    from the bowl-shaped init. Returns (theta, samples_used, steps_used)."""
    dataset = build_dataset(system, radius, k_train=budget.n_samples, j_test=1, m_batches=1,
                            seed=seed)
    X, Y = dataset.batches[0][0]
    rng = np.random.default_rng(seed + 1)
    theta = net.shaped_init(arch, seed, radius)
    for step in range(budget.n_steps):
        idx = rng.integers(X.shape[0], size=min(budget.batch_size, X.shape[0]))
        g = net.loss_gradient(theta, arch, (X[idx], Y[idx]), loss_cfg)
        if not np.all(np.isfinite(g)):
            raise meta.NonFiniteLoss(step, float("nan"))
        theta = theta - budget.lr * g
    return theta, budget.n_samples, budget.n_steps


def qlf_ts(system_test: ClosedLoopSystem, grid: verify.GridSpec, settings: VerifyBlock,
           plane: tuple[int, int] | None = None) -> BaselineReport:
    """Quadratic baseline from the closed-loop linearization at the origin."""
    A = system_test.linearization()
    if not is_hurwitz(A):
        raise NotHurwitz("test-time closed loop linearization is not Hurwitz")
    P = solve_lyapunov(A, np.eye(system_test.dim))
    candidate = QuadraticLyapunov(P)
    vmap, result = certify_candidate(candidate, system_test, grid, settings, plane)
    return BaselineReport(roa=result, vmap=vmap, candidate=candidate,
                          test_samples_used=0, test_steps_used=0)


def nlf_ts(system_test: ClosedLoopSystem, grid: verify.GridSpec, settings: VerifyBlock,
           arch: net.Architecture, loss_cfg: TightenedLossConfig, budget: NlfBlock, seed: int,
           plane: tuple[int, int] | None = None) -> BaselineReport:
    """Fully trained NLF with explicit access to the test-time system."""
    theta, samples, steps = train_nlf(system_test, grid.radius, arch, loss_cfg, budget, seed)
    candidate = net.MlpLyapunov(theta, arch)
    vmap, result = certify_candidate(candidate, system_test, grid, settings, plane)
    return BaselineReport(roa=result, vmap=vmap, candidate=candidate,
                          test_samples_used=samples, test_steps_used=steps)


def t_nlf(system_nominal: ClosedLoopSystem, system_test: ClosedLoopSystem,
          grid: verify.GridSpec, settings: VerifyBlock, arch: net.Architecture,
          loss_cfg: TightenedLossConfig, budget: NlfBlock, adapt: MetaBlock, seed: int,
          plane: tuple[int, int] | None = None) -> BaselineReport:
    """Transfer baseline: full nominal training, then a small test-time update
    (adapt.adapt_samples samples, TEST_TIME_STEPS steps of size adapt.adapt_alpha)."""
    theta, _, _ = train_nlf(system_nominal, grid.radius, arch, loss_cfg, budget, seed)
    adapt_set = build_dataset(system_test, grid.radius, k_train=adapt.adapt_samples,
                              j_test=1, m_batches=1, seed=seed + 101)
    theta = meta.test_time_adapt(theta, arch, adapt_set.batches[0][0], adapt.adapt_alpha,
                                 TEST_TIME_STEPS, loss_cfg)
    candidate = net.MlpLyapunov(theta, arch)
    vmap, result = certify_candidate(candidate, system_test, grid, settings, plane)
    return BaselineReport(roa=result, vmap=vmap, candidate=candidate,
                          test_samples_used=adapt.adapt_samples, test_steps_used=TEST_TIME_STEPS)


def meta_nlf(cfg: ExperimentConfig, system_test: ClosedLoopSystem, grid: verify.GridSpec,
             plane: tuple[int, int] | None = None) -> BaselineReport:
    """Meta-train across sampled tasks, then adapt to the test-time system
    under the 50/10 budget."""
    report, _ = meta_train_for(cfg, grid.radius)
    m, arch = cfg.meta, cfg.architecture()
    adapt_set = build_dataset(system_test, grid.radius, k_train=m.adapt_samples,
                              j_test=1, m_batches=1, seed=cfg.seeds.adapt_seed)
    theta = meta.test_time_adapt(report.theta_mnlf, arch, adapt_set.batches[0][0],
                                 m.adapt_alpha, m.k_test, cfg.loss)
    candidate = net.MlpLyapunov(theta, arch)
    vmap, result = certify_candidate(candidate, system_test, grid, cfg.verify, plane)
    return BaselineReport(roa=result, vmap=vmap, candidate=candidate,
                          test_samples_used=m.adapt_samples, test_steps_used=m.k_test)


def meta_train_for(cfg: ExperimentConfig, radius: float
                   ) -> tuple[meta.MetaTrainReport, list[tuple[ClosedLoopSystem, TaskDataset]]]:
    """Sample the task family around the nominal parameters, build each task's
    dataset on the ball of the given radius and meta-train from the shaped
    init. Returns the training report and the (system, dataset) family."""
    m, task_seed, net_seed = cfg.meta, cfg.seeds.task_seed, cfg.seeds.net_seed
    family = []
    for i, params in enumerate(sample_tasks(cfg.system.nominal(), cfg.system.sigma_diag,
                                            m.n_tasks, task_seed)):
        system = build_system(params)
        family.append((system, build_dataset(system, radius, m.k_train, m.j_test,
                                             m.m_batches, task_seed + 7 * i)))
    arch = cfg.architecture()
    report = meta.meta_train([dataset for _, dataset in family], arch, m, cfg.loss, net_seed,
                             theta0=net.shaped_init(arch, net_seed, radius))
    return report, family


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    reports: dict = field(default_factory=dict)   # method -> BaselineReport
    errors: dict = field(default_factory=dict)    # method -> message

    def to_rows(self) -> list[dict]:
        rows = []
        for method in METHODS:
            if method in self.reports:
                r = self.reports[method]
                rows.append({
                    "method": method,
                    "area": r.roa.area if r.error is None else "",
                    "c": r.roa.c if r.error is None else "",
                    "mc_fraction": r.mc_fraction if r.mc_fraction is not None else "",
                    "test_samples": r.test_samples_used,
                    "test_steps": r.test_steps_used,
                    "status": r.error or "ok",
                })
            elif method in self.errors:
                rows.append({"method": method, "area": "", "c": "", "mc_fraction": "",
                             "test_samples": "", "test_steps": "", "status": self.errors[method]})
        rows.append({"method": "SOS_LF_TS", "area": "", "c": "", "mc_fraction": "",
                     "test_samples": "", "test_steps": "", "status": "not implemented"})
        return rows


def _gated(report: BaselineReport, check: roa.ConvergenceCheck) -> BaselineReport:
    """Soundness gate: a nonempty ROA enters the table only if every rollout
    from inside it converges."""
    if check.vacuous:
        return report
    error = None if check.fraction >= 1.0 else f"unsound certificate: mc fraction {check.fraction:.4f}"
    return replace(report, mc_fraction=check.fraction, error=error)


def compare(cfg: ExperimentConfig) -> ComparisonTable:
    """Run every method under its access regime on one grid and one `verify` block.

    Per-method failures are collected without aborting the others. The
    methods' certificates are then gated by one Monte-Carlo sweep. The
    adaptive methods keep the test-time budget because the `meta` block
    cannot exceed it.
    """
    system_nom = build_system(cfg.system.nominal())
    system_test = build_system(cfg.system.test())
    grid = verify.build_grid(cfg.verify.d0, cfg.verify.nodes_per_axis, system_test.dim)
    plane = tuple(cfg.roa.plane) if system_test.dim > 2 else None
    seed, arch = cfg.seeds.master, cfg.architecture()
    runners = {
        "META_NLF": lambda: meta_nlf(cfg, system_test, grid, plane),
        "NLF_TS": lambda: nlf_ts(system_test, grid, cfg.verify, arch, cfg.loss, cfg.nlf,
                                 seed + 1, plane),
        "T_NLF": lambda: t_nlf(system_nom, system_test, grid, cfg.verify, arch, cfg.loss,
                               cfg.nlf, cfg.meta, seed + 2, plane),
        "QLF_TS": lambda: qlf_ts(system_test, grid, cfg.verify, plane),
    }

    table = ComparisonTable()
    reports = {}
    for method in METHODS:
        try:
            reports[method] = runners[method]()
        except (NotHurwitz, NotStabilizing, meta.NonFiniteLoss) as exc:
            table.errors[method] = f"{type(exc).__name__}: {exc}"
    mc = cfg.roa
    certificates = [(report.roa, report.candidate) for report in reports.values()]
    checks = roa.monte_carlo_convergence(system_test, certificates, grid, mc.mc_samples,
                                         mc.mc_step, mc.mc_horizon, mc.mc_tol, seed + 1000)
    for (method, report), check in zip(reports.items(), checks):
        table.reports[method] = _gated(report, check)
    return table
