from dataclasses import replace

import numpy as np
import pytest

from lyapcert import baselines, dynamics, meta, net, roa, verify
from lyapcert.config import (TEST_TIME_SAMPLES, TEST_TIME_STEPS, ExperimentConfig, MetaBlock,
                             NlfBlock, RoaBlock, SeedBlock, SystemBlock, VerifyBlock)
from lyapcert.loss import TightenedLossConfig

from helpers import nominal_params, nominal_system, peak_kb


class LinearSystem:
    dim = 2

    def f(self, x):
        return -np.asarray(x, dtype=float).reshape(-1)

    def f_batch(self, X):
        return -np.asarray(X, dtype=float)

    def linearization(self):
        return -np.eye(2)


SETTINGS = VerifyBlock(d0=2.0, nodes_per_axis=41, exempt_radius=0.4)
GRID = verify.build_grid(2.0, 41, 2)
ARCH = net.Architecture(2, (8,))
LOSS = TightenedLossConfig(0.5, 0.5)


def certified(built, system, grid, settings):
    """A method's (candidate, samples, steps) with its validity map and ROA on (0, 1)."""
    candidate, samples, steps = built
    vmap, result = baselines.certify_candidate(candidate, system, grid, settings, (0, 1))
    return vmap, result, samples, steps


class TestQuadraticLyapunov:
    def test_value_zero_at_origin_bitwise(self):
        q = baselines.QuadraticLyapunov(np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert q.value(np.zeros((1, 2)))[0] == 0.0

    def test_gradient(self):
        P = np.array([[2.0, 0.3], [0.3, 1.0]])
        q = baselines.QuadraticLyapunov(P)
        x = np.array([[0.5, -1.0]])
        np.testing.assert_allclose(q.gradient(x), 2.0 * x @ P)


class TestQlfTs:
    def test_linear_system_interior_green(self):
        vmap, result, _, _ = certified(baselines.qlf_ts(LinearSystem()), LinearSystem(), GRID,
                                       SETTINGS)
        assert bool(np.all(vmap.green | GRID.boundary))
        # containment-limited level set: near the inscribed ball
        assert result.area == pytest.approx(np.pi * (2.0 - GRID.spacing) ** 2, rel=0.1)

    def test_nominal_pendulum_nonempty(self):
        system = nominal_system("pendulum")
        settings = VerifyBlock(d0=4.0, nodes_per_axis=201, exempt_radius=1.1)
        grid = verify.build_grid(4.0, 201, 2)
        _, result, _, _ = certified(baselines.qlf_ts(system), system, grid, settings)
        assert result.c > 0.0
        assert result.area > 0.0

    def test_not_hurwitz(self):
        class Unstable:
            dim = 2

            def f(self, x):
                return np.asarray(x, dtype=float).reshape(-1)

            def f_batch(self, X):
                return np.asarray(X, dtype=float)

            def linearization(self):
                return np.eye(2)

        with pytest.raises(baselines.NotHurwitz):
            baselines.qlf_ts(Unstable())


class TestNlfTs:
    def test_zero_step_budget_yields_no_certificate(self):
        system = nominal_system("pendulum")
        settings = VerifyBlock(d0=4.0, nodes_per_axis=61, exempt_radius=1.1)
        grid = verify.build_grid(4.0, 61, 2)
        _, result, _, _ = certified(
            baselines.nlf_ts(system, grid.radius, ARCH, LOSS, NlfBlock(n_samples=100, n_steps=0),
                             seed=0), system, grid, settings)
        assert result.c == 0.0

    def test_budget_recorded(self):
        system = nominal_system("pendulum")
        _, samples, steps = baselines.train_nlf(system, 2.0, ARCH, LOSS,
                                                NlfBlock(n_samples=500, n_steps=50), seed=0)
        assert (samples, steps) == (500, 50)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_gradient_names_loop_and_step(self):
        with pytest.raises(meta.NonFiniteLoss) as info:
            baselines.train_nlf(nominal_system("pendulum"), 2.0, ARCH, LOSS,
                                NlfBlock(50, 50, 1e200, 8), seed=0)
        step = info.value.step
        assert 0 < step < 50
        assert str(info.value) == f"non-finite gradient or parameters at NLF training step {step}"


class TestTNlf:
    def test_same_system_transfer_and_budget(self):
        params = nominal_params("pendulum")
        system = dynamics.build_system(params)
        cfg = ExperimentConfig(name="t_nlf",
                               system=SystemBlock("pendulum", params.values, params.values,
                                                  (0.0,) * 4),
                               loss=TightenedLossConfig(1.0, 1.0),
                               nlf=NlfBlock(4000, 2000, 0.002, 128), hidden=(16, 16))
        settings = VerifyBlock(d0=4.0, nodes_per_axis=121, exempt_radius=1.1)
        grid = verify.build_grid(4.0, 121, 2)
        _, result, samples, steps = certified(
            baselines.t_nlf(system, system, grid.radius, cfg, seed=7), system, grid, settings)
        assert samples == 50
        assert steps == 10
        # no distribution shift: the fine-tuned NLF still certifies a region
        assert result.c > 0.0


def small_config():
    """Pendulum comparison at a tiny budget."""
    return ExperimentConfig(
        name="small",
        system=SystemBlock("pendulum", (0.5, 0.15, 9.81, 0.1), (0.55, 0.15, 9.81, 0.1),
                           (0.1, 0.0, 0.0, 0.0)),
        meta=MetaBlock(meta_lr=0.005, meta_steps=50, tasks_per_step=2, n_tasks=2,
                       m_batches=3, k_train=8, j_test=8, adapt_alpha=0.02),
        loss=TightenedLossConfig(1.0, 1.0),
        verify=VerifyBlock(d0=4.0, nodes_per_axis=61, exempt_radius=1.1),
        roa=RoaBlock(mc_samples=50),
        nlf=NlfBlock(400, 100, 0.01, 64),
        seeds=SeedBlock(master=0, task_seed=0, net_seed=0),
        hidden=(8,),
    )


@pytest.fixture(scope="module")
def results():
    return {result.method: result for result in baselines.compare(small_config())}


class TestTaskFamily:
    def test_stacked_task_datasets(self):
        """Task i's slice of the family is its own build_dataset, seeded task_seed + 7 i."""
        cfg = small_config()
        m = cfg.meta
        systems, family = baselines.task_family(cfg, 2.5)
        params = dynamics.sample_tasks(cfg.system.nominal(), cfg.system.sigma_diag, m.n_tasks,
                                       cfg.seeds.task_seed)
        assert [s.params for s in systems] == params
        assert [a.shape for a in family] == [(2, 3, 8, 2)] * 4
        for i, system in enumerate(systems):
            dataset = dynamics.build_dataset(system, 2.5, m.k_train, m.j_test, m.m_batches,
                                             cfg.seeds.task_seed + 7 * i)
            for stacked, own in zip(family, dataset):
                np.testing.assert_array_equal(stacked[i], own)


class TestCompare:
    def test_all_methods_present(self, results):
        # one result per method, in METHODS order, then the SOS placeholder; every
        # method reached a certificate (a raised NotHurwitz or NonFiniteLoss leaves none)
        assert list(results) == [*baselines.METHODS, "SOS_LF_TS"]
        assert all(results[method].roa is not None for method in baselines.METHODS)

    def test_sos_column_not_implemented(self, results):
        sos = results["SOS_LF_TS"].row()
        assert sos["status"] == "not implemented"
        assert all(sos[key] == "" for key in ("area", "c", "mc_fraction", "test_samples",
                                              "test_steps"))

    def test_mc_gate_recorded_for_nonempty(self, results):
        for result in results.values():
            if result.roa is not None and result.roa.c > 0 and result.status == "ok":
                assert result.mc_fraction == 1.0

    def test_budget_counters_within_contract(self, results):
        for method in ("META_NLF", "T_NLF"):
            assert results[method].test_samples <= TEST_TIME_SAMPLES
            assert results[method].test_steps <= TEST_TIME_STEPS

    def test_budget_violation_rejected(self):
        # a meta block over the test-time budget cannot be built, so compare
        # never adapts beyond it
        meta = small_config().meta
        for over in ({"adapt_samples": TEST_TIME_SAMPLES + 1}, {"k_test": TEST_TIME_STEPS + 1}):
            with pytest.raises(ValueError, match="test-time budget"):
                replace(meta, **over)

    def test_gate_failure_row_keeps_fraction_and_counts(self, monkeypatch):
        """A nonempty certificate that fails the Monte-Carlo gate loses its area and c
        in the row, and keeps its mc fraction, its test-time counts and the verdict."""
        def half_converged(system, certificates, grid, n_samples, h, horizon, tol, seed):
            return [roa.ConvergenceCheck(fraction=1.0, n_samples=0, step=h) if result.empty
                    else roa.ConvergenceCheck(fraction=0.5, n_samples=n_samples, step=h)
                    for result, _ in certificates]

        monkeypatch.setattr(roa, "monte_carlo_convergence", half_converged)
        cfg = small_config()   # at 201 nodes per axis T-NLF and QLF certify a region
        rows = {result.method: result.row() for result in baselines.compare(
            replace(cfg, verify=replace(cfg.verify, nodes_per_axis=201)))}
        for method, counts in (("T_NLF", (50, 10)), ("QLF_TS", (0, 0))):
            row = rows[method]
            assert row["area"] == "" and row["c"] == ""
            assert row["mc_fraction"] == 0.5
            assert (row["test_samples"], row["test_steps"]) == counts
            assert row["status"] == "unsound certificate: mc fraction 0.5000"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_nlf_rows_carry_their_error():
    """A diverging NLF step size fails the two NLF-trained methods alone: their rows
    carry the error with empty numbers, and the other methods still certify."""
    cfg = small_config()
    rows = {result.method: result.row()
            for result in baselines.compare(replace(cfg, nlf=replace(cfg.nlf, lr=1e200)))}
    for method in ("NLF_TS", "T_NLF"):
        assert rows[method]["status"].startswith(
            "NonFiniteLoss: non-finite gradient or parameters at NLF ")
        assert all(rows[method][key] == "" for key in ("area", "c", "mc_fraction",
                                                        "test_samples", "test_steps"))
    for method in ("META_NLF", "QLF_TS"):
        assert rows[method]["status"] == "ok"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_test_time_update_rows_carry_their_error():
    """A diverging test-time step size fails the two adapted methods alone: their rows
    carry the test-time loop's NonFiniteLoss with empty numbers, and the other
    methods still certify."""
    cfg = small_config()
    rows = {result.method: result.row()
            for result in baselines.compare(replace(cfg, meta=replace(cfg.meta, adapt_alpha=1e200)))}
    for method in ("META_NLF", "T_NLF"):
        assert rows[method]["status"].startswith(
            "NonFiniteLoss: non-finite gradient or parameters at test-time step ")
        assert all(rows[method][key] == "" for key in ("area", "c", "mc_fraction",
                                                        "test_samples", "test_steps"))
    for method in ("NLF_TS", "QLF_TS"):
        assert rows[method]["status"] == "ok"


# peak resident set (KB) of one `compare` of a small-budget pendulum config at
# argv[1] nodes per axis
COMPARE_PEAK = """
import sys
from lyapcert import baselines
from lyapcert.config import (ExperimentConfig, MetaBlock, NlfBlock, RoaBlock, SystemBlock,
                             VerifyBlock)
from lyapcert.loss import TightenedLossConfig

cfg = ExperimentConfig(
    name="peak",
    system=SystemBlock("pendulum", (0.5, 0.15, 9.81, 0.1), (0.55, 0.15, 9.81, 0.1),
                       (0.1, 0.0, 0.0, 0.0)),
    meta=MetaBlock(meta_steps=10, tasks_per_step=2, n_tasks=2, m_batches=3, k_train=8,
                   j_test=8),
    loss=TightenedLossConfig(1.0, 1.0),
    verify=VerifyBlock(d0=4.0, nodes_per_axis=int(sys.argv[1]), exempt_radius=1.1),
    roa=RoaBlock(mc_samples=20),
    nlf=NlfBlock(400, 10, 0.01, 64),
    hidden=(8,),
)
baselines.compare(cfg)
"""


def test_compare_holds_one_validity_map_at_a_time():
    """From 301^2 to 501^2 box nodes, `compare` grows the peak resident set by under
    150 B per added box node: 134 B measured with one validity map held at a time
    (106 B since grid nodes store no coordinates), while keeping all four methods'
    maps to the end took 183 B."""
    growth = (peak_kb(COMPARE_PEAK, 501) - peak_kb(COMPARE_PEAK, 301)) * 1024 / (501**2 - 301**2)
    assert growth < 150, f"{growth:.0f} B per added box node"
