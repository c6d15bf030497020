from dataclasses import replace

import numpy as np
import pytest

from lyapcert import baselines, dynamics, net, verify
from lyapcert.config import (TEST_TIME_SAMPLES, TEST_TIME_STEPS, ExperimentConfig, MetaBlock,
                             NlfBlock, RoaBlock, SeedBlock, SystemBlock, VerifyBlock)
from lyapcert.loss import TightenedLossConfig

from helpers import nominal_params, nominal_system


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


class TestTNlf:
    def test_same_system_transfer_and_budget(self):
        params = nominal_params("pendulum")
        system = dynamics.build_system(params)
        settings = VerifyBlock(d0=4.0, nodes_per_axis=121, exempt_radius=1.1)
        grid = verify.build_grid(4.0, 121, 2)
        _, result, samples, steps = certified(
            baselines.t_nlf(system, system, grid.radius, net.Architecture(2, (16, 16)),
                            TightenedLossConfig(1.0, 1.0), NlfBlock(4000, 2000, 0.002, 128),
                            MetaBlock(), seed=7), system, grid, settings)
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
def table():
    return baselines.compare(small_config())


class TestCompare:
    def test_all_methods_present(self, table):
        assert set(table.reports) == set(baselines.METHODS)

    def test_sos_column_not_implemented(self, table):
        rows = table.to_rows()
        sos = [r for r in rows if r["method"] == "SOS_LF_TS"]
        assert sos and sos[0]["status"] == "not implemented"

    def test_mc_gate_recorded_for_nonempty(self, table):
        for report in table.reports.values():
            if report.roa.c > 0 and report.error is None:
                assert report.mc_fraction == 1.0

    def test_budget_counters_within_contract(self, table):
        for method in ("META_NLF", "T_NLF"):
            r = table.reports[method]
            assert r.test_samples_used <= TEST_TIME_SAMPLES
            assert r.test_steps_used <= TEST_TIME_STEPS

    def test_budget_violation_rejected(self):
        # a meta block over the test-time budget cannot be built, so compare
        # never adapts beyond it
        meta = small_config().meta
        for over in ({"adapt_samples": TEST_TIME_SAMPLES + 1}, {"k_test": TEST_TIME_STEPS + 1}):
            with pytest.raises(ValueError, match="test-time budget"):
                replace(meta, **over)
