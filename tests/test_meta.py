import numpy as np
import pytest

from lyapcert import dynamics, meta, net
from lyapcert.config import MetaBlock
from lyapcert.loss import TightenedLossConfig, empirical_loss

from helpers import nominal_params, nominal_system


def stacked(batch):
    """One task's (X, Y) batch as the P = 1 stack meta_gradients takes."""
    return tuple(np.asarray(a, dtype=float)[None] for a in batch)


class TestClosedFormOracle:
    """Architecture(1, (1,)) with theta = 0 except output bias b: V = b everywhere,
    grad_x V = 0, so the loss is b^2 + eps2 and every quantity has a closed form."""

    def setup_method(self):
        self.arch = net.Architecture(1, (1,))
        self.cfg = TightenedLossConfig(0.3, 0.2)
        self.theta = np.zeros(self.arch.n_params)
        self.theta[-1] = 1.0
        rng = np.random.default_rng(0)
        self.batch = (rng.normal(size=(3, 1)), rng.normal(size=(3, 1)))

    def oracle(self, mode):
        return meta.meta_gradients(self.theta, self.arch, stacked(self.batch), stacked(self.batch),
                                   0.25, self.cfg, mode)

    def test_adapt_step(self):
        theta_next = meta.test_time_adapt(self.theta, self.arch, self.batch, 0.25, 1, self.cfg)
        assert theta_next[-1] == pytest.approx(0.5, abs=1e-9)

    def test_meta_objective(self):
        _, losses = self.oracle("second_order")
        assert losses[0] == pytest.approx(0.5**2 + 0.2, abs=1e-9)

    def test_second_order_gradient(self):
        grads, _ = self.oracle("second_order")
        assert grads[0, -1] == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_array_equal(grads[0, :-1], 0.0)

    def test_first_order_gradient(self):
        grads, _ = self.oracle("first_order")
        assert grads[0, -1] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_array_equal(grads[0, :-1], 0.0)


class TestAdaptStep:
    """One test-time step is the inner step of the meta-gradient."""

    def setup_method(self):
        self.arch = net.Architecture(2, (4,))
        self.cfg = TightenedLossConfig(0.3, 0.2)
        self.theta = net.init_params(self.arch, 1)
        rng = np.random.default_rng(2)
        self.batch = (rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))

    def test_zero_alpha_identity(self):
        out = meta.test_time_adapt(self.theta, self.arch, self.batch, 0.0, 1, self.cfg)
        np.testing.assert_array_equal(out, self.theta)

    def test_matches_manual_gradient_step(self):
        g = net.loss_gradient(self.theta, self.arch, self.batch, self.cfg)
        out = meta.test_time_adapt(self.theta, self.arch, self.batch, 0.05, 1, self.cfg)
        np.testing.assert_allclose(out, self.theta - 0.05 * g, atol=1e-15)


class TestMetaObjectiveAndGradient:
    def setup_method(self):
        self.arch = net.Architecture(2, (4,))
        self.cfg = TightenedLossConfig(0.3, 0.2)
        self.theta = net.init_params(self.arch, 7)
        rng = np.random.default_rng(3)
        self.s_tr = (rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))
        self.s_te = (rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))

    def meta_gradient(self, theta, alpha, mode="second_order"):
        grads, losses = meta.meta_gradients(theta, self.arch, stacked(self.s_tr),
                                            stacked(self.s_te), alpha, self.cfg, mode)
        return grads[0], losses[0]

    def test_zero_alpha_reduces_to_loss(self):
        assert self.meta_gradient(self.theta, 0.0)[1] == \
            pytest.approx(empirical_loss(self.theta, self.arch, self.s_te, self.cfg), abs=1e-15)

    def test_zero_alpha_gradients_agree(self):
        g_plain = net.loss_gradient(self.theta, self.arch, self.s_te, self.cfg)
        for mode in ("first_order", "second_order"):
            np.testing.assert_array_equal(self.meta_gradient(self.theta, 0.0, mode)[0], g_plain)

    def test_second_order_matches_finite_differences(self):
        alpha = 0.05
        g = self.meta_gradient(self.theta, alpha)[0]
        fd = np.zeros_like(self.theta)
        h = 1e-5
        for i in range(self.theta.size):
            tp, tm = self.theta.copy(), self.theta.copy()
            tp[i] += h
            tm[i] -= h
            fd[i] = (self.meta_gradient(tp, alpha)[1] - self.meta_gradient(tm, alpha)[1]) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-3, atol=1e-7)


def family_of(*datasets):
    """build_dataset results stacked on a leading task axis, as meta_train takes them."""
    return tuple(np.stack(column) for column in zip(*datasets))


def tiny_task(seed=0, radius=2.0):
    """A one-task family of 3 batches of 8 + 8 pendulum rows."""
    system = nominal_system("pendulum")
    return family_of(dynamics.build_dataset(system, radius, k_train=8, j_test=8, m_batches=3,
                                            seed=seed))


class TestMetaTrain:
    def setup_method(self):
        self.arch = net.Architecture(2, (4,))
        self.cfg = TightenedLossConfig(0.3, 0.2)

    def test_zero_meta_lr_keeps_init(self):
        task = tiny_task()
        mc = MetaBlock(inner_lr=0.01, meta_lr=1e-300, tasks_per_step=1, meta_steps=1)
        report = meta.meta_train(task, self.arch, mc, self.cfg, 4,
                                 net.init_params(self.arch, 4))
        np.testing.assert_allclose(report.theta_mnlf, net.init_params(self.arch, 4), atol=1e-250)

    def test_single_step_unrolled_definition(self):
        task = tiny_task()
        mc = MetaBlock(inner_lr=0.02, meta_lr=0.1, tasks_per_step=1,
                       meta_steps=1, mode="first_order")
        theta0 = net.init_params(self.arch, 5)
        report = meta.meta_train(task, self.arch, mc, self.cfg, 5, theta0)
        # replicate the single meta-step by hand with the same rng stream
        rng = np.random.default_rng(5)
        t = rng.integers(1)
        j = rng.integers(3)
        X_tr, Y_tr, X_te, Y_te = (a[t, j] for a in task)
        s_tr, s_te = (X_tr, Y_tr), (X_te, Y_te)
        adapted = theta0 - 0.02 * net.loss_gradient(theta0, self.arch, s_tr, self.cfg)
        expected = theta0 - 0.1 * net.loss_gradient(adapted, self.arch, s_te, self.cfg)
        np.testing.assert_allclose(report.theta_mnlf, expected, atol=1e-15)

    def test_deterministic(self):
        task = tiny_task()
        mc = MetaBlock(inner_lr=0.01, meta_lr=0.01, tasks_per_step=2, meta_steps=5)
        a = meta.meta_train(task, self.arch, mc, self.cfg, 6,
                            net.init_params(self.arch, 6))
        b = meta.meta_train(task, self.arch, mc, self.cfg, 6,
                            net.init_params(self.arch, 6))
        np.testing.assert_array_equal(a.theta_mnlf, b.theta_mnlf)
        np.testing.assert_array_equal(a.loss_curve, b.loss_curve)

    def test_loss_curve_length(self):
        task = tiny_task()
        mc = MetaBlock(meta_lr=0.005, meta_steps=7, tasks_per_step=1)
        report = meta.meta_train(task, self.arch, mc, self.cfg, 0,
                                 net.init_params(self.arch, 0))
        assert report.loss_curve.shape == (7,)

    def test_reduces_to_sgd_with_zero_inner_lr(self):
        # one task, alpha -> 0: meta-training is plain SGD on the test halves
        task = tiny_task(seed=8)
        steps = 6
        mc = MetaBlock(inner_lr=1e-300, meta_lr=0.05, tasks_per_step=1,
                       meta_steps=steps, mode="first_order")
        report = meta.meta_train(task, self.arch, mc, self.cfg, 9,
                                 net.init_params(self.arch, 9))

        theta = net.init_params(self.arch, 9)
        rng = np.random.default_rng(9)
        for _ in range(steps):
            t = rng.integers(1)
            j = rng.integers(3)
            s_te = (task[2][t, j], task[3][t, j])
            theta = theta - 0.05 * net.loss_gradient(theta, self.arch, s_te, self.cfg)
        np.testing.assert_allclose(report.theta_mnlf, theta, atol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_loss_aborts_with_step(self):
        task = tiny_task()
        mc = MetaBlock(inner_lr=0.01, meta_lr=1e200, tasks_per_step=1, meta_steps=50)
        with pytest.raises(meta.NonFiniteLoss) as info:
            meta.meta_train(task, self.arch, mc, self.cfg, 10,
                            net.init_params(self.arch, 10))
        step = info.value.step
        assert 0 <= step < 50
        assert str(info.value).startswith("non-finite loss ")
        assert str(info.value).endswith(f" at meta-step {step}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_last_step_overflow_raises(self):
        # a last meta-step with a finite loss whose update overflows raises, and
        # returns no non-finite parameters
        task = tiny_task()
        mc = MetaBlock(inner_lr=0.01, meta_lr=1e308, tasks_per_step=1, meta_steps=1)
        with pytest.raises(meta.NonFiniteLoss) as info:
            meta.meta_train(task, self.arch, mc, self.cfg, 10, net.init_params(self.arch, 10))
        assert info.value.step == 0
        assert str(info.value) == "non-finite loss or parameters at meta-step 0"

    def test_training_makes_progress_on_pendulum(self):
        # seed-pinned run: the trailing loss mean must drop substantially
        theta0 = nominal_params("pendulum")
        tasks = dynamics.sample_tasks(theta0, (0.15, 0.0, 0.0, 0.0), 4, seed=11)
        family = family_of(*[dynamics.build_dataset(dynamics.build_system(t), 4.0, 16, 16, 10,
                                                    seed=i) for i, t in enumerate(tasks)])
        arch = net.Architecture(2, (16, 16))
        cfg = TightenedLossConfig(1.0, 1.0)
        mc = MetaBlock(inner_lr=0.01, meta_lr=0.002, tasks_per_step=2, meta_steps=2000)
        report = meta.meta_train(family, arch, mc, cfg, seed=12,
                                 theta0=net.shaped_init(arch, 12, 4.0))
        curve = report.loss_curve
        assert np.all(np.isfinite(curve))
        early = curve[:100].mean()
        late = curve[-100:].mean()
        assert late <= 0.8 * early


class TestStackedMetaStep:
    """meta_train's stacked calls against the per-task meta-step, bit for bit."""

    def setup_method(self):
        theta0 = nominal_params("pendulum")
        params = dynamics.sample_tasks(theta0, (0.1, 0.0, 0.0, 0.0), 2, seed=30)
        self.tasks = [dynamics.build_dataset(dynamics.build_system(p), 3.2, 32, 32, 4, seed=i)
                      for i, p in enumerate(params)]
        self.arch = net.Architecture(2, (16, 16))
        self.cfg = TightenedLossConfig(1.0, 1.0)

    def reference(self, mc, seed):
        """The per-task loop: one loss_gradient/hvp/empirical_loss call per task and stage."""
        rng = np.random.default_rng(seed)
        theta = net.init_params(self.arch, seed)
        curve = []
        for _ in range(mc.meta_steps):
            grad_sum = np.zeros_like(theta)
            loss_sum = 0.0
            for _ in range(mc.tasks_per_step):
                X_tr, Y_tr, X_te, Y_te = self.tasks[rng.integers(len(self.tasks))]
                j = rng.integers(len(X_tr))
                s_tr, s_te = (X_tr[j], Y_tr[j]), (X_te[j], Y_te[j])
                adapted = theta - mc.inner_lr * net.loss_gradient(theta, self.arch, s_tr, self.cfg)
                g_te = net.loss_gradient(adapted, self.arch, s_te, self.cfg)
                if mc.mode == "second_order":
                    g_te = g_te - mc.inner_lr * net.hvp(theta, self.arch, s_tr, self.cfg, g_te)
                grad_sum += g_te
                loss_sum += empirical_loss(adapted, self.arch, s_te, self.cfg)
            curve.append(loss_sum / mc.tasks_per_step)
            theta = theta - mc.meta_lr * (grad_sum / mc.tasks_per_step)
        return theta, np.array(curve)

    @pytest.mark.parametrize("mode", ["second_order", "first_order"])
    def test_matches_per_task_loop(self, mode):
        mc = MetaBlock(inner_lr=0.01, meta_lr=0.01, tasks_per_step=4, meta_steps=25, mode=mode)
        report = meta.meta_train(family_of(*self.tasks), self.arch, mc, self.cfg, 31,
                                 net.init_params(self.arch, 31))
        theta, curve = self.reference(mc, seed=31)
        assert not np.array_equal(theta, net.init_params(self.arch, 31))
        np.testing.assert_array_equal(report.theta_mnlf, theta)
        np.testing.assert_array_equal(report.loss_curve, curve)


class TestTestTimeAdapt:
    def setup_method(self):
        self.arch = net.Architecture(2, (4,))
        self.cfg = TightenedLossConfig(0.3, 0.2)
        self.theta = net.init_params(self.arch, 13)
        rng = np.random.default_rng(14)
        self.s_tr = (rng.normal(size=(50, 2)), rng.normal(size=(50, 2)))

    def test_k_zero_identity(self):
        out = meta.test_time_adapt(self.theta, self.arch, self.s_tr, 0.01, 0, self.cfg)
        np.testing.assert_array_equal(out, self.theta)

    def test_k_one_equals_adapt_step(self):
        out = meta.test_time_adapt(self.theta, self.arch, self.s_tr, 0.01, 1, self.cfg)
        expected = self.theta - 0.01 * net.loss_gradient(self.theta, self.arch, self.s_tr, self.cfg)
        np.testing.assert_array_equal(out, expected)

    def test_default_test_regime_runs(self):
        out = meta.test_time_adapt(self.theta, self.arch, self.s_tr, 0.01, 10, self.cfg)
        assert out.shape == self.theta.shape
        assert np.all(np.isfinite(out))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_step_names_loop_and_step(self):
        # a diverged step raises, naming the test-time loop and the step, and
        # numpy's overflow warnings stay inside the loop
        with pytest.raises(meta.NonFiniteLoss) as info:
            meta.test_time_adapt(self.theta, self.arch, self.s_tr, 1e200, 10, self.cfg)
        step = info.value.step
        assert 0 <= step < 10
        assert str(info.value) == f"non-finite gradient or parameters at test-time step {step}"
