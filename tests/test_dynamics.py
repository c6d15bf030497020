import math

import numpy as np
import pytest

from lyapcert import control, dynamics, roa
from lyapcert.config import PRESETS

from helpers import reference_simulate_batch


class StubScalar:
    """Duck-typed 1-d system x_dot = rate * x for integrator tests."""

    dim = 1

    def __init__(self, rate=-1.0):
        self.rate = rate

    def f(self, x):
        return self.rate * np.asarray(x, dtype=float).reshape(-1)

    def f_batch(self, X):
        return self.rate * np.asarray(X, dtype=float)


class TestParamVector:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dynamics.ParamVector("pendulum", (0.5, -0.1, 9.81, 0.1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            dynamics.ParamVector("pendulum", (0.5, 0.15, 9.81))

    def test_microgrid_dim_follows_tuple(self):
        p = dynamics.ParamVector("microgrid", (2.0, 2.0, 2.0, 2.0))
        assert p.state_dim == 4


class TestEvalDynamics:
    def test_pendulum_equilibrium(self):
        system = dynamics.nominal_system("pendulum")
        np.testing.assert_array_equal(system.f([0.0, 0.0]), [0.0, 0.0])

    def test_pendulum_open_loop_hand_value(self):
        params = dynamics.ParamVector("pendulum", dynamics.NOMINAL_PENDULUM)
        system = dynamics.ClosedLoopSystem(params, gain=np.zeros((1, 2)))
        out = system.f([0.1, 0.0])
        assert out[0] == pytest.approx(0.0)
        # theta_ddot = (m g l sin(theta) - b theta_dot) / (m l^2) = g sin(0.1)/l
        assert out[1] == pytest.approx(1.9587, abs=1e-3)

    def test_microgrid_equilibrium(self):
        system = dynamics.nominal_system("microgrid")
        np.testing.assert_allclose(system.f(np.zeros(3)), np.zeros(3), atol=1e-14)

    def test_fan_equilibrium(self):
        system = dynamics.nominal_system("fan")
        np.testing.assert_allclose(system.f(np.zeros(6)), np.zeros(6), atol=1e-12)

    def test_dimension_mismatch(self):
        system = dynamics.nominal_system("pendulum")
        with pytest.raises(dynamics.DimensionMismatch):
            system.f([0.0, 0.0, 0.0])

    def test_batch_matches_single(self):
        # matrix-matrix and matrix-vector BLAS paths differ in the last ulp
        system = dynamics.nominal_system("fan")
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 6))
        batch = system.f_batch(X)
        for i in range(5):
            np.testing.assert_allclose(batch[i], system.f(X[i]), rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("system_id", ["pendulum", "microgrid", "fan"])
    def test_nominal_closed_loop_is_hurwitz(self, system_id):
        system = dynamics.nominal_system(system_id)
        assert control.is_hurwitz(system.linearization())


def central_difference_jacobian(system, h=1e-5):
    """The closed loop's Jacobian at the origin by central differences of f."""
    columns = []
    for step in h * np.eye(system.dim):
        columns.append((system.f(step) - system.f(-step)) / (2.0 * h))
    return np.stack(columns, axis=1)


class TestLinearization:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_central_difference_and_keeps_the_gate_step(self, name):
        cfg = PRESETS[name]
        for params in (cfg.system.nominal(), cfg.system.test()):
            system = dynamics.build_system(params)
            A, fd = system.linearization(), central_difference_jacobian(system)
            np.testing.assert_allclose(A, fd, rtol=1e-7, atol=1e-7 * np.max(np.abs(fd)),
                                       err_msg=f"{name} {params.values}")
            rho = np.max(np.abs(np.linalg.eigvals(fd)))
            h = cfg.roa.mc_step
            assert roa.gate_step(system, h) == h / max(1, math.ceil(h * rho / roa.RK4_STEP_LIMIT))

    def test_random_microgrid_matches_central_difference(self):
        for n in (2, 3, 5):
            system = random_microgrid(n, seed=n)
            fd = central_difference_jacobian(system)
            np.testing.assert_allclose(system.linearization(), fd, rtol=1e-7,
                                       atol=1e-7 * np.max(np.abs(fd)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_raises(self):
        system = dynamics.build_system(dynamics.ParamVector("pendulum", (0.6, 1e-320, 9.81, 0.1)))
        with pytest.raises(control.NonFiniteDynamics):
            system.linearization()


def random_microgrid(n, seed):
    rng = np.random.default_rng(seed)
    Y = rng.uniform(0.2, 2.0, (n, n))
    Y = Y + Y.T
    np.fill_diagonal(Y, 0.0)
    network = dynamics.MicrogridNetwork(
        Y=Y, gamma=rng.uniform(-3.0, 3.0, (n, n)), E=rng.uniform(0.5, 1.5, n),
        G=rng.uniform(0.0, 1.0, n), J=rng.uniform(0.5, 2.0, n), K=rng.uniform(-1.0, 1.0, n))
    params = dynamics.ParamVector("microgrid", tuple(rng.uniform(1.0, 4.0, n)))
    return dynamics.ClosedLoopSystem(params, network=network)


def pairwise_power(network, X):
    """P_i = sum_k W_ik cos(x_i - x_k - gamma_ik) + E_i^2 G_i, one cosine per pair."""
    diff = X[:, :, None] - X[:, None, :]
    W = network.coupling()
    return (np.sum(W[None] * np.cos(diff - network.gamma[None]), axis=2)
            + network.E**2 * network.G)


class TestMicrogridField:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_factored_field_matches_pairwise_reference(self, n):
        system = random_microgrid(n, seed=n)
        network = system.network
        rng = np.random.default_rng(10 + n)
        X = rng.uniform(-3.0 * np.pi, 3.0 * np.pi, (400, n))   # angles well beyond +-pi
        dc = np.asarray(system.params.values)
        dP = pairwise_power(network, X) - pairwise_power(network, np.zeros((1, n)))
        reference = (-dc * X - dP + network.K * X) / network.J
        # within a few ulps of the row's largest term (droop, coupling, feedback)
        coupling = np.sum(np.abs(network.coupling()), axis=1) + network.E**2 * network.G
        scale = (np.abs(dc * X) + 2.0 * coupling + np.abs(network.K * X)) / network.J
        assert np.all(np.abs(system.f_batch(X) - reference) <= 8 * np.spacing(scale))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_nominal_origin_is_exact_equilibrium(self, n):
        system = dynamics.nominal_system("microgrid", n)
        np.testing.assert_array_equal(system.f(np.zeros(n)), np.zeros(n))
        np.testing.assert_array_equal(random_microgrid(n, seed=n).f(np.zeros(n)), np.zeros(n))


class TestSampleTasks:
    def test_zero_sigma_copies(self):
        p = dynamics.nominal_params("pendulum")
        tasks = dynamics.sample_tasks(p, (0.0, 0.0, 0.0, 0.0), 5, seed=1)
        assert all(t.values == p.values for t in tasks)

    def test_frozen_components(self):
        p = dynamics.nominal_params("pendulum")
        tasks = dynamics.sample_tasks(p, (0.3, 0.0, 0.0, 0.0), 10, seed=2)
        assert all(t.values[1:] == p.values[1:] for t in tasks)
        assert len({t.values[0] for t in tasks}) > 1

    def test_determinism(self):
        p = dynamics.nominal_params("microgrid")
        a = dynamics.sample_tasks(p, (0.5, 0.5, 0.5), 6, seed=7)
        b = dynamics.sample_tasks(p, (0.5, 0.5, 0.5), 6, seed=7)
        assert [t.values for t in a] == [t.values for t in b]

    def test_all_positive(self):
        p = dynamics.nominal_params("pendulum")
        tasks = dynamics.sample_tasks(p, (5.0, 0.0, 0.0, 0.0), 50, seed=3)
        assert all(t.values[0] > 0 for t in tasks)

    def test_degenerate_range(self, monkeypatch):
        class NegativeRng:
            def normal(self, mean, sd):
                return -1.0

        monkeypatch.setattr(dynamics.np.random, "default_rng", lambda seed: NegativeRng())
        p = dynamics.nominal_params("pendulum")
        with pytest.raises(dynamics.DegenerateRange):
            dynamics.sample_tasks(p, (0.1, 0.0, 0.0, 0.0), 1, seed=0)


def all_samples(dataset):
    """Every (state, label) row of a dataset, train then test half of each batch."""
    halves = [half for batch in dataset.batches for half in batch]
    return tuple(np.concatenate([half[k] for half in halves]) for k in (0, 1))


class TestBuildDataset:
    def test_sample_counting(self):
        system = dynamics.nominal_system("pendulum")
        ds = dynamics.build_dataset(system, 2.0, k_train=1, j_test=1, m_batches=1, seed=0)
        xs, ys = all_samples(ds)
        assert xs.shape == (2, 2) and ys.shape == (2, 2)

    def test_labels_are_exact_dynamics(self):
        system = dynamics.nominal_system("microgrid")
        ds = dynamics.build_dataset(system, 1.5, 8, 4, 3, seed=5)
        xs, ys = all_samples(ds)
        np.testing.assert_array_equal(ys, system.f_batch(xs))

    def test_states_inside_ball(self):
        system = dynamics.nominal_system("pendulum")
        ds = dynamics.build_dataset(system, 0.7, 64, 64, 2, seed=9)
        xs, _ = all_samples(ds)
        assert np.all(np.linalg.norm(xs, axis=1) <= 0.7 + 1e-12)

    def test_determinism(self):
        system = dynamics.nominal_system("pendulum")
        a = dynamics.build_dataset(system, 1.0, 4, 4, 2, seed=11)
        b = dynamics.build_dataset(system, 1.0, 4, 4, 2, seed=11)
        np.testing.assert_array_equal(all_samples(a)[0], all_samples(b)[0])


class TestSimulate:
    def test_rk4_hand_step(self):
        traj = dynamics.simulate(StubScalar(-1.0), [1.0], h=0.1, horizon=0.1)
        assert traj.states[-1][0] == 0.9048375

    def test_equilibrium_constant(self):
        system = dynamics.nominal_system("pendulum")
        traj = dynamics.simulate(system, [0.0, 0.0], h=0.01, horizon=1.0)
        assert np.max(np.abs(traj.states)) == 0.0

    def test_rk4_order(self):
        # single-step error against exp(-h) shrinks ~2^5 when h halves
        def single_step_error(h):
            traj = dynamics.simulate(StubScalar(-1.0), [1.0], h=h, horizon=h)
            return abs(traj.states[-1][0] - np.exp(-h))

        ratio = single_step_error(0.2) / single_step_error(0.1)
        assert 24.0 <= ratio <= 40.0

    def test_divergence_flag(self):
        traj = dynamics.simulate(StubScalar(+40.0), [1.0], h=0.1, horizon=10.0)
        assert traj.diverged
        assert traj.times.shape[0] == traj.states.shape[0]
        assert traj.times.shape[0] < 102

    def test_pendulum_test_system_converges(self):
        params = dynamics.ParamVector("pendulum", (1.2, 0.15, 9.81, 0.1))
        system = dynamics.build_system(params)
        traj = dynamics.simulate(system, [0.5, -0.5], h=0.01, horizon=20.0)
        assert not traj.diverged
        assert np.linalg.norm(traj.states[-1]) < 1e-2

    def test_simulate_batch_matches_scalar(self):
        system = dynamics.nominal_system("pendulum")
        X0 = np.array([[0.3, 0.0], [0.0, 0.4]])
        finals, diverged = dynamics.simulate_batch(system, X0, h=0.02, horizon=1.0)
        assert not diverged.any()
        for i in range(2):
            traj = dynamics.simulate(system, X0[i], h=0.02, horizon=1.0)
            np.testing.assert_allclose(finals[i], traj.states[-1], atol=1e-12)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            dynamics.simulate(StubScalar(), [1.0], h=0.1, horizon=0.05)


class CubicField:
    """x_dot = -x + x^3 per axis: converges inside the unit box, diverges outside."""

    def f_batch(self, X):
        with np.errstate(over="ignore", invalid="ignore"):
            return -X + X**3


class ZeroField:
    def f_batch(self, X):
        return np.zeros_like(X)


class TestDivergenceRule:
    """simulate_batch's infinity-norm prefilter freezes the same rows at the same
    states as the 2-norm rule evaluated at every step."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("nan_rows", [False, True])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_matches_the_per_step_norm_rule(self, dim, nan_rows):
        rng = np.random.default_rng(dim)
        X0 = rng.uniform(-1.6, 1.6, (60, dim))
        X0[0] = 0.0
        if nan_rows:
            X0[[3, 17], 0] = np.nan
        finals, diverged = dynamics.simulate_batch(CubicField(), X0, 0.01, 3.0)
        ref_finals, ref_diverged = reference_simulate_batch(CubicField(), X0, 0.01, 3.0)
        np.testing.assert_array_equal(finals, ref_finals)
        np.testing.assert_array_equal(diverged, ref_diverged)
        assert diverged.any() and not diverged.all()
        if nan_rows:
            assert np.isnan(finals[[3, 17]]).any(axis=1).all() and not diverged[[3, 17]].any()

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_rows_straddling_the_divergence_norm(self, dim):
        # equal entries whose 2-norm lies ulps below, at and above DIVERGENCE_NORM
        scale = np.array([1 - 4e-16, 1.0, 1 + 4e-16, 1 + 1e-12, 0.999, 0.5])
        X0 = np.repeat(scale[:, None] * dynamics.DIVERGENCE_NORM / np.sqrt(dim), dim, axis=1)
        finals, diverged = dynamics.simulate_batch(ZeroField(), X0, 0.1, 0.5)
        ref_finals, ref_diverged = reference_simulate_batch(ZeroField(), X0, 0.1, 0.5)
        np.testing.assert_array_equal(finals, ref_finals)
        np.testing.assert_array_equal(diverged, ref_diverged)
        assert diverged[3] and not diverged[4:].any()
