import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lyapcert import control, dynamics, roa
from lyapcert.config import PRESETS

from helpers import (GATE_CASES, gate_case, nominal_params, nominal_system,
                     peak_kb, reference_microgrid, reference_simulate_batch, ring_admittance)


class StubScalar:
    """Duck-typed 1-d system x_dot = rate * x for integrator tests."""

    dim = 1

    def __init__(self, rate=-1.0):
        self.rate = rate

    def f_batch(self, X):
        return self.rate * np.asarray(X, dtype=float)


# peak resident set (KB) of one `dynamics.simulate` run of argv[1] steps of x' = -x
SIMULATE_PEAK = """
import sys
from lyapcert import dynamics

class Decay:
    def f_batch(self, X):
        return -X

dynamics.simulate(Decay(), [1.0, 1.0], 1e-6, int(sys.argv[1]) * 1e-6)
"""


def f_at(system, x):
    """x_dot at one state, through a one-row f_batch."""
    return system.f_batch(np.asarray(x, dtype=float).reshape(1, -1))[0]


class TestParamVector:
    def test_microgrid_dim_follows_tuple(self):
        p = dynamics.ParamVector("microgrid", (2.0, 2.0, 2.0, 2.0))
        assert p.state_dim == 4


class TestEvalDynamics:
    def test_pendulum_equilibrium(self):
        system = nominal_system("pendulum")
        np.testing.assert_array_equal(f_at(system, [0.0, 0.0]), [0.0, 0.0])

    def test_pendulum_open_loop_hand_value(self):
        params = dynamics.ParamVector("pendulum", dynamics.NOMINAL_PENDULUM)
        system = dynamics.ClosedLoopSystem(params, np.zeros((1, 2)))
        out = f_at(system, [0.1, 0.0])
        assert out[0] == pytest.approx(0.0)
        # theta_ddot = (m g l sin(theta) - b theta_dot) / (m l^2) = g sin(0.1)/l
        assert out[1] == pytest.approx(1.9587, abs=1e-3)

    def test_microgrid_equilibrium(self):
        system = nominal_system("microgrid")
        np.testing.assert_allclose(f_at(system, np.zeros(3)), np.zeros(3), atol=1e-14)

    def test_fan_equilibrium(self):
        system = nominal_system("fan")
        np.testing.assert_allclose(f_at(system, np.zeros(6)), np.zeros(6), atol=1e-12)

    def test_batch_matches_single(self):
        # a five-row and a one-row matrix product may differ in the last ulp
        system = nominal_system("fan")
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 6))
        batch = system.f_batch(X)
        for i in range(5):
            np.testing.assert_allclose(batch[i], f_at(system, X[i]), rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("system_id", ["pendulum", "microgrid", "fan"])
    def test_nominal_closed_loop_is_hurwitz(self, system_id):
        system = nominal_system(system_id)
        assert control.is_hurwitz(system.linearization())


def test_derive_gains_script_runs():
    """scripts/derive_gains.py re-derives the shipped gains and finds every pendulum
    and fan preset's test-time closed loop Hurwitz."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "derive_gains.py")],
                          env=env, cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name, cfg in PRESETS.items():
        if cfg.system.system_id != "microgrid":
            assert f"{name}: test tuple closed loop Hurwitz = True" in proc.stdout, name


def central_difference_jacobian(system, h=1e-5):
    """The closed loop's Jacobian at the origin by central differences of f."""
    steps = h * np.eye(system.dim)
    return (system.f_batch(steps) - system.f_batch(-steps)).T / (2.0 * h)


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

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_remainder_bound_holds_on_the_unit_ball(self, name):
        cfg = PRESETS[name]
        rng = np.random.default_rng(0)
        for system in map(dynamics.build_system, (cfg.system.nominal(), cfg.system.test())):
            A, (G, p) = system.linearization(), system.remainder_bound()
            X = np.concatenate([dynamics.sample_ball(rng, 4000, system.dim, 1.0),
                                np.eye(system.dim), -np.eye(system.dim)])
            X *= rng.uniform(0.01, 1.0, (X.shape[0], 1))
            r = np.linalg.norm(X, axis=1)
            gap = np.linalg.norm(system.f_batch(X) - X @ A.T, axis=1)
            assert np.all(gap <= G * r**p + 1e-12 * r), name

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
    """The microgrid at a random droop tuple."""
    rng = np.random.default_rng(seed)
    return dynamics.build_system(dynamics.ParamVector("microgrid", tuple(rng.uniform(1.0, 4.0, n))))


def pairwise_power(X):
    """P_i = sum_k Y_ik cos(x_i - x_k - gamma) on the ring, one cosine per pair."""
    n = X.shape[1]
    diff = X[:, :, None] - X[:, None, :]
    return np.sum(ring_admittance(n)[None] * np.cos(diff - (np.pi / 2 - 0.1)), axis=2)


class TestMicrogridField:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_factored_field_matches_pairwise_reference(self, n):
        system = random_microgrid(n, seed=n)
        rng = np.random.default_rng(10 + n)
        X = rng.uniform(-3.0 * np.pi, 3.0 * np.pi, (400, n))   # angles well beyond +-pi
        dc = np.asarray(system.params.values)
        dP = pairwise_power(X) - pairwise_power(np.zeros((1, n)))
        reference = -dc * X - dP
        # within a few ulps of the row's largest term (droop, coupling)
        scale = np.abs(dc * X) + 2.0 * np.sum(ring_admittance(n), axis=1)
        assert np.all(np.abs(system.f_batch(X) - reference) <= 8 * np.spacing(scale))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_the_per_array_field_bit_for_bit(self, n):
        """Field and Jacobian equal the general network's at E = 1, G = 0, J = 1, K = 0,
        signed zeros included, on states with zero rows and zero entries."""
        system = random_microgrid(n, seed=n)
        rng = np.random.default_rng(20 + n)
        X = rng.uniform(-3.0 * np.pi, 3.0 * np.pi, (300, n))
        X[::5] = 0.0
        X[1::7, 0] = 0.0
        X[2::11, -1] = -0.0
        X[3] = -0.0
        f_ref, A_ref = reference_microgrid(system.params.values, X)
        f = system.f_batch(X)
        assert np.sum(f == 0.0) >= 60 * n
        assert f.tobytes() == f_ref.tobytes()
        assert system.linearization().tobytes() == A_ref.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_nominal_origin_is_exact_equilibrium(self, n):
        system = nominal_system("microgrid", n)
        np.testing.assert_array_equal(f_at(system, np.zeros(n)), np.zeros(n))
        np.testing.assert_array_equal(f_at(random_microgrid(n, seed=n), np.zeros(n)), np.zeros(n))


class TestSampleTasks:
    def test_zero_sigma_copies(self):
        p = nominal_params("pendulum")
        tasks = dynamics.sample_tasks(p, (0.0, 0.0, 0.0, 0.0), 5, seed=1)
        assert all(t.values == p.values for t in tasks)

    def test_frozen_components(self):
        p = nominal_params("pendulum")
        tasks = dynamics.sample_tasks(p, (0.3, 0.0, 0.0, 0.0), 10, seed=2)
        assert all(t.values[1:] == p.values[1:] for t in tasks)
        assert len({t.values[0] for t in tasks}) > 1

    def test_determinism(self):
        p = nominal_params("microgrid")
        a = dynamics.sample_tasks(p, (0.5, 0.5, 0.5), 6, seed=7)
        b = dynamics.sample_tasks(p, (0.5, 0.5, 0.5), 6, seed=7)
        assert [t.values for t in a] == [t.values for t in b]

    def test_all_positive(self):
        p = nominal_params("pendulum")
        tasks = dynamics.sample_tasks(p, (5.0, 0.0, 0.0, 0.0), 50, seed=3)
        assert all(t.values[0] > 0 for t in tasks)

    def test_degenerate_range(self, monkeypatch):
        class NegativeRng:
            def normal(self, mean, sd):
                return -1.0

        monkeypatch.setattr(dynamics.np.random, "default_rng", lambda seed: NegativeRng())
        p = nominal_params("pendulum")
        with pytest.raises(dynamics.DegenerateRange):
            dynamics.sample_tasks(p, (0.1, 0.0, 0.0, 0.0), 1, seed=0)


def all_samples(dataset):
    """Every (state, label) row of a dataset, train then test half of each batch."""
    X_tr, Y_tr, X_te, Y_te = dataset
    return tuple(np.concatenate([tr, te], axis=1).reshape(-1, tr.shape[-1])
                 for tr, te in ((X_tr, X_te), (Y_tr, Y_te)))


class TestBuildDataset:
    def test_sample_counting(self):
        system = nominal_system("pendulum")
        ds = dynamics.build_dataset(system, 2.0, k_train=1, j_test=1, m_batches=1, seed=0)
        xs, ys = all_samples(ds)
        assert xs.shape == (2, 2) and ys.shape == (2, 2)

    def test_labels_are_exact_dynamics(self):
        system = nominal_system("microgrid")
        ds = dynamics.build_dataset(system, 1.5, 8, 4, 3, seed=5)
        xs, ys = all_samples(ds)
        np.testing.assert_array_equal(ys, system.f_batch(xs))

    def test_states_inside_ball(self):
        system = nominal_system("pendulum")
        ds = dynamics.build_dataset(system, 0.7, 64, 64, 2, seed=9)
        xs, _ = all_samples(ds)
        assert np.all(np.linalg.norm(xs, axis=1) <= 0.7 + 1e-12)

    def test_determinism(self):
        system = nominal_system("pendulum")
        a = dynamics.build_dataset(system, 1.0, 4, 4, 2, seed=11)
        b = dynamics.build_dataset(system, 1.0, 4, 4, 2, seed=11)
        np.testing.assert_array_equal(all_samples(a)[0], all_samples(b)[0])

    def test_stacked_batches_in_draw_order(self):
        """Train arrays (m, K, d), test arrays (m, J, d); each batch draws its train
        half, then its test half, from the one seeded stream."""
        system = nominal_system("microgrid")
        dataset = dynamics.build_dataset(system, 1.5, 8, 4, 3, seed=5)
        assert [a.shape for a in dataset] == [(3, 8, 3), (3, 8, 3), (3, 4, 3), (3, 4, 3)]
        rng = np.random.default_rng(5)
        for j in range(3):
            for X, Y in ((dataset[0][j], dataset[1][j]), (dataset[2][j], dataset[3][j])):
                X_ref, Y_ref = dynamics.sample_labelled(system, rng, len(X), 1.5)
                np.testing.assert_array_equal(X, X_ref)
                np.testing.assert_array_equal(Y, Y_ref)


class TestSimulate:
    def test_rk4_hand_step(self):
        traj = dynamics.simulate(StubScalar(-1.0), [1.0], h=0.1, horizon=0.1)
        assert traj.states[-1][0] == 0.9048375

    def test_equilibrium_constant(self):
        system = nominal_system("pendulum")
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

    def test_peak_memory_grows_with_the_state_array_only(self):
        """From 1e4 to 1e5 RK4 steps of a 2-d field the peak resident set grows by less
        than 8 MB: the (n + 1, 2) state array and the time axis add 2.4 MB, while one
        array per state kept in a Python list added 15-31 MB."""
        assert peak_kb(SIMULATE_PEAK, 100_000) - peak_kb(SIMULATE_PEAK, 10_000) < 8 * 1024

    def test_pendulum_test_system_converges(self):
        params = dynamics.ParamVector("pendulum", (1.2, 0.15, 9.81, 0.1))
        system = dynamics.build_system(params)
        traj = dynamics.simulate(system, [0.5, -0.5], h=0.01, horizon=20.0)
        assert not traj.diverged
        assert np.linalg.norm(traj.states[-1]) < 1e-2

    def test_simulate_batch_matches_scalar(self):
        system = nominal_system("pendulum")
        X0 = np.array([[0.3, 0.0], [0.0, 0.4]])
        finals, diverged = dynamics.simulate_batch(system, X0, h=0.02, horizon=1.0)
        assert not diverged.any()
        for i in range(2):
            traj = dynamics.simulate(system, X0[i], h=0.02, horizon=1.0)
            np.testing.assert_allclose(finals[i], traj.states[-1], atol=1e-12)


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


class Unstable:
    """x_dot = x - x^3 per axis: A = I is not Hurwitz."""

    def f_batch(self, X):
        return X - X**3

    def linearization(self):
        return np.eye(2)

    def remainder_bound(self):
        return 1.0, 3


class TestRetirement:
    """Rows retired inside the gate's proven ball end as their full rollouts do."""

    @pytest.mark.parametrize("preset, length", GATE_CASES)
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_retiring_matches_full_rollouts(self, preset, length):
        system, step, mc = gate_case(preset, length)
        ball = roa.retirement_ball(system, step, mc.mc_tol)
        X0 = dynamics.sample_ball(np.random.default_rng(0), 120, system.dim,
                                  PRESETS[preset].verify.d0)
        horizon = 3 * mc.mc_horizon      # long enough for the slow fan to enter its ball
        finals, diverged = dynamics.simulate_batch(system, X0, step, horizon, ball)
        ref_finals, ref_diverged = reference_simulate_batch(system, X0, step, horizon)
        converged = ~diverged & (np.linalg.norm(finals, axis=1) < mc.mc_tol)
        ref_converged = ~ref_diverged & (np.linalg.norm(ref_finals, axis=1) < mc.mc_tol)
        np.testing.assert_array_equal(converged, ref_converged)
        assert converged.mean() == ref_converged.mean()
        retired = np.any(finals != ref_finals, axis=1)
        assert retired.any() and converged[retired].all()

    @pytest.mark.parametrize("system", [Unstable(), gate_case("ip_stochastic_l", 0.254)[0]])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_no_ball_without_a_contracting_step_map(self, system):
        # x_dot = x - x^3 is not Hurwitz at 0; the l = 0.254 pendulum at h = 0.01 has
        # h * rho(A) = 3.31, so its RK4 matrix has spectral radius above 1
        ball = roa.retirement_ball(system, 0.01, 1e-2)
        assert ball is None
        X0 = np.random.default_rng(1).uniform(-0.5, 0.5, (50, 2))
        finals, diverged = dynamics.simulate_batch(system, X0, 0.01, 2.0, ball)
        ref_finals, ref_diverged = reference_simulate_batch(system, X0, 0.01, 2.0)
        np.testing.assert_array_equal(finals, ref_finals)
        np.testing.assert_array_equal(diverged, ref_diverged)
