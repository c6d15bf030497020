import numpy as np
import pytest

from lyapcert import control


def random_hurwitz(rng, n):
    G = rng.normal(size=(n, n))
    return -(G.T @ G + np.eye(n))


class TestSolveLyapunov:
    def test_scalar(self):
        P = control.solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert P == pytest.approx(np.array([[1.0]]))

    def test_2x2_frozen(self):
        # A^T P + P A = -I has the closed-form solution below for this A
        P = control.solve_lyapunov(np.array([[0.0, 1.0], [-1.0, -1.0]]), np.eye(2))
        np.testing.assert_allclose(P, [[1.5, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_singular_double_integrator(self):
        with pytest.raises(control.SingularSystem):
            control.solve_lyapunov(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_residual_and_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            A = random_hurwitz(rng, n)
            Q = np.eye(n)
            P = control.solve_lyapunov(A, Q)
            residual = np.max(np.abs(A.T @ P + P @ A + Q))
            assert residual <= 1e-8 * max(1.0, np.max(np.abs(P)))
            assert np.max(np.abs(P - P.T)) <= 1e-12


class TestSolveDiscreteLyapunov:
    def test_scalar(self):
        # 0.25 p - p = -1
        P = control.solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
        assert P == pytest.approx(np.array([[4.0 / 3.0]]))

    def test_singular_unit_eigenvalue(self):
        with pytest.raises(control.SingularSystem):
            control.solve_discrete_lyapunov(np.array([[1.0, 1.0], [0.0, 0.5]]), np.eye(2))

    def test_residual_and_symmetry_random(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            M = rng.normal(size=(n, n))
            M *= rng.uniform(0.1, 0.99) / np.max(np.abs(np.linalg.eigvals(M)))
            P = control.solve_discrete_lyapunov(M, np.eye(n))
            residual = np.max(np.abs(M.T @ P @ M - P + np.eye(n)))
            assert residual <= 1e-8 * max(1.0, np.max(np.abs(P)))
            assert np.max(np.abs(P - P.T)) <= 1e-12
            assert np.linalg.eigvalsh(P)[0] >= 1.0 - 1e-9     # P = I + M^T P M


HAND_MATRICES = [
    (np.array([[-1.0]]), True),
    (np.array([[1.0]]), False),
    (np.array([[-2.0]]), True),
    (np.array([[0.0, 1.0], [-1.0, -1.0]]), True),     # roots (-1 +- i sqrt3)/2
    (np.array([[0.0, 1.0], [-2.0, -3.0]]), True),     # roots -1, -2
    (np.array([[0.0, 1.0], [2.0, 1.0]]), False),      # roots 2, -1
    (np.array([[0.0, 1.0], [-1.0, 0.1]]), False),     # positive trace
    (np.diag([-1.0, -2.0, -3.0]), True),
    (np.diag([-1.0, -2.0, 3.0]), False),
    (np.diag([-1.0, 2.0]), False),
    (np.array([[-1.0, 5.0], [0.0, -0.5]]), True),     # triangular: -1, -0.5
    (np.array([[-1.0, 0.0], [100.0, -0.01]]), True),
    (np.array([[0.5, 0.0], [0.0, -1.0]]), False),
    (np.array([[-3.0, 1.0], [1.0, -3.0]]), True),     # symmetric: -2, -4
    (np.array([[-1.0, 2.0], [2.0, -1.0]]), False),    # symmetric: 1, -3
    (np.array([[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.0], [0.0, 0.0, -5.0]]), True),
    (np.array([[0.1, 1.0, 0.0], [-1.0, 0.1, 0.0], [0.0, 0.0, -5.0]]), False),
    (-np.eye(4), True),
    (np.zeros((2, 2)) - np.diag([1e-3, 1e-3]), True),
    (np.array([[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -2.0]]), True),
]


class TestIsHurwitz:
    @pytest.mark.parametrize("A,expected", HAND_MATRICES)
    def test_hand_constructed(self, A, expected):
        assert control.is_hurwitz(A) is expected

    def test_marginal_returns_false(self):
        # pure rotation: eigenvalues on the imaginary axis
        assert control.is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]])) is False


class TestKleinmanLqr:
    def test_scalar_care(self):
        K = control.kleinman_lqr(np.array([[0.0]]), np.array([[1.0]]),
                                 np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert K == pytest.approx(np.array([[1.0]]), abs=1e-9)

    def test_zero_cost_stable_system(self):
        K = control.kleinman_lqr(np.array([[-5.0]]), np.array([[1.0]]),
                                 np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0]]))
        assert K == pytest.approx(np.array([[0.0]]), abs=1e-12)

    def test_not_stabilizing(self):
        with pytest.raises(control.NotStabilizing):
            control.kleinman_lqr(np.array([[1.0]]), np.array([[0.0]]),
                                 np.array([[1.0]]), np.array([[1.0]]), np.array([[-1.0]]))

    def test_riccati_residual_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            A = random_hurwitz(rng, n)
            B = rng.normal(size=(n, 1))
            K = control.kleinman_lqr(A, B, np.eye(n), np.array([[1.0]]),
                                     np.zeros((1, n)))
            P = control.solve_lyapunov(A - B @ K, np.eye(n) + K.T @ K)
            res = A.T @ P + P @ A - P @ B @ B.T @ P + np.eye(n)
            assert np.max(np.abs(res)) <= 1e-6
