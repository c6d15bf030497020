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

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError):
            control.solve_lyapunov(np.array([[-1.0]]), np.array([[1.0, 0.0]]))


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

    def test_rejects_non_pd_rc(self):
        with pytest.raises(ValueError, match="Rc"):
            control.kleinman_lqr(-np.eye(2), np.ones((2, 1)), np.eye(2), np.array([[-1.0]]),
                                 np.zeros((1, 2)))

    def test_rejects_b_without_n_rows(self):
        # a (1, 2) B for a 2-state plant is not transposed into shape
        with pytest.raises(ValueError, match="B must have 2 rows"):
            control.kleinman_lqr(-np.eye(2), np.ones((1, 2)), np.eye(2), np.array([[1.0]]),
                                 np.zeros((1, 2)))

    def test_rejects_wrong_shaped_k0(self):
        # a (2, 1) K0 for one input and two states is not reshaped into (1, 2)
        with pytest.raises(ValueError, match="K0 must have shape"):
            control.kleinman_lqr(-np.eye(2), np.ones((2, 1)), np.eye(2), np.array([[1.0]]),
                                 np.zeros((2, 1)))
