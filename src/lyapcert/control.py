"""Dense linear algebra for controller synthesis and quadratic certificates.

Continuous-time Lyapunov equation solves, an eigenvalue-free Hurwitz test,
Kleinman iteration for LQR gains, and central-difference linearization of an
arbitrary vector field. Everything here is sized for the small (n <= 16)
closed-loop systems this package ships; no attempt is made at large-scale
Riccati machinery.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

MAX_DIM = 16


class SingularSystem(Exception):
    """The vectorized Lyapunov system is rank-deficient (some eig pair has
    lambda_i + lambda_j = 0)."""


class NotStabilizing(Exception):
    """The supplied initial gain does not stabilize the plant."""


class NoConvergence(Exception):
    """Kleinman iteration failed to converge within the iteration budget."""


class NonFiniteDynamics(Exception):
    """A dynamics evaluation produced NaN or infinity."""


def _as_square(A, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim == 1 and A.size == 1:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] > MAX_DIM:
        raise ValueError(f"{name} exceeds supported dimension {MAX_DIM}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def solve_lyapunov(A, Q) -> np.ndarray:
    """Solve A^T P + P A = -Q for symmetric P.

    Builds the n^2 x n^2 Kronecker system (A^T (x) I + I (x) A^T) vec(P) =
    -vec(Q) and solves it with a partially pivoted LU factorization. O(n^6)
    but exact in exact arithmetic and trivially auditable for n <= 16.

    Raises SingularSystem when the vectorized system is rank-deficient,
    which happens exactly when A has an eigenvalue pair with
    lambda_i + lambda_j = 0.
    """
    A = _as_square(A, "A")
    Q = _as_square(Q, "Q")
    n = A.shape[0]
    if Q.shape[0] != n:
        raise ValueError("A and Q dimensions disagree")
    if not np.allclose(Q, Q.T, atol=1e-10):
        raise ValueError("Q must be symmetric")

    eye = np.eye(n)
    M = np.kron(A.T, eye) + np.kron(eye, A.T)
    try:
        vec_p = np.linalg.solve(M, -Q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    P = vec_p.reshape(n, n)
    P = 0.5 * (P + P.T)

    residual = np.max(np.abs(A.T @ P + P @ A + Q))
    scale = max(1.0, np.max(np.abs(Q)), np.max(np.abs(P)))
    if not np.isfinite(residual) or residual > 1e-8 * scale:
        # numerically rank-deficient system: LU went through but the
        # back-substituted P does not satisfy the equation
        raise SingularSystem(f"Lyapunov residual {residual:g} too large")
    return P


def is_positive_definite(P) -> bool:
    """Cholesky-based strict positive definiteness test."""
    P = _as_square(P, "P")
    if not np.allclose(P, P.T, atol=1e-8):
        return False
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return False
    return True


def is_hurwitz(A) -> bool:
    """Eigenvalue-free stability test via the Lyapunov theorem.

    A is Hurwitz iff A^T P + P A = -I has a solution with P positive
    definite (checked through a strictly-positive-pivot Cholesky).
    """
    A = _as_square(A, "A")
    try:
        P = solve_lyapunov(A, np.eye(A.shape[0]))
    except SingularSystem:
        return False
    return is_positive_definite(P)


def kleinman_lqr(A, B, Qc, Rc, K0, max_iter: int = 60, tol: float = 1e-10) -> np.ndarray:
    """Kleinman iteration for the continuous-time LQR gain.

    Starting from a stabilizing gain K0, repeats

        P_m  solves  (A - B K_m)^T P + P (A - B K_m) = -(Qc + K_m^T Rc K_m)
        K_{m+1} = Rc^{-1} B^T P_m

    until the gain update falls below `tol` in max-norm. The fixed point
    satisfies the algebraic Riccati equation. B is (n, m) for an n-state A,
    Qc must be symmetric, Rc symmetric positive definite and K0 an (m, n)
    stabilizing seed gain; anything else raises ValueError.
    """
    A = _as_square(A, "A")
    n = A.shape[0]
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError(f"B must have {n} rows, got shape {B.shape}")
    Qc = _as_square(Qc, "Qc")
    Rc = _as_square(Rc, "Rc")
    if not np.allclose(Qc, Qc.T, atol=1e-10):
        raise ValueError("Qc must be symmetric")
    if not is_positive_definite(Rc):
        raise ValueError("Rc must be symmetric positive definite")
    K = np.atleast_2d(np.asarray(K0, dtype=float))
    if K.shape != (B.shape[1], n):
        raise ValueError(f"K0 must have shape {(B.shape[1], n)}, got {K.shape}")

    if not is_hurwitz(A - B @ K):
        raise NotStabilizing("initial gain K0 does not stabilize A - B K0")

    for _ in range(max_iter):
        cost = Qc + K.T @ Rc @ K
        cost = 0.5 * (cost + cost.T)
        P = solve_lyapunov(A - B @ K, cost)
        K_next = np.linalg.solve(Rc, B.T @ P)
        step = np.max(np.abs(K_next - K))
        K = K_next
        if step < tol:
            if not is_hurwitz(A - B @ K):
                raise NoConvergence("converged gain lost stability")
            return K
    raise NoConvergence(f"no fixed point after {max_iter} iterations")


def linearize(f: Callable[[np.ndarray], np.ndarray], x_star, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector field at x_star.

    f maps an n-vector to an n-vector; returns the n x n matrix
    A[i][j] = (f_i(x* + h e_j) - f_i(x* - h e_j)) / (2 h).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    n = x_star.size
    A = np.empty((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        f_plus = np.asarray(f(x_star + step), dtype=float).reshape(-1)
        f_minus = np.asarray(f(x_star - step), dtype=float).reshape(-1)
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise NonFiniteDynamics(f"non-finite dynamics near component {j}")
        A[:, j] = (f_plus - f_minus) / (2.0 * h)
    return A
