"""Dense linear algebra for controller synthesis and quadratic certificates.

Continuous- and discrete-time Lyapunov equation solves, an eigenvalue-free
Hurwitz test and Kleinman iteration for LQR gains. Everything here is sized for
the small (n <= 16, the most the config's grid cap admits) closed-loop systems
this package ships; no attempt is made at large-scale Riccati machinery. The inputs are the package's
own controller constants and finite closed-loop linearizations, trusted as given.
"""

from __future__ import annotations

import numpy as np


class SingularSystem(Exception):
    """The vectorized Lyapunov system is rank-deficient (some eig pair has
    lambda_i + lambda_j = 0, or mu_i mu_j = 1 for the discrete equation)."""


class NotStabilizing(Exception):
    """The supplied initial gain does not stabilize the plant."""


class NoConvergence(Exception):
    """Kleinman iteration failed to converge within the iteration budget."""


class NonFiniteDynamics(Exception):
    """A dynamics evaluation produced NaN or infinity."""


def solve_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A^T P + P A = -Q for symmetric P, A and Q finite (n, n), Q symmetric.

    Builds the n^2 x n^2 Kronecker system (A^T (x) I + I (x) A^T) vec(P) =
    -vec(Q) and solves it with a partially pivoted LU factorization. O(n^6)
    but exact in exact arithmetic and trivially auditable for small n.

    Raises SingularSystem when the vectorized system is rank-deficient,
    which happens exactly when A has an eigenvalue pair with
    lambda_i + lambda_j = 0.
    """
    eye = np.eye(A.shape[0])
    return _kronecker_solve(np.kron(A.T, eye) + np.kron(eye, A.T), Q,
                            lambda P: A.T @ P + P @ A + Q)


def solve_discrete_lyapunov(M: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve M^T P M - P = -Q for symmetric P, M and Q finite (n, n), Q symmetric.

    The step-map sibling of `solve_lyapunov`: the Kronecker system
    (M^T (x) M^T - I) vec(P) = -vec(Q), singular exactly when M has an
    eigenvalue pair with mu_i mu_j = 1 (SingularSystem).
    """
    return _kronecker_solve(np.kron(M.T, M.T) - np.eye(M.size), Q,
                            lambda P: M.T @ P @ M - P + Q)


def _kronecker_solve(K: np.ndarray, Q: np.ndarray, residual_of) -> np.ndarray:
    """Symmetrized P from K vec(P) = -vec(Q), checked by its equation's residual."""
    n = Q.shape[0]
    try:
        vec_p = np.linalg.solve(K, -Q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    P = vec_p.reshape(n, n)
    P = 0.5 * (P + P.T)

    residual = np.max(np.abs(residual_of(P)))
    scale = max(1.0, np.max(np.abs(Q)), np.max(np.abs(P)))
    if not np.isfinite(residual) or residual > 1e-8 * scale:
        # numerically rank-deficient system: LU went through but the
        # back-substituted P does not satisfy the equation
        raise SingularSystem(f"Lyapunov residual {residual:g} too large")
    return P


def is_hurwitz(A: np.ndarray) -> bool:
    """Eigenvalue-free stability test via the Lyapunov theorem.

    A is Hurwitz iff A^T P + P A = -I has a solution with P positive
    definite (checked through a strictly-positive-pivot Cholesky of the
    symmetric P that `solve_lyapunov` returns).
    """
    try:
        np.linalg.cholesky(solve_lyapunov(A, np.eye(A.shape[0])))
    except (SingularSystem, np.linalg.LinAlgError):
        return False
    return True


def kleinman_lqr(A: np.ndarray, B: np.ndarray, Qc: np.ndarray, Rc: np.ndarray,
                 K0: np.ndarray) -> np.ndarray:
    """Kleinman iteration for the continuous-time LQR gain.

    Starting from a stabilizing gain K0, repeats

        P_m  solves  (A - B K_m)^T P + P (A - B K_m) = -(Qc + K_m^T Rc K_m)
        K_{m+1} = Rc^{-1} B^T P_m

    until the gain update falls below 1e-10 in max-norm, within 60
    iterations. The fixed point satisfies the algebraic Riccati equation.
    A is a finite (n, n) plant, B (n, m), Qc (n, n) symmetric, Rc (m, m)
    symmetric positive definite and K0 an (m, n) seed gain; the callers pass
    the package's controller constants, so these are not checked again. A K0
    that does not stabilize A - B K0 raises NotStabilizing.
    """
    K = K0
    if not is_hurwitz(A - B @ K):
        raise NotStabilizing("initial gain K0 does not stabilize A - B K0")

    for _ in range(60):
        cost = Qc + K.T @ Rc @ K
        cost = 0.5 * (cost + cost.T)
        P = solve_lyapunov(A - B @ K, cost)
        K_next = np.linalg.solve(Rc, B.T @ P)
        step = np.max(np.abs(K_next - K))
        K = K_next
        if step < 1e-10:
            if not is_hurwitz(A - B @ K):
                raise NoConvergence("converged gain lost stability")
            return K
    raise NoConvergence("no fixed point after 60 iterations")
