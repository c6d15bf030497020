"""Closed-loop benchmark systems, task sampling, datasets and RK4 simulation.

Three autonomous systems are shipped, each with its control loop already
closed:

* inverted pendulum, LQR torque feedback, state (theta, theta_dot);
* N-microgrid droop-controlled phase-angle network, state (ddelta_1..ddelta_N);
* ducted fan in hover mode, LQR thrust feedback, 6-d second-order state.

Parameter tuples follow the benchmark conventions: pendulum (l, m, g, b),
microgrid (dc_1..dc_N), fan (m, J, r, g, d); the config's `SystemBlock` checks
them once, when the config is parsed, and this module trusts them.
`build_system` is the one way a system is built: the pendulum and fan get the
LQR gain designed at their nominal parameters. The microgrid is its droop
tuple alone: f(x) = (P(0) - P(x)) - dc o x, with P the line power of a fixed
ring of unit lines at one admittance angle, so the origin is an exact
equilibrium for any droops and the nominal closed loop is Hurwitz; the tests
check both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .control import NonFiniteDynamics, kleinman_lqr

NOMINAL_PENDULUM = (0.5, 0.15, 9.81, 0.1)
NOMINAL_FAN = (11.2, 0.0462, 0.15, 0.28, 0.1)


def nominal_microgrid(n: int) -> tuple[float, ...]:
    return (2.0,) * n

# Seed gains for the Kleinman refinement, recorded once from an offline
# Riccati solve (Qc = I, Rc below). They only need to be stabilizing.
PENDULUM_K0 = ((1.0, 1.0),)
PENDULUM_QC_DIAG = (1.0, 1.0)
PENDULUM_RC_DIAG = (0.1,)

FAN_K0 = (
    (-1.0, -3.912551, 0.0, 0.0, 2.061231, 1.60897),
    (0.0, 0.0, 1.0, 4.738388, 0.0, 0.0),
)
FAN_QC_DIAG = (1.0,) * 6
FAN_RC_DIAG = (1.0, 1.0)

DIVERGENCE_NORM = 1e6


class DegenerateRange(Exception):
    """Task resampling could not produce a positive parameter component."""


@dataclass(frozen=True)
class ParamVector:
    """One task's physical parameter tuple, of finite positive floats."""

    system_id: str
    values: tuple[float, ...]

    @property
    def state_dim(self) -> int:
        return {"pendulum": 2, "fan": 6}.get(self.system_id, len(self.values))


RING_ANGLE = np.pi / 2 - 0.1   # the admittance angle of every microgrid line


@lru_cache(maxsize=8)
def _ring(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wc = Y o cos(gamma) and Ws = Y o sin(gamma) of the n-node ring of unit lines
    (a single line for n = 2), and the power P(0) at the origin."""
    Y = np.zeros((n, n))
    for i in range(n):
        Y[i, (i + 1) % n] = Y[(i + 1) % n, i] = 1.0
    gamma = np.full((n, n), RING_ANGLE)
    Wc, Ws = Y * np.cos(gamma), Y * np.sin(gamma)
    return Wc, Ws, _ring_power(Wc, Ws, np.zeros((1, n)))[0]


def _ring_power(Wc: np.ndarray, Ws: np.ndarray, X: np.ndarray) -> np.ndarray:
    """P_i(x) = sum_k Y_ik cos(x_i - x_k - gamma) for each row of X.

    By the angle-difference identity, with c = cos x and s = sin x (Wc and Ws
    are symmetric), P = c o (c Wc - s Ws) + s o (s Wc + c Ws): 2n trig calls
    per state instead of n^2.
    """
    c, s = np.cos(X), np.sin(X)
    return c * (c @ Wc - s @ Ws) + s * (s @ Wc + c @ Ws)


@dataclass(frozen=True, eq=False)
class ClosedLoopSystem:
    """A parameterized autonomous vector field x_dot = f(x).

    `gain` is the (inputs, states) LQR feedback matrix for the pendulum/fan
    (u = -K x), None for the microgrid, whose droop tuple on the fixed ring is
    its whole field. Instances are immutable and freely shareable.
    """

    params: ParamVector
    gain: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.params.state_dim

    def f_batch(self, X: np.ndarray) -> np.ndarray:
        """x_dot for each row of the (n, dim) float array X."""
        sid = self.params.system_id
        if sid == "pendulum":
            return self._pendulum(X)
        if sid == "microgrid":
            return self._microgrid(X)
        return self._fan(X)

    def _pendulum(self, X):
        l, m, g, b = self.params.values
        theta, theta_dot = X[:, 0], X[:, 1]
        u = -(X @ self.gain.T)[:, 0]
        theta_ddot = (m * g * l * np.sin(theta) - b * theta_dot + u) / (m * l * l)
        return np.stack([theta_dot, theta_ddot], axis=1)

    def _microgrid(self, X):
        # in this order f(0) is +0.0; -dc o x - (P - P(0)) would give -0.0
        Wc, Ws, P0 = _ring(self.dim)
        return (P0 - _ring_power(Wc, Ws, X)) - np.asarray(self.params.values) * X

    def _fan(self, X):
        m, J, r, g, d = self.params.values
        xd, yd = X[:, 1], X[:, 3]
        th, thd = X[:, 4], X[:, 5]
        U = -(X @ self.gain.T)  # (batch, 2)
        u1, u2 = U[:, 0], U[:, 1]
        sin_t, cos_t = np.sin(th), np.cos(th)
        xdd = (-m * g * sin_t - d * xd + u1 * cos_t - u2 * sin_t) / m
        ydd = (m * g * (cos_t - 1.0) - d * yd + u1 * sin_t + u2 * cos_t) / m
        thdd = r * u1 / J
        return np.stack([xd, xdd, yd, ydd, thd, thdd], axis=1)

    def linearization(self) -> np.ndarray:
        """The closed loop's Jacobian at the origin, in closed form: A - B K for the
        pendulum and fan; diag(-dc - Ws 1) + Ws for the microgrid, Ws = Y o sin(gamma).
        A non-finite entry raises NonFiniteDynamics."""
        if self.params.system_id == "microgrid":
            _, Ws, _ = _ring(self.dim)
            A = np.diag(-np.asarray(self.params.values) - Ws.sum(axis=1)) + Ws
        else:
            A_open, B = _open_loop_linearization(self.params.system_id, self.params.values)
            A = A_open - B @ self.gain
        if not np.all(np.isfinite(A)):
            raise NonFiniteDynamics(f"non-finite {self.params.system_id} linearization")
        return A

    def remainder_bound(self) -> tuple[float, int]:
        """(G, p) with |f(x) - A x|_2 <= G |x|_2^p wherever |x|_2 <= 1, A the linearization.

        Pendulum: the one nonlinear term is (g / l)(sin theta - theta), and
        |sin t - t| <= |t|^3 / 6. Microgrid: each ring line's cos(x_i - x_k - gamma)
        leaves its tangent by at most (x_i - x_k)^2 / 2, so |r|_2 <= |r|_1 <= x^T L x,
        L the ring's Laplacian, whose eigenvalues are at most twice the largest
        degree (Gershgorin): G = 4, as a node has at most two unit lines.
        Fan: with |theta| <= 1, |sin t - t| <= t^2 / 6, |cos t - 1| <= t^2 / 2,
        |sin t| <= |t| and |u_j| <= |K_j|_2 |x|, the x and y accelerations leave
        their tangents by (g / 6 + (k_1 / 2 + k_2) / m) |x|^2 and
        (g / 2 + (k_1 + k_2 / 2) / m) |x|^2.
        """
        sid = self.params.system_id
        if sid == "pendulum":
            l, _, g, _ = self.params.values
            return g / (6.0 * l), 3
        if sid == "microgrid":
            return 4.0, 2
        m, _, _, g, _ = self.params.values
        k1, k2 = np.linalg.norm(self.gain, axis=1)
        return 2.0 * g / 3.0 + 1.5 * float(k1 + k2) / m, 2


@lru_cache(maxsize=8)
def _default_gain(system_id: str) -> np.ndarray:
    """Kleinman-refined LQR gain designed once at the nominal parameters."""
    if system_id == "pendulum":
        params, K0 = NOMINAL_PENDULUM, PENDULUM_K0
        Qc, Rc = np.diag(PENDULUM_QC_DIAG), np.diag(PENDULUM_RC_DIAG)
    else:
        params, K0 = NOMINAL_FAN, FAN_K0
        Qc, Rc = np.diag(FAN_QC_DIAG), np.diag(FAN_RC_DIAG)
    A, B = _open_loop_linearization(system_id, params)
    return kleinman_lqr(A, B, Qc, Rc, np.array(K0))


def _open_loop_linearization(system_id: str, values) -> tuple[np.ndarray, np.ndarray]:
    if system_id == "pendulum":
        l, m, g, b = values
        ml2 = m * l * l
        A = np.array([[0.0, 1.0], [g / l, -b / ml2]])
        B = np.array([[0.0], [1.0 / ml2]])
    else:
        m, J, r, g, d = values
        A = np.zeros((6, 6))
        A[0, 1] = 1.0
        A[1, 1] = -d / m
        A[1, 4] = -g
        A[2, 3] = 1.0
        A[3, 3] = -d / m
        A[4, 5] = 1.0
        B = np.zeros((6, 2))
        B[1, 0] = 1.0 / m
        B[3, 1] = 1.0 / m
        B[5, 0] = r / J
    return A, B


def build_system(params: ParamVector) -> ClosedLoopSystem:
    """Assemble a closed-loop system with the controller designed at the system's
    nominal parameters (fixed across tasks); the microgrid has none."""
    if params.system_id == "microgrid":
        return ClosedLoopSystem(params, None)
    return ClosedLoopSystem(params, _default_gain(params.system_id))


def sample_tasks(theta0: ParamVector, sigma_diag, n: int, seed: int) -> list[ParamVector]:
    """Draw n task parameter tuples, componentwise N(theta0, sigma^2),
    each component resampled until strictly positive.

    A zero sigma entry freezes that component at its nominal value.
    """
    sigma = np.asarray(sigma_diag, dtype=float).reshape(-1)
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(n):
        values = []
        for mean, sd in zip(theta0.values, sigma):
            if sd == 0.0:
                values.append(mean)
                continue
            for _attempt in range(1000):
                draw = rng.normal(mean, sd)
                if draw > 0.0:
                    values.append(draw)
                    break
            else:
                raise DegenerateRange(f"no positive draw for component with mean {mean}, sd {sd}")
        tasks.append(ParamVector(theta0.system_id, tuple(values)))
    return tasks


def sample_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n points uniform over the closed euclidean ball of the given radius."""
    direction = rng.normal(size=(n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / dim)
    return direction * r[:, None]


def build_dataset(system: ClosedLoopSystem, radius: float, k_train: int, j_test: int,
                  m_batches: int, seed: int) -> tuple[np.ndarray, ...]:
    """m_batches mini-batches of K train + J test pairs, states uniform over the ball of
    the given radius, labels y = f(x), each batch drawing its train half first: (X_tr,
    Y_tr, X_te, Y_te), train arrays (m_batches, K, d), test arrays (m_batches, J, d)."""
    rng = np.random.default_rng(seed)
    batches = [(*sample_labelled(system, rng, k_train, radius),
                *sample_labelled(system, rng, j_test, radius)) for _ in range(m_batches)]
    return tuple(np.stack(column) for column in zip(*batches))


def sample_labelled(system: ClosedLoopSystem, rng: np.random.Generator, n: int,
                    radius: float) -> tuple[np.ndarray, np.ndarray]:
    """n states uniform over the ball of the given radius, and their labels y = f(x)."""
    X = sample_ball(rng, n, system.dim, radius)
    return X, system.f_batch(X)


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    diverged: bool = False


def rk4_step(f, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate(system: ClosedLoopSystem, x0, h: float, horizon: float) -> Trajectory:
    """Fixed-step classical RK4 integration from t = 0 to the horizon.

    The state is stepped as one (1, dim) row of `f_batch`, into one preallocated
    (n_steps + 1, dim) array. A run whose state norm exceeds 1e6 is truncated
    and flagged diverged.
    """
    n_steps = int(round(horizon / h))
    states = np.empty((n_steps + 1, np.size(x0)))
    states[0] = x0
    for k in range(1, n_steps + 1):
        states[k] = rk4_step(system.f_batch, states[k - 1:k], h)[0]
        if np.linalg.norm(states[k]) > DIVERGENCE_NORM:
            return Trajectory(times=h * np.arange(k + 1), states=states[:k + 1], diverged=True)
    return Trajectory(times=h * np.arange(n_steps + 1), states=states, diverged=False)


def simulate_batch(system: ClosedLoopSystem, X0: np.ndarray, h: float, horizon: float,
                   region: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized RK4 over many initial states; returns (final states, diverged mask,
    retired mask).

    Only the rows still moving are stepped, as one compact array; a row that
    stops is written back at its last state. A row diverges, and stops, once
    its 2-norm exceeds DIVERGENCE_NORM; as |x|_2 <= sqrt(d) |x|_inf, that norm
    is computed only in a step whose largest entry exceeds half of
    DIVERGENCE_NORM / sqrt(d) (the half is slack for rounding) or is NaN.

    `region` = (Q, levels) retires a row, which also stops, once a step that
    leaves k steps to go leaves it with x^T Q x <= levels[k]: the caller
    vouches that such a row ends below its tolerance at the horizon
    (`roa.retirement_region`), so it is no longer integrated and its state
    then is reported.
    """
    X = np.array(X0, dtype=float)
    n_steps = int(round(horizon / h))
    safe = 0.5 * DIVERGENCE_NORM / math.sqrt(X.shape[1])
    diverged = np.zeros(X.shape[0], dtype=bool)
    alive, Xa = np.arange(X.shape[0]), X
    ones = np.ones(X.shape[1])   # row sums as one matrix-vector product
    for to_go in range(n_steps - 1, -1, -1):
        if alive.size == 0:
            break
        Xa = rk4_step(system.f_batch, Xa, h)
        stop = None
        if not (np.abs(Xa).max() <= safe):
            stop = np.linalg.norm(Xa, axis=1) > DIVERGENCE_NORM
            diverged[alive[stop]] = True
        if region is not None:
            Q, levels = region
            with np.errstate(over="ignore", invalid="ignore"):   # rows at inf diverged above
                inside = ((Xa @ Q) * Xa) @ ones <= levels[to_go]
            stop = inside if stop is None else stop | inside
        if stop is not None and stop.any():
            X[alive[stop]] = Xa[stop]
            alive, Xa = alive[~stop], Xa[~stop]
    X[alive] = Xa
    retired = ~diverged   # a row that stopped without diverging retired
    retired[alive] = False
    return X, diverged, retired
