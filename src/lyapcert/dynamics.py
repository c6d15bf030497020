"""Closed-loop benchmark systems, task sampling, datasets and RK4 simulation.

Three autonomous systems are shipped, each with its control loop already
closed:

* inverted pendulum, LQR torque feedback, state (theta, theta_dot);
* N-microgrid droop-controlled phase-angle network, state (ddelta_1..ddelta_N);
* ducted fan in hover mode, LQR thrust feedback, 6-d second-order state.

Parameter tuples follow the benchmark conventions: pendulum (l, m, g, b),
microgrid (dc_1..dc_N), fan (m, J, r, g, d). Microgrid admittance/setpoint
constants are synthetic defaults chosen so the origin is an exact equilibrium
and the nominal closed loop is Hurwitz; both properties are asserted when the
nominal system is built. Other gains or networks need a direct `ClosedLoopSystem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .control import NonFiniteDynamics, is_hurwitz, kleinman_lqr

SYSTEM_IDS = ("pendulum", "microgrid", "fan")

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


class DimensionMismatch(Exception):
    """State vector length does not match the system's state dimension."""


class DegenerateRange(Exception):
    """Task resampling could not produce a positive parameter component."""


@dataclass(frozen=True)
class ParamVector:
    """One task's physical parameter tuple."""

    system_id: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.system_id not in SYSTEM_IDS:
            raise ValueError(f"unknown system_id {self.system_id!r}")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        expected = {"pendulum": 4, "fan": 5}.get(self.system_id)
        if expected is not None and len(vals) != expected:
            raise ValueError(f"{self.system_id} expects {expected} parameters, got {len(vals)}")
        if self.system_id == "microgrid" and len(vals) < 2:
            raise ValueError("microgrid needs at least 2 droop coefficients")
        if any((not math.isfinite(v)) or v <= 0 for v in vals):
            raise ValueError("all physical parameters must be finite and strictly positive")

    @property
    def state_dim(self) -> int:
        return {"pendulum": 2, "fan": 6}.get(self.system_id, len(self.values))


@dataclass(frozen=True, eq=False)
class MicrogridNetwork:
    """Fixed network constants of the N-microgrid benchmark.

    Y is the (symmetric, zero-diagonal) admittance magnitude matrix, gamma
    the admittance angles, E the voltage setpoints, G the self conductances,
    J the tracking time constants and K the output-feedback entries. Power
    setpoints are derived at ddelta = 0 so the origin is an equilibrium for
    any droop values.
    """

    Y: np.ndarray
    gamma: np.ndarray
    E: np.ndarray
    G: np.ndarray
    J: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        n = self.Y.shape[0]
        for name in ("Y", "gamma", "E", "G", "J", "K"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.Y.shape != (n, n) or self.gamma.shape != (n, n):
            raise ValueError("Y and gamma must be square and same size")
        if not np.allclose(self.Y, self.Y.T):
            raise ValueError("Y must be symmetric")
        if np.any(np.diag(self.Y) != 0.0):
            raise ValueError("Y must have a zero diagonal")
        if np.any(self.J <= 0):
            raise ValueError("tracking time constants must be positive")

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    def coupling(self) -> np.ndarray:
        # W[i, k] = E_i E_k Y_ik, the cosine-term weights
        return np.outer(self.E, self.E) * self.Y

    @cached_property
    def _trig_weights(self) -> tuple[np.ndarray, np.ndarray]:
        # (W o cos(gamma))^T and (W o sin(gamma))^T, built once per network
        W = self.coupling()
        return (np.ascontiguousarray((W * np.cos(self.gamma)).T),
                np.ascontiguousarray((W * np.sin(self.gamma)).T))

    def power(self, X: np.ndarray) -> np.ndarray:
        """P_i(x) = sum_k W_ik cos(x_i - x_k - gamma_ik) + E_i^2 G_i for each row of X.

        By the angle-difference identity, with c = cos x and s = sin x,
        P = c o (c Wc^T - s Ws^T) + s o (s Wc^T + c Ws^T) + E^2 G: 2n trig
        calls per state instead of n^2.
        """
        WcT, WsT = self._trig_weights
        c, s = np.cos(X), np.sin(X)
        return c * (c @ WcT - s @ WsT) + s * (s @ WcT + c @ WsT) + self.E**2 * self.G

    @cached_property
    def power_setpoints(self) -> np.ndarray:
        # P*_i = P_i at ddelta = 0, by the same expression, so f(0) = 0 exactly
        return self.power(np.zeros((1, self.n)))[0]


def default_network(n: int) -> MicrogridNetwork:
    """Connected-ring default network of unit line admittances (a single line for n = 2)."""
    Y = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        if i != j:
            Y[i, j] = Y[j, i] = 1.0
    return MicrogridNetwork(
        Y=Y,
        gamma=np.full((n, n), np.pi / 2 - 0.1),
        E=np.ones(n),
        G=np.zeros(n),
        J=np.ones(n),
        K=np.zeros(n),
    )


@dataclass(frozen=True, eq=False)
class ClosedLoopSystem:
    """A parameterized autonomous vector field x_dot = f(x).

    `gain` is the LQR feedback matrix for the pendulum/fan (u = -K x);
    `network` the fixed constants for the microgrid. Instances are immutable
    and freely shareable.
    """

    params: ParamVector
    gain: np.ndarray | None = None
    network: MicrogridNetwork | None = None

    def __post_init__(self):
        sid = self.params.system_id
        if sid in ("pendulum", "fan"):
            if self.gain is None:
                raise ValueError(f"{sid} system needs a feedback gain")
            g = np.atleast_2d(np.asarray(self.gain, dtype=float))
            object.__setattr__(self, "gain", g)
            n_inputs = 1 if sid == "pendulum" else 2
            if g.shape != (n_inputs, self.params.state_dim):
                raise ValueError(f"gain shape {g.shape} invalid for {sid}")
        else:
            net = self.network or default_network(len(self.params.values))
            if net.n != len(self.params.values):
                raise ValueError("network size does not match droop tuple")
            object.__setattr__(self, "network", net)

    @property
    def dim(self) -> int:
        return self.params.state_dim

    def f(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise DimensionMismatch(f"expected state of length {self.dim}, got {x.size}")
        return self.f_batch(x[None, :])[0]

    def f_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatch(f"expected (n, {self.dim}) states, got {X.shape}")
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
        dc = np.asarray(self.params.values)
        net = self.network
        dP = net.power(X) - net.power_setpoints
        return (-dc * X - dP + net.K * X) / net.J

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
        pendulum and fan; diag(1/J) (-diag(dc) - diag(Ws 1) + Ws + diag(K)) for the
        microgrid, Ws = W o sin(gamma). A non-finite entry raises NonFiniteDynamics."""
        if self.params.system_id == "microgrid":
            net = self.network
            Ws = net.coupling() * np.sin(net.gamma)
            diagonal = net.K - np.asarray(self.params.values) - Ws.sum(axis=1)
            A = (np.diag(diagonal) + Ws) / net.J[:, None]
        else:
            A_open, B = _open_loop_linearization(self.params.system_id, self.params.values)
            A = A_open - B @ self.gain
        if not np.all(np.isfinite(A)):
            raise NonFiniteDynamics(f"non-finite {self.params.system_id} linearization")
        return A


@lru_cache(maxsize=8)
def _default_gain(system_id: str) -> np.ndarray:
    """Kleinman-refined LQR gain designed once at the nominal parameters."""
    if system_id == "pendulum":
        params, K0 = NOMINAL_PENDULUM, PENDULUM_K0
        Qc, Rc = np.diag(PENDULUM_QC_DIAG), np.diag(PENDULUM_RC_DIAG)
    elif system_id == "fan":
        params, K0 = NOMINAL_FAN, FAN_K0
        Qc, Rc = np.diag(FAN_QC_DIAG), np.diag(FAN_RC_DIAG)
    else:
        raise ValueError(f"no LQR controller for {system_id!r}")
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
    nominal parameters (fixed across tasks), or the default microgrid network."""
    gain = _default_gain(params.system_id) if params.system_id in ("pendulum", "fan") else None
    return ClosedLoopSystem(params=params, gain=gain)


def nominal_params(system_id: str, n_microgrids: int = 3) -> ParamVector:
    if system_id == "pendulum":
        return ParamVector("pendulum", NOMINAL_PENDULUM)
    if system_id == "fan":
        return ParamVector("fan", NOMINAL_FAN)
    return ParamVector("microgrid", nominal_microgrid(n_microgrids))


def nominal_system(system_id: str, n_microgrids: int = 3) -> ClosedLoopSystem:
    """Nominal closed-loop system, with equilibrium/stability sanity checks."""
    system = build_system(nominal_params(system_id, n_microgrids))
    residual = np.max(np.abs(system.f(np.zeros(system.dim))))
    if residual > 1e-9:
        raise ValueError(f"origin is not an equilibrium of nominal {system_id} (|f(0)|={residual:g})")
    if not is_hurwitz(system.linearization()):
        raise ValueError(f"nominal {system_id} closed loop is not Hurwitz")
    return system


def sample_tasks(theta0: ParamVector, sigma_diag, n: int, seed: int) -> list[ParamVector]:
    """Draw n task parameter tuples, componentwise N(theta0, sigma^2),
    each component resampled until strictly positive.

    A zero sigma entry freezes that component at its nominal value.
    """
    if n < 1:
        raise ValueError("need n >= 1 tasks")
    sigma = np.asarray(sigma_diag, dtype=float).reshape(-1)
    if sigma.size != len(theta0.values):
        raise ValueError("sigma length does not match parameter tuple")
    if np.any(sigma < 0):
        raise ValueError("sigma entries must be nonnegative")
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


@dataclass(frozen=True, eq=False)
class TaskDataset:
    """Mini-batched (state, velocity) samples for one task.

    batches[j] = ((x_tr, y_tr), (x_te, y_te)) with K training and J test
    rows; labels are exact dynamics evaluations at the states.
    """

    batches: tuple

    @property
    def n_batches(self) -> int:
        return len(self.batches)


def build_dataset(system: ClosedLoopSystem, radius: float, k_train: int, j_test: int,
                  m_batches: int, seed: int) -> TaskDataset:
    """Sample m_batches mini-batches of K train + J test pairs, states uniform
    over the ball of the given radius, labels y = f(x)."""
    if min(k_train, j_test, m_batches) < 1:
        raise ValueError("K, J and m_i must all be >= 1")
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(m_batches):
        x_tr = sample_ball(rng, k_train, system.dim, radius)
        x_te = sample_ball(rng, j_test, system.dim, radius)
        batches.append(((x_tr, system.f_batch(x_tr)), (x_te, system.f_batch(x_te))))
    return TaskDataset(batches=tuple(batches))


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

    A run whose state norm exceeds 1e6 is truncated and flagged diverged.
    """
    if h <= 0 or horizon < h:
        raise ValueError("need h > 0 and horizon >= h")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != system.dim:
        raise DimensionMismatch(f"expected state of length {system.dim}")
    n_steps = int(round(horizon / h))
    states = [x.copy()]
    for _ in range(n_steps):
        x = rk4_step(system.f, x, h)
        states.append(x.copy())
        if np.linalg.norm(x) > DIVERGENCE_NORM:
            arr = np.asarray(states)
            return Trajectory(times=h * np.arange(arr.shape[0]), states=arr, diverged=True)
    arr = np.asarray(states)
    return Trajectory(times=h * np.arange(arr.shape[0]), states=arr, diverged=False)


def simulate_batch(system: ClosedLoopSystem, X0: np.ndarray, h: float, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized RK4 over many initial states; returns (final states, diverged mask).

    Diverged rows are frozen at their last finite state. While no row has
    diverged, the whole batch is stepped in place of a gather/scatter. A row
    diverges once its 2-norm exceeds DIVERGENCE_NORM; as |x|_2 <= sqrt(d) |x|_inf,
    that norm is computed only in a step whose largest entry exceeds half of
    DIVERGENCE_NORM / sqrt(d) (the half is slack for rounding) or is NaN.
    """
    if h <= 0 or horizon < h:
        raise ValueError("need h > 0 and horizon >= h")
    X = np.array(X0, dtype=float)
    n_steps = int(round(horizon / h))
    safe = 0.5 * DIVERGENCE_NORM / math.sqrt(X.shape[1])
    alive = np.arange(X.shape[0])
    for _ in range(n_steps):
        if alive.size == 0:
            break
        every = alive.size == X.shape[0]
        Xa = X if every else X[alive]
        Xa = rk4_step(system.f_batch, Xa, h)
        if every:
            X = Xa
        else:
            X[alive] = Xa
        if not (np.abs(Xa).max() <= safe):
            alive = alive[~(np.linalg.norm(Xa, axis=1) > DIVERGENCE_NORM)]
    diverged = np.ones(X.shape[0], dtype=bool)
    diverged[alive] = False
    return X, diverged
