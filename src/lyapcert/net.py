"""The Lyapunov network: a small tanh MLP with a hand-written derivative engine.

Everything is computed analytically from the flat parameter vector: the scalar
value V(x), its input gradient grad_x V (needed for Lie derivatives), and the
parameter gradient of the tightened hinge loss. The latter contains the term
d/dtheta [grad_x V(x)^T y], i.e. mixed second derivatives, which are obtained
by reverse-mode differentiation *through* the forward tangent sweep rather
than by a general autodiff graph. A loss gradient is one forward, one tangent
and one reverse sweep: the value terms enter the reverse sweep as activation
adjoints beside the tangent terms, and V(0) is one more batch row (x = y = 0).
Hessian-vector products for second-order meta-gradients use a central finite
difference of the loss gradient.

The sweeps carry a leading task axis (weights (B, out, in), activations
(B, n, h), per-task reductions over axis 1); the per-task entry points are
B = 1 views of them, bit for bit equal to each task of a stack, and tanh' is
computed once per layer. With each point as its own task, the value backprop
gives per-point parameter gradients, the rows of the Jacobian that the
bowl-shaped init's Gauss-Newton fit solves with.

Conventions: hidden activations are tanh (smooth, globally Lipschitz), the
output layer is linear and scalar, and the hinge subgradient at an exactly
zero argument is taken as 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .dynamics import sample_ball


@dataclass(frozen=True)
class Architecture:
    input_dim: int
    hidden: tuple[int, ...] = (16, 16)

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if not self.hidden or not all(type(n) is int and n >= 1
                                      for n in (self.input_dim, *self.hidden)):
            raise ValueError("need an integer input_dim >= 1 and at least one hidden layer "
                             "of integer width >= 1")

    # the parameter layout, computed once per architecture
    @cached_property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        dims = (self.input_dim, *self.hidden, 1)
        return tuple((dims[i + 1], dims[i]) for i in range(len(dims) - 1))

    @cached_property
    def n_params(self) -> int:
        return sum(rows * cols + rows for rows, cols in self.layer_shapes)

    @cached_property
    def param_slices(self) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
        """Flat-offset map: per layer, the weight slice, its shape, and the bias slice."""
        out = []
        offset = 0
        for rows, cols in self.layer_shapes:
            w = slice(offset, offset + rows * cols)
            offset += rows * cols
            b = slice(offset, offset + rows)
            offset += rows
            out.append((w, (rows, cols), b))
        return tuple(out)


def unpack(theta: np.ndarray, arch: Architecture) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer views W (..., out, in) and b (..., 1, out) of theta (..., n_params)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (arch.n_params,):
        raise ValueError(f"theta has {theta.shape[-1:]} entries, architecture needs {arch.n_params}")
    lead = theta.shape[:-1]
    return [(theta[..., w].reshape(lead + shape), theta[..., None, b]) for w, shape, b in arch.param_slices]


def pack(layers, arch: Architecture) -> np.ndarray:
    theta = np.empty(arch.n_params)
    for (w, shape, b), (W, bias) in zip(arch.param_slices, layers):
        theta[w] = np.asarray(W).reshape(-1)
        theta[b] = np.asarray(bias).reshape(-1)
    return theta


def init_params(arch: Architecture, seed: int) -> np.ndarray:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) initialization per layer."""
    rng = np.random.default_rng(seed)
    layers = []
    for rows, cols in arch.layer_shapes:
        bound = np.sqrt(1.0 / cols)
        layers.append((rng.uniform(-bound, bound, size=(rows, cols)),
                       rng.uniform(-bound, bound, size=rows)))
    return pack(layers, arch)


def _one_task(batch) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.atleast_2d(np.asarray(a, dtype=float))[None] for a in batch)


def _forward_sweep(weights, X: np.ndarray):
    """Primal pass; returns (V (B, n), activations [A_0..A_{L-1}]) with A_0 = X, each
    layer's bias add and tanh in place."""
    acts = [X]
    for l, (W, b) in enumerate(weights):
        Z = acts[l] @ W.transpose(0, 2, 1)
        Z += b
        if l == len(weights) - 1:
            return Z[..., 0], acts
        acts.append(np.tanh(Z, out=Z))


def _tanh_primes(acts, sp_out=None) -> list:
    """tanh' = 1 - A^2 of each hidden layer, [None, S_1..S_{L-1}], computed once per
    sweep for every reader; in place, into `sp_out` (one array per hidden layer) when given."""
    sps = [None]
    for A, S in zip(acts[1:], sp_out or [None] * len(acts)):
        S = np.multiply(A, A, out=S)
        sps.append(np.subtract(1.0, S, out=S))
    return sps


def _input_gradient(weights, sps) -> np.ndarray:
    # ones (n, 1) @ W_out is W_out exactly, so the sweep starts from W_out itself
    delta = weights[-1][0] * sps[-1]
    for l in range(len(weights) - 2, 0, -1):
        delta = delta @ weights[l][0]
        delta *= sps[l]
    return delta @ weights[0][0]


def _tangent_sweep(weights, sps, Y: np.ndarray):
    """Forward-mode pass along direction Y; returns (S (B, n), tangents T, U).

    S is the directional derivative grad_x V^T y per row; T_l and U_l are the
    post-/pre-activation tangents needed by the reverse sweep.
    """
    T = [Y]
    U = [None]
    for l, (W, _b) in enumerate(weights[:-1], start=1):
        u = T[l - 1] @ W.transpose(0, 2, 1)
        U.append(u)
        T.append(sps[l] * u)
    W_out = weights[-1][0]
    S = (T[-1] @ W_out.transpose(0, 2, 1))[..., 0]
    return S, T, U


def _value_backprop(weights, acts, sps, out_weights: np.ndarray, grads) -> None:
    """Accumulate d(sum_b w_b V_b)/dtheta per task into per-layer grad arrays."""
    delta = out_weights[..., None]
    for l in range(len(weights) - 1, -1, -1):
        gW, gb = grads[l]
        gW += delta.transpose(0, 2, 1) @ acts[l]
        gb += delta.sum(axis=1, keepdims=True)
        if l > 0:
            # the output layer's (n, 1) @ (1, width) product is one exact multiply per entry
            back = np.multiply if l == len(weights) - 1 else np.matmul
            delta = back(delta, weights[l][0])
            delta *= sps[l]


def _backprop(weights, acts, sps, T, U, pos: np.ndarray, dec: np.ndarray, grads) -> None:
    """Accumulate d(sum_b pos_b V_b + dec_b S_b)/dtheta per task, S_b = grad_x V(x_b)^T y_b,
    in one reverse sweep through the tangent program.

    The value term enters as the activation adjoint A_bar and the tangent term
    as T_bar; sigma''(z) terms couple the primal and tangent chains, which is
    where the mixed second derivatives of V enter.
    """
    L = len(weights)
    W_out = weights[-1][0]
    gW_out, gb_out = grads[-1]
    gW_out += pos[:, None, :] @ acts[L - 1] + dec[:, None, :] @ T[L - 1]
    gb_out += pos.sum(axis=1)[:, None, None]
    # the output layer's (n, 1) @ (1, width) products are one exact multiply per entry
    T_bar = dec[..., None] * W_out
    A_bar = pos[..., None] * W_out
    ones = np.ones((1, pos.shape[1]))   # bias row sums as matmuls, 4x faster than .sum
    for l in range(L - 1, 0, -1):
        sp = sps[l]
        spp = -2.0 * acts[l] * sp
        U_bar = sp * T_bar
        Z_bar = spp * U[l] * T_bar
        Z_bar += sp * A_bar
        gW, gb = grads[l - 1]
        gW += U_bar.transpose(0, 2, 1) @ T[l - 1] + Z_bar.transpose(0, 2, 1) @ acts[l - 1]
        gb += ones @ Z_bar
        if l > 1:
            W_l = weights[l - 1][0]
            T_bar = U_bar @ W_l
            A_bar = Z_bar @ W_l


def loss_gradients(thetas, arch: Architecture, batch, cfg, values: bool = False):
    """Exact (B, n_params) gradients of the batch-mean tightened loss of B tasks.

    `thetas` is (B, n_params) or one vector for all tasks, `batch` an (X, Y)
    pair of (B, n, d) arrays. The origin rides along as row n of every task,
    x = 0 and y = 0 (so its tangent is 0), with positivity weight 2 V(0) and
    decrease weight 0. `values` adds the terms (V, grad_x V^T y, V(0)) of
    `loss.mean_loss`. Hinge subgradients at exactly zero arguments are 0.
    """
    X, Y = (np.concatenate([a, np.zeros_like(a[:, :1])], axis=1) for a in batch)
    n = X.shape[1] - 1
    weights = unpack(np.atleast_2d(thetas), arch)
    V, acts = _forward_sweep(weights, X)
    sps = _tanh_primes(acts)
    S, T, U = _tangent_sweep(weights, sps, Y)

    pos = np.where((cfg.eps1 - V) > 0.0, -1.0 / n, 0.0)
    pos[:, n] = 2.0 * V[:, n]
    dec = np.where((cfg.eps2 + S) > 0.0, 1.0 / n, 0.0)
    dec[:, n] = 0.0
    grad = np.zeros((len(V), arch.n_params))
    _backprop(weights, acts, sps, T, U, pos, dec, unpack(grad, arch))
    if not values:
        return grad
    lie = np.sum(_input_gradient(weights, sps)[:, :n] * batch[1], axis=2)
    return grad, (V[:, :n], lie, V[:, n])


def loss_gradient(theta, arch: Architecture, batch, cfg) -> np.ndarray:
    """Exact gradient of the batch-mean tightened loss w.r.t. theta; `batch` is
    an (X, Y) pair of (n, d) arrays, `cfg` carries the margins eps1 and eps2."""
    return loss_gradients(theta, arch, _one_task(batch), cfg)[0]


def finite_difference_hvp(grad_fn: Callable[[np.ndarray], np.ndarray],
                          theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central-difference Hessian-vector products for v (n,) or (P, n), with one
    `grad_fn` call on the stacked points theta + eps_p v_p, then theta - eps_p v_p;
    eps_p = 1e-4 / max(1, |v_p|), and a zero or non-finite v_p gives 0."""
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, theta.size)
    # 1-d norms row by row: norm(axis=1) sums in another order
    norms = np.array([np.linalg.norm(row) for row in rows])
    usable = ((norms != 0.0) & np.isfinite(norms))[:, None]
    eps = 1e-4 / np.maximum(1.0, np.where(usable[:, 0], norms, 1.0))[:, None]
    step = np.where(usable, eps * rows, 0.0)
    G = grad_fn(np.concatenate([theta + step, theta - step]))
    return np.where(usable, (G[:len(rows)] - G[len(rows):]) / (2.0 * eps), 0.0).reshape(v.shape)


def hvps(theta, arch: Architecture, batch, cfg, v) -> np.ndarray:
    """H_p v_p at one theta for P task batches (X, Y) of (P, n, d), in one sweep."""
    twice = tuple(np.concatenate([a, a]) for a in batch)
    return finite_difference_hvp(lambda points: loss_gradients(points, arch, twice, cfg), theta, v)


def hvp(theta, arch: Architecture, batch, cfg, v) -> np.ndarray:
    """H v with H the parameter Hessian of the batch tightened loss."""
    return hvps(theta, arch, _one_task(batch), cfg, v)


# the bowl fit: height at the region radius, fit points, Levenberg-Marquardt iterations,
# points per Jacobian chunk, and the damping's start, rise on a rejected and fall on an
# accepted step
INIT_SCALE, INIT_POINTS, INIT_ITERS, INIT_CHUNK = 3.0, 2048, 20, 256
INIT_DAMPING, INIT_DAMPING_UP, INIT_DAMPING_DOWN = 1.0, 4.0, 3.0


def _value_jacobian(theta, arch: Architecture, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V (n,) and dV/dtheta (n, n_params) at the rows of X (n, d), each row its own task."""
    weights = unpack(theta[None], arch)
    V, acts = _forward_sweep(weights, X[:, None, :])
    J = np.zeros((len(X), arch.n_params))
    _value_backprop(weights, acts, _tanh_primes(acts), np.ones((len(X), 1)), unpack(J, arch))
    return V[:, 0], J


def shaped_init(arch: Architecture, seed: int, radius: float) -> np.ndarray:
    """Bowl-shaped initialization: fit the net to INIT_SCALE * (|x| / radius)^2.

    Uses no dynamics data, only geometry; it replaces the raw random init with
    one whose value surface is already a clean radially increasing bowl, which
    gradient training then deforms. Deterministic given the seed. The fit is
    damped Gauss-Newton (Levenberg-Marquardt) on the mean squared residual over
    INIT_POINTS seeded points, from `init_params(arch, seed)`: each iteration
    solves (J^T J / N + mu I) step = -J^T r / N, with J^T J accumulated over
    chunks of INIT_CHUNK points, keeps the step only if it lowers the residual,
    and scales mu down on a kept step and up on a rejected one.
    """
    theta = init_params(arch, seed)
    X = sample_ball(np.random.default_rng(seed), INIT_POINTS, arch.input_dim, radius)
    target = INIT_SCALE * (np.linalg.norm(X, axis=1) / radius) ** 2

    def cost(theta):
        r = MlpLyapunov(theta, arch).value(X) - target
        return r @ r

    def normal_equations(theta):
        JtJ, Jtr = np.zeros((arch.n_params, arch.n_params)), np.zeros(arch.n_params)
        for start in range(0, INIT_POINTS, INIT_CHUNK):
            V, J = _value_jacobian(theta, arch, X[start:start + INIT_CHUNK])
            JtJ += J.T @ J
            Jtr += J.T @ (V - target[start:start + INIT_CHUNK])
        return JtJ / INIT_POINTS, Jtr / INIT_POINTS

    fit, damping = cost(theta), INIT_DAMPING
    JtJ, Jtr = normal_equations(theta)
    for _ in range(INIT_ITERS):
        trial = theta - np.linalg.solve(JtJ + damping * np.eye(arch.n_params), Jtr)
        trial_fit = cost(trial)
        if trial_fit < fit:
            theta, fit, damping = trial, trial_fit, damping / INIT_DAMPING_DOWN
            JtJ, Jtr = normal_equations(theta)
        else:
            damping *= INIT_DAMPING_UP
    return theta


class MlpLyapunov:
    """Batched value/gradient view of one parameter vector, for verification."""

    def __init__(self, theta, arch: Architecture):
        self._weights = unpack(np.array(theta, dtype=float)[None], arch)

    def value(self, X: np.ndarray) -> np.ndarray:
        V, _ = _forward_sweep(self._weights, np.atleast_2d(X)[None])
        return V[0]

    def gradient(self, X: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(X)[1]

    def value_and_gradient(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """V and grad_x V from one forward sweep; V is bit for bit `value(X)`. Nothing
        reads the hidden activations again, so tanh' overwrites them."""
        V, acts = _forward_sweep(self._weights, np.atleast_2d(X)[None])
        return V[0], _input_gradient(self._weights, _tanh_primes(acts, acts[1:]))[0]


def checkpoint_payload(theta, arch: Architecture, extra: dict | None = None) -> dict:
    """JSON checkpoint: architecture descriptor plus the flat parameter list.

    Floats are kept at full round-trip precision, so a reload reproduces
    forward outputs bitwise on the writing machine.
    """
    payload = {
        "arch": {"input_dim": arch.input_dim, "hidden": list(arch.hidden), "activation": "tanh"},
        "theta": [float(t) for t in np.asarray(theta).reshape(-1)],
    }
    if extra:
        payload["extra"] = extra
    return payload


def load_checkpoint(path) -> tuple[np.ndarray, Architecture, dict]:
    payload = json.loads(Path(path).read_text())
    if payload["arch"]["activation"] != "tanh":
        raise ValueError("only tanh hidden activations are supported")
    arch = Architecture(input_dim=payload["arch"]["input_dim"],
                        hidden=tuple(payload["arch"]["hidden"]))
    theta = np.asarray(payload["theta"], dtype=float)
    if theta.size != arch.n_params:
        raise ValueError("checkpoint parameter count does not match architecture")
    return theta, arch, payload.get("extra", {})
