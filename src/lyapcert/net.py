"""The Lyapunov network: a small tanh MLP with a hand-written derivative engine.

Everything is computed analytically from the flat parameter vector: the scalar
value V(x), its input gradient grad_x V (needed for Lie derivatives), and the
parameter gradient of the tightened hinge loss. The latter contains the term
d/dtheta [grad_x V(x)^T y], i.e. mixed second derivatives, which are obtained
by reverse-mode differentiation *through* the forward tangent sweep rather
than by a general autodiff graph. Hessian-vector products for second-order
meta-gradients use a central finite difference of the loss gradient.

Conventions: hidden activations are tanh (smooth, globally Lipschitz), the
output layer is linear and scalar, and the hinge subgradient at an exactly
zero argument is taken as 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Architecture:
    input_dim: int
    hidden: tuple[int, ...] = (16, 16)
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1 or len(self.hidden) < 1 or min(self.hidden) < 1:
            raise ValueError("need input_dim >= 1 and at least one hidden layer of width >= 1")
        if self.activation != "tanh":
            raise ValueError("only tanh hidden activations are supported")

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden, 1)
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    @property
    def n_params(self) -> int:
        return sum(rows * cols + rows for rows, cols in self.layer_shapes)


def param_slices(arch: Architecture) -> list[tuple[slice, tuple[int, int], slice]]:
    """Flat-offset map: per layer, the weight slice, its shape, and the bias slice."""
    out = []
    offset = 0
    for rows, cols in arch.layer_shapes:
        w = slice(offset, offset + rows * cols)
        offset += rows * cols
        b = slice(offset, offset + rows)
        offset += rows
        out.append((w, (rows, cols), b))
    return out


def unpack(theta: np.ndarray, arch: Architecture) -> list[tuple[np.ndarray, np.ndarray]]:
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != arch.n_params:
        raise ValueError(f"theta has {theta.size} entries, architecture needs {arch.n_params}")
    return [(theta[w].reshape(shape), theta[b]) for w, shape, b in param_slices(arch)]


def pack(layers, arch: Architecture) -> np.ndarray:
    theta = np.empty(arch.n_params)
    for (w, shape, b), (W, bias) in zip(param_slices(arch), layers):
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


def _forward_sweep(weights, X: np.ndarray):
    """Primal pass; returns (V (n,), activations [A_0..A_{L-1}]) with A_0 = X."""
    acts = [X]
    A = X
    for W, b in weights[:-1]:
        A = np.tanh(A @ W.T + b)
        acts.append(A)
    W_out, b_out = weights[-1]
    V = (A @ W_out.T + b_out)[:, 0]
    return V, acts


def forward_batch(theta, arch: Architecture, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V, _ = _forward_sweep(unpack(theta, arch), X)
    return V


def forward(theta, arch: Architecture, x) -> float:
    return float(forward_batch(theta, arch, np.asarray(x, dtype=float).reshape(1, -1))[0])


def _input_gradient_from_acts(weights, acts) -> np.ndarray:
    delta = np.ones((acts[0].shape[0], 1))
    for l in range(len(weights) - 1, 0, -1):
        W_l = weights[l][0]
        delta = (delta @ W_l) * (1.0 - acts[l] ** 2)
    return delta @ weights[0][0]


def input_gradient_batch(theta, arch: Architecture, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    weights = unpack(theta, arch)
    _, acts = _forward_sweep(weights, X)
    return _input_gradient_from_acts(weights, acts)


def input_gradient(theta, arch: Architecture, x) -> np.ndarray:
    return input_gradient_batch(theta, arch, np.asarray(x, dtype=float).reshape(1, -1))[0]


def _tangent_sweep(weights, acts, Y: np.ndarray):
    """Forward-mode pass along direction Y; returns (S (n,), tangents T, U).

    S is the directional derivative grad_x V^T y per row; T_l and U_l are the
    post-/pre-activation tangents needed by the reverse sweep.
    """
    T = [Y]
    U = [None]
    for l, (W, _b) in enumerate(weights[:-1], start=1):
        u = T[l - 1] @ W.T
        U.append(u)
        T.append((1.0 - acts[l] ** 2) * u)
    W_out = weights[-1][0]
    S = (T[-1] @ W_out.T)[:, 0]
    return S, T, U


def _value_backprop(weights, acts, out_weights: np.ndarray, grads) -> None:
    """Accumulate d(sum_b w_b V_b)/dtheta into per-layer grad arrays."""
    delta = out_weights[:, None]
    for l in range(len(weights) - 1, -1, -1):
        gW, gb = grads[l]
        gW += delta.T @ acts[l]
        gb += delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l][0]) * (1.0 - acts[l] ** 2)


def _tangent_backprop(weights, acts, T, U, out_weights: np.ndarray, grads) -> None:
    """Accumulate d(sum_b w_b S_b)/dtheta, S_b = grad_x V(x_b)^T y_b.

    Reverse sweep through the tangent program: sigma''(z) terms couple the
    primal and tangent chains, which is where the mixed second derivatives
    of V enter.
    """
    L = len(weights)
    W_out = weights[-1][0]
    gW_out, _gb_out = grads[-1]
    gW_out += out_weights[None, :] @ T[L - 1]
    T_bar = out_weights[:, None] * W_out
    A_bar = None
    for l in range(L - 1, 0, -1):
        A_l = acts[l]
        sp = 1.0 - A_l ** 2
        spp = -2.0 * A_l * sp
        U_bar = sp * T_bar
        Z_bar = spp * U[l] * T_bar
        if A_bar is not None:
            Z_bar += sp * A_bar
        gW, gb = grads[l - 1]
        gW += U_bar.T @ T[l - 1] + Z_bar.T @ acts[l - 1]
        gb += Z_bar.sum(axis=0)
        if l > 1:
            W_l = weights[l - 1][0]
            T_bar = U_bar @ W_l
            A_bar = Z_bar @ W_l


def loss_gradient(theta, arch: Architecture, batch, cfg) -> np.ndarray:
    """Exact gradient of the batch-mean tightened loss w.r.t. theta.

    `batch` is an (X, Y) pair of (n, d) arrays; `cfg` carries the margins
    eps1 (positivity) and eps2 (decrease). Hinge subgradients at exactly
    zero arguments are 0, so the gradient is the one-sided derivative there.
    """
    X, Y = batch
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    weights = unpack(theta, arch)
    V, acts = _forward_sweep(weights, X)
    S, T, U = _tangent_sweep(weights, acts, Y)

    grads = [(np.zeros_like(W), np.zeros_like(b)) for W, b in weights]

    pos_active = (cfg.eps1 - V) > 0.0
    if np.any(pos_active):
        _value_backprop(weights, acts, np.where(pos_active, -1.0 / n, 0.0), grads)
    dec_active = (cfg.eps2 + S) > 0.0
    if np.any(dec_active):
        _tangent_backprop(weights, acts, T, U, np.where(dec_active, 1.0 / n, 0.0), grads)

    x0 = np.zeros((1, arch.input_dim))
    V0, acts0 = _forward_sweep(weights, x0)
    if V0[0] != 0.0:
        _value_backprop(weights, acts0, np.array([2.0 * V0[0]]), grads)

    return pack(grads, arch)


def finite_difference_hvp(grad_fn: Callable[[np.ndarray], np.ndarray],
                          theta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Central-difference Hessian-vector product of any gradient field."""
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0 or not np.isfinite(norm):
        return np.zeros_like(theta)
    eps = 1e-4 / max(1.0, norm)
    return (grad_fn(theta + eps * v) - grad_fn(theta - eps * v)) / (2.0 * eps)


def hvp(theta, arch: Architecture, batch, cfg, v) -> np.ndarray:
    """H v with H the parameter Hessian of the batch tightened loss."""
    return finite_difference_hvp(lambda t: loss_gradient(t, arch, batch, cfg), theta, v)


def shaped_init(arch: Architecture, seed: int, radius: float, scale: float = 3.0,
                n_points: int = 2048, steps: int = 2000, lr: float = 0.05) -> np.ndarray:
    """Bowl-shaped initialization: regress the net onto scale * (|x| / radius)^2.

    Uses no dynamics data, only geometry; it replaces the raw random init with
    one whose value surface is already a clean radially increasing bowl, which
    gradient training then deforms. Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    theta = init_params(arch, seed)
    direction = rng.normal(size=(n_points, arch.input_dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    X = direction * (radius * rng.random(n_points) ** (1.0 / arch.input_dim))[:, None]
    target = scale * (np.linalg.norm(X, axis=1) / radius) ** 2
    for _ in range(steps):
        weights = unpack(theta, arch)
        V, acts = _forward_sweep(weights, X)
        grads = [(np.zeros_like(W), np.zeros_like(b)) for W, b in weights]
        _value_backprop(weights, acts, 2.0 * (V - target) / n_points, grads)
        theta = theta - lr * pack(grads, arch)
    return theta


class MlpLyapunov:
    """Batched value/gradient view of one parameter vector, for verification."""

    def __init__(self, theta, arch: Architecture):
        self._weights = unpack(np.array(theta, dtype=float), arch)

    def value(self, X: np.ndarray) -> np.ndarray:
        V, _ = _forward_sweep(self._weights, np.atleast_2d(X))
        return V

    def gradient(self, X: np.ndarray) -> np.ndarray:
        _, acts = _forward_sweep(self._weights, np.atleast_2d(X))
        return _input_gradient_from_acts(self._weights, acts)


def checkpoint_payload(theta, arch: Architecture, extra: dict | None = None) -> dict:
    payload = {
        "arch": {"input_dim": arch.input_dim, "hidden": list(arch.hidden),
                 "activation": arch.activation},
        "theta": [float(t) for t in np.asarray(theta).reshape(-1)],
    }
    if extra:
        payload["extra"] = extra
    return payload


def save_checkpoint(path, theta, arch: Architecture, extra: dict | None = None) -> None:
    """JSON checkpoint: architecture descriptor plus the flat parameter list.

    Floats are serialized at full round-trip precision, so a reload
    reproduces forward outputs bitwise on the writing machine. The file is
    written atomically (temp + rename).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(checkpoint_payload(theta, arch, extra)))
    tmp.replace(path)


def load_checkpoint(path) -> tuple[np.ndarray, Architecture, dict]:
    payload = json.loads(Path(path).read_text())
    arch = Architecture(input_dim=payload["arch"]["input_dim"],
                        hidden=tuple(payload["arch"]["hidden"]),
                        activation=payload["arch"]["activation"])
    theta = np.asarray(payload["theta"], dtype=float)
    if theta.size != arch.n_params:
        raise ValueError("checkpoint parameter count does not match architecture")
    return theta, arch, payload.get("extra", {})
