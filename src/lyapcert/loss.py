"""Tightened Lyapunov hinge loss, the batch mean of pointwise terms.

The term of one sample penalizes violations of the margin-tightened Lyapunov
conditions at that sample (x, y = f(x)):

    max(0, eps1 - V(x)) + max(0, eps2 + grad V(x)^T y) + V(0)^2

It is zero exactly when V(x) >= eps1, the Lie derivative is <= -eps2 and
V(0) = 0. The margins are tunable during training; at verification time the
grid module checks cell bounds instead.
"""

from __future__ import annotations

import numpy as np

from . import net
from .config import TightenedLossConfig


class EmptyBatch(Exception):
    """The empirical loss is undefined on an empty sample list."""


def mean_loss(V, lie, v0, cfg: TightenedLossConfig):
    """Batch-mean loss from V(x), grad V(x)^T y and V(0), samples on the last
    axis: a stack of tasks (B, n) with V(0) of shape (B,) gives B losses."""
    return np.mean(np.maximum(0.0, cfg.eps1 - V) + np.maximum(0.0, cfg.eps2 + lie), axis=-1) + v0 * v0


def empirical_loss(theta, arch, batch, cfg: TightenedLossConfig) -> float:
    """Batch-mean loss of the network theta over samples (X, Y), fixed summation order."""
    X, Y = batch
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] == 0:
        raise EmptyBatch("empirical loss needs at least one sample")
    # V(0) as the last row of one sweep: the bits of `net.loss_gradients`' origin row
    V, grad = net.MlpLyapunov(theta, arch).value_and_gradient(
        np.vstack([X, np.zeros((1, arch.input_dim))]))
    return float(mean_loss(V[:-1], np.sum(grad[:-1] * Y, axis=1), V[-1], cfg))
