"""MAML training of the Lyapunov network and k-step test-time adaptation.

One meta-step: sample P tasks with replacement, draw one mini-batch per task,
take a single inner gradient step on each train half, evaluate the adapted
parameters on the test half, and descend the mean meta-gradient. The
second-order mode differentiates through the inner step via a Hessian-vector
product; the first-order mode drops the inner Jacobian (cheaper, standard
practice). Plain gradient descent throughout, no optimizer state; a run that
ends far above the least loss on its curve raises DivergedLoss. Each stage
of a meta-step (inner gradients at theta, outer gradients and losses at the P
adapted vectors, HVPs at the 2P points theta +- eps_p g_p) is one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net
from .config import MetaBlock
from .loss import TightenedLossConfig, mean_loss

Batch = tuple[np.ndarray, np.ndarray]

# a run whose last step loss exceeds this multiple of the least on its curve (or of
# the loss of V = 0, if larger) has diverged
DIVERGENCE_RATIO = 1000.0


class NonFiniteLoss(Exception):
    """Training produced a non-finite loss, gradient or parameters; the message names the
    loop and the step, which the exception carries."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class DivergedLoss(NonFiniteLoss):
    """Training ended at a finite loss far above the least on its loss curve."""


@dataclass(frozen=True, eq=False)
class MetaTrainReport:
    theta_mnlf: np.ndarray
    loss_curve: np.ndarray        # per-meta-step mean adapted loss


def meta_gradients(theta, arch: net.Architecture, s_tr: Batch, s_te: Batch, inner_lr: float,
                   loss_cfg: TightenedLossConfig, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Meta-gradients (P, n_params) and post-adaptation test losses (P,) of P tasks at
    one theta; `s_tr` and `s_te` are (X, Y) pairs of (P, n, d) arrays. Each task adapts
    by one inner step theta - inner_lr * grad on its train half and is scored on its
    test half."""
    adapted = theta - inner_lr * net.loss_gradients(theta, arch, s_tr, loss_cfg)
    g_te, terms = net.loss_gradients(adapted, arch, s_te, loss_cfg, values=True)
    if mode == "second_order":
        # chain rule through theta' = theta - inner_lr * grad(theta):
        # d/dtheta L(theta') = (I - inner_lr H_tr(theta)) g_te(theta')
        g_te = g_te - inner_lr * net.hvps(theta, arch, s_tr, loss_cfg, g_te)
    return g_te, mean_loss(*terms, loss_cfg)


def meta_train(family: tuple[np.ndarray, ...], arch: net.Architecture, meta_cfg: MetaBlock,
               loss_cfg: TightenedLossConfig, seed: int, theta0: np.ndarray) -> MetaTrainReport:
    """Full meta-training run from theta0, deterministic given the seed, over a task
    family's stacked datasets (X_tr, Y_tr, X_te, Y_te), each (tasks, batches, rows, d)."""
    rng = np.random.default_rng(seed)
    theta = theta0
    n_tasks, m_batches = family[0].shape[:2]

    curve = np.empty(meta_cfg.meta_steps)
    with np.errstate(over="ignore", invalid="ignore"):   # a diverged step raises below
        for step in range(meta_cfg.meta_steps):
            # per pick a task index, then one of its batches (the stream of interleaved
            # scalar draws); gathered to (P, n, d) arrays
            t, b = rng.integers((n_tasks, m_batches), size=(meta_cfg.tasks_per_step, 2)).T
            X_tr, Y_tr, X_te, Y_te = (a[t, b] for a in family)
            grads, losses = meta_gradients(theta, arch, (X_tr, Y_tr), (X_te, Y_te),
                                           meta_cfg.inner_lr, loss_cfg, meta_cfg.mode)
            # both sums in task order: losses.sum() adds 8 or more pairwise, rounding otherwise
            theta = theta - meta_cfg.meta_lr * (grads.sum(axis=0) / meta_cfg.tasks_per_step)
            mean_step_loss = float(np.cumsum(losses)[-1]) / meta_cfg.tasks_per_step
            if not (np.isfinite(mean_step_loss) and np.all(np.isfinite(theta))):
                raise NonFiniteLoss(f"non-finite loss or parameters at meta-step {step}", step)
            curve[step] = mean_step_loss
    # floored at the loss of V = 0, eps1 + eps2: a hinge loss near 0 on some batch
    # does not make a noisy last step a divergence
    least = max(float(curve.min()), loss_cfg.eps1 + loss_cfg.eps2)
    if curve[-1] > DIVERGENCE_RATIO * least:
        raise DivergedLoss(f"diverged: loss {curve[-1]:.4g} at the last meta-step, "
                           f"{len(curve) - 1}, is over {DIVERGENCE_RATIO:g} times {least:.4g}, "
                           "the least loss or the loss of V = 0 if larger", len(curve) - 1)
    return MetaTrainReport(theta_mnlf=theta, loss_curve=curve)


def test_time_adapt(theta_mnlf, arch, s_tr: Batch, alpha: float, k: int,
                    loss_cfg: TightenedLossConfig) -> np.ndarray:
    """k repeated full-batch inner steps from the meta-parameters; NonFiniteLoss if one diverges."""
    theta = np.asarray(theta_mnlf, dtype=float).copy()
    with np.errstate(over="ignore", invalid="ignore"):   # a diverged step raises below
        for step in range(k):
            theta = theta - alpha * net.loss_gradient(theta, arch, s_tr, loss_cfg)
            if not np.all(np.isfinite(theta)):
                raise NonFiniteLoss(f"non-finite gradient or parameters at test-time step {step}",
                                    step)
    return theta
