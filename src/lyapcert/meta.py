"""MAML training of the Lyapunov network and k-step test-time adaptation.

One meta-step: sample P tasks with replacement, draw one mini-batch per task,
take a single inner gradient step on each train half, evaluate the adapted
parameters on the test half, and descend the mean meta-gradient. The
second-order mode differentiates through the inner step via a Hessian-vector
product; the first-order mode drops the inner Jacobian (cheaper, standard
practice). Plain gradient descent throughout, no optimizer state. Each stage
of a meta-step (inner gradients at theta, outer gradients and losses at the P
adapted vectors, HVPs at the 2P points theta +- eps_p g_p) is one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import net
from .config import MetaBlock
from .dynamics import TaskDataset
from .loss import TightenedLossConfig, mean_loss

Batch = tuple[np.ndarray, np.ndarray]


class NonFiniteLoss(Exception):
    """Training produced a non-finite loss; carries the meta-step index."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value!r} at meta-step {step}")
        self.step = step


@dataclass(frozen=True, eq=False)
class MetaTrainReport:
    theta_mnlf: np.ndarray
    loss_curve: np.ndarray        # per-meta-step mean adapted loss
    seed: int


def meta_gradients(theta, arch: net.Architecture, s_tr: Batch, s_te: Batch, inner_lr: float,
                   loss_cfg: TightenedLossConfig, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Meta-gradients (P, n_params) and post-adaptation test losses (P,) of P tasks at
    one theta; `s_tr` and `s_te` are (X, Y) pairs of (P, n, d) arrays. Each task adapts
    by one inner step theta - inner_lr * grad on its train half and is scored on its
    test half."""
    adapted = theta - inner_lr * net.loss_gradients(theta, arch, s_tr, loss_cfg)
    g_te, terms = net.loss_gradients(adapted, arch, s_te, loss_cfg, values=True)
    if mode == "second_order" and inner_lr != 0.0:
        # chain rule through theta' = theta - inner_lr * grad(theta):
        # d/dtheta L(theta') = (I - inner_lr H_tr(theta)) g_te(theta')
        g_te = g_te - inner_lr * net.hvps(theta, arch, s_tr, loss_cfg, g_te)
    return g_te, mean_loss(*terms, loss_cfg)


def meta_train(tasks: Sequence[TaskDataset], arch: net.Architecture, meta_cfg: MetaBlock,
               loss_cfg: TightenedLossConfig, seed: int, theta0: np.ndarray) -> MetaTrainReport:
    """Full meta-training run over the task datasets from theta0, deterministic given the seed."""
    if len(tasks) < 1 or any(t.n_batches < 1 for t in tasks):
        raise ValueError("need at least one task, each with at least one mini-batch")
    if len({(tr[0].shape, te[0].shape) for t in tasks for tr, te in t.batches}) > 1:
        raise ValueError("every mini-batch of every task needs the same train and test shapes")
    rng = np.random.default_rng(seed)
    theta = theta0

    curve = np.empty(meta_cfg.meta_steps)
    for step in range(meta_cfg.meta_steps):
        # per pick: a task index, then one of its batches; stacked to (P, n, d) arrays
        picks = [t.batches[rng.integers(t.n_batches)]
                 for t in (tasks[rng.integers(len(tasks))] for _ in range(meta_cfg.tasks_per_step))]
        s_tr, s_te = (tuple(np.array(a, dtype=float) for a in zip(*half)) for half in zip(*picks))
        grads, losses = meta_gradients(theta, arch, s_tr, s_te, meta_cfg.inner_lr, loss_cfg,
                                       meta_cfg.mode)
        grad_sum = np.zeros_like(theta)
        loss_sum = 0.0
        for g, task_loss in zip(grads, losses.tolist()):
            grad_sum += g
            loss_sum += task_loss
        mean_step_loss = loss_sum / meta_cfg.tasks_per_step
        if not np.isfinite(mean_step_loss):
            raise NonFiniteLoss(step, mean_step_loss)
        curve[step] = mean_step_loss
        theta = theta - meta_cfg.meta_lr * (grad_sum / meta_cfg.tasks_per_step)
    return MetaTrainReport(theta_mnlf=theta, loss_curve=curve, seed=seed)


def test_time_adapt(theta_mnlf, arch, s_tr: Batch, alpha: float, k: int,
                    loss_cfg: TightenedLossConfig) -> np.ndarray:
    """k repeated full-batch inner steps from the meta-parameters."""
    if k < 0:
        raise ValueError("k must be >= 0")
    theta = np.asarray(theta_mnlf, dtype=float).copy()
    for _ in range(k):
        theta = theta - alpha * net.loss_gradient(theta, arch, s_tr, loss_cfg)
    return theta


def export_report_json(report: MetaTrainReport, meta_cfg: MetaBlock,
                       checkpoint_ref: str) -> dict:
    """JSON-ready view of a training run (timing excluded: artifacts are
    reproducible bitwise, wall time is not)."""
    return {
        "config": {
            "inner_lr": meta_cfg.inner_lr,
            "meta_lr": meta_cfg.meta_lr,
            "tasks_per_step": meta_cfg.tasks_per_step,
            "meta_steps": meta_cfg.meta_steps,
            "k_test": meta_cfg.k_test,
            "mode": meta_cfg.mode,
            "seed": report.seed,
        },
        "loss_curve": [float(v) for v in report.loss_curve],
        "checkpoint": checkpoint_ref,
    }
