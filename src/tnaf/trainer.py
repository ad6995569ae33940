"""Gradient training loop: Adam, global-norm clipping, early stopping.

Validation runs every `eval_every` steps; the best-validation parameter
snapshot is restored into the model when training ends, whether by step
budget, patience, or a training fault.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import diffcore as dc
from .data import DatasetMatrix, Splits, batches
from .diffcore import ContractViolation, ParamSet
from .flow import FlowModel, log_prob, nll_loss


class TrainingFault(RuntimeError):
    """Non-finite loss or gradients; carries the failing step number."""

    def __init__(self, message: str, step: int):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_steps: int = 50_000
    clip_norm: float = 5.0
    patience: int = 20
    eval_every: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_steps < 0:
            raise ValueError("learning_rate, batch_size must be positive; max_steps >= 0")
        if self.clip_norm <= 0 or self.patience < 1 or self.eval_every < 1:
            raise ValueError("clip_norm, patience, eval_every must be positive")


@dataclass
class TrainReport:
    history: list[tuple[int, float, float]] = field(default_factory=list)
    best_step: Optional[int] = None
    best_val_nll: Optional[float] = None
    wall_seconds: float = 0.0


class Adam:
    """Bias-corrected adaptive-moment optimizer (beta1=0.9, beta2=0.999)."""

    def __init__(self, params: ParamSet, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.value) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.value) for name, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            p.value -= lr * (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.eps)
            if dc.is_checked():
                dc.check_finite(p.value, f"parameter {name} after step {self.t}")
        self.params.zero_grad()


def clip_gradients(params: ParamSet, clip_norm: float, step: int = 0) -> float:
    """Scale all gradients so their global L2 norm is at most clip_norm.

    Returns the pre-clip norm.  Non-finite gradients abort training.
    """
    total = 0.0
    for _, p in params.items():
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise TrainingFault("non-finite gradient", step)
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > clip_norm:
        scale = clip_norm / norm
        for _, p in params.items():
            p.grad = p.grad * scale
    return norm


def evaluate(model: FlowModel, matrix: DatasetMatrix,
             chunk: int = 4096) -> tuple[float, float]:
    """Mean per-row log-likelihood and its standard error (no-grad)."""
    rows = matrix.data
    if rows.shape[0] < 1:
        raise ValueError("cannot evaluate on an empty matrix")
    logps = []
    for start in range(0, rows.shape[0], chunk):
        logps.append(log_prob(model, rows[start:start + chunk]).logp)
    lp = np.concatenate(logps)
    mean_ll = float(lp.mean())
    std_err = float(lp.std(ddof=1) / np.sqrt(lp.size)) if lp.size > 1 else 0.0
    return mean_ll, std_err


def _validate(model: FlowModel, splits: Splits, report: TrainReport, step: int,
              train_nll: float, log_fn: Optional[Callable[[str], None]]) -> float:
    val_ll, _ = evaluate(model, splits.val)
    val_nll = -val_ll
    report.history.append((step, train_nll, val_nll))
    if log_fn is not None:
        log_fn(f"step={step} train_nll={train_nll:.6f} val_nll={val_nll:.6f}")
    return val_nll


def train(model: FlowModel, splits: Splits, cfg: TrainConfig,
          log_fn: Optional[Callable[[str], None]] = None) -> TrainReport:
    """Run the training loop; the model ends up holding the best-val weights."""
    t0 = time.perf_counter()
    report = TrainReport()
    if cfg.max_steps == 0:
        report.wall_seconds = time.perf_counter() - t0
        return report

    opt = Adam(model.params)
    best_snap = model.params.snapshot()
    best_val = np.inf
    stale = 0
    step = 0
    epoch = 0
    batch_iter = batches(splits.train, cfg.batch_size, cfg.seed, epoch)

    while step < cfg.max_steps:
        step += 1
        try:
            batch = next(batch_iter)
        except StopIteration:
            epoch += 1
            batch_iter = batches(splits.train, cfg.batch_size, cfg.seed, epoch)
            batch = next(batch_iter)
        try:
            loss = nll_loss(model, batch)
            loss_val = float(loss.value)
            if not np.isfinite(loss_val):
                raise TrainingFault("non-finite loss", step)
            dc.backward(loss)
            clip_gradients(model.params, cfg.clip_norm, step)
            opt.step(cfg.learning_rate)
        except (TrainingFault, ContractViolation) as err:
            model.params.restore(best_snap)
            if isinstance(err, TrainingFault):
                raise
            raise TrainingFault(str(err), step) from err

        if step % cfg.eval_every == 0:
            val_nll = _validate(model, splits, report, step, loss_val, log_fn)
            if val_nll < best_val:
                best_val = val_nll
                report.best_step = step
                best_snap = model.params.snapshot()
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

    if step % cfg.eval_every != 0:
        # final state still competes even when the budget is not a multiple
        # of the validation cadence
        val_nll = _validate(model, splits, report, step, loss_val, log_fn)
        if val_nll < best_val:
            best_val = val_nll
            report.best_step = step
            best_snap = model.params.snapshot()

    model.params.restore(best_snap)
    if np.isfinite(best_val):
        report.best_val_nll = float(best_val)
    report.wall_seconds = time.perf_counter() - t0
    return report
