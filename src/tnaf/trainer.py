"""Gradient training loop: Adam, global-norm clipping, early stopping.

Each step computes in mixed precision (Micikevicius et al. 2018,
arXiv:1710.03740): the loss and its gradients come from a float32 graph over
float32 copies of the parameters and of the batch, and each gradient is
widened into its float64 master parameter.  Clipping, Adam (its moments as
well as the masters) and validation run in float64, as does every density
the model reports outside training.

Validation runs every `eval_every` steps and after the last step; the
best-validation parameter snapshot is restored into the model when training
ends, whether by step budget, patience, or a training fault.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import diffcore as dc
from .conditioner import require_ints, require_positive_reals
from .data import DatasetMatrix, Splits, batches
from .diffcore import ParamSet
from .flow import ROW_BLOCK, FlowModel, log_prob, nll_loss

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        require_ints(1, batch_size=self.batch_size, patience=self.patience,
                     eval_every=self.eval_every)
        require_ints(0, max_steps=self.max_steps, seed=self.seed)
        require_positive_reals(learning_rate=self.learning_rate, clip_norm=self.clip_norm)


@dataclass
class TrainReport:
    history: list[tuple[int, float, float]] = field(default_factory=list)
    best_step: Optional[int] = None
    best_val_nll: Optional[float] = None
    wall_seconds: float = 0.0


class Adam:
    """Bias-corrected adaptive-moment optimizer (ADAM_BETA1, ADAM_BETA2,
    ADAM_EPS)."""

    def __init__(self, params: ParamSet):
        self.params = params
        self.t = 0
        self.m = {name: np.zeros_like(p.value) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.value) for name, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * (g * g)
            p.value -= lr * (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + ADAM_EPS)
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


def float32_gradients(model: FlowModel, batch: np.ndarray, step: int = 0) -> float:
    """The batch's mean NLL and its parameter gradients, computed in float32.

    `nll_loss` and `backward` run on float32 leaf copies of the parameters,
    with the batch cast to float32; each copy's gradient is then widened into
    the float64 master's `.grad`, replacing what it held.  Returns the float32
    loss as a float.  A non-finite loss raises TrainingFault.
    """
    shadow = ParamSet()
    for name, p in model.params.items():
        shadow.add(name, p.value.astype(np.float32))
    loss = nll_loss(replace(model, params=shadow), np.asarray(batch, dtype=np.float32))
    loss_val = float(loss.value)
    if not np.isfinite(loss_val):
        raise TrainingFault("non-finite loss", step)
    dc.backward(loss)
    for name, p in model.params.items():
        p.grad = shadow[name].grad.astype(np.float64)
    return loss_val


def evaluate(model: FlowModel, matrix: DatasetMatrix) -> tuple[float, float]:
    """Mean per-row log-likelihood and its standard error (no-grad), ROW_BLOCK
    rows per log_prob call."""
    rows = matrix.data
    if rows.shape[0] < 1:
        raise ValueError("cannot evaluate on an empty matrix")
    lp = np.concatenate([log_prob(model, rows[start:start + ROW_BLOCK]).logp
                         for start in range(0, rows.shape[0], ROW_BLOCK)])
    mean_ll = float(lp.mean())
    std_err = float(lp.std(ddof=1) / np.sqrt(lp.size)) if lp.size > 1 else 0.0
    return mean_ll, std_err


def train(model: FlowModel, splits: Splits, cfg: TrainConfig,
          log_fn: Optional[Callable[[str], None]] = None) -> TrainReport:
    """Run the training loop; the model ends up holding the best-val weights."""
    if splits.train.n_rows < 1:
        raise ValueError("cannot train on an empty matrix")
    t0 = time.perf_counter()
    report = TrainReport()
    opt = Adam(model.params)
    best_snap = model.params.snapshot()
    best_val = np.inf
    stale = 0
    # every epoch's reshuffle in turn, `batches` looked up per epoch (a tracer patches it)
    stream = itertools.chain.from_iterable(
        batches(splits.train, cfg.batch_size, cfg.seed, epoch) for epoch in itertools.count())

    for step, batch in zip(range(1, cfg.max_steps + 1), stream):
        try:
            loss_val = float32_gradients(model, batch, step)
            clip_gradients(model.params, cfg.clip_norm, step)
            opt.step(cfg.learning_rate)
        except TrainingFault:
            model.params.restore(best_snap)
            raise

        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            val_nll = -evaluate(model, splits.val)[0]
            report.history.append((step, loss_val, val_nll))
            if log_fn is not None:
                log_fn(f"step={step} train_nll={loss_val:.6f} val_nll={val_nll:.6f}")
            if val_nll < best_val:
                best_val = val_nll
                report.best_step = step
                best_snap = model.params.snapshot()
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

    model.params.restore(best_snap)
    if np.isfinite(best_val):
        report.best_val_nll = float(best_val)
    report.wall_seconds = time.perf_counter() - t0
    return report
