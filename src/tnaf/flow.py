"""Density model assembly: conditioner + head + base distribution.

The map x -> y is autoregressive with a lower-triangular Jacobian, so the
exact log-likelihood is the base log-density of y plus the sum of the
per-dimension log-derivatives.  Sampling inverts one dimension at a time,
re-running the conditioner on the partially filled vector (causality makes
the not-yet-filled positions irrelevant).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import transforms as tf
from .conditioner import (
    ConditionerConfig,
    condition,
    conditioner_param_count,
    init_conditioner_params,
    linear,
    uniform_init,
)
from .diffcore import ContractViolation, DimensionError, Node, ParamSet

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class BaseDistribution:
    kind: str  # "standard_normal" | "unit_uniform"

    def log_density(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "standard_normal":
            return -0.5 * (y * y).sum(axis=-1) - 0.5 * y.shape[-1] * LOG_2PI
        return np.zeros(y.shape[:-1])

    def log_density_node(self, y: Node) -> Node:
        n, d = y.value.shape
        if self.kind == "standard_normal":
            quad = dc.mul(-0.5, dc.sum_(dc.mul(y, y), axis=1))
            return dc.add(quad, -0.5 * d * LOG_2PI)
        return dc.constant(np.zeros(n))

    def sample(self, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
        if self.kind == "standard_normal":
            return rng.standard_normal((n, d))
        return rng.random((n, d))

    def check_support(self, y: np.ndarray) -> None:
        # outputs exactly 0.0/1.0 are float64 underflow of the open-interval
        # map at extreme inputs (their density is carried by the logdet term,
        # which stays finite); anything strictly outside [0, 1] is a broken
        # transform
        if self.kind == "unit_uniform" and not np.all((y >= 0.0) & (y <= 1.0)):
            raise ContractViolation(
                "uniform-base flow produced outputs outside [0, 1]"
            )


@dataclass
class ModelConfig:
    """Architecture of one flow: conditioner shape plus head hyperparameters."""

    D: int
    head_type: str = "cdf"
    E: int = 32
    heads: int = 8
    layers: int = 3
    mlp_hidden: int = 64
    cdf_hidden: int = 128     # H, hidden width of the monotone net heads
    spline_bins: int = 8      # K
    spline_bound: float = 3.0  # B, identity outside [-B, B]
    spline_blocks: int = 2    # J

    def __post_init__(self):
        if self.head_type not in HEADS:
            raise DimensionError(
                f"head_type must be one of {tuple(HEADS)}, got {self.head_type!r}"
            )
        self.head().validate()

    def head(self) -> Head:
        return HEADS[self.head_type](self)

    def conditioner_config(self) -> ConditionerConfig:
        return ConditionerConfig(
            D=self.D,
            E=self.E,
            heads=self.heads,
            L=self.layers,
            mlp_hidden=self.mlp_hidden,
        )


def project_head(hidden: Node, params: ParamSet, prefix: str = "head") -> Node:
    """Linear projection of hidden embeddings to a head's pseudo-parameters."""
    return linear(hidden, params[prefix + ".w"], params[prefix + ".b"])


def _psi_values(hidden_i: np.ndarray, params: ParamSet, prefix: str = "head") -> np.ndarray:
    """project_head on one position's hidden rows [N, E] (inversion path)."""
    return project_head(dc.constant(hidden_i), params, prefix).value


def _require_positive_ints(**values) -> None:
    for name, value in values.items():
        if not isinstance(value, numbers.Integral) or value < 1:
            raise DimensionError(f"{name} must be an integer >= 1, got {value!r}")


# ---------------------------------------------------------------------------
# heads: one object per transform family, registered in HEADS
# ---------------------------------------------------------------------------


@dataclass
class Head:
    """One per-dimension invertible transform, parameterized per position by
    the conditioner's hidden embeddings [N, D, E].

    Besides the defaults below, a head implements:

    * ``init(params, rng)``: add its parameters after the conditioner's,
      drawing from the build RNG;
    * ``param_count()``: closed-form count of what ``init`` adds;
    * ``psi_count()``: pseudo-parameters emitted per input vector;
    * ``forward(x, hidden, params)``: the graph map x [N, D] ->
      (y [N, D], per-dimension logdet [N, D]);
    * ``inverse(params, hidden_i, target, i, state)``: column i of x from
      column i of y, given the hidden rows [N, E] at position i.

    Transforms and ``project_head`` are looked up as module attributes at
    call time, so code that patches them (a tracer, say) sees every call.
    """

    cfg: ModelConfig
    base_kind = "standard_normal"
    inversion_tol = 1e-9  # flow-level round-trip tolerance of check_inversion

    def validate(self) -> None:
        """Reject out-of-range hyperparameters (raises DimensionError)."""

    def describe(self) -> str | None:
        """Hyperparameter line for `tnaf inspect`, if the head has any."""
        return None

    def inverse_state(self, params: ParamSet, n: int):
        """Scratch carried across the dimensions of one inversion."""
        return None


class _ProjectedHead(Head):
    """Head whose per-position pseudo-parameters are one linear projection
    `head.{w,b}` of the hidden embedding, `width` values per position."""

    def init(self, params, rng):
        e = self.cfg.E
        params.add("head.w", uniform_init(rng, e, (e, self.width)))
        params.add("head.b", np.zeros(self.width))

    def param_count(self):
        return (self.cfg.E + 1) * self.width

    def psi_count(self):
        return self.cfg.D * self.width


class AffineHead(_ProjectedHead):
    """y = mu + exp(log_sigma) * x, psi = [mu | log_sigma]."""

    width = 2

    def forward(self, x, hidden, params):
        return tf.affine_forward_node(x, project_head(hidden, params))

    def inverse(self, params, hidden_i, target, i, state):
        return tf.affine_inverse_np(target, _psi_values(hidden_i, params))


class CdfHead(_ProjectedHead):
    """Per-position monotone net sigma(sum exp(w2) tanh(exp(w1) x + b1) + b2),
    psi = [w1 | b1 | w2 | b2]; lands in (0, 1), so pairs with the uniform base."""

    base_kind = "unit_uniform"
    # bisection error compounds across dimensions via the conditioner
    inversion_tol = 1e-4

    @property
    def width(self):
        return 3 * self.cfg.cdf_hidden + 1

    def validate(self):
        _require_positive_ints(H=self.cfg.cdf_hidden)

    def describe(self):
        return f"H={self.cfg.cdf_hidden}"

    def init(self, params, rng):
        super().init(params, rng)
        # exp(w2) must sum to ~1 at init or the sigmoid saturates to exactly
        # 0/1 in float64, breaking the uniform-base support invariant before
        # the first step; bias the w2 slots of the projection accordingly.
        h = self.cfg.cdf_hidden
        params["head.b"].value[2 * h:3 * h] = -np.log(h)

    def forward(self, x, hidden, params):
        return tf.cdf_forward_node(x, project_head(hidden, params), self.cfg.cdf_hidden)

    def inverse(self, params, hidden_i, target, i, state):
        h = self.cfg.cdf_hidden
        psi = _psi_values(hidden_i, params)
        return tf.cdf_inv_batch(target, psi[:, :h], psi[:, h:2 * h],
                                psi[:, 2 * h:3 * h], psi[:, 3 * h])


class SharedCdfHead(Head):
    """One global monotone net `phi.*` whose hidden-layer and output biases
    are shifted by linear maps of the embedding (no projection layer)."""

    base_kind = CdfHead.base_kind
    inversion_tol = CdfHead.inversion_tol
    validate = CdfHead.validate
    describe = CdfHead.describe

    def init(self, params, rng):
        h, e = self.cfg.cdf_hidden, self.cfg.E
        params.add("phi.w1", np.zeros(h))
        params.add("phi.b1", np.zeros(h))
        # same saturation guard as the per-token head
        params.add("phi.w2", np.full(h, -np.log(h)))
        params.add("phi.b2", np.zeros(1))
        params.add("phi.w1_cond", uniform_init(rng, e, (h, e)))
        params.add("phi.w2_cond", uniform_init(rng, e, (1, e)))

    def param_count(self):
        h, e = self.cfg.cdf_hidden, self.cfg.E
        return 3 * h + 1 + h * e + e

    def psi_count(self):
        return self.cfg.D * self.cfg.E

    def forward(self, x, hidden, params):
        return tf.shared_cdf_forward_node(x, hidden, params)

    def inverse(self, params, hidden_i, target, i, state):
        b1 = params["phi.b1"].value + hidden_i @ params["phi.w1_cond"].value.T
        b2 = float(params["phi.b2"].value[0]) + hidden_i @ params["phi.w2_cond"].value.T[:, 0]
        return tf.cdf_inv_batch(target, params["phi.w1"].value, b1,
                                params["phi.w2"].value, b2)


class SplineHead(Head):
    """Stack of J blocks: rational-quadratic spline (psi from projection
    `head{j}`), then unit-lower-triangular mix `mix{j}` (log-det exactly 0).

    Every block's psi comes from the same conditioner pass, so every block's
    parameters depend only on the original inputs < i.
    """

    @property
    def width(self):
        return 3 * self.cfg.spline_bins - 1

    def validate(self):
        cfg = self.cfg
        _require_positive_ints(K=cfg.spline_bins, blocks=cfg.spline_blocks)
        if not (math.isfinite(cfg.spline_bound) and cfg.spline_bound > 0):
            raise DimensionError(f"B must be positive and finite, got {cfg.spline_bound}")

    def describe(self):
        cfg = self.cfg
        return f"K={cfg.spline_bins} B={cfg.spline_bound} blocks={cfg.spline_blocks}"

    def init(self, params, rng):
        cfg, e = self.cfg, self.cfg.E
        for j in range(cfg.spline_blocks):
            params.add(f"head{j}.w", uniform_init(rng, e, (e, self.width)))
            params.add(f"head{j}.b", np.zeros(self.width))
        if cfg.D > 1:
            for j in range(cfg.spline_blocks):
                params.add(f"mix{j}", np.zeros(cfg.D * (cfg.D - 1) // 2))

    def param_count(self):
        cfg = self.cfg
        per_block = (cfg.E + 1) * self.width + cfg.D * (cfg.D - 1) // 2
        return cfg.spline_blocks * per_block

    def psi_count(self):
        return self.cfg.D * self.cfg.spline_blocks * self.width

    def forward(self, x, hidden, params):
        cfg = self.cfg
        z, ld_total = x, None
        for j in range(cfg.spline_blocks):
            psi = project_head(hidden, params, f"head{j}")
            z, ld = tf.spline_forward_node(z, psi, cfg.spline_bins, cfg.spline_bound)
            ld_total = ld if ld_total is None else dc.add(ld_total, ld)
            free = params[f"mix{j}"] if cfg.D > 1 else None
            z, _ = tf.mix_forward_node(z, free, cfg.D)
        return z, ld_total

    def inverse_state(self, params, n):
        """Per-block pre-mix outputs, filled column by column."""
        return [np.zeros((n, self.cfg.D)) for _ in range(self.cfg.spline_blocks)]

    def inverse(self, params, hidden_i, target, i, state):
        """Undo mix row i by forward substitution, then the spline, block by
        block from the top."""
        cfg = self.cfg
        k = cfg.spline_bins
        v = target.copy()
        for j in reversed(range(cfg.spline_blocks)):
            if i > 0:
                # row i of the strict lower triangle, in np.tril_indices order
                row = params[f"mix{j}"].value[i * (i - 1) // 2:i * (i + 1) // 2]
                v = v - state[j][:, :i] @ row
            psi = _psi_values(hidden_i, params, f"head{j}")
            state[j][:, i] = v
            v = tf.spline_inverse_np(v, psi[:, :k], psi[:, k:2 * k], psi[:, 2 * k:],
                                     cfg.spline_bound)
        return v


HEADS: dict[str, type[Head]] = {
    "affine": AffineHead,
    "cdf": CdfHead,
    "shared_cdf": SharedCdfHead,
    "spline": SplineHead,
}


def total_param_count(cfg: ModelConfig) -> int:
    return conditioner_param_count(cfg.conditioner_config()) + cfg.head().param_count()


@dataclass
class FlowModel:
    config: ModelConfig
    cond: ConditionerConfig
    params: ParamSet
    base: BaseDistribution
    head: Head

    @property
    def head_type(self) -> str:
        return self.config.head_type

    @property
    def D(self) -> int:
        return self.config.D


@dataclass
class LogProbResult:
    y: np.ndarray
    logdet: np.ndarray | float
    logp: np.ndarray | float


def build_model(cfg: ModelConfig, seed: int = 0) -> FlowModel:
    """Fresh model: conditioner parameters, then the head's."""
    rng = np.random.default_rng(seed)
    cond_cfg = cfg.conditioner_config()
    params = init_conditioner_params(cond_cfg, rng)
    head = cfg.head()
    head.init(params, rng)
    return FlowModel(cfg, cond_cfg, params, BaseDistribution(head.base_kind), head)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def transform_forward(model: FlowModel, x: np.ndarray) -> tuple[Node, Node]:
    """x [N, D] -> (y [N, D], per-dimension logdet [N, D]) as graph nodes."""
    hidden = condition(x, model.params, model.cond)
    return model.head.forward(dc.constant(x), hidden, model.params)


def _as_rows(x) -> tuple[np.ndarray, bool]:
    arr = dc.as_tensor(x)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise DimensionError(f"expected vector or matrix, got shape {arr.shape}")


def forward_values(model: FlowModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value-only forward: returns (y [N, D], per-dim logdet [N, D])."""
    with dc.no_grad():
        y, ld = transform_forward(model, x)
    return y.value, ld.value


def log_prob(model: FlowModel, x) -> LogProbResult:
    """Exact log-density of a vector or a batch of rows (no-grad)."""
    rows, single = _as_rows(x)
    if rows.shape[1] != model.D:
        raise DimensionError(f"input has {rows.shape[1]} columns, model expects {model.D}")
    y, ld = forward_values(model, rows)
    model.base.check_support(y)
    logdet = ld.sum(axis=1)
    logp = model.base.log_density(y) + logdet
    if single:
        return LogProbResult(y=y[0], logdet=float(logdet[0]), logp=float(logp[0]))
    return LogProbResult(y=y, logdet=logdet, logp=logp)


def nll_loss(model: FlowModel, batch: np.ndarray) -> Node:
    """Mean negative log-likelihood over the batch, differentiable in params."""
    batch = dc.as_tensor(batch)
    if batch.ndim != 2 or batch.shape[0] < 1:
        raise DimensionError(f"batch must be a nonempty matrix, got shape {batch.shape}")
    y, ld = transform_forward(model, batch)
    model.base.check_support(y.value)
    logp = dc.add(model.base.log_density_node(y), dc.sum_(ld, axis=1))
    return dc.neg(dc.mean(logp))


# ---------------------------------------------------------------------------
# sampling by sequential inversion
# ---------------------------------------------------------------------------


def sample(model: FlowModel, n: int, seed: int) -> np.ndarray:
    """Draw n vectors: sample base noise, then invert dimension by dimension."""
    if n < 1:
        raise DimensionError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    noise = model.base.sample(rng, n, model.D)
    return invert_rows(model, noise)


def invert_rows(model: FlowModel, targets: np.ndarray) -> np.ndarray:
    """Map base-space rows back through the flow, one dimension at a time."""
    noise = dc.as_tensor(targets)
    if noise.ndim != 2 or noise.shape[1] != model.D:
        raise DimensionError(
            f"targets must be [n, {model.D}], got shape {noise.shape}"
        )
    n, d = noise.shape
    if model.base.kind == "unit_uniform" and not np.all((noise > 0) & (noise < 1)):
        raise DimensionError("uniform-base targets must lie strictly in (0, 1)")
    x = np.zeros((n, d))
    state = model.head.inverse_state(model.params, n)
    for i in range(d):
        with dc.no_grad():
            hidden = condition(x, model.params, model.cond).value
            try:
                x[:, i] = model.head.inverse(model.params, hidden[:, i, :], noise[:, i],
                                             i, state)
            except tf.InversionError as err:
                raise tf.InversionError(
                    f"inversion failed at sample {err.index}, dimension {i}: {err}",
                    index=err.index,
                ) from err
    return x


# ---------------------------------------------------------------------------
# numerical oracle
# ---------------------------------------------------------------------------


def numerical_jacobian(model: FlowModel, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of the map x -> y (test oracle)."""
    if step <= 0:
        raise DimensionError("jacobian step must be positive")
    x = dc.as_tensor(x)
    d = model.D
    jac = np.zeros((d, d))
    for j in range(d):
        xp = x.copy()
        xp[j] += step
        xm = x.copy()
        xm[j] -= step
        yp, _ = forward_values(model, xp[None, :])
        ym, _ = forward_values(model, xm[None, :])
        jac[:, j] = (yp[0] - ym[0]) / (2.0 * step)
    return jac
