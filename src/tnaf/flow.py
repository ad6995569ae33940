"""Density model assembly: conditioner + head over a standard-normal base.

The map x -> y is autoregressive with a lower-triangular Jacobian, and every
head maps each dimension onto the whole real line, so the exact
log-likelihood is the standard-normal log-density of y plus the sum of the
per-dimension log-derivatives.  Sampling inverts one dimension at a time:
hidden row i depends on inputs < i only, so each dimension encodes one new
token (the input just recovered) against a key/value cache of the earlier
ones and reads its hidden row off that step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import transforms as tf
from .conditioner import (
    ConditionerConfig,
    KVCache,
    condition,
    conditioner_param_count,
    init_conditioner_params,
    linear,
    require_ints,
    require_positive_reals,
    uniform_init,
)
from .diffcore import DimensionError, Node, ParamSet

LOG_2PI = float(np.log(2.0 * np.pi))


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
        require_ints(1, D=self.D, E=self.E, heads=self.heads, layers=self.layers,
                     mlp_hidden=self.mlp_hidden)
        self.conditioner_config()  # E divisible by heads
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
      (y [N, D], per-dimension logdet [N, D]), each dimension strictly
      increasing from the real line onto itself;
    * ``inverse(params, hidden_i, target, i, state)``: column i of x from
      column i of y, given the hidden rows [N, E] at position i.

    Transforms and ``project_head`` are looked up as module attributes at
    call time, so code that patches them (a tracer, say) sees every call.
    """

    cfg: ModelConfig
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
    """Per-position monotone net
    b2 + exp(c) x + sum exp(w2) tanh(exp(w1) x + b1), psi = [w1 | b1 | w2 | b2 | c];
    the linear term makes it map the real line onto itself."""

    @property
    def width(self):
        return 3 * self.cfg.cdf_hidden + 2

    def validate(self):
        require_ints(1, H=self.cfg.cdf_hidden)

    def describe(self):
        return f"H={self.cfg.cdf_hidden}"

    def init(self, params, rng):
        super().init(params, rng)
        # keep sum exp(w2) near 1 at init: without this bias the tanh layer
        # sums H unit steps, and a fresh D=8 model's NLL on the d8-cdf
        # benchmark data measured 27564 nats instead of 16
        h = self.cfg.cdf_hidden
        params["head.b"].value[2 * h:3 * h] = -np.log(h)

    def forward(self, x, hidden, params):
        return tf.cdf_forward_node(x, project_head(hidden, params), self.cfg.cdf_hidden)

    def inverse(self, params, hidden_i, target, i, state):
        return tf.cdf_inv_batch(target, _psi_values(hidden_i, params), self.cfg.cdf_hidden)


class SharedCdfHead(Head):
    """One global monotone net `phi.*` (the per-token net's map, with one
    global phi.c) whose hidden-layer and output biases are shifted by linear
    maps of the embedding (no projection layer)."""

    validate = CdfHead.validate
    describe = CdfHead.describe

    def init(self, params, rng):
        h, e = self.cfg.cdf_hidden, self.cfg.E
        params.add("phi.w1", np.zeros(h))
        params.add("phi.b1", np.zeros(h))
        # same init bias as the per-token head
        params.add("phi.w2", np.full(h, -np.log(h)))
        params.add("phi.b2", np.zeros(1))
        params.add("phi.c", np.zeros(1))
        params.add("phi.w1_cond", uniform_init(rng, e, (h, e)))
        params.add("phi.w2_cond", uniform_init(rng, e, (1, e)))

    def param_count(self):
        h, e = self.cfg.cdf_hidden, self.cfg.E
        return 3 * h + 2 + h * e + e

    def psi_count(self):
        return self.cfg.D * self.cfg.E

    def forward(self, x, hidden, params):
        return tf.shared_cdf_forward_node(x, hidden, params)

    def inverse(self, params, hidden_i, target, i, state):
        psi = tf.shared_cdf_psi(dc.constant(hidden_i), params).value
        return tf.cdf_inv_batch(target, psi, self.cfg.cdf_hidden)


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
        require_ints(1, K=cfg.spline_bins, blocks=cfg.spline_blocks)
        require_positive_reals(B=cfg.spline_bound)

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
            z = tf.mix_forward_node(z, free, cfg.D)
        return z, ld_total

    def inverse_state(self, params, n):
        """Per block: the mix matrix, and its inputs filled column by column."""
        cfg = self.cfg
        return [
            (dc.strict_lower_embed(params[f"mix{j}"], cfg.D).value if cfg.D > 1 else None,
             np.zeros((n, cfg.D)))
            for j in range(cfg.spline_blocks)
        ]

    def inverse(self, params, hidden_i, target, i, state):
        """Undo mix row i by forward substitution, then the spline, block by
        block from the top."""
        cfg = self.cfg
        k = cfg.spline_bins
        v = target.copy()
        for j in reversed(range(cfg.spline_blocks)):
            lmat, premix = state[j]
            if i > 0:
                v = v - premix[:, :i] @ lmat[i, :i]
            psi = _psi_values(hidden_i, params, f"head{j}")
            premix[:, i] = v
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
    return FlowModel(cfg, cond_cfg, params, head)


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


def _log_likelihood(model: FlowModel, x: np.ndarray) -> tuple[Node, Node, Node]:
    """x [N, D] -> (y [N, D], logdet [N], log p(x) [N]) as graph nodes."""
    y, ld = transform_forward(model, x)
    logdet = dc.sum_(ld, axis=1)
    base = dc.add(dc.mul(-0.5, dc.sum_(dc.mul(y, y), axis=1)), -0.5 * model.D * LOG_2PI)
    return y, logdet, dc.add(base, logdet)


def log_prob(model: FlowModel, x) -> LogProbResult:
    """Exact log-density of a vector or a batch of rows (no-grad)."""
    rows, single = _as_rows(x)
    if rows.shape[1] != model.D:
        raise DimensionError(f"input has {rows.shape[1]} columns, model expects {model.D}")
    with dc.no_grad():
        y, logdet, logp = (node.value for node in _log_likelihood(model, rows))
    if single:
        return LogProbResult(y=y[0], logdet=float(logdet[0]), logp=float(logp[0]))
    return LogProbResult(y=y, logdet=logdet, logp=logp)


def nll_loss(model: FlowModel, batch: np.ndarray) -> Node:
    """Mean negative log-likelihood over the batch, differentiable in params."""
    batch = dc.as_tensor(batch)
    if batch.ndim != 2 or batch.shape[0] < 1 or batch.shape[1] != model.D:
        raise DimensionError(
            f"batch must be a nonempty matrix [n, {model.D}], got shape {batch.shape}"
        )
    _, _, logp = _log_likelihood(model, batch)
    return dc.neg(dc.mean(logp))


# ---------------------------------------------------------------------------
# sampling by sequential inversion
# ---------------------------------------------------------------------------


def sample(model: FlowModel, n: int, seed: int) -> np.ndarray:
    """Draw n vectors: sample standard-normal noise, then invert dimension by
    dimension."""
    if n < 1:
        raise DimensionError(f"sample count must be >= 1, got {n}")
    noise = np.random.default_rng(seed).standard_normal((n, model.D))
    return invert_rows(model, noise)


def invert_rows(model: FlowModel, targets: np.ndarray) -> np.ndarray:
    """Map base-space rows back through the flow, one dimension at a time.

    Step i runs one cached conditioner step -- it encodes only the token of
    x_{i-1}, recovered at step i-1, and attends over the keys and values cached
    by the steps before -- then inverts the head at position i.  D steps of one
    token replace D full conditioner passes of D tokens each.  Targets
    must be finite (DimensionError otherwise); a recovered column that is
    not finite raises InversionError naming its row and dimension.
    """
    noise = dc.as_tensor(targets)
    if noise.ndim != 2 or noise.shape[1] != model.D:
        raise DimensionError(
            f"targets must be [n, {model.D}], got shape {noise.shape}"
        )
    if not np.isfinite(noise).all():
        raise DimensionError("targets must be finite")
    n, d = noise.shape
    x = np.zeros((n, d))
    cache = KVCache(model.cond, n)
    # a column that overflows is caught by the finiteness check below, so
    # numpy's floating-point warnings on the way there would say nothing more
    with dc.no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = model.head.inverse_state(model.params, n)
        for i in range(d):
            # step i embeds x_{i-1} (nothing at i=0: the start token)
            hidden = condition(x[:, max(i - 1, 0):i], model.params, model.cond, cache).value
            try:
                x[:, i] = model.head.inverse(model.params, hidden[:, 0], noise[:, i], i, state)
                bad = ~np.isfinite(x[:, i])
                if bad.any():
                    raise tf.InversionError("recovered a non-finite value",
                                            index=int(np.argmax(bad)))
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
    offsets = step * np.eye(model.D)
    y, _ = forward_values(model, np.concatenate([x + offsets, x - offsets]))
    yp, ym = np.split(y, 2)
    return (yp - ym).T / (2.0 * step)
