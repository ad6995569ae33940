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
    KVCache,
    condition,
    init_conditioner_params,
    require_ints,
    require_positive_reals,
    uniform_init,
)
from .diffcore import DimensionError, Node, ParamSet, linear

LOG_2PI = float(np.log(2.0 * np.pi))
# rows per KVCache in invert_rows and per log_prob call in trainer.evaluate:
# bounds their peak memory (a D=63 cache holds about 95 KiB per row)
ROW_BLOCK = 256
# attention scores (rows * heads * D^2) from which log_prob scores its rows in
# two halves on two threads: 34+ rows at D=63, 128+ at D=32, 2048+ at D=8.
# One call against two halves, the medians of two processes (2-core Xeon):
# d63 spline 8, 16, 32 rows 0.81-1.08x, 0.81-0.89x, 0.94-0.95x, and 64, 128,
# 256 rows 0.96-1.56x, 1.49-1.55x, 1.67-1.77x; d32 spline 16, 64, 256 rows
# 1.02-1.12x, 1.58-1.59x, 1.81-1.85x; d8 cdf 64 rows 1.12-1.19x.
SPLIT_SCORES = 1 << 20


@dataclass
class ModelConfig:
    """Architecture of one flow: conditioner shape plus head hyperparameters.
    Every field is checked, whichever head reads it."""

    D: int
    head_type: str = "cdf"
    E: int = 32
    heads: int = 8
    layers: int = 3
    mlp_hidden: int = 64
    H: int = 128      # hidden width of the monotone net heads
    K: int = 8        # spline bins
    B: float = 3.0    # spline bound: identity outside [-B, B]
    blocks: int = 2   # spline blocks J

    def __post_init__(self):
        if self.head_type not in HEADS:
            raise DimensionError(
                f"head_type must be one of {tuple(HEADS)}, got {self.head_type!r}"
            )
        require_ints(1, D=self.D, E=self.E, heads=self.heads, layers=self.layers,
                     mlp_hidden=self.mlp_hidden)
        if self.E % self.heads != 0:
            raise DimensionError(f"E={self.E} not divisible by heads={self.heads}")
        require_ints(1, H=self.H, K=self.K, blocks=self.blocks)
        require_positive_reals(B=self.B)


def project_head(hidden: Node, params: ParamSet) -> Node:
    """Linear projection `head.{w,b}` of hidden embeddings to a head's psi."""
    return linear(hidden, params["head.w"], params["head.b"])


# ---------------------------------------------------------------------------
# heads: one object per transform family, registered in HEADS
# ---------------------------------------------------------------------------


@dataclass
class Head:
    """One per-dimension invertible transform, parameterized per position by
    `width` pseudo-parameters psi, which `psi` reads off the conditioner's
    hidden embeddings.  A head states ``width``, the ``keys`` it reads and its
    two transforms:

    * ``forward(x, psi, params)``: the graph map x [N, D] ->
      (y [N, D], per-dimension logdet [N, D]) given psi [N, D, width], each
      dimension strictly increasing from the real line onto itself;
    * ``inverse(psi, target, i, state)``: column i of x from column i of
      y, given position i's psi values [N, width] and the scratch of
      ``inverse_state``.

    Transforms and ``project_head`` are looked up as module attributes at
    call time, so code that patches them (a tracer, say) sees every call.
    """

    cfg: ModelConfig
    # the ModelConfig fields the head reads, printed by `tnaf inspect`; a plain
    # class attribute, since an annotated one would become a dataclass field
    keys = ()

    def init(self, params: ParamSet, rng: np.random.Generator) -> None:
        """Add the head's parameters after the conditioner's, from the build RNG."""
        params.add("head.w", uniform_init(rng, self.cfg.E, (self.cfg.E, self.width)))
        params.add("head.b", np.zeros(self.width))

    def psi(self, hidden: Node, params: ParamSet) -> Node:
        """Hidden embeddings [..., E] -> psi [..., width]."""
        return project_head(hidden, params)

    def inverse_state(self, params: ParamSet, n: int):
        """Scratch carried across the dimensions of one inversion, built once
        per block of rows: whatever ``inverse`` reads of the parameters."""
        return None


class AffineHead(Head):
    """y = mu + exp(log_sigma) * x, psi = [mu | log_sigma]."""

    width = 2

    def forward(self, x, psi, params):
        return tf.affine_forward_node(x, psi)

    def inverse(self, psi, target, i, state):
        return tf.affine_inverse_np(target, psi)


class CdfHead(Head):
    """Per-position monotone net
    b2 + exp(c) x + sum exp(w2) tanh(exp(w1) x + b1), psi = [w1 | b1 | w2 | b2 | c];
    the linear term makes it map the real line onto itself."""

    @property
    def width(self):
        return 3 * self.cfg.H + 2

    keys = ("H",)

    def init(self, params, rng):
        super().init(params, rng)
        # keep sum exp(w2) near 1 at init: without this bias the tanh layer
        # sums H unit steps, and a fresh D=8 model's NLL on the d8-cdf
        # benchmark data measured 27564 nats instead of 16
        h = self.cfg.H
        params["head.b"].value[2 * h:3 * h] = -np.log(h)

    def forward(self, x, psi, params):
        return tf.cdf_forward_node(x, psi)

    def inverse(self, psi, target, i, state):
        return tf.cdf_inv_batch(target, psi)


class SharedCdfHead(Head):
    """One global monotone net `phi.*` (the per-token net's map, one global
    phi.c) whose biases b1 and b2 are shifted by the embedding's linear maps
    `phi.w1_cond` [E, H] and `phi.w2_cond` [E, 1]; its psi is the embedding."""

    keys = CdfHead.keys

    @property
    def width(self):
        return self.cfg.E

    def init(self, params, rng):
        h, e = self.cfg.H, self.cfg.E
        params.add("phi.w1", np.zeros(h))
        params.add("phi.b1", np.zeros(h))
        # same init bias as the per-token head
        params.add("phi.w2", np.full(h, -np.log(h)))
        params.add("phi.b2", np.zeros(1))
        params.add("phi.c", np.zeros(1))
        # stored [E, out] as `linear` reads them: the [out, E] draws, transposed
        params.add("phi.w1_cond", np.ascontiguousarray(uniform_init(rng, e, (h, e)).T))
        params.add("phi.w2_cond", np.ascontiguousarray(uniform_init(rng, e, (1, e)).T))

    def psi(self, hidden, params):
        return hidden

    def forward(self, x, psi, params):
        return tf.shared_cdf_forward_node(x, psi, params)

    def inverse_state(self, params, n):
        """The shared net's seven `phi.*` nodes, looked up once."""
        return {name: params[name] for name in params.names() if name.startswith("phi.")}

    def inverse(self, psi, target, i, state):
        return tf.cdf_inv_batch(target, tf.shared_cdf_psi(dc.constant(psi), state).value)


class SplineHead(Head):
    """Stack of J blocks: rational-quadratic spline, then unit-lower-triangular
    mix `mix{j}` (log-det exactly 0).  One projection `head.{w,b}` emits all
    J blocks' psi, block j in columns [j (3K - 1), (j + 1)(3K - 1)).

    Every block's psi comes from the same conditioner pass, so every block's
    parameters depend only on the original inputs < i.
    """

    @property
    def width(self):
        return self.cfg.blocks * (3 * self.cfg.K - 1)

    keys = ("K", "B", "blocks")

    def init(self, params, rng):
        cfg, e, bw = self.cfg, self.cfg.E, 3 * self.cfg.K - 1
        # one [E, 3K - 1] draw per block: block j's initial weights do not depend on J
        params.add("head.w", np.hstack([uniform_init(rng, e, (e, bw))
                                        for _ in range(cfg.blocks)]))
        params.add("head.b", np.zeros(self.width))
        if cfg.D > 1:
            for j in range(cfg.blocks):
                params.add(f"mix{j}", np.zeros(cfg.D * (cfg.D - 1) // 2))

    def forward(self, x, psi, params):
        cfg, bw = self.cfg, 3 * self.cfg.K - 1
        z, ld_total = x, None
        for j in range(cfg.blocks):
            z, ld = tf.spline_forward_node(z, dc.narrow(psi, -1, j * bw, bw), cfg.B)
            ld_total = ld if ld_total is None else dc.add(ld_total, ld)
            free = params[f"mix{j}"] if cfg.D > 1 else None
            z = tf.mix_forward_node(z, free)
        return z, ld_total

    def inverse_state(self, params, n):
        """Per block: the mix matrix, and its inputs filled column by column."""
        cfg = self.cfg
        return [
            (dc.strict_lower_embed(params[f"mix{j}"], cfg.D).value if cfg.D > 1 else None,
             np.zeros((n, cfg.D)))
            for j in range(cfg.blocks)
        ]

    def inverse(self, psi, target, i, state):
        """Undo mix row i by forward substitution, then the spline, block by
        block from the top, every block reading one knot table [N, J, 3, K + 1]."""
        cfg = self.cfg
        table = tf._spline_parts(psi.reshape(len(psi), cfg.blocks, 3 * cfg.K - 1), cfg.B)[0]
        v = target
        for j in reversed(range(cfg.blocks)):
            lmat, premix = state[j]
            if i > 0:
                v = v - premix[:, :i] @ lmat[i, :i]
            premix[:, i] = v
            v = tf.spline_inverse_np(v, table[:, j], cfg.B)
        return v


HEADS: dict[str, type[Head]] = {
    "affine": AffineHead,
    "cdf": CdfHead,
    "shared_cdf": SharedCdfHead,
    "spline": SplineHead,
}


@dataclass
class FlowModel:
    config: ModelConfig
    params: ParamSet
    head: Head

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
    params = init_conditioner_params(cfg, rng)
    head = HEADS[cfg.head_type](cfg)
    head.init(params, rng)
    return FlowModel(cfg, params, head)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def _as_rows(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise DimensionError(f"expected vector or matrix, got shape {arr.shape}")


def forward_values(model: FlowModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value-only forward of rows x [N, D] in float64: (y [N, D], per-dim
    logdet [N, D]), by log_prob's own pass, split included."""
    return tuple(_likelihood_values(model, np.asarray(x, dtype=np.float64))[:2])


def _log_likelihood(model: FlowModel, x: np.ndarray) -> tuple[Node, Node, Node, Node]:
    """x [N, D] -> (y [N, D], per-dimension logdet [N, D], logdet [N],
    log p(x) [N]) as graph nodes: one conditioner pass, one head transform."""
    psi = model.head.psi(condition(x, model.params, model.config), model.params)
    y, ld = model.head.forward(dc.constant(x), psi, model.params)
    logdet = dc.sum_(ld, axis=1)
    base = dc.add(dc.mul(-0.5, dc.sum_(dc.mul(y, y), axis=1)), -0.5 * model.D * LOG_2PI)
    return y, ld, logdet, dc.add(base, logdet)


def log_prob(model: FlowModel, x) -> LogProbResult:
    """Exact log-density of a vector or a batch of rows (no-grad), in float64
    whatever the input's dtype.  Rows must be finite (DimensionError)."""
    rows, single = _as_rows(x)
    y, _, logdet, logp = _likelihood_values(model, rows)
    if single:
        return LogProbResult(y=y[0], logdet=float(logdet[0]), logp=float(logp[0]))
    return LogProbResult(y=y, logdet=logdet, logp=logp)


def _likelihood_values(model: FlowModel, rows: np.ndarray) -> list[np.ndarray]:
    """_log_likelihood's four values for finite float64 `rows` (DimensionError
    otherwise).  From SPLIT_SCORES attention scores up, the first half runs on
    the caller and the second on a one-worker pool; each row reads the same."""
    if not np.isfinite(rows).all():
        raise DimensionError("rows must be finite")

    def values(part):  # no_grad is per thread
        with dc.no_grad():
            return [node.value for node in _log_likelihood(model, part)]

    cfg = model.config
    if len(rows) * cfg.heads * cfg.D ** 2 < SPLIT_SCORES:
        return values(rows)
    half = len(rows) // 2
    # imported here, not at the module top: there, layout alone moved d8-cdf
    # benchmark processes between two glibc heap states (3 of 8 at seed 1),
    # though d8-cdf never splits
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    # the copied context carries the caller's numpy error state; leaving the
    # pool waits for the second half, whichever half raised
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(contextvars.copy_context().run, values, rows[half:])
        first = values(rows[:half])
    return [np.concatenate(pair) for pair in zip(first, second.result())]


def nll_loss(model: FlowModel, batch: np.ndarray) -> Node:
    """Mean negative log-likelihood over the batch, differentiable in params."""
    batch = dc.as_tensor(batch)
    if batch.ndim != 2 or batch.shape[0] < 1 or batch.shape[1] != model.D:
        raise DimensionError(
            f"batch must be a nonempty matrix [n, {model.D}], got shape {batch.shape}"
        )
    *_, logp = _log_likelihood(model, batch)
    return dc.mul(dc.sum_(logp), -1.0 / len(batch))


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
    """Map base-space rows back through the flow, one dimension at a time,
    in float64 whatever the targets' dtype, ROW_BLOCK rows at a time.

    Step i runs one cached conditioner step -- it encodes only the token of
    x_{i-1}, recovered at step i-1, and attends over the keys and values cached
    by the steps before -- then inverts the head at position i.  D steps of one
    token replace D full conditioner passes of D tokens each.  Targets
    must be finite (DimensionError otherwise); a recovered column that is
    not finite raises InversionError naming its row and dimension.
    """
    noise = np.asarray(targets, dtype=np.float64)
    if noise.ndim != 2 or noise.shape[1] != model.D:
        raise DimensionError(
            f"targets must be [n, {model.D}], got shape {noise.shape}"
        )
    if not np.isfinite(noise).all():
        raise DimensionError("targets must be finite")
    return np.concatenate([_invert_block(model, noise[start:start + ROW_BLOCK], start)
                           for start in range(0, max(len(noise), 1), ROW_BLOCK)])


def _invert_block(model: FlowModel, noise: np.ndarray, start: int) -> np.ndarray:
    """invert_rows on its targets' rows from `start`, with a KVCache of their own."""
    n, d = noise.shape
    x = np.zeros((n, d))
    cache = KVCache(model.params, model.config, n)
    # a column that overflows is caught by the finiteness check below, so
    # numpy's floating-point warnings on the way there would say nothing more
    with dc.no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = model.head.inverse_state(model.params, n)
        for i in range(d):
            # step i embeds x_{i-1} (nothing at i=0: the start token)
            psi = model.head.psi(dc.constant(cache.step(x[:, i - 1:i])), model.params).value
            try:
                x[:, i] = model.head.inverse(psi, noise[:, i], i, state)
                bad = ~np.isfinite(x[:, i])
                if bad.any():
                    raise tf.InversionError("recovered a non-finite value",
                                            index=int(np.argmax(bad)))
            except tf.InversionError as err:
                row = start + err.index
                raise tf.InversionError(
                    f"inversion failed at sample {row}, dimension {i}: {err}", index=row,
                ) from err
    return x
