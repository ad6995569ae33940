"""Causal transformer conditioner.

Maps an input vector to one hidden embedding per dimension under the
autoregressive constraint: embedding i may depend on inputs 1..i-1 only.
The sequence fed to the encoder is [start-token, e(x_1), ..., e(x_{D-1})] --
the last input never conditions anything, so it is never embedded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import DimensionError, Node, ParamSet

LAYER_NORM_EPS = 1e-5


@dataclass
class ConditionerConfig:
    D: int
    E: int = 32
    heads: int = 8
    L: int = 3
    mlp_hidden: int = 64

    def __post_init__(self):
        for field in ("D", "E", "heads", "L", "mlp_hidden"):
            if getattr(self, field) < 1:
                raise DimensionError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.E % self.heads != 0:
            raise DimensionError(f"E={self.E} not divisible by heads={self.heads}")

    @property
    def head_dim(self) -> int:
        return self.E // self.heads


def conditioner_param_count(cfg: ConditionerConfig) -> int:
    """Closed-form size of the conditioner (affine in D with slope E)."""
    e, m, d = cfg.E, cfg.mlp_hidden, cfg.D
    per_layer = 2 * e + 4 * (e * e + e) + 2 * e + e * m + m + m * e + e
    return 2 * e + e + d * e + cfg.L * per_layer


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Weights ~ U(+-1/sqrt(fan_in)), drawn from the build RNG."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_conditioner_params(cfg: ConditionerConfig, rng: np.random.Generator) -> ParamSet:
    """Fresh parameters: weights ~ U(+-1/sqrt(fan_in)), biases 0, position
    and start-token embeddings ~ N(0, 0.02)."""
    e, m = cfg.E, cfg.mlp_hidden
    params = ParamSet()
    params.add("input_proj.w", uniform_init(rng, 1, (1, e)))
    params.add("input_proj.b", np.zeros(e))
    params.add("bos", rng.normal(0.0, 0.02, size=e))
    params.add("positional", rng.normal(0.0, 0.02, size=(cfg.D, e)))
    for layer in range(cfg.L):
        p = f"layer{layer}."
        params.add(p + "ln1.g", np.ones(e))
        params.add(p + "ln1.b", np.zeros(e))
        for name in ("wq", "wk", "wv", "wo"):
            params.add(p + name, uniform_init(rng, e, (e, e)))
            params.add(p + name.replace("w", "b"), np.zeros(e))
        params.add(p + "ln2.g", np.ones(e))
        params.add(p + "ln2.b", np.zeros(e))
        params.add(p + "mlp.w1", uniform_init(rng, e, (e, m)))
        params.add(p + "mlp.b1", np.zeros(m))
        params.add(p + "mlp.w2", uniform_init(rng, m, (m, e)))
        params.add(p + "mlp.b2", np.zeros(e))
    return params


def causal_mask(d: int) -> np.ndarray:
    """Additive mask: entry (r, c) is 0 for c <= r, the -inf surrogate above."""
    if d < 1:
        raise DimensionError(f"mask size must be >= 1, got {d}")
    mask = np.zeros((d, d))
    mask[np.triu_indices(d, 1)] = dc.NEG_MASK
    return mask


def linear(x: Node, w: Node, b: Node) -> Node:
    """Position-wise affine map over the last axis."""
    in_dim, out_dim = w.value.shape
    lead = x.value.shape[:-1]
    flat = dc.reshape(x, (-1, in_dim))
    y = dc.add(dc.matmul(flat, w), b)
    return dc.reshape(y, lead + (out_dim,))


def _as_batch(x) -> tuple[np.ndarray, bool]:
    arr = dc.as_tensor(x)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise DimensionError(f"expected vector or matrix input, got shape {arr.shape}")


def embed_sequence(x, params: ParamSet, cfg: ConditionerConfig) -> Node:
    """Token embeddings: start token at position 0, projected inputs after.

    Accepts a single vector [D] (returns [D, E]) or a batch [N, D]
    (returns [N, D, E]).
    """
    xb, single = _as_batch(x)
    n, d = xb.shape
    if d != cfg.D:
        raise DimensionError(f"input has {d} columns, config expects D={cfg.D}")
    pos0 = dc.narrow(params["positional"], 0, 0, 1)
    bos_row = dc.add(dc.reshape(params["bos"], (1, cfg.E)), pos0)
    rows = [dc.broadcast_to(bos_row, (n, 1, cfg.E))]
    if d > 1:
        cols = dc.constant(xb[:, : d - 1].reshape(-1, 1))
        proj = dc.add(dc.matmul(cols, params["input_proj.w"]), params["input_proj.b"])
        proj = dc.reshape(proj, (n, d - 1, cfg.E))
        rows.append(dc.add(proj, dc.narrow(params["positional"], 0, 1, d - 1)))
    seq = dc.concat(rows, axis=1) if len(rows) > 1 else rows[0]
    return dc.reshape(seq, (d, cfg.E)) if single else seq


def encoder_layer(seq: Node, params: ParamSet, layer: int,
                  mask: np.ndarray, cfg: ConditionerConfig) -> Node:
    """Pre-norm encoder block: x + MHA(ln(x)), then u + MLP(ln(u))."""
    single = seq.value.ndim == 2
    if single:
        seq = dc.reshape(seq, (1,) + seq.value.shape)
    n, d, e = seq.value.shape
    h, dk = cfg.heads, cfg.head_dim
    p = f"layer{layer}."

    normed = dc.layer_norm(seq, params[p + "ln1.g"], params[p + "ln1.b"], LAYER_NORM_EPS)

    def split_heads(t):
        return dc.transpose(dc.reshape(t, (n, d, h, dk)), (0, 2, 1, 3))

    q = split_heads(linear(normed, params[p + "wq"], params[p + "bq"]))
    k = split_heads(linear(normed, params[p + "wk"], params[p + "bk"]))
    v = split_heads(linear(normed, params[p + "wv"], params[p + "bv"]))

    scores = dc.mul(dc.matmul(q, dc.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dk))
    attn = dc.masked_softmax(scores, mask)
    ctx = dc.reshape(dc.transpose(dc.matmul(attn, v), (0, 2, 1, 3)), (n, d, e))
    u = dc.add(seq, linear(ctx, params[p + "wo"], params[p + "bo"]))

    normed2 = dc.layer_norm(u, params[p + "ln2.g"], params[p + "ln2.b"], LAYER_NORM_EPS)
    hidden = dc.tanh(linear(normed2, params[p + "mlp.w1"], params[p + "mlp.b1"]))
    out = dc.add(u, linear(hidden, params[p + "mlp.w2"], params[p + "mlp.b2"]))
    return dc.reshape(out, (d, e)) if single else out


def condition(x, params: ParamSet, cfg: ConditionerConfig) -> Node:
    """Full conditioner pass: hidden embedding i depends on inputs < i only."""
    seq = embed_sequence(x, params, cfg)
    mask = causal_mask(cfg.D)
    for layer in range(cfg.L):
        seq = encoder_layer(seq, params, layer, mask, cfg)
    return seq
