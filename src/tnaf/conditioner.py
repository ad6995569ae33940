"""Causal transformer conditioner.

Maps each input row to one hidden embedding per dimension under the
autoregressive constraint: embedding i may depend on inputs 1..i-1 only.
The sequence fed to the encoder is [start-token, e(x_1), ..., e(x_{D-1})] --
the last input never conditions anything, so it is never embedded.

Because hidden row i depends on tokens <= i only, the rows can also be
produced one at a time: `condition` with a `KVCache` encodes one new token
per call and attends over the keys and values cached from earlier calls
(incremental decoding; Shazeer 2019, arXiv:1911.02150).

Every function reads its shape (D, E, heads, layers, mlp_hidden) from the
flow's `ModelConfig`.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

import numpy as np

from . import diffcore as dc
from .diffcore import DimensionError, Node, ParamSet

if TYPE_CHECKING:
    from .flow import ModelConfig

LAYER_NORM_EPS = 1e-5


def require_ints(minimum: int, **values) -> None:
    """Reject any value that is not an integer >= minimum (bools included)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
            raise DimensionError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_positive_reals(**values) -> None:
    """Reject any value that is not a finite real number > 0 (bools included)."""
    for name, value in values.items():
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value) or value <= 0):
            raise DimensionError(f"{name} must be a finite number > 0, got {value!r}")


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Weights ~ U(+-1/sqrt(fan_in)), drawn from the build RNG."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_conditioner_params(cfg: ModelConfig, rng: np.random.Generator) -> ParamSet:
    """Fresh parameters: weights ~ U(+-1/sqrt(fan_in)), biases 0, position
    and start-token embeddings ~ N(0, 0.02)."""
    e, m = cfg.E, cfg.mlp_hidden
    params = ParamSet()
    params.add("input_proj.w", uniform_init(rng, 1, (1, e)))
    params.add("input_proj.b", np.zeros(e))
    params.add("bos", rng.normal(0.0, 0.02, size=e))
    params.add("positional", rng.normal(0.0, 0.02, size=(cfg.D, e)))
    for layer in range(cfg.layers):
        p = f"layer{layer}."
        params.add(p + "ln1.g", np.ones(e))
        params.add(p + "ln1.b", np.zeros(e))
        # no key bias: q.(k + bk) shifts a whole score row by q.bk, and the
        # softmax ignores that shift
        for name in ("wq", "wk", "wv", "wo"):
            params.add(p + name, uniform_init(rng, e, (e, e)))
            if name != "wk":
                params.add(p + name.replace("w", "b"), np.zeros(e))
        params.add(p + "ln2.g", np.ones(e))
        params.add(p + "ln2.b", np.zeros(e))
        params.add(p + "mlp.w1", uniform_init(rng, e, (e, m)))
        params.add(p + "mlp.b1", np.zeros(m))
        params.add(p + "mlp.w2", uniform_init(rng, m, (m, e)))
        params.add(p + "mlp.b2", np.zeros(e))
    return params


def embed_sequence(x, params: ParamSet, cfg: ModelConfig, start: int = 0) -> Node:
    """Token embeddings from position `start` on: the start token at
    position 0, input p-1 projected (plus its position) at position p > 0.

    From position 0, `x` is a batch [N, D] (returns [N, D, E]); the last
    input is dropped.  An empty batch [N, 0] gives the start token alone
    ([N, 1, E]).  From position p > 0, `x` holds inputs p-1, p, ... as
    [N, k] and the result is [N, k, E].
    """
    xb = dc.as_tensor(x)
    if xb.ndim != 2:
        raise DimensionError(f"expected a batch matrix [N, k], got shape {xb.shape}")
    n, k = xb.shape
    rows = []
    if start == 0:
        if k not in (0, cfg.D):
            raise DimensionError(f"input has {k} columns, config expects D={cfg.D}")
        pos0 = dc.narrow(params["positional"], 0, 0, 1)
        bos_row = dc.add(dc.reshape(params["bos"], (1, cfg.E)), pos0)
        rows.append(dc.broadcast_to(bos_row, (n, 1, cfg.E)))
        xb, start = xb[:, :-1], 1
    elif not 0 < k <= cfg.D - start:
        raise DimensionError(f"{k} inputs from position {start} do not fit D={cfg.D}")
    k = xb.shape[1]
    if k:
        proj = dc.linear(xb[..., None], params["input_proj.w"], params["input_proj.b"])
        rows.append(dc.add(proj, dc.narrow(params["positional"], 0, start, k)))
    return dc.concat(rows, axis=1) if len(rows) > 1 else rows[0]


class KVCache:
    """Attention keys and values of the tokens encoded so far, per layer.

    Holds arrays [N, heads, D, head_dim] and the number of tokens `length`
    filled so far.  The cached prefix enters later steps as constants, so a
    cached pass is value-only (run it under `no_grad`).  One cache serves one
    sequence of `condition` steps; it is never stored on a model.
    """

    def __init__(self, cfg: ModelConfig, n: int):
        shape = (n, cfg.heads, cfg.D, cfg.E // cfg.heads)
        self.keys = [np.zeros(shape) for _ in range(cfg.layers)]
        self.values = [np.zeros(shape) for _ in range(cfg.layers)]
        self.length = 0

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple[Node, Node]:
        """Store one layer's new keys and values [N, heads, m, head_dim] after
        the cached ones; return that layer's keys and values through them."""
        end = self.length + k.shape[2]
        self.keys[layer][:, :, self.length:end] = k
        self.values[layer][:, :, self.length:end] = v
        return (dc.constant(self.keys[layer][:, :, :end]),
                dc.constant(self.values[layer][:, :, :end]))


def encoder_layer(seq: Node, params: ParamSet, layer: int, cfg: ModelConfig,
                  cache: KVCache | None = None) -> Node:
    """Pre-norm encoder block: x + MHA(ln(x)), then u + MLP(ln(u)).

    Without a cache the attention is causal: token i attends to tokens <= i.
    With a cache, `seq` holds the new tokens only: their keys and values are
    appended to the cache and their queries attend over the whole prefix.
    """
    n, d, e = seq.value.shape
    h, dk = cfg.heads, cfg.E // cfg.heads
    p = f"layer{layer}."

    normed = dc.layer_norm(seq, params[p + "ln1.g"], params[p + "ln1.b"], LAYER_NORM_EPS)

    def split_heads(t):
        return dc.transpose(dc.reshape(t, (n, d, h, dk)), (0, 2, 1, 3))

    q = split_heads(dc.linear(normed, params[p + "wq"], params[p + "bq"]))
    k = split_heads(dc.linear(normed, params[p + "wk"]))
    v = split_heads(dc.linear(normed, params[p + "wv"], params[p + "bv"]))
    if cache is not None:
        k, v = cache.extend(layer, k.value, v.value)

    # the softmax applies the 1/sqrt(d_k) scale itself, tile by tile, so the
    # scaled [N, heads, D, D] scores are never a node of their own
    scores = dc.matmul(q, dc.transpose(k, (0, 1, 3, 2)))
    # a Python float: a numpy float64 scale would promote float32 scores
    attn = dc.masked_softmax(scores, cache is None, 1.0 / math.sqrt(dk))
    ctx = dc.reshape(dc.transpose(dc.matmul(attn, v), (0, 2, 1, 3)), (n, d, e))
    u = dc.add(seq, dc.linear(ctx, params[p + "wo"], params[p + "bo"]))

    normed2 = dc.layer_norm(u, params[p + "ln2.g"], params[p + "ln2.b"], LAYER_NORM_EPS)
    hidden = dc.tanh(dc.linear(normed2, params[p + "mlp.w1"], params[p + "mlp.b1"]))
    return dc.add(u, dc.linear(hidden, params[p + "mlp.w2"], params[p + "mlp.b2"]))


def condition(x, params: ParamSet, cfg: ModelConfig,
              cache: KVCache | None = None) -> Node:
    """Full conditioner pass: hidden embedding i depends on inputs < i only.

    With a cache, one incremental step instead: `x` holds only the newly
    known input ([N, 1]; [N, 0] for the first step), the token it makes is
    encoded against the cached prefix, and the result is that position's
    hidden rows [N, 1, E].  D steps give the D rows of the full pass.
    """
    seq = embed_sequence(x, params, cfg, 0 if cache is None else cache.length)
    if cache is not None and seq.value.shape[-2] != 1:
        raise DimensionError(f"a cached step encodes one token, got {seq.value.shape[-2]}")
    for layer in range(cfg.layers):
        seq = encoder_layer(seq, params, layer, cfg, cache)
    if cache is not None:
        cache.length += 1
    return seq
