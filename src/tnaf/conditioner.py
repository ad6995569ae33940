"""Causal transformer conditioner.

Maps each input row to one hidden embedding per dimension under the
autoregressive constraint: embedding i may depend on inputs 1..i-1 only.
The sequence fed to the encoder is [start-token, e(x_1), ..., e(x_{D-1})] --
the last input never conditions anything, so it is never embedded.

Each stage, the embedding `_embed` and each encoder layer `_block`, is a
numpy function with a joint vjp, one graph node in the full pass `condition`.
Because hidden row i depends on tokens <= i only, the rows can also be
produced one at a time: `KVCache.step` calls the two functions directly,
encoding one new token per call against the keys and values cached from
earlier calls (incremental decoding; Shazeer 2019, arXiv:1911.02150).

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

# Bytes of attention scores per chunk of batch rows in _block (4 rows of
# float64 at D=63).  A call of several chunks keeps no softmax: under grad it
# keeps each softmax tile's row max and sum, its vjp rebuilds each chunk's
# softmax from them, and the forward and the vjp each fill one buffer for all
# chunks.  A float64 d63 layer on 64 rows took a median 20.8 ms at 1 MiB, 21.3
# at 512 KiB, 20.9 at 2 MiB, 25.1 at 256 KiB and 28.4 in one chunk; float32
# with its recomputing vjp 36.9, 35.0, 36.7, 42.2, 36.5 before the statistics
# were kept (2-core Xeon).
ATTN_CHUNK_BYTES = 1 << 20


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


# The parameters of the embedding and of one encoder layer, in the order they
# are drawn and in the order _embed and _block read them.  There is no key
# bias: q.(k + bk) shifts a whole score row by q.bk, and the softmax ignores
# that shift.
EMBED_PARAMS = ("input_proj.w", "input_proj.b", "bos", "positional")
LAYER_PARAMS = ("ln1.g", "ln1.b", "wq", "bq", "wk", "wv", "bv", "wo", "bo",
                "ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


def init_conditioner_params(cfg: ModelConfig, rng: np.random.Generator) -> ParamSet:
    """Fresh parameters: weights ~ U(+-1/sqrt(fan_in)), biases 0, layer-norm
    gains 1, position and start-token embeddings ~ N(0, 0.02)."""
    e, m = cfg.E, cfg.mlp_hidden
    params = ParamSet()
    params.add("input_proj.w", uniform_init(rng, 1, (1, e)))
    params.add("input_proj.b", np.zeros(e))
    params.add("bos", rng.normal(0.0, 0.02, size=e))
    params.add("positional", rng.normal(0.0, 0.02, size=(cfg.D, e)))
    shapes = {"mlp.w1": (e, m), "mlp.b1": (m,), "mlp.w2": (m, e)}
    for layer in range(cfg.layers):
        for name in LAYER_PARAMS:
            shape = shapes.get(name, (e, e) if name in ("wq", "wk", "wv", "wo") else (e,))
            if len(shape) == 2:
                value = uniform_init(rng, shape[0], shape)
            else:
                value = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
            params.add(f"layer{layer}.{name}", value)
    return params


def _embed(x: np.ndarray, w, start: int):
    """Token embeddings from position `start` on, in numpy over the arrays
    `w` named by EMBED_PARAMS: the start token at position 0 and input p-1,
    projected, at p > 0, each plus its position's row of `positional`.  `x`
    [N, k] holds the inputs to project, so position 0 gives [N, k + 1, E] and
    a later one [N, k, E].  Returns them and, from position 0, vjp(g), the
    gradients of each of `w`; from a later one, None."""
    wi, bi, bos, pos = w
    (n, k), e = x.shape, len(bos)
    flat = x.reshape(-1, 1)
    seq = (dc.rows_matmul(flat, wi) + bi).reshape(n, k, e)
    if start:
        return seq + pos[start:start + k], None
    out = np.concatenate((np.broadcast_to(bos, (n, 1, e)), seq), axis=1) + pos[:k + 1]

    def vjp(g):
        gx = g[:, 1:].reshape(-1, e)
        return flat.T @ gx, gx.sum(axis=0), g[:, 0].sum(axis=0), g.sum(axis=0)

    return out, vjp


def _node(out: np.ndarray, vjp, parents: list[Node]) -> Node:
    """A stage's value as one graph node over `parents`; the first parent
    asked in a backward pass runs vjp(g), which returns all their gradients."""
    parts = {}

    def part(i):
        def take(g):
            if i not in parts:
                parts.update(enumerate(vjp(g)))
            return parts.pop(i)
        return take

    return dc.make_node(out, [(node, part(i)) for i, node in enumerate(parents)])


def embed_sequence(x, params: ParamSet, cfg: ModelConfig) -> Node:
    """Token embeddings [N, D, E] of a batch x [N, D], whose last input is
    never embedded, as one graph node over the EMBED_PARAMS."""
    xb = dc.as_tensor(x)
    if xb.ndim != 2 or xb.shape[1] != cfg.D:
        raise DimensionError(f"input of shape {xb.shape} is not a batch [N, D={cfg.D}]")
    nodes = [params[name] for name in EMBED_PARAMS]
    return _node(*_embed(xb[:, :-1], [node.value for node in nodes], 0), nodes)


class KVCache:
    """One sequence of cached steps, never stored on a model: each layer's
    attention keys and values of the `length` tokens so far, [D, head_dim, N,
    heads] with the lanes (rows x heads) contiguous last, and the arrays made
    from `params` with it: `embed`, the EMBED_PARAMS, and `weights`, each
    layer's LAYER_PARAMS, fused [wq | wk | wv] and fused [bq | 0 | bv].  numpy
    sums one lane in another order than many, so 1 row of 1 head runs twice."""

    def __init__(self, params: ParamSet, cfg: ModelConfig, n: int):
        shape = (cfg.D, cfg.E // cfg.heads, n + (n * cfg.heads == 1), cfg.heads)
        self.keys = [np.zeros(shape) for _ in range(cfg.layers)]
        self.values = [np.zeros(shape) for _ in range(cfg.layers)]
        self.length, self.heads = 0, cfg.heads
        self.embed = [params[name].value for name in EMBED_PARAMS]
        w = [[params[f"layer{i}.{p}"].value for p in LAYER_PARAMS] for i in range(cfg.layers)]
        self.weights = [ws + [np.hstack((ws[2], ws[4], ws[5])),
                              np.hstack((ws[3], np.zeros_like(ws[3]), ws[6]))] for ws in w]

    def step(self, x: np.ndarray) -> np.ndarray:
        """The next position's hidden rows [N, E] from `x` [N, 1] ([N, 0] at first),
        the input just recovered, in numpy with no node; D steps give condition's."""
        seq = _embed(x, self.embed, self.length)[0]
        seq = np.concatenate((seq, seq)) if len(seq) * self.heads == 1 else seq
        for layer, w in enumerate(self.weights):
            seq = _block(seq, w, self.heads, self, layer)[0]
        self.length += 1
        return seq[:len(x), 0]


def _block(x: np.ndarray, w, heads: int, cache: KVCache | None = None, layer: int = 0):
    """One pre-norm encoder layer in numpy, u = x + MHA(ln(x)), then
    u + MLP(ln(u)) with a tanh MLP, over the arrays `w` named by LAYER_PARAMS.
    Returns the output and vjp(g), the gradients of x and then of each of `w`.

    Without a cache the attention is causal: token i attends to tokens <= i.
    Its scores run in one loop over chunks of ATTN_CHUNK_BYTES, in the
    forward and in the vjp.  One chunk keeps its softmax; several under grad
    keep only each softmax tile's row max and sum, and the vjp rebuilds each
    chunk's softmax from them, bit for bit.
    With a cache (`KVCache.step`), `x` is the new token [N, 1, E] and `w` one
    of the cache's `weights`: one fused product (each row with the three
    products' bits) gives q, k and v as lanes; k and v go into the cache's
    `layer`, and q.k over head_dim, softmaxed over the keys, weights v; no vjp.
    """
    g1, b1, wq, bq, wk, wv, bv, wo, bo, g2, b2, w1, bm1, w2, bm2 = w[:15]
    n, d, e = x.shape
    dk = e // heads
    # the softmax applies the 1/sqrt(d_k) itself, tile by tile; a Python
    # float, as a numpy float64 scale would promote float32 scores
    scale = 1.0 / math.sqrt(dk)

    def split_heads(t):  # [N*d, E] -> [N, heads, d, head_dim]
        return t.reshape(n, d, heads, dk).transpose(0, 2, 1, 3)

    def merge_heads(t):  # [N, heads, d, head_dim] -> [N*d, E]
        return t.transpose(0, 2, 1, 3).reshape(n * d, e)

    # dc.layer_norm and dc.masked_softmax are looked up at each call, so a
    # profiler that wraps the module's names sees them
    normed, xhat1, inv1 = dc.layer_norm(x, g1, b1, LAYER_NORM_EPS)
    flat1 = normed.reshape(-1, e)
    if cache is not None:
        qkv = dc.rows_matmul(flat1, w[15])
        qkv += w[16]
        q, k, v = qkv.reshape(n, 3, heads, dk).transpose(1, 3, 0, 2)
        keys, values, end = cache.keys[layer], cache.values[layer], cache.length + 1
        keys[cache.length], values[cache.length] = k, v
        attn = dc.masked_softmax(np.einsum("ljnh,jnh->lnh", keys[:end], q.copy()), False, scale)
        ctx = np.einsum("lnh,ljnh->jnh", attn, values[:end]).transpose(1, 2, 0).reshape(n, e)
    else:
        q = split_heads(dc.rows_matmul(flat1, wq) + bq)
        k = split_heads(dc.rows_matmul(flat1, wk))
        v = split_heads(dc.rows_matmul(flat1, wv) + bv)
        kt = k.transpose(0, 1, 3, 2)
        rows = max(1, ATTN_CHUNK_BYTES // (heads * d * d * x.itemsize))
        chunks = [slice(r, r + rows) for r in range(0, max(n, 1), rows)]
        several = len(chunks) > 1
        chunk_shape = (min(rows, n),) + q.shape[1:3] + kt.shape[-1:]

        def probs(c, stats, buf):  # one chunk's attention weights, into buf
            scores = q[c] @ kt[c]
            return dc.masked_softmax(scores, True, scale, stats, buf[:len(scores)])

        # the chunks share one softmax buffer.  One chunk keeps it for the vjp
        # (recomputing it slowed a d8-cdf float32 step on 256 rows from a median
        # 65 ms to 74); several free it, and under grad masked_softmax fills each
        # chunk's empty list with its row statistics, which the vjp passes back
        # for the same chunk's scores to rebuild the forward's softmax
        stats = [[] if several and dc.grad_enabled() else None for _ in chunks]
        attn, ctx4 = np.zeros(chunk_shape, q.dtype), np.empty(q.shape, q.dtype)
        for c, s in zip(chunks, stats):
            ctx4[c] = probs(c, s, attn) @ v[c]
        attn = None if several else attn
        ctx = merge_heads(ctx4)
    u = x + (dc.rows_matmul(ctx, wo) + bo).reshape(n, d, e)

    normed2, xhat2, inv2 = dc.layer_norm(u, g2, b2, LAYER_NORM_EPS)
    flat2 = normed2.reshape(-1, e)
    hidden = np.tanh(dc.rows_matmul(flat2, w1) + bm1)
    out = u + (dc.rows_matmul(hidden, w2) + bm2).reshape(n, d, e)
    if cache is not None:
        return out, None

    def vjp(g):
        gf = g.reshape(-1, e)
        ga = (gf @ w2.T) * (1.0 - hidden * hidden)
        gu_ln, gg2, gb2 = dc.layer_norm_vjp((ga @ w1.T).reshape(n, d, e), xhat2, inv2, g2)
        gu = g + gu_ln
        guf = gu.reshape(-1, e)
        g_ctx = split_heads(guf @ wo.T)

        def chunk_grads(c, y, out):  # one chunk's gradients of q, k and v
            g_y = g_ctx[c] @ v[c].swapaxes(-1, -2)
            g_scores = dc.masked_softmax_vjp(g_y, y, scale, out)
            return (g_scores @ kt[c].swapaxes(-1, -2),
                    (q[c].swapaxes(-1, -2) @ g_scores).transpose(0, 1, 3, 2),
                    y.swapaxes(-1, -2) @ g_ctx[c])

        y_buf = np.zeros(chunk_shape, q.dtype) if several else None
        g_buf = np.zeros(chunk_shape, q.dtype)
        parts = [np.empty(a.shape, q.dtype) for a in (q, k, v)]
        for c, s in zip(chunks, stats):
            y = probs(c, s, y_buf) if several else attn
            parts[0][c], parts[1][c], parts[2][c] = chunk_grads(c, y, g_buf[:len(y)])
        gq, gk, gv = (merge_heads(p) for p in parts)
        g_normed = (gq @ wq.T + gk @ wk.T) + gv @ wv.T
        gx_ln, gg1, gb1 = dc.layer_norm_vjp(g_normed.reshape(n, d, e), xhat1, inv1, g1)
        return (gu + gx_ln, gg1, gb1, flat1.T @ gq, gq.sum(axis=0), flat1.T @ gk,
                flat1.T @ gv, gv.sum(axis=0), ctx.T @ guf, guf.sum(axis=0), gg2, gb2,
                flat2.T @ ga, ga.sum(axis=0), hidden.T @ gf, gf.sum(axis=0))

    return out, vjp


def encoder_layer(seq: Node, params: ParamSet, layer: int, cfg: ModelConfig) -> Node:
    """Pre-norm encoder block: `_block` as one graph node over `seq` and the
    layer's LAYER_PARAMS."""
    nodes = [seq] + [params[f"layer{layer}.{name}"] for name in LAYER_PARAMS]
    return _node(*_block(seq.value, [node.value for node in nodes[1:]], cfg.heads), nodes)


def condition(x, params: ParamSet, cfg: ModelConfig) -> Node:
    """Full conditioner pass over a batch x [N, D]: hidden embeddings
    [N, D, E], embedding i depending on inputs < i only."""
    seq = embed_sequence(x, params, cfg)
    for layer in range(cfg.layers):
        seq = encoder_layer(seq, params, layer, cfg)
    return seq
