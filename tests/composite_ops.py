"""Graph ops that only the tests' reference op chains use.

The library's heads are hand-written nodes (transforms.cdf_forward_node and
spline_forward_node), and the embedding and each encoder layer are one node
over a numpy function (conditioner._embed and _block), so these ops have no
caller in ``tnaf``.  The op chains that those nodes replaced stay in the
tests as references, built from these ops with the library's arithmetic (``embed_sequence`` and
``encoder_layer`` below are the conditioner's stages); their unit and
finite-difference tests are in tests/test_diffcore.py.
"""

import math

import numpy as np

from tnaf import diffcore as dc
from tnaf.conditioner import LAYER_NORM_EPS
from tnaf.diffcore import DimensionError


def sub(a, b):
    return dc._binary(a, b, np.subtract, lambda g, av, bv: g, lambda g, av, bv: -g)


def div(a, b):
    return dc._binary(a, b, np.divide, lambda g, av, bv: g / bv,
                      lambda g, av, bv: -g * av / (bv * bv))


def log(a):
    a = dc._wrap(a)
    av = a.value
    return dc.make_node(np.log(av), [(a, lambda g: g / av)])


def softplus(a):
    """log(1 + e^x), computed stably for large |x|."""
    a = dc._wrap(a)
    av = a.value
    out = np.logaddexp(0.0, av)
    return dc.make_node(out, [(a, lambda g: g * 0.5 * (1.0 + np.tanh(0.5 * av)))])


def logsumexp(a, axis=-1, keepdims=False):
    """Max-shifted log-sum-exp along one axis; exact for constant inputs."""
    a = dc._wrap(a)
    av = a.value
    if av.ndim == 0 or av.shape[axis] == 0:
        raise DimensionError(f"logsumexp over empty axis of shape {av.shape}")
    m = av.max(axis=axis, keepdims=True)
    ex = np.exp(av - m)
    s = ex.sum(axis=axis, keepdims=True)
    out_kd = m + np.log(s)
    out = out_kd if keepdims else np.squeeze(out_kd, axis=axis)

    def vjp(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        return gk * (ex / s)

    return dc.make_node(out, [(a, vjp)])


def gather_last(a, idx):
    """Pick one entry per leading position along the last axis."""
    a = dc._wrap(a)
    av = a.value
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != av.shape[:-1]:
        raise DimensionError(f"index shape {idx.shape} != leading shape {av.shape[:-1]}")
    out = np.take_along_axis(av, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        full = np.zeros_like(av)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return full

    return dc.make_node(out, [(a, vjp)])


def where(cond, a, b):
    """Select elementwise by a constant boolean mask."""
    a, b = dc._wrap(a), dc._wrap(b)
    cond = np.asarray(cond, dtype=bool)
    if a.value.shape != b.value.shape or cond.shape != a.value.shape:
        raise DimensionError(
            f"where shapes differ: cond {cond.shape}, a {a.value.shape}, b {b.value.shape}"
        )
    out = np.where(cond, a.value, b.value)
    return dc.make_node(out, [(a, lambda g: g * cond), (b, lambda g: g * ~cond)])


def clip(a, lo, hi):
    """Clamp values; gradient is zero outside the open interval (lo, hi)."""
    a = dc._wrap(a)
    av = a.value
    inside = (av > lo) & (av < hi)
    return dc.make_node(np.clip(av, lo, hi), [(a, lambda g: g * inside)])


def tanh(a):
    a = dc._wrap(a)
    out = np.tanh(a.value)
    return dc.make_node(out, [(a, lambda g: g * (1.0 - out * out))])


def matmul(a, b):
    """Matrix product. Rank-2 operands contract normally; higher ranks are
    batched with leading axes required to match exactly."""
    a, b = dc._wrap(a), dc._wrap(b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {av.shape} x {bv.shape}")
    if av.shape[-1] != bv.shape[-2] or av.shape[:-2] != bv.shape[:-2]:
        raise DimensionError(f"matmul shape mismatch: {av.shape} x {bv.shape}")
    return dc.make_node(av @ bv, [(a, lambda g: g @ bv.swapaxes(-1, -2)),
                                  (b, lambda g: av.swapaxes(-1, -2) @ g)])


def masked_softmax(scores, causal, scale=1.0):
    """dc.masked_softmax as a node, its VJP dc.masked_softmax_vjp; that VJP is
    the causal softmax's only, so a non-causal node (a cached step's) refuses it."""
    scores = dc._wrap(scores)
    y = dc.masked_softmax(scores.value, causal, scale)

    def vjp(g):
        if not causal:
            raise dc.ContractViolation("masked_softmax has no non-causal VJP")
        return dc.masked_softmax_vjp(g, y, scale, np.zeros_like(y))

    return dc.make_node(y, [(scores, vjp)])


def layer_norm(x, gain, bias, eps=LAYER_NORM_EPS):
    """dc.layer_norm as a node over x, gain and bias, its VJPs dc.layer_norm_vjp."""
    x, gain, bias = dc._wrap(x), dc._wrap(gain), dc._wrap(bias)
    out, xhat, inv = dc.layer_norm(x.value, gain.value, bias.value, eps)

    def part(i):
        return lambda g: dc.layer_norm_vjp(g, xhat, inv, gain.value)[i]

    return dc.make_node(out, [(x, part(0)), (gain, part(1)), (bias, part(2))])


def embed_sequence(x, params, cfg, start=0):
    """The 6-node op chain that conditioner.embed_sequence's one node
    replaced, from position `start` on: the start token (reshape,
    broadcast_to) at position 0 and the inputs (linear) after it, one concat,
    then one narrow of positional and one add.  From position 0, x [N, D]
    loses its last input, and [N, 0] gives the start token alone; from p > 0,
    x holds inputs p-1, p, ..."""
    xb = dc.as_tensor(x)
    tokens = []
    if start == 0:
        bos = dc.reshape(params["bos"], (1, 1, cfg.E))
        tokens.append(dc.broadcast_to(bos, (len(xb), 1, cfg.E)))
        xb = xb[:, :-1]
    if xb.shape[1]:
        tokens.append(dc.linear(xb[..., None], params["input_proj.w"], params["input_proj.b"]))
    seq = dc.concat(tokens, axis=1) if len(tokens) > 1 else tokens[0]
    return dc.add(seq, dc.narrow(params["positional"], 0, start, seq.value.shape[1]))


def encoder_layer(seq, params, layer, cfg, cache=None):
    """The 23-node op chain that conditioner.encoder_layer's one node
    replaced: x + MHA(ln(x)), then u + MLP(ln(u)).  With a cache, the new
    token's (d = 1) chain over the lane-major cache: q, k and v reshaped to
    lanes [head_dim, N, heads], the cached keys and values as constants,
    the scores a sum of q * k over head_dim, the softmax over the leading key
    axis, and the context a sum of attn * v over the keys."""
    n, d, e = seq.value.shape
    h, dk = cfg.heads, cfg.E // cfg.heads
    p = f"layer{layer}."

    normed = layer_norm(seq, params[p + "ln1.g"], params[p + "ln1.b"])
    q = dc.linear(normed, params[p + "wq"], params[p + "bq"])
    k = dc.linear(normed, params[p + "wk"])
    v = dc.linear(normed, params[p + "wv"], params[p + "bv"])
    scale = 1.0 / math.sqrt(dk)
    if cache is None:
        def split_heads(t):
            return dc.transpose(dc.reshape(t, (n, d, h, dk)), (0, 2, 1, 3))

        q, k, v = split_heads(q), split_heads(k), split_heads(v)
        attn = masked_softmax(matmul(q, dc.transpose(k, (0, 1, 3, 2))), True, scale)
        ctx = dc.reshape(dc.transpose(matmul(attn, v), (0, 2, 1, 3)), (n, d, e))
    else:  # the new key and value go into the cache at its length
        def lanes(t):  # [N, 1, E] -> [head_dim, N, heads]
            return dc.transpose(dc.reshape(t, (n, h, dk)), (2, 0, 1))

        q, k, v = lanes(q), lanes(k), lanes(v)
        keys, values, end = cache.keys[layer], cache.values[layer], cache.length + 1
        keys[cache.length], values[cache.length] = k.value, v.value
        scores = dc.sum_(dc.mul(dc.constant(keys[:end]), q), axis=1)
        attn = dc.reshape(masked_softmax(scores, False, scale), (end, 1, n, h))
        ctx = dc.sum_(dc.mul(attn, dc.constant(values[:end])), axis=0)
        ctx = dc.reshape(dc.transpose(ctx, (1, 2, 0)), (n, d, e))
    u = dc.add(seq, dc.linear(ctx, params[p + "wo"], params[p + "bo"]))

    normed2 = layer_norm(u, params[p + "ln2.g"], params[p + "ln2.b"])
    hidden = tanh(dc.linear(normed2, params[p + "mlp.w1"], params[p + "mlp.b1"]))
    return dc.add(u, dc.linear(hidden, params[p + "mlp.w2"], params[p + "mlp.b2"]))


def condition(x, params, cfg, cache=None):
    """The conditioner over these op chains: the full pass or, with a cache,
    one step that encodes the token of x [N, 1] ([N, 0] at the first step)
    against the cached prefix and returns its hidden rows [N, 1, E]."""
    seq = embed_sequence(x, params, cfg, 0 if cache is None else cache.length)
    for layer in range(cfg.layers):
        seq = encoder_layer(seq, params, layer, cfg, cache)
    if cache is not None:
        cache.length += 1
    return seq
