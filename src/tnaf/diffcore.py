"""Reverse-mode automatic differentiation over dense float32 or float64 tensors.

The graph is rebuilt on every forward pass (define-by-run): each operation
returns a Node holding its value plus the local vector-Jacobian rules of its
parents. backward() walks the graph once in reverse topological order.
Values are numpy float64 or float32 arrays; there is no GPU path.  The dtype
follows the inputs: no op promotes a float32 graph to float64.  A Python
number or other constant operand of a binary op takes the other operand's
dtype, and every buffer an op allocates takes its input's, so one graph
computes in one precision throughout; there is no mode to switch.  Binary ops
follow numpy's broadcasting rules, and their gradients are summed back to each
operand's shape.  The ops are the ones the model needs: add, mul, exp, sum_,
the shape ops, strict_lower_embed, and linear, the affine map over the last
axis behind every projection, as one node with a hand-written VJP.  linear's
value and the encoder layer's products over rows go through rows_matmul,
which multiplies in fixed tiles of rows, so a row's value does not depend on
how many rows share the call.  The transform heads build their own nodes
with make_node, and so do the conditioner's embedding and encoder layers,
one node each over a numpy function with a joint VJP.  Two numpy helpers, each
with its VJP beside it, serve the encoder layer: layer_norm, and
masked_softmax, which takes the attention's 1/sqrt(d_k) as its `scale` and a
`causal` flag; a causal call builds its own mask and works in tiles of
SOFTMAX_ROW_BLOCK query rows by the columns those rows can see, skipping the
scores the mask hides.  It can keep each tile's row max and row sum in a list
and rebuild its output from them without reducing again.  It can write
into a caller's buffer, and its VJP, for the causal softmax only, always
does, so the encoder layer's row chunks reuse one buffer each.

Gradient buffers follow one rule: no gradient is ever added into in place.
An interior node borrows its first gradient contribution (often another
node's buffer), a leaf copies it, and every later contribution allocates the
sum.
backward() drops each interior node's gradient once its VJPs have run; a
leaf's copy shares memory with nothing else and survives backward().

no_grad() is the only mode: inside it ops record no parents, so nothing is
kept for a backward pass.  Graph construction and backward() are
single-threaded per model; value-only evaluation under no_grad() of immutable
parameters is safe from concurrent threads (the flag is thread-local).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import numpy as np

# Additive mask surrogate for "minus infinity" in attention scores.  Large
# enough that exp() underflows to exactly 0.0 after the max shift, and finite
# in float32 as well as float64.
NEG_MASK = -1e30

# Query rows per tile of masked_softmax.  On whole causal [64, 8, 63, 63]
# scores a value-only call took 15.5 ms at 8 rows, 17.3 at 16, 19.9 at 32 and
# 28 as one tile, its VJP 8.5, 8.7, 9.7 and 8.8 ms (2-core Xeon, AVX-512);
# the tiles run inside each row chunk (conditioner.ATTN_CHUNK_BYTES).
SOFTMAX_ROW_BLOCK = 8

# Rows per tile of rows_matmul.  OpenBLAS rounds a row of [M, K] @ [K, N]
# differently by M: numpy's gemv at M = 1, the rows after the last multiple
# of 4, and its blocked, threaded GEMM above M*N*K of about 10^6.  64 rows
# keep every tile of the model's products in its single-threaded
# small-matrix kernel (the largest, a d8 cdf head's, is 64 * 32 * 386 = 790k).
ROW_TILE = 64


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractViolation(RuntimeError):
    """An operation precondition or internal invariant was broken."""


# ---------------------------------------------------------------------------
# the no_grad mode
# ---------------------------------------------------------------------------

_state = threading.local()


def grad_enabled() -> bool:
    """False inside no_grad(), on this thread."""
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager: ops inside record no parents and need no backward."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


# ---------------------------------------------------------------------------
# tensors and nodes
# ---------------------------------------------------------------------------


_F64, _F32 = np.dtype(np.float64), np.dtype(np.float32)


def as_tensor(data) -> np.ndarray:
    """`data` as an array in one of the two dtypes this module computes in: a
    float32 or float64 array as it is, anything else coerced to float64.

    Every node passes through here, so a float32 or float64 ndarray returns
    before any numpy call."""
    if type(data) is np.ndarray and (data.dtype is _F64 or data.dtype is _F32):
        return data
    arr = np.asarray(data)
    return arr if arr.dtype == _F32 else arr.astype(_F64, copy=False)


class Node:
    """A value in the computation graph.

    `parents` holds (parent, vjp) pairs where vjp maps the output gradient to
    the parent's gradient contribution.  Only leaves (nodes without parents,
    such as parameters) keep a gradient after backward(); repeated backward()
    calls add to it until explicitly zeroed.  `grad` of a node that took no
    contribution reads as zeros.
    """

    __slots__ = ("value", "_grad", "requires_grad", "parents")

    def __init__(self, value, requires_grad: bool = False, parents=()):
        self.value = as_tensor(value)
        self.requires_grad = requires_grad
        self.parents = parents
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self.grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, g) -> None:
        self._grad = None if g is None else as_tensor(g)

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add one gradient contribution, writing into no buffer: an interior
        node borrows its first contribution (perhaps another node's buffer), a
        leaf copies it, and every later contribution allocates the sum."""
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match value shape {self.value.shape}"
            )
        if self._grad is None:
            self._grad = g if self.parents else g.copy(order="K")
        else:
            self._grad = self._grad + g

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self):
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Node:
    return Node(data, requires_grad=False)


def parameter(data) -> Node:
    return Node(data, requires_grad=True)


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def make_node(value: np.ndarray, parents: Iterable[tuple[Node, Callable]]) -> Node:
    """Build an op result, recording vjps only for grad-requiring parents."""
    if grad_enabled():
        recorded = tuple((p, vjp) for p, vjp in parents if p.requires_grad)
        if recorded:
            return Node(value, requires_grad=True, parents=recorded)
    return Node(value, requires_grad=False)


class ParamSet:
    """Ordered name -> Node map of trainable parameters."""

    def __init__(self):
        self._params: dict[str, Node] = {}

    def add(self, name: str, value) -> Node:
        if name in self._params:
            raise ContractViolation(f"duplicate parameter name {name!r}")
        node = parameter(value)
        self._params[name] = node
        return node

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def total_count(self) -> int:
        return sum(p.value.size for p in self._params.values())

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.value.copy() for k, v in self._params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in snap.items():
            self._params[k].value = v.copy()


# ---------------------------------------------------------------------------
# broadcasting (numpy's rules)
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back to `shape`: first the leading axes that
    broadcasting added, then the size-1 axes it stretched."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if stretched:
        g = g.sum(axis=stretched, keepdims=True)
    return g


def _binary(a, b, fn, vjp_a, vjp_b) -> Node:
    # a constant operand such as the 2.0 of mul(2.0, x) takes the node
    # operand's dtype: as a float64 0-d array it would promote a float32
    # operand to float64 (NumPy 2 promotion, NEP 50)
    if not isinstance(a, Node) and isinstance(b, Node):
        a = constant(np.asarray(a, b.value.dtype))
    elif not isinstance(b, Node) and isinstance(a, Node):
        b = constant(np.asarray(b, a.value.dtype))
    a, b = _wrap(a), _wrap(b)
    av, bv = a.value, b.value
    try:
        out = fn(av, bv)
    except ValueError as err:
        raise DimensionError(f"shapes {av.shape} and {bv.shape} do not broadcast") from err
    return make_node(
        out,
        [
            (a, lambda g: _unbroadcast(vjp_a(g, av, bv), av.shape)),
            (b, lambda g: _unbroadcast(vjp_b(g, av, bv), bv.shape)),
        ],
    )


# ---------------------------------------------------------------------------
# arithmetic, pointwise ops and the sum
# ---------------------------------------------------------------------------


def add(a, b) -> Node:
    return _binary(a, b, np.add, lambda g, av, bv: g, lambda g, av, bv: g)


def mul(a, b) -> Node:
    return _binary(a, b, np.multiply, lambda g, av, bv: g * bv, lambda g, av, bv: g * av)


def exp(a) -> Node:
    a = _wrap(a)
    out = np.exp(a.value)
    return make_node(out, [(a, lambda g: g * out)])


def sum_(a, axis: int | None = None) -> Node:
    a = _wrap(a)
    av = a.value
    out = av.sum(axis=axis)

    def vjp(g):
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), av.shape).copy()

    return make_node(out, [(a, vjp)])


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Node:
    a = _wrap(a)
    av = a.value
    out = av.reshape(shape)
    return make_node(out, [(a, lambda g: g.reshape(av.shape))])


def transpose(a, axes) -> Node:
    a = _wrap(a)
    axes = tuple(axes)
    # argsort only inside the VJP: under no_grad it would be most of the op's cost
    return make_node(np.transpose(a.value, axes),
                     [(a, lambda g: np.transpose(g, np.argsort(axes)))])


def concat(nodes, axis: int) -> Node:
    nodes = [_wrap(n) for n in nodes]
    values = [n.value for n in nodes]
    out = np.concatenate(values, axis=axis)
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(sl)]

        return vjp

    return make_node(out, [(n, make_vjp(i)) for i, n in enumerate(nodes)])


def narrow(a, axis: int, start: int, length: int) -> Node:
    """Contiguous slice along one axis; backward zero-pads."""
    a = _wrap(a)
    av = a.value
    sl = [slice(None)] * av.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = av[sl]

    def vjp(g):
        full = np.zeros_like(av)
        full[sl] = g
        return full

    return make_node(out, [(a, vjp)])


def broadcast_to(a, shape) -> Node:
    """Materialize a broadcast to `shape` (numpy's rules)."""
    a = _wrap(a)
    av = a.value
    try:
        out = np.broadcast_to(av, shape).copy()
    except ValueError as err:
        raise DimensionError(f"cannot broadcast {av.shape} to {tuple(shape)}") from err
    return make_node(out, [(a, lambda g: _unbroadcast(g, av.shape))])


def strict_lower_embed(free, d: int) -> Node:
    """Embed d(d-1)/2 free entries as a unit-lower-triangular d x d matrix."""
    free = _wrap(free)
    rows, cols = np.tril_indices(d, -1)
    if free.value.shape != (len(rows),):
        raise DimensionError(
            f"expected {len(rows)} free entries for d={d}, got shape {free.value.shape}"
        )
    out = np.eye(d, dtype=free.value.dtype)
    out[rows, cols] = free.value
    return make_node(out, [(free, lambda g: g[rows, cols])])


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def rows_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a [M, K] @ w [K, N], each row's value independent of M.

    Above ROW_TILE rows the rows multiply in ROW_TILE-row tiles, as one
    stacked product with the last tile zero-padded; at or below it, in one
    tile padded to a multiple of 4 rows.  So a row reads the same bits alone,
    in any batch and on any thread.
    """
    m, k = a.shape
    tile = min(ROW_TILE, -(-m // 4) * 4)
    if m == tile:  # no rows, or one whole tile: the same product as stacked
        return a @ w
    if m % tile:
        padded = np.zeros((m + tile - m % tile, k), a.dtype)
        padded[:m] = a
        a = padded
    return (a.reshape(-1, tile, k) @ w).reshape(len(a), -1)[:m]


def linear(x, w, b=None) -> Node:
    """Affine map over the last axis as one node: x [..., in] @ w [in, out]
    (+ b [out]) gives [..., out].

    The value is y = rows_matmul(flat, w) + b over flat = x.reshape(-1, in).
    The VJPs do the float arithmetic of the reshape -> matmul -> add ->
    reshape chain exactly: gx = g @ wᵀ, gw = flatᵀ @ g and gb = Σ₀ g over
    g.reshape(-1, out).
    """
    x, w = _wrap(x), _wrap(w)
    xv, wv = x.value, w.value
    if xv.ndim < 1 or wv.ndim != 2 or xv.shape[-1] != wv.shape[0]:
        raise DimensionError(f"linear shape mismatch: {xv.shape} x {wv.shape}")
    in_dim, out_dim = wv.shape
    flat = xv.reshape(-1, in_dim)
    parents = [
        (x, lambda g: (g.reshape(-1, out_dim) @ wv.T).reshape(xv.shape)),
        (w, lambda g: flat.T @ g.reshape(-1, out_dim)),
    ]
    if b is None:
        out = rows_matmul(flat, wv)
    else:
        b = _wrap(b)
        if b.value.shape != (out_dim,):
            raise DimensionError(f"linear bias must have shape ({out_dim},), got {b.value.shape}")
        # `+` rather than `+=`: the composite's allocations.  In place, a
        # 256-row d8-cdf log_prob in a fresh process took 4584 page faults
        # instead of 2546 (glibc's adaptive mmap threshold)
        out = rows_matmul(flat, wv) + b.value
        parents.append((b, lambda g: g.reshape(-1, out_dim).sum(axis=0)))
    return make_node(out.reshape(xv.shape[:-1] + (out_dim,)), parents)


# ---------------------------------------------------------------------------
# numpy helpers of the encoder layer, each with its VJP beside it
# ---------------------------------------------------------------------------


def _softmax_tiles(n: int, causal: bool) -> list[tuple]:
    if not causal:
        return [(...,)]
    return [(..., slice(r, r + SOFTMAX_ROW_BLOCK), slice(0, min(r + SOFTMAX_ROW_BLOCK, n)))
            for r in range(0, n, SOFTMAX_ROW_BLOCK)]


def masked_softmax(scores: np.ndarray, causal: bool, scale: float = 1.0,
                   stats: list | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of scale * scores over the last axis; with `causal`, square
    scores and query row r sees key columns 0..r only.

    A causal call runs over tiles of SOFTMAX_ROW_BLOCK query rows by the
    columns those rows can see, adding NEG_MASK to the hidden positions in
    each tile: t = scale * scores + mask, y = exp(t - max) / sum, written
    into a zero-filled result, so every hidden position is exactly 0, and
    lanes outside every tile exactly +0.

    `stats`, a list, carries each tile's row max and row sum: an empty list
    is filled with them, and a filled one is read in place of both
    reductions, so a call on the same scores rebuilds y bit for bit; a
    filled list of another tile count is refused.  `out` (the scores' shape
    and dtype) takes y in place of a fresh zero-filled array; its lanes
    outside every tile must hold +0, as every call leaves them."""
    n = scores.shape[-1]
    mask = np.triu(np.full((n, n), NEG_MASK, scores.dtype), 1) if causal else None
    y = np.zeros(scores.shape, scores.dtype) if out is None else out
    tiles = _softmax_tiles(n, causal)
    filled = bool(stats)
    if filled and len(stats) != len(tiles):
        raise ValueError(f"masked_softmax: {len(stats)} kept statistics for {len(tiles)} tiles")
    for i, tile in enumerate(tiles):
        t = scores[tile] * scale
        if causal:
            t += mask[tile[1:]]
        top, total = stats[i] if filled else (t.max(axis=-1, keepdims=True), None)
        t -= top
        np.exp(t, out=t)
        if not filled:
            total = t.sum(axis=-1, keepdims=True)
            if stats is not None:
                stats.append((top, total))
        np.divide(t, total, out=y[tile])
    return y


def masked_softmax_vjp(g, y, scale: float, out: np.ndarray) -> np.ndarray:
    """The scores' gradient of a causal masked_softmax from its output y alone:
    scale * y * (g - sum(g * y)), tile by tile over the causal tiles' columns,
    written into `out` (y's shape and dtype, +0 outside every tile as
    masked_softmax's `out`)."""
    for tile in _softmax_tiles(y.shape[-1], True):
        yt, gt = y[tile], g[tile]
        # einsum forms the row sums of g * y without a temporary
        gt = gt - np.einsum("...j,...j->...", gt, yt)[..., None]
        gt *= yt
        np.multiply(gt, scale, out=out[tile])
    return out


def layer_norm(x, gain, bias, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardize the last axis (biased variance + eps), then affine; returns
    the output and the xhat and 1/std that layer_norm_vjp reads."""
    e = x.shape[-1]
    # np.add.reduce(...) / e is ndarray.mean's arithmetic without its wrapper
    mu = np.add.reduce(x, axis=-1, keepdims=True) / e
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / e
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gain * xhat + bias, xhat, inv


def layer_norm_vjp(g, xhat, inv, gain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients of layer_norm's x, gain and bias for output gradient g."""
    e = g.shape[-1]
    dxhat = g * gain
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / e
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / e
    return (inv * (dxhat - m1 - xhat * m2), _unbroadcast(g * xhat, gain.shape),
            _unbroadcast(g, gain.shape))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(leaf) into every grad-requiring leaf's .grad.

    Each interior node's gradient is released once its VJPs have run, so a
    pass holds only the gradients still waiting for a consumer, and a second
    backward() of the same loss adds exactly one more pass into the leaves.
    """
    if loss.value.size != 1:
        raise ContractViolation(f"backward root must be scalar, got shape {loss.value.shape}")

    # Iterative post-order DFS; recursion would overflow on deep graphs.
    topo: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    loss.accumulate_grad(np.ones_like(loss.value))
    for node in reversed(topo):
        # every node but the loss is a parent of one processed before it
        g = node._grad
        for parent, vjp in node.parents:
            parent.accumulate_grad(as_tensor(vjp(g)))
        if node.parents:
            node._grad = None
