"""Reverse-mode automatic differentiation over dense float64 tensors.

The graph is rebuilt on every forward pass (define-by-run): each operation
returns a Node holding its value plus the local vector-Jacobian rules of its
parents. backward() walks the graph once in reverse topological order.
Values are numpy float64 arrays throughout; there is no GPU path and no
operator fusion beyond the few composite ops defined here.

Graph construction and backward() are single-threaded per model; value-only
evaluation under no_grad() of immutable parameters is safe from concurrent
threads (the mode flags are thread-local).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import numpy as np

# Additive mask surrogate for "minus infinity" in attention scores.  Large
# enough that exp() underflows to exactly 0.0 after the max shift.
NEG_MASK = -1e30


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain (checked mode only)."""


class ContractViolation(RuntimeError):
    """An operation precondition or internal invariant was broken."""


# ---------------------------------------------------------------------------
# global modes
# ---------------------------------------------------------------------------

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


def _checked() -> bool:
    return getattr(_state, "checked", False)


def is_checked() -> bool:
    """True when NaN/Inf and domain checks are active on this thread."""
    return _checked()


class no_grad:
    """Context manager: ops inside record no parents and need no backward."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class checked_mode:
    """Context manager enabling NaN/Inf and domain checks on op outputs."""

    def __init__(self, enabled: bool = True):
        self._enabled = enabled

    def __enter__(self):
        self._prev = _checked()
        _state.checked = self._enabled
        return self

    def __exit__(self, *exc):
        _state.checked = self._prev
        return False


# ---------------------------------------------------------------------------
# tensors and nodes
# ---------------------------------------------------------------------------


def as_tensor(data) -> np.ndarray:
    """Coerce to a float64 array (the only dtype this module computes in)."""
    arr = np.asarray(data, dtype=np.float64)
    return arr


def check_finite(arr: np.ndarray, context: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{context}: non-finite entries detected")
    return arr


class Node:
    """A value in the computation graph.

    `parents` holds (parent, vjp) pairs where vjp maps the output gradient to
    the parent's gradient contribution.  Gradients accumulate across repeated
    backward() calls until explicitly zeroed.
    """

    __slots__ = ("value", "_grad", "requires_grad", "parents")

    def __init__(self, value, requires_grad: bool = False, parents=()):
        self.value = as_tensor(value)
        self.requires_grad = requires_grad
        self.parents = parents
        self._grad = None

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, g) -> None:
        self._grad = None if g is None else as_tensor(g)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match value shape {self.value.shape}"
            )
        if self._grad is None:
            self._grad = g.astype(np.float64, copy=True)
        else:
            self._grad += g

    def zero_grad(self) -> None:
        self._grad = None

    def backward(self) -> None:
        backward(self)

    # Operator sugar; everything routes through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

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
    if _checked():
        check_finite(value, "op output")
    if _grad_enabled():
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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def nodes(self) -> list[Node]:
        return list(self._params.values())

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
# broadcasting helpers (suffix rule only: scalar-vs-tensor or an operand whose
# shape equals the trailing axes of the other)
# ---------------------------------------------------------------------------


def _is_suffix(small: tuple, big: tuple) -> bool:
    return len(small) <= len(big) and (len(small) == 0 or big[-len(small):] == small)


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the leading axes introduced by suffix broadcast."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g.reshape(shape)


def _binary(a, b, fn, vjp_a, vjp_b) -> Node:
    a, b = _wrap(a), _wrap(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        if _is_suffix(av.shape, bv.shape):
            pass
        elif _is_suffix(bv.shape, av.shape):
            pass
        else:
            raise DimensionError(
                f"shapes {av.shape} and {bv.shape} are not suffix-broadcastable"
            )
    out = fn(av, bv)
    return make_node(
        out,
        [
            (a, lambda g: _reduce_to(vjp_a(g, av, bv), av.shape)),
            (b, lambda g: _reduce_to(vjp_b(g, av, bv), bv.shape)),
        ],
    )


# ---------------------------------------------------------------------------
# arithmetic and pointwise ops
# ---------------------------------------------------------------------------


def add(a, b) -> Node:
    return _binary(a, b, np.add, lambda g, av, bv: g, lambda g, av, bv: g)


def sub(a, b) -> Node:
    return _binary(a, b, np.subtract, lambda g, av, bv: g, lambda g, av, bv: -g)


def mul(a, b) -> Node:
    return _binary(a, b, np.multiply, lambda g, av, bv: g * bv, lambda g, av, bv: g * av)


def div(a, b) -> Node:
    return _binary(
        a, b, np.divide,
        lambda g, av, bv: g / bv,
        lambda g, av, bv: -g * av / (bv * bv),
    )


def neg(a) -> Node:
    a = _wrap(a)
    return make_node(-a.value, [(a, lambda g: -g)])


def exp(a) -> Node:
    a = _wrap(a)
    out = np.exp(a.value)
    return make_node(out, [(a, lambda g: g * out)])


def log(a) -> Node:
    a = _wrap(a)
    if _checked() and np.any(a.value <= 0.0):
        raise DomainError("log of non-positive entry")
    av = a.value
    return make_node(np.log(av), [(a, lambda g: g / av)])


def tanh(a) -> Node:
    a = _wrap(a)
    out = np.tanh(a.value)
    return make_node(out, [(a, lambda g: g * (1.0 - out * out))])


def sigmoid(a) -> Node:
    a = _wrap(a)
    out = 0.5 * (1.0 + np.tanh(0.5 * a.value))
    return make_node(out, [(a, lambda g: g * out * (1.0 - out))])


def softplus(a) -> Node:
    """log(1 + e^x), computed stably for large |x|."""
    a = _wrap(a)
    av = a.value
    out = np.logaddexp(0.0, av)
    return make_node(out, [(a, lambda g: g * 0.5 * (1.0 + np.tanh(0.5 * av)))])


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_(a, axis: int | None = None, keepdims: bool = False) -> Node:
    a = _wrap(a)
    av = a.value
    out = av.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        ge = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(ge, av.shape).copy()

    return make_node(out, [(a, vjp)])


def mean(a, axis: int | None = None, keepdims: bool = False) -> Node:
    a = _wrap(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Node:
    """Max-shifted log-sum-exp along one axis; exact for constant inputs."""
    a = _wrap(a)
    av = a.value
    if av.ndim == 0 or av.shape[axis] == 0:
        raise DimensionError(f"logsumexp over empty axis of shape {av.shape}")
    m = av.max(axis=axis, keepdims=True)
    ex = np.exp(av - m)
    s = ex.sum(axis=axis, keepdims=True)
    out_kd = m + np.log(s)
    soft = ex / s
    out = out_kd if keepdims else np.squeeze(out_kd, axis=axis)

    def vjp(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        return gk * soft

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
    inv = tuple(np.argsort(axes))
    return make_node(np.transpose(a.value, axes), [(a, lambda g: np.transpose(g, inv))])


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
    """Broadcast by prepending axes; a.shape must be a suffix of shape."""
    a = _wrap(a)
    shape = tuple(shape)
    if not _is_suffix(a.value.shape, shape):
        raise DimensionError(f"cannot broadcast {a.value.shape} to {shape} (suffix rule)")
    out = np.broadcast_to(a.value, shape).copy()
    src_shape = a.value.shape
    return make_node(out, [(a, lambda g: _reduce_to(g, src_shape))])


def expand_last(a, n: int) -> Node:
    """Repeat a trailing axis of size 1 to size n."""
    a = _wrap(a)
    av = a.value
    if av.shape[-1] != 1:
        raise DimensionError(f"expand_last needs trailing axis 1, got {av.shape}")
    out = np.broadcast_to(av, av.shape[:-1] + (n,)).copy()
    return make_node(out, [(a, lambda g: g.sum(axis=-1, keepdims=True))])


def gather_last(a, idx: np.ndarray) -> Node:
    """Pick one entry per leading position along the last axis."""
    a = _wrap(a)
    av = a.value
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != av.shape[:-1]:
        raise DimensionError(f"index shape {idx.shape} != leading shape {av.shape[:-1]}")
    out = np.take_along_axis(av, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        full = np.zeros_like(av)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return full

    return make_node(out, [(a, vjp)])


def cumsum_last(a) -> Node:
    a = _wrap(a)
    out = np.cumsum(a.value, axis=-1)
    return make_node(
        out, [(a, lambda g: np.flip(np.cumsum(np.flip(g, -1), -1), -1))]
    )


def where(cond: np.ndarray, a, b) -> Node:
    """Select elementwise by a constant boolean mask."""
    a, b = _wrap(a), _wrap(b)
    cond = np.asarray(cond, dtype=bool)
    if a.value.shape != b.value.shape or cond.shape != a.value.shape:
        raise DimensionError(
            f"where shapes differ: cond {cond.shape}, a {a.value.shape}, b {b.value.shape}"
        )
    out = np.where(cond, a.value, b.value)
    return make_node(
        out,
        [(a, lambda g: g * cond), (b, lambda g: g * ~cond)],
    )


def clip(a, lo: float, hi: float) -> Node:
    """Clamp values; gradient is zero outside the open interval (lo, hi)."""
    a = _wrap(a)
    av = a.value
    out = np.clip(av, lo, hi)
    inside = (av > lo) & (av < hi)
    return make_node(out, [(a, lambda g: g * inside)])


def strict_lower_embed(free, d: int) -> Node:
    """Embed d(d-1)/2 free entries as a unit-lower-triangular d x d matrix."""
    free = _wrap(free)
    rows, cols = np.tril_indices(d, -1)
    if free.value.shape != (len(rows),):
        raise DimensionError(
            f"expected {len(rows)} free entries for d={d}, got shape {free.value.shape}"
        )
    out = np.eye(d)
    out[rows, cols] = free.value
    return make_node(out, [(free, lambda g: g[rows, cols])])


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b) -> Node:
    """Matrix product. Rank-2 operands contract normally; higher ranks are
    batched with leading axes required to match exactly."""
    a, b = _wrap(a), _wrap(b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {av.shape} x {bv.shape}")
    if av.shape[-1] != bv.shape[-2] or av.shape[:-2] != bv.shape[:-2]:
        raise DimensionError(f"matmul shape mismatch: {av.shape} x {bv.shape}")
    out = av @ bv
    return make_node(
        out,
        [
            (a, lambda g: g @ bv.swapaxes(-1, -2)),
            (b, lambda g: av.swapaxes(-1, -2) @ g),
        ],
    )


# ---------------------------------------------------------------------------
# composite ops
# ---------------------------------------------------------------------------


def softmax_last(a) -> Node:
    """Softmax over the last axis, via the max-shifted logsumexp."""
    a = _wrap(a)
    n = a.value.shape[-1]
    lse = logsumexp(a, axis=-1, keepdims=True)
    return exp(sub(a, expand_last(lse, n)))


def masked_softmax(scores, mask: np.ndarray) -> Node:
    """Softmax of scores + mask over the last axis.

    mask entries must be 0 or NEG_MASK; masked positions come out exactly 0
    (the shifted exponent underflows), so their gradients vanish too.
    """
    scores = _wrap(scores)
    mask = as_tensor(mask)
    n = scores.value.shape[-1]
    if mask.shape != (n, n) or scores.value.shape[-2] != n:
        raise DimensionError(
            f"mask shape {mask.shape} incompatible with scores {scores.value.shape}"
        )
    valid = (mask == 0.0) | (mask == NEG_MASK)
    if not np.all(valid):
        raise ContractViolation("mask entries must be 0 or the -inf surrogate")
    if np.any(np.all(mask == NEG_MASK, axis=-1)):
        raise ContractViolation("masked_softmax: fully masked row")
    shifted = add(scores, constant(mask))
    return softmax_last(shifted)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Node:
    """Standardize the last axis (biased variance + eps), then affine."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    xv = x.value
    e = xv.shape[-1]
    if gain.value.shape != (e,) or bias.value.shape != (e,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({e},), got "
            f"{gain.value.shape}/{bias.value.shape}"
        )
    if eps <= 0:
        raise DimensionError("layer_norm eps must be positive")
    mu = xv.mean(axis=-1, keepdims=True)
    xc = xv - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain.value * xhat + bias.value

    def vjp_x(g):
        dxhat = g * gain.value
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv * (dxhat - m1 - xhat * m2)

    def vjp_gain(g):
        return _reduce_to(g * xhat, (e,))

    def vjp_bias(g):
        return _reduce_to(g, (e,))

    return make_node(out, [(x, vjp_x), (gain, vjp_gain), (bias, vjp_bias)])


# ---------------------------------------------------------------------------
# backward pass and the finite-difference oracle
# ---------------------------------------------------------------------------


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into every grad-requiring node's .grad."""
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
        if node._grad is None:
            continue
        g = node._grad
        for parent, vjp in node.parents:
            parent.accumulate_grad(as_tensor(vjp(g)))


def fd_gradient(f: Callable[[ParamSet], float], params: ParamSet, step: float = 1e-5):
    """Central-difference gradient of a scalar function of the parameters.

    Test oracle: deliberately independent of backward(). Perturbs each
    coordinate in place and restores it.
    """
    if step <= 0:
        raise DimensionError("fd step must be positive")
    grads: dict[str, np.ndarray] = {}
    for name, node in params.items():
        flat = node.value.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(f(params))
            flat[i] = orig - step
            fm = float(f(params))
            flat[i] = orig
            g[i] = (fp - fm) / (2.0 * step)
        grads[name] = g.reshape(node.value.shape)
    return grads
