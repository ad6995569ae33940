"""Invertible per-dimension transforms and their log-derivatives.

Each transform maps the real line onto itself strictly monotonically, lane
by lane, and reports log|dy/dx|, so every head pairs with the flow's
standard-normal base.  Every transform has exactly one forward, a batched
graph form built from diffcore ops (run under ``dc.no_grad()`` it gives plain
values), and one vectorized inverse used for sampling and inversion.  An
inverse gets forward values only through the forward's own helpers (the CDF
net, the shared-CDF biases, the spline knots), so sampling inverts the same
float function whose log-derivative was trained.

Spline stacks interleave elementwise splines with a unit-lower-triangular
linear mix whose determinant is exactly 1, so the stack's diagonal derivative
is the product of the per-block spline derivatives.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import diffcore as dc
from .diffcore import ContractViolation, DimensionError, Node

MIN_BIN = 1e-3
MIN_DERIV = 1e-3
# monotone_bisect doubles a bracket end at most this often (to +-2**64)
MAX_DOUBLINGS = 64
LOG2 = float(np.log(2.0))


class InversionError(RuntimeError):
    """Root bracketing failed; the transform parameters are pathological."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def affine_forward_node(x: Node, psi: Node) -> tuple[Node, Node]:
    """Batched graph form: psi[..., 0] is the shift, psi[..., 1] log-scale."""
    lead = psi.value.shape[:-1]
    mu = dc.reshape(dc.narrow(psi, -1, 0, 1), lead)
    log_sigma = dc.reshape(dc.narrow(psi, -1, 1, 1), lead)
    y = dc.add(mu, dc.mul(dc.exp(log_sigma), x))
    return y, log_sigma


def affine_inverse_np(y: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Closed-form inverse; psi packs [shift, log-scale] on the last axis."""
    return (y - psi[..., 0]) / np.exp(psi[..., 1])


# ---------------------------------------------------------------------------
# monotone CDF network: one tanh layer plus a linear term, positivity via exp
# ---------------------------------------------------------------------------


def _softplus(x):
    return np.logaddexp(0.0, x)


def monotone_bisect(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                    tol: float) -> np.ndarray:
    """Invert a lane-wise strictly increasing f by bracketing + bisection.

    Brackets start at [-1, 1] and double outward; a lane that cannot be
    bracketed after the cap raises InversionError naming the lane.  A lane
    stops once its bracket is narrower than tol or once its ends are adjacent
    floats, whose spacing exceeds tol for roots beyond about 4.5e9.
    """
    if tol <= 0:
        raise DimensionError("bisection tolerance must be positive")
    y = np.asarray(y, dtype=np.float64)

    def widen(end, outside, side):
        # double each lane whose f(end) is still on the wrong side of y; every
        # end is evaluated once, and the last evaluation decides
        for _ in range(MAX_DOUBLINGS):
            out = outside(f(end))
            if not out.any():
                return end
            end = np.where(out, end * 2.0, end)
        out = outside(f(end))
        if out.any():
            raise InversionError(f"{side} bracket not found (pathological transform)",
                                 index=int(np.argmax(out)))
        return end

    lo = widen(np.full(y.shape, -1.0), lambda v: v > y, "lower")
    hi = widen(np.full(y.shape, 1.0), lambda v: v < y, "upper")
    splittable = np.ones(y.shape, dtype=bool)
    while (splittable & (hi - lo >= tol)).any():
        mid = 0.5 * (lo + hi)
        splittable &= (lo < mid) & (mid < hi)
        below = f(mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def cdf_inv_batch(y: np.ndarray, w1, b1, w2, b2, c, tol: float = 1e-6) -> np.ndarray:
    """Lane-wise inverse of the monotone net, for hidden-layer parameters
    w1, b1, w2 [..., H] and b2, c per lane (both CDF heads invert through
    this).  Bisection evaluates the forward's own net on constants; it needs
    only the net's value, not its log-derivative."""
    ew1, b1, ew2, b2, ec = (dc.constant(v) for v in
                            (np.exp(w1), b1, np.exp(w2), b2, np.exp(c)))

    def f(x):
        return _cdf_net_node(dc.constant(x), ew1, b1, ew2, b2, ec)[1].value

    return monotone_bisect(f, y, tol)


def _split_cdf_psi(psi: Node, h: int):
    lead = psi.value.shape[:-1]
    w1 = dc.narrow(psi, -1, 0, h)
    b1 = dc.narrow(psi, -1, h, h)
    w2 = dc.narrow(psi, -1, 2 * h, h)
    b2 = dc.reshape(dc.narrow(psi, -1, 3 * h, 1), lead)
    c = dc.reshape(dc.narrow(psi, -1, 3 * h + 1, 1), lead)
    return w1, b1, w2, b2, c


def _cdf_net_node(x: Node, ew1: Node, b1: Node, ew2: Node, b2: Node,
                  ec: Node) -> tuple[Node, Node]:
    """The monotone net on lanes x [...] with weights ew1 = exp(w1),
    ew2 = exp(w2) [..., H] and ec = exp(c): pre-activations
    a = ew1 x + b1 [..., H] and y = b2 + ec x + sum ew2 tanh(a) [...]."""
    a = dc.add(dc.mul(ew1, dc.reshape(x, x.value.shape + (1,))), b1)
    u = dc.add(dc.sum_(dc.mul(dc.tanh(a), ew2), axis=-1), b2)
    return a, dc.add(u, dc.mul(ec, x))


def _cdf_core_node(x: Node, w1: Node, b1: Node, w2: Node, b2: Node,
                   c: Node) -> tuple[Node, Node]:
    """The monotone net and its log-derivative log(e^c + e^L), where
    L = log sum_j exp(w1_j + w2_j) (1 - tanh(a_j)^2) is the tanh layer's
    log-slope."""
    a, y = _cdf_net_node(x, dc.exp(w1), b1, dc.exp(w2), b2, dc.exp(c))
    log1mt2 = dc.mul(2.0, dc.sub(dc.sub(dc.constant(LOG2), a),
                                 dc.softplus(dc.mul(-2.0, a))))
    slope = dc.logsumexp(dc.add(dc.add(w2, log1mt2), w1), axis=-1)
    return y, dc.add(c, dc.softplus(dc.sub(slope, c)))


def cdf_forward_node(x: Node, psi: Node, h: int) -> tuple[Node, Node]:
    """Batched graph form; psi last axis packs [w1 | b1 | w2 | b2 | c]."""
    return _cdf_core_node(x, *_split_cdf_psi(psi, h))


# ---------------------------------------------------------------------------
# shared CDF: one global monotone net, conditioned by the embeddings
# ---------------------------------------------------------------------------


def shared_cdf_biases(h_embed: Node, phi) -> tuple[Node, Node]:
    """The shared net's biases at embeddings h_embed [..., E]: hidden
    b1 = w1_cond h + phi.b1 [..., H] and output b2 = w2_cond h + phi.b2 [...].
    phi maps the shared parameter names ``phi.*`` to nodes."""
    lead, e = h_embed.value.shape[:-1], h_embed.value.shape[-1]
    hdim = phi["phi.w1"].value.shape[0]
    flat = dc.reshape(h_embed, (-1, e))
    cond1 = dc.matmul(flat, dc.transpose(phi["phi.w1_cond"], (1, 0)))
    cond2 = dc.matmul(flat, dc.transpose(phi["phi.w2_cond"], (1, 0)))
    b1 = dc.add(dc.reshape(cond1, lead + (hdim,)), phi["phi.b1"])
    b2 = dc.add(dc.reshape(cond2, lead), dc.reshape(phi["phi.b2"], ()))
    return b1, b2


def shared_cdf_forward_node(x: Node, h_embed: Node, phi) -> tuple[Node, Node]:
    """Batched graph form; h_embed is [N, D, E]."""
    b1, b2 = shared_cdf_biases(h_embed, phi)
    return _cdf_core_node(x, phi["phi.w1"], b1, phi["phi.w2"], b2,
                          dc.reshape(phi["phi.c"], ()))


# ---------------------------------------------------------------------------
# monotonic rational-quadratic spline with identity tails
# ---------------------------------------------------------------------------


def _knot_parts(raw, bound):
    """The knots [-B, interior cumulative points, B], bins floored then
    renormalized, and the bin softmax y = ex / sum(ex), ex = exp(raw - max),
    that the knot node's VJP reads."""
    k = raw.shape[-1]
    y = np.exp(raw - raw.max(axis=-1, keepdims=True))
    y /= y.sum(axis=-1, keepdims=True)
    q = MIN_BIN + (1.0 - MIN_BIN * k) * y
    interior = -bound + 2.0 * bound * np.cumsum(q, axis=-1)[..., : k - 1]
    lead = raw.shape[:-1]
    edge = np.full(lead + (1,), bound)
    return np.concatenate([-edge, interior, edge], axis=-1), y


def _knot_positions(raw, bound):
    """The knots of _knot_parts alone, as the inverse reads them."""
    return _knot_parts(raw, bound)[0]


def _knots_node(raw: Node, bound: float) -> Node:
    """_knot_positions as one graph node.  Only the interior knots depend on
    raw, so a K=1 spline's knots are a constant.  The VJP runs the cumulative
    sum backwards into gy, the gradient times y, then the softmax's
    gy - y * sum(gy)."""
    k = raw.value.shape[-1]
    knots, y = _knot_parts(raw.value, bound)
    if k == 1:
        return dc.constant(knots)

    def vjp(g):
        g_cum = np.zeros_like(y)
        g_cum[..., : k - 1] = g[..., 1:k] * (2.0 * bound)
        gy = np.flip(np.cumsum(np.flip(g_cum, -1), -1), -1) * (1.0 - MIN_BIN * k) * y
        return gy - y * gy.sum(axis=-1, keepdims=True)

    return dc.make_node(knots, [(raw, vjp)])


def _knot_derivs(raw_d):
    lead = raw_d.shape[:-1]
    ones = np.ones(lead + (1,))
    inner = _softplus(raw_d) + MIN_DERIV
    return np.concatenate([ones, inner, ones], axis=-1)


def _knot_derivs_node(raw_d: Node) -> Node:
    """_knot_derivs as one graph node (a constant at K=1, where raw_d is
    empty); the VJP is softplus's, read through the interior slice."""
    rv = raw_d.value
    dknots = _knot_derivs(rv)
    if rv.shape[-1] == 0:
        return dc.constant(dknots)
    return dc.make_node(
        dknots, [(raw_d, lambda g: g[..., 1:-1] * 0.5 * (1.0 + np.tanh(0.5 * rv)))])


def _bin_index(points, knots, k):
    idx = (points[..., None] >= knots).sum(axis=-1) - 1
    return np.clip(idx, 0, k - 1)


def _gather(a, idx):
    return np.take_along_axis(a, idx[..., None], axis=-1)[..., 0]


def spline_inverse_np(y, raw_w, raw_h, raw_d, bound):
    """Vectorized inverse: solve the bin-local quadratic, stable root form."""
    k = raw_w.shape[-1]
    xk = _knot_positions(raw_w, bound)
    yk = _knot_positions(raw_h, bound)
    dk = _knot_derivs(raw_d)
    y = np.asarray(y, dtype=np.float64)
    yc = np.clip(y, -bound, bound)
    idx = _bin_index(yc, yk, k)
    x0, x1 = _gather(xk, idx), _gather(xk, idx + 1)
    y0, y1 = _gather(yk, idx), _gather(yk, idx + 1)
    d0, d1 = _gather(dk, idx), _gather(dk, idx + 1)
    w = x1 - x0
    hgt = y1 - y0
    s = hgt / w
    r = yc - y0
    dsum = d0 + d1 - 2.0 * s
    qa = hgt * (s - d0) + r * dsum
    qb = hgt * d0 - r * dsum
    qc = -s * r
    disc = qb * qb - 4.0 * qa * qc
    if np.any(disc < 0.0):
        raise ContractViolation("spline inverse: negative discriminant")
    xi = 2.0 * qc / (-qb - np.sqrt(disc))
    if np.any((xi < -1e-9) | (xi > 1.0 + 1e-9)):
        raise ContractViolation("spline inverse: root escaped [0, 1]")
    xi = np.clip(xi, 0.0, 1.0)
    x_in = x0 + xi * w
    return np.where(np.abs(y) >= bound, y, x_in)


def spline_forward_node(x: Node, psi: Node, k: int, bound: float) -> tuple[Node, Node]:
    """Batched graph form of the spline; psi packs [widths | heights | derivs]."""
    raw_w = dc.narrow(psi, -1, 0, k)
    raw_h = dc.narrow(psi, -1, k, k)
    raw_d = dc.narrow(psi, -1, 2 * k, k - 1)
    xk = _knots_node(raw_w, bound)
    yk = _knots_node(raw_h, bound)
    dknots = _knot_derivs_node(raw_d)

    xv = x.value
    idx = _bin_index(xv, xk.value, k)
    x0, x1 = dc.gather_last(xk, idx), dc.gather_last(xk, idx + 1)
    y0, y1 = dc.gather_last(yk, idx), dc.gather_last(yk, idx + 1)
    d0, d1 = dc.gather_last(dknots, idx), dc.gather_last(dknots, idx + 1)
    w = dc.sub(x1, x0)
    hgt = dc.sub(y1, y0)
    s = dc.div(hgt, w)
    xc = dc.clip(x, -bound, bound)
    xi = dc.div(dc.sub(xc, x0), w)
    one_m = dc.sub(1.0, xi)
    t = dc.mul(xi, one_m)
    dsum = dc.sub(dc.add(d0, d1), dc.mul(2.0, s))
    denom = dc.add(s, dc.mul(dsum, t))
    num = dc.mul(hgt, dc.add(dc.mul(s, dc.mul(xi, xi)), dc.mul(d0, t)))
    y_in = dc.add(y0, dc.div(num, denom))
    deriv_num = dc.mul(
        dc.mul(s, s),
        dc.add(dc.add(dc.mul(d1, dc.mul(xi, xi)), dc.mul(dc.mul(2.0, s), t)),
               dc.mul(d0, dc.mul(one_m, one_m))),
    )
    ld_in = dc.sub(dc.log(deriv_num), dc.mul(2.0, dc.log(denom)))
    inside = np.abs(xv) < bound
    y = dc.where(inside, y_in, x)
    ld = dc.where(inside, ld_in, dc.constant(np.zeros(xv.shape)))
    return y, ld


# ---------------------------------------------------------------------------
# unit-lower-triangular mixing (determinant exactly 1)
# ---------------------------------------------------------------------------


def mix_forward_node(z: Node, free: Node, d: int) -> Node:
    """Batched graph form: rows of z are mixed by I + strict-lower(free).
    The determinant is 1, so the mix adds nothing to the log-det."""
    if d == 1:
        return z
    lmat = dc.strict_lower_embed(free, d)
    return dc.matmul(z, dc.transpose(lmat, (1, 0)))
