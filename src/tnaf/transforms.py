"""Invertible per-dimension transforms and their log-derivatives.

Each transform maps the real line onto itself strictly monotonically, lane
by lane, and reports log|dy/dx|, so every head pairs with the flow's
standard-normal base.  Every transform has exactly one forward, a batched
graph form (run under ``dc.no_grad()`` it gives plain values), and one
vectorized inverse used for sampling and inversion.  The CDF net and the
spline knots are hand-written graph nodes over plain-numpy helpers
(``_cdf_net``, ``_knot_parts``); an inverse gets forward values only through
those same helpers, so sampling inverts the same float function whose
log-derivative was trained.  The affine and spline inverses are closed
forms; the CDF net is inverted by bracketed, safeguarded Newton iteration
(``monotone_bisect``) on its value and slope.

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


def monotone_bisect(f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                    y: np.ndarray, tol: float) -> np.ndarray:
    """Invert a lane-wise strictly increasing f by bracketing + safeguarded
    Newton; f(x) returns (value, slope).

    Brackets start at [-1, 1] and double outward; a lane that cannot be
    bracketed after the cap raises InversionError naming the lane.  Newton
    then starts at the bracket midpoint, or at a bracket end that is already
    a root, and every evaluation moves one bracket end to x.  A Newton
    iterate that leaves the bracket, is not finite (a zero or underflowed
    slope) or is not under half the step before last (the guard of Numerical
    Recipes' rtsafe, which breaks Newton 2-cycles) is replaced by the bracket
    midpoint.  A lane stops once its step is below tol, once its bracket is
    narrower than tol, or once its ends are adjacent floats, whose spacing
    exceeds tol for roots beyond about 4.5e9.  The perfbench tracer patches
    this function by name.
    """
    if tol <= 0:
        raise DimensionError("inversion tolerance must be positive")
    y = np.asarray(y, dtype=np.float64)

    def widen(end, outside, side):
        # double each lane whose f(end) is still on the wrong side of y; every
        # end is evaluated once, and the last evaluation decides
        for _ in range(MAX_DOUBLINGS):
            v = f(end)[0]
            out = outside(v)
            if not out.any():
                return end, v
            end = np.where(out, end * 2.0, end)
        v = f(end)[0]
        out = outside(v)
        if out.any():
            raise InversionError(f"{side} bracket not found (pathological transform)",
                                 index=int(np.argmax(out)))
        return end, v

    lo, v_lo = widen(np.full(y.shape, -1.0), lambda v: v > y, "lower")
    hi, v_hi = widen(np.full(y.shape, 1.0), lambda v: v < y, "upper")
    # a lane whose root is a bracket end (x = +-1, +-2, +-4, ...) starts on it:
    # Newton from inside can overshoot that root at every step, and the lane
    # would end at bisection accuracy
    x = np.where(v_lo == y, lo, np.where(v_hi == y, hi, 0.5 * (lo + hi)))
    step = before = hi - lo
    active = np.ones(y.shape, dtype=bool)
    while active.any():
        v, slope = f(x)
        below = v < y
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x - (v - y) / slope
        # NaN fails every comparison, so a non-finite iterate bisects
        ok = (lo <= newton) & (newton <= hi) & (np.abs(newton - x) < 0.5 * before)
        nxt = np.where(ok, newton, mid)
        moved = np.abs(nxt - x)
        x = np.where(active, nxt, x)
        active &= (moved >= tol) & (hi - lo >= tol) & (lo < mid) & (mid < hi)
        step, before = moved, step
    return x


def _cdf_params(psi: np.ndarray, h: int):
    """Views of psi [..., 3H + 2] as (w1, b1, w2 [..., H], b2, c [...])."""
    return (psi[..., :h], psi[..., h:2 * h], psi[..., 2 * h:3 * h], psi[..., 3 * h],
            psi[..., 3 * h + 1])


def _cdf_net(x, ew1, b1, ew2, b2, ec):
    """The monotone net on lanes x [...], weights ew1 = exp(w1), ew2 = exp(w2)
    [..., H] and ec = exp(c): the pre-activations a = ew1 x + b1 [..., H],
    tanh(a), and y = b2 + ec x + sum ew2 tanh(a) [...]."""
    a = ew1 * x[..., None] + b1
    t = np.tanh(a)
    return a, t, (t * ew2).sum(axis=-1) + b2 + ec * x


def cdf_inv_batch(y: np.ndarray, psi: np.ndarray, h: int, tol: float = 1e-6) -> np.ndarray:
    """Lane-wise inverse of the monotone net, psi [..., 3H + 2] packed as in
    cdf_forward_node (both CDF heads invert through this).  The weights are
    exponentiated once; each Newton evaluation takes its value from the
    forward's own _cdf_net and its slope ec + sum ew1 ew2 (1 - t^2) from the
    same tanh t, as s12 - sum t^2 ew1 ew2 with s12 = ec + sum ew1 ew2."""
    w1, b1, w2, b2, c = _cdf_params(psi, h)
    ew1, ew2, ec = np.exp(w1), np.exp(w2), np.exp(c)
    ew12 = ew1 * ew2
    s12 = ec + ew12.sum(axis=-1)

    def value_and_slope(x):
        _, t, v = _cdf_net(x, ew1, b1, ew2, b2, ec)
        return v, s12 - np.einsum("...h,...h->...", t * t, ew12)

    return monotone_bisect(value_and_slope, y, tol)


def cdf_forward_node(x: Node, psi: Node, h: int) -> tuple[Node, Node]:
    """The monotone net y and its log-derivative ld = c + softplus(L - c),
    L = logsumexp_j(w1_j + w2_j + log(1 - tanh(a_j)^2)), as two graph nodes
    whose only parent is psi [..., 3H + 2], packed [w1 | b1 | w2 | b2 | c].
    x enters by value: both heads pass the data columns as constants, so no
    gradient flows to x."""
    xv = x.value
    w1, b1, w2, b2, c = _cdf_params(psi.value, h)
    ew1, ew2, ec = np.exp(w1), np.exp(w2), np.exp(c)
    a, t, y = _cdf_net(xv, ew1, b1, ew2, b2, ec)
    # log(1 - tanh(a)^2) = 2 (log 2 - |a| - log1p(e^{-2|a|})), stable on both tails
    abs_a = np.abs(a)
    lr = w2 + 2.0 * (LOG2 - abs_a - np.log1p(np.exp(-2.0 * abs_a))) + w1
    m = lr.max(axis=-1, keepdims=True)
    ex = np.exp(lr - m)
    s = ex.sum(axis=-1, keepdims=True)
    z = (m + np.log(s))[..., 0] - c  # L - c
    ld = c + np.logaddexp(0.0, z)
    xh = xv[..., None]

    def pack(gw1, gb1, gw2, gb2, gc):
        return np.concatenate([gw1, gb1, gw2, gb2[..., None], gc[..., None]], axis=-1)

    def y_vjp(g):
        gh = g[..., None]
        ga = gh * ew2 * (1.0 - t * t)
        return pack(ga * xh * ew1, ga, gh * ew2 * t, g, g * ec * xv)

    def ld_vjp(g):
        sig = 0.5 * (1.0 + np.tanh(0.5 * z))
        p = (g * sig)[..., None] * (ex / s)
        pt2 = -2.0 * p * t
        return pack(p + pt2 * xh * ew1, pt2, p, np.zeros_like(g), g * (1.0 - sig))

    return dc.make_node(y, [(psi, y_vjp)]), dc.make_node(ld, [(psi, ld_vjp)])


# ---------------------------------------------------------------------------
# shared CDF: one global monotone net, conditioned by the embeddings
# ---------------------------------------------------------------------------


def shared_cdf_psi(h_embed: Node, phi) -> Node:
    """The shared net at embeddings h_embed [..., E] as cdf_forward_node's psi
    [..., 3H + 2]: phi.w1, phi.w2 and phi.c broadcast to every position, and
    biases b1 = w1_cond h + phi.b1, b2 = w2_cond h + phi.b2 shifted by the
    embedding.  phi maps the shared parameter names ``phi.*`` to nodes."""
    lead, e = h_embed.value.shape[:-1], h_embed.value.shape[-1]
    hdim = phi["phi.w1"].value.shape[0]
    flat = dc.reshape(h_embed, (-1, e))
    cond1 = dc.matmul(flat, dc.transpose(phi["phi.w1_cond"], (1, 0)))
    cond2 = dc.matmul(flat, dc.transpose(phi["phi.w2_cond"], (1, 0)))
    b1 = dc.add(dc.reshape(cond1, lead + (hdim,)), phi["phi.b1"])
    b2 = dc.add(dc.reshape(cond2, lead + (1,)), phi["phi.b2"])
    return dc.concat([dc.broadcast_to(phi["phi.w1"], lead + (hdim,)), b1,
                      dc.broadcast_to(phi["phi.w2"], lead + (hdim,)), b2,
                      dc.broadcast_to(phi["phi.c"], lead + (1,))], axis=-1)


def shared_cdf_forward_node(x: Node, h_embed: Node, phi) -> tuple[Node, Node]:
    """Batched graph form; h_embed is [N, D, E]."""
    return cdf_forward_node(x, shared_cdf_psi(h_embed, phi), phi["phi.w1"].value.shape[0])


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


def _knots_node(raw: Node, bound: float) -> Node:
    """The knots of _knot_parts as one graph node.  Only the interior knots
    depend on raw, so a K=1 spline's knots are a constant.  The VJP runs the
    cumulative sum backwards into gy, the gradient times y, then the
    softmax's gy - y * sum(gy)."""
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
    inner = np.logaddexp(0.0, raw_d) + MIN_DERIV
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
    xk = _knot_parts(raw_w, bound)[0]
    yk = _knot_parts(raw_h, bound)[0]
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
