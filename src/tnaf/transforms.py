"""Invertible per-dimension transforms and their log-derivatives.

Each transform maps the real line onto itself strictly monotonically, lane
by lane, and reports log|dy/dx|, so every head pairs with the flow's
standard-normal base.  Every transform has exactly one forward, a batched
graph form (run under ``dc.no_grad()`` it gives plain values), and one
vectorized inverse used for sampling and inversion.  The CDF net and the
spline are hand-written graph nodes over plain-numpy helpers (``_cdf_net``;
``_spline_parts`` and ``_spline_bins``); an inverse gets forward values only
through those same helpers, so sampling inverts the same float function
whose log-derivative was trained.  The affine and spline inverses are closed
forms; the CDF net is inverted by safeguarded Newton iteration on its value
and slope in a closed-form bracket (``monotone_bisect``).  No transform takes
a size: the CDF net reads H and the spline K off psi's last axis, 3H + 2 and
3K - 1 wide (the shared CDF net H off its biases [b1 | b2], H + 1 wide), and
the mix reads D off its input.

Spline stacks interleave elementwise splines with a unit-lower-triangular
linear mix whose determinant is exactly 1, so the stack's diagonal derivative
is the product of the per-block spline derivatives.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import diffcore as dc
from .diffcore import Node

MIN_BIN = 1e-3
MIN_DERIV = 1e-3
# monotone_bisect moves a bracket end out by 1, 2, 4, ... at most this often: +-1 to +-2**64
MAX_DOUBLINGS = 64
# monotone_bisect's Newton tolerance: a lane stops on a step or bracket below it
NEWTON_TOL = 1e-7
LOG2 = float(np.log(2.0))


class InversionError(RuntimeError):
    """Root bracketing failed; the transform parameters are pathological."""

    def __init__(self, message: str, index: int):
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
                    y: np.ndarray, lo, hi) -> np.ndarray:
    """Invert a lane-wise strictly increasing f by bracketing + safeguarded
    Newton; f(x) returns (value, slope).

    Each lane's bracket starts at the caller's ends lo and hi (scalars or per
    lane), and an end on the wrong side of y moves out by 1, 2, 4, ...: ends
    -1 and 1 run -+1, -+2, -+4, ... to -+2**64.  A lane not bracketed after
    MAX_DOUBLINGS moves raises InversionError naming the lane.  Newton then
    starts at the bracket midpoint, or at a bracket end that is already a
    root, and every evaluation moves one bracket end to x.  A Newton iterate
    that leaves the bracket, is not finite (a zero or underflowed slope) or is
    not under half the step before last (the guard of Numerical Recipes'
    rtsafe, which breaks Newton 2-cycles) is replaced by the bracket midpoint.
    A lane stops once its step is below NEWTON_TOL, once its bracket is
    narrower than NEWTON_TOL, or once its ends are adjacent floats, whose
    spacing exceeds NEWTON_TOL for roots beyond about 4.5e8.  The perfbench
    tracer patches this function by name.
    """
    y = np.asarray(y, dtype=np.float64)

    def widen(end, outside, side, move):
        # move each lane whose f(end) is still on the wrong side of y; every
        # end is evaluated once, and the last evaluation decides
        end = np.full(y.shape, end)
        for moves in range(MAX_DOUBLINGS + 1):
            v = f(end)[0]
            out = outside(v)
            if not out.any():
                return end, v
            end = np.where(out, end + move * 2.0 ** moves, end)
        raise InversionError(f"{side} bracket not found (pathological transform)",
                             index=int(np.argmax(out)))

    lo, v_lo = widen(lo, lambda v: v > y, "lower", -1.0)
    hi, v_hi = widen(hi, lambda v: v < y, "upper", 1.0)
    # a lane whose root is a bracket end (+-1, +-2, +-4, ... from [-1, 1]) starts on it:
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
        active &= (moved >= NEWTON_TOL) & (hi - lo >= NEWTON_TOL) & (lo < mid) & (mid < hi)
        step, before = moved, step
    return x


def _cdf_params(psi: np.ndarray):
    """Views of psi [..., 3H + 2] as (w1, b1, w2 [..., H], b2, c [...])."""
    h = (psi.shape[-1] - 2) // 3
    return (psi[..., :h], psi[..., h:2 * h], psi[..., 2 * h:3 * h], psi[..., 3 * h],
            psi[..., 3 * h + 1])


def _cdf_net(x, ew1, b1, ew2, b2, ec):
    """The monotone net on lanes x [...], weights ew1 = exp(w1), ew2 = exp(w2)
    [..., H] and ec = exp(c): the pre-activations a = ew1 x + b1 [..., H],
    tanh(a), and y = b2 + ec x + sum ew2 tanh(a) [...]."""
    a = ew1 * x[..., None] + b1
    t = np.tanh(a)
    return a, t, (t * ew2).sum(axis=-1) + b2 + ec * x


def cdf_inv_batch(y: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Lane-wise inverse of the monotone net, psi [..., 3H + 2] packed as in
    cdf_forward_node (both CDF heads invert through this).  The weights are
    exponentiated once; each Newton evaluation takes its value from the
    forward's own _cdf_net and its slope ec + sum ew1 ew2 (1 - t^2) from the
    same tanh t, as s12 - sum t^2 ew1 ew2 with s12 = ec + sum ew1 ew2.  As
    |f(x) - b2 - ec x| <= S = sum ew2, the bracket starts at (y - b2 -+ S) / ec
    padded by 2**-40 (|y| + |b2| + S) / ec against rounding, or at [-1, 1] in
    a lane where those ends are not finite (ew2 = inf, ec = 0) or pass 2**64."""
    w1, b1, w2, b2, c = _cdf_params(psi)
    ew1, ew2, ec = np.exp(w1), np.exp(w2), np.exp(c)
    ew12 = ew1 * ew2
    s12 = ec + ew12.sum(axis=-1)
    s = ew2.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mid, half = (y - b2) / ec, (s + 2.0 ** -40 * (np.abs(y) + np.abs(b2) + s)) / ec
        lo, hi = mid - half, mid + half
        known = np.maximum(np.abs(lo), np.abs(hi)) <= 2.0 ** MAX_DOUBLINGS  # False at NaN

    def value_and_slope(x):
        _, t, v = _cdf_net(x, ew1, b1, ew2, b2, ec)
        return v, s12 - np.einsum("...h,...h->...", t * t, ew12)

    return monotone_bisect(value_and_slope, y, np.where(known, lo, -1.0),
                           np.where(known, hi, 1.0))


def cdf_forward_node(x: Node, psi: Node) -> tuple[Node, Node]:
    """The monotone net y and its log-derivative ld = c + softplus(L - c),
    L = logsumexp_j(w1_j + w2_j + log(1 - tanh(a_j)^2)), as two graph nodes
    whose only parent is psi [..., 3H + 2], packed [w1 | b1 | w2 | b2 | c].
    x enters by value: both heads pass the data columns as constants, so no
    gradient flows to x."""
    xv = x.value
    w1, b1, w2, b2, c = _cdf_params(psi.value)
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
# shared CDF: one global monotone net, its biases shifted per position
# ---------------------------------------------------------------------------


def shared_cdf_psi(psi: Node, phi) -> Node:
    """cdf_forward_node's psi [..., 3H + 2] of the shared net: the global nodes
    phi["phi.w1"], phi["phi.w2"] and phi["phi.c"] broadcast to every position
    around that position's biases psi [..., H + 1] = [b1 | b2]."""
    lead, h = psi.value.shape[:-1], psi.value.shape[-1] - 1
    return dc.concat([dc.broadcast_to(phi["phi.w1"], lead + (h,)), dc.narrow(psi, -1, 0, h),
                      dc.broadcast_to(phi["phi.w2"], lead + (h,)), dc.narrow(psi, -1, h, 1),
                      dc.broadcast_to(phi["phi.c"], lead + (1,))], axis=-1)


def shared_cdf_forward_node(x: Node, psi: Node, phi) -> tuple[Node, Node]:
    """Batched graph form; psi is [N, D, H + 1]."""
    return cdf_forward_node(x, shared_cdf_psi(psi, phi))


# ---------------------------------------------------------------------------
# monotonic rational-quadratic spline with identity tails
# ---------------------------------------------------------------------------


def _spline_parts(psi, bound):
    """The knot table [..., 3, K + 1] of psi [..., 3K - 1] packed [widths |
    heights | derivs]: the x and y knots (-B, cumulative floored bins, B) from
    one softmax and one cumsum over a [..., 2, K] view, then the knot
    derivatives (1 at both ends).  Also the softmax p [..., 2, K] for the VJP."""
    lead, k = psi.shape[:-1], (psi.shape[-1] + 1) // 3
    raw = psi[..., :2 * k].reshape(lead + (2, k))
    p = np.exp(raw - raw.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    q = MIN_BIN + (1.0 - MIN_BIN * k) * p
    table = np.ones(lead + (3, k + 1), psi.dtype)
    table[..., :2, 0], table[..., :2, k] = -bound, bound
    table[..., :2, 1:k] = -bound + 2.0 * bound * np.cumsum(q, axis=-1)[..., : k - 1]
    table[..., 2, 1:k] = np.logaddexp(0.0, psi[..., 2 * k:]) + MIN_DERIV
    return table, p


def _spline_bins(points, table, row):
    """Each point's bin on knot row `row` (0: x, 1: y), counted over interior
    knots so the tails read an outer bin: the flat table indices [3, 2, ...]
    of its ends idx and idx + 1 in each row, and the table there."""
    k = table.shape[-1] - 1
    idx = (points[..., None] >= table[..., row, 1:k]).sum(axis=-1)
    lane = np.arange(0, table.size, 3 * (k + 1)).reshape(idx.shape) + idx
    at = np.add.outer(np.arange(0, 3 * (k + 1), k + 1)[:, None] + (0, 1), lane)
    return at, table.take(at)


def spline_inverse_np(y, table, bound):
    """Vectorized inverse on a knot table [..., 3, K + 1] of _spline_parts:
    solve the bin-local quadratic, stable root form; InversionError names the
    first lane whose root is not in its bin."""
    y = np.asarray(y, dtype=np.float64)
    yc = np.minimum(np.maximum(y, -bound), bound)
    (x0, x1), (y0, y1), (d0, d1) = _spline_bins(yc, table, 1)[1]
    w, hgt = x1 - x0, y1 - y0
    s = hgt / w
    r = yc - y0
    dsum = d0 + d1 - 2.0 * s
    qa = hgt * (s - d0) + r * dsum
    qb = hgt * d0 - r * dsum
    qc = -s * r
    disc = qb * qb - 4.0 * qa * qc
    if (bad := disc < 0.0).any():
        raise InversionError("spline inverse: negative discriminant", index=int(np.argmax(bad)))
    xi = 2.0 * qc / (-qb - np.sqrt(disc))
    if (bad := (xi < -1e-9) | (xi > 1.0 + 1e-9)).any():
        raise InversionError("spline inverse: root escaped [0, 1]", index=int(np.argmax(bad)))
    xi = np.minimum(np.maximum(xi, 0.0), 1.0)
    return np.where((np.abs(y) < bound) & (table.shape[-1] > 2), x0 + xi * w, y)  # K > 1


def spline_forward_node(x: Node, psi: Node, bound: float) -> tuple[Node, Node]:
    """The spline y and its log-derivative ld on lanes x [...], psi [..., 3K -
    1] packed [widths | heights | derivs], as three graph nodes: a bin node
    over psi holding each lane's six bin values [3, 2, ...], and y and ld over
    the bin node and x.  Lanes outside (-B, B), and all of a K=1 spline, are
    the identity with ld = 0; a lane at +-B takes the outside gradient.

    The bin node's VJP scatters into the knot table at idx and idx + 1 (distinct
    slots), then runs the reversed cumsum, softmax and softplus VJPs once for
    both outputs.  Inside, dy/dx = exp(ld), and d(ld)/dx carries the second
    derivative; outside, dy/dx = 1 and d(ld)/dx = 0."""
    xv, pv = x.value, psi.value
    table, p = _spline_parts(pv, bound)
    k = p.shape[-1]
    at, bins = _spline_bins(xv, table, 0)
    (x0, x1), (y0, y1), (d0, d1) = bins
    inside = (np.abs(xv) < bound) & (k > 1)
    w, hgt = x1 - x0, y1 - y0
    s = hgt / w
    xi = (np.clip(xv, -bound, bound) - x0) / w
    om = 1.0 - xi
    t = xi * om
    dsum = d0 + d1 - 2.0 * s
    den = s + dsum * t
    a = s * (xi * xi) + d0 * t  # y = y0 + hgt a / den
    num = hgt * a
    b = d1 * (xi * xi) + 2.0 * s * t + d0 * (om * om)  # dy/dx = s^2 b / den^2
    dn = s * s * b
    y = np.where(inside, y0 + num / den, xv)
    ld = np.where(inside, np.log(dn) - 2.0 * np.log(den), 0.0)

    def bins_vjp(g):
        gt = np.zeros(table.shape, g.dtype)
        np.put(gt, at, g)
        g_cum = np.zeros_like(p)
        g_cum[..., : k - 1] = gt[..., :2, 1:k] * (2.0 * bound)
        gq = np.flip(np.cumsum(np.flip(g_cum, -1), -1), -1) * (1.0 - MIN_BIN * k) * p
        g_raw = (gq - p * gq.sum(axis=-1, keepdims=True)).reshape(pv.shape[:-1] + (2 * k,))
        g_d = gt[..., 2, 1:k] * 0.5 * (1.0 + np.tanh(0.5 * pv[..., 2 * k:]))
        return np.concatenate([g_raw, g_d], axis=-1)

    def to_bins(g_den, g_s, g_t, g_xi, g_h, g_y0, g_d0, g_d1):
        # back through den = s + dsum t, dsum = d0 + d1 - 2 s, t = xi (1 - xi),
        # xi = (xc - x0) / w, s = hgt / w, w = x1 - x0 and hgt = y1 - y0
        g_dsum = g_den * t
        g_s = g_s + g_den - 2.0 * g_dsum
        g_xc = (g_xi + (g_t + g_den * dsum) * (om - xi)) / w
        g_w = -(g_xc * xi + g_s * s / w)
        g_h = g_h + g_s / w
        return np.stack([-g_xc - g_w, g_w, g_y0 - g_h, g_h, g_d0 + g_dsum,
                         g_d1 + g_dsum]).reshape(bins.shape)

    def y_bins(g):
        g = g * inside
        q = g / den
        ga = q * hgt
        return to_bins(-q * num / den, ga * xi * xi, ga * d0, 2.0 * ga * s * xi, q * a, g,
                       ga * t, 0.0)

    def ld_bins(g):
        g = g * inside
        gb = g / b
        return to_bins(-2.0 * g / den, 2.0 * (g / s + gb * t), 2.0 * gb * s,
                       2.0 * gb * (d1 * xi - d0 * om), 0.0, 0.0, gb * om * om, gb * xi * xi)

    def y_x(g):
        return np.where(inside, g * (dn / (den * den)), g)

    def ld_x(g):
        db = 2.0 * (d1 * xi + s * (om - xi) - d0 * om)
        return np.where(inside, g * ((db / b - 2.0 * dsum * (om - xi) / den) / w), 0.0)

    bin_node = dc.make_node(bins, [(psi, bins_vjp)])
    return (dc.make_node(y, [(bin_node, y_bins), (x, y_x)]),
            dc.make_node(ld, [(bin_node, ld_bins), (x, ld_x)]))


# ---------------------------------------------------------------------------
# unit-lower-triangular mixing (determinant exactly 1)
# ---------------------------------------------------------------------------


def mix_forward_node(z: Node, free: Node) -> Node:
    """Batched graph form: rows of z [N, D] are mixed by I + strict-lower(free).
    The determinant is 1, so the mix adds nothing to the log-det."""
    d = z.value.shape[-1]
    if d == 1:
        return z
    lmat = dc.strict_lower_embed(free, d)
    return dc.linear(z, dc.transpose(lmat, (1, 0)))
