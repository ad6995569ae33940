"""Invertible per-dimension transforms and their log-derivatives.

Each transform maps x to y strictly monotonically, lane by lane, and reports
log|dy/dx|.  Every transform has exactly one forward, a batched graph form
built from diffcore ops (run under ``dc.no_grad()`` it gives plain values),
and one vectorized numpy inverse used for sampling and inversion.

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
# monotone CDF network (one hidden layer, positivity via exp)
# ---------------------------------------------------------------------------


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus(x):
    return np.logaddexp(0.0, x)


def monotone_bisect(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray,
                    tol: float, max_doublings: int = 64) -> np.ndarray:
    """Invert a lane-wise strictly increasing f by bracketing + bisection.

    Brackets start at [-1, 1] and double outward; a lane that cannot be
    bracketed after the cap raises InversionError naming the lane.
    """
    if tol <= 0:
        raise DimensionError("bisection tolerance must be positive")
    y = np.asarray(y, dtype=np.float64)
    lo = np.full(y.shape, -1.0)
    hi = np.full(y.shape, 1.0)
    for _ in range(max_doublings):
        need = f(lo) > y
        if not need.any():
            break
        lo = np.where(need, lo * 2.0, lo)
    bad = f(lo) > y
    if bad.any():
        raise InversionError("lower bracket not found (pathological transform)",
                             index=int(np.argmax(bad)))
    for _ in range(max_doublings):
        need = f(hi) < y
        if not need.any():
            break
        hi = np.where(need, hi * 2.0, hi)
    bad = f(hi) < y
    if bad.any():
        raise InversionError("upper bracket not found (pathological transform)",
                             index=int(np.argmax(bad)))
    while float((hi - lo).max()) >= tol:
        mid = 0.5 * (lo + hi)
        below = f(mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def cdf_inv_batch(y: np.ndarray, w1, b1, w2, b2, tol: float = 1e-6) -> np.ndarray:
    """Lane-wise inverse of the monotone net, for hidden-layer parameters
    [..., H] per lane (both CDF heads invert through this).  Bisection needs
    only the net's value, not its log-derivative."""

    def f(x):
        a = np.exp(w1) * x[..., None] + b1
        return _sigmoid((np.tanh(a) * np.exp(w2)).sum(axis=-1) + b2)

    return monotone_bisect(f, y, tol)


def _split_cdf_psi(psi: Node, h: int):
    lead = psi.value.shape[:-1]
    w1 = dc.narrow(psi, -1, 0, h)
    b1 = dc.narrow(psi, -1, h, h)
    w2 = dc.narrow(psi, -1, 2 * h, h)
    b2 = dc.reshape(dc.narrow(psi, -1, 3 * h, 1), lead)
    return w1, b1, w2, b2


def _cdf_core_node(x: Node, a: Node, w2: Node, u_extra: Node | None,
                   w1: Node, b2: Node) -> tuple[Node, Node]:
    """Shared tail of the (conditional) CDF net given pre-activations a."""
    u = dc.add(dc.sum_(dc.mul(dc.tanh(a), dc.exp(w2)), axis=-1), b2)
    if u_extra is not None:
        u = dc.add(u, u_extra)
    y = dc.sigmoid(u)
    log_sig_prime = dc.neg(dc.add(dc.softplus(u), dc.softplus(dc.neg(u))))
    log1mt2 = dc.mul(2.0, dc.sub(dc.sub(dc.constant(LOG2), a),
                                 dc.softplus(dc.mul(-2.0, a))))
    slope = dc.logsumexp(dc.add(dc.add(w2, log1mt2), w1), axis=-1)
    return y, dc.add(log_sig_prime, slope)


def cdf_forward_node(x: Node, psi: Node, h: int) -> tuple[Node, Node]:
    """Batched graph form; psi last axis packs [w1 | b1 | w2 | b2]."""
    lead = psi.value.shape[:-1]
    w1, b1, w2, b2 = _split_cdf_psi(psi, h)
    xe = dc.expand_last(dc.reshape(x, lead + (1,)), h)
    a = dc.add(dc.mul(dc.exp(w1), xe), b1)
    return _cdf_core_node(x, a, w2, None, w1, b2)


# ---------------------------------------------------------------------------
# shared CDF: one global monotone net, conditioned by the embeddings
# ---------------------------------------------------------------------------


def shared_cdf_forward_node(x: Node, h_embed: Node, phi) -> tuple[Node, Node]:
    """Batched graph form; h_embed is [N, D, E], phi maps the shared
    parameter names ``phi.*`` to nodes."""
    n, d, e = h_embed.value.shape
    hdim = phi["phi.w1"].value.shape[0]
    flat = dc.reshape(h_embed, (n * d, e))
    cond1 = dc.reshape(dc.matmul(flat, dc.transpose(phi["phi.w1_cond"], (1, 0))),
                       (n, d, hdim))
    cond2 = dc.reshape(dc.matmul(flat, dc.transpose(phi["phi.w2_cond"], (1, 0))),
                       (n, d))
    xe = dc.expand_last(dc.reshape(x, (n, d, 1)), hdim)
    a = dc.add(dc.add(dc.mul(dc.exp(phi["phi.w1"]), xe), cond1), phi["phi.b1"])
    b2 = dc.reshape(phi["phi.b2"], ())
    u_extra = dc.add(cond2, b2)
    zero = dc.constant(np.zeros((n, d)))
    return _cdf_core_node(x, a, phi["phi.w2"], u_extra, phi["phi.w1"], zero)


# ---------------------------------------------------------------------------
# monotonic rational-quadratic spline with identity tails
# ---------------------------------------------------------------------------


def _softmax_np(v):
    m = v.max(axis=-1, keepdims=True)
    e = np.exp(v - m)
    return e / e.sum(axis=-1, keepdims=True)


def _knot_positions(raw, bound):
    """[-B, interior cumulative points, B]; bins floored then renormalized."""
    k = raw.shape[-1]
    q = MIN_BIN + (1.0 - MIN_BIN * k) * _softmax_np(raw)
    interior = -bound + 2.0 * bound * np.cumsum(q, axis=-1)[..., : k - 1]
    lead = raw.shape[:-1]
    edge = np.full(lead + (1,), bound)
    return np.concatenate([-edge, interior, edge], axis=-1)


def _knot_derivs(raw_d):
    lead = raw_d.shape[:-1]
    ones = np.ones(lead + (1,))
    inner = _softplus(raw_d) + MIN_DERIV
    return np.concatenate([ones, inner, ones], axis=-1)


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
    lead = psi.value.shape[:-1]
    raw_w = dc.narrow(psi, -1, 0, k)
    raw_h = dc.narrow(psi, -1, k, k)
    raw_d = dc.narrow(psi, -1, 2 * k, k - 1)

    def knots(raw):
        q = dc.add(MIN_BIN, dc.mul(1.0 - MIN_BIN * k, dc.softmax_last(raw)))
        edge = dc.constant(np.full(lead + (1,), bound))
        parts = [dc.neg(edge)]
        if k > 1:
            cum = dc.narrow(dc.cumsum_last(q), -1, 0, k - 1)
            parts.append(dc.add(-bound, dc.mul(2.0 * bound, cum)))
        parts.append(edge)
        return dc.concat(parts, axis=-1)

    xk = knots(raw_w)
    yk = knots(raw_h)
    ones = dc.constant(np.ones(lead + (1,)))
    dparts = [ones]
    if k > 1:
        dparts.append(dc.add(dc.softplus(raw_d), MIN_DERIV))
    dparts.append(ones)
    dknots = dc.concat(dparts, axis=-1)

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


def mix_forward_node(z: Node, free: Node, d: int) -> tuple[Node, Node]:
    """Batched graph form: rows of z are mixed by I + strict-lower(free)."""
    if d == 1:
        return z, dc.constant(np.zeros(z.value.shape))
    lmat = dc.strict_lower_embed(free, d)
    out = dc.matmul(z, dc.transpose(lmat, (1, 0)))
    return out, dc.constant(np.zeros(z.value.shape))
