"""Graph ops that only the tests' reference op chains use.

The library's heads are hand-written nodes (transforms.cdf_forward_node and
spline_forward_node), so these ops have no caller in ``tnaf``.  The op chains
that those nodes replaced stay in the tests as references, built from these
ops with the library's arithmetic; their unit and finite-difference tests are
in tests/test_diffcore.py.
"""

import numpy as np

from tnaf import diffcore as dc
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
