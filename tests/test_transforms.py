"""Transform heads: forward/inverse consistency and log-derivative oracles.

Every logdet claim is checked against a central-difference slope of the
corresponding forward map; inverses are checked by round trip.
"""

import warnings

import numpy as np
import pytest

import composite_ops as cops
from tnaf import diffcore as dc
from tnaf import transforms as tf
from tnaf.diffcore import DimensionError
from tnaf.flow import ModelConfig, build_model, forward_values, invert_rows, nll_loss
from tnaf.transforms import InversionError

FD = 1e-4
BOUND = 3.0


def fd_slope(fn, x, step=FD):
    """Richardson-extrapolated central difference (truncation ~ step^4)."""

    def central(h):
        return (fn(x + h) - fn(x - h)) / (2.0 * h)

    return (4.0 * central(step / 2) - central(step)) / 3.0


def _graph_scalar(forward, x, psi, *args):
    """Run a batched graph forward on one (x, psi) lane under no_grad."""
    with dc.no_grad():
        y, ld = forward(dc.constant(np.array([x])), dc.constant(psi[None, :]), *args)
    return float(y.value[0]), float(ld.value[0])


def _logsumexp(v):
    m = v.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(v - m).sum(axis=-1, keepdims=True)))[..., 0]


def _cdf_reference(x, w1, b1, w2, b2, c):
    """Plain-numpy monotone net and its log-derivative (independent of the
    graph form); the trailing axis of the weights is the hidden layer."""
    x = np.asarray(x)
    a = np.exp(w1) * x[..., None] + b1
    y = b2 + np.exp(c) * x + (np.tanh(a) * np.exp(w2)).sum(axis=-1)
    # log(1 - tanh(a)^2) = 2*(log 2 - a - softplus(-2a)), stable on both tails
    log1m_tanh_sq = 2.0 * (np.log(2.0) - a - np.logaddexp(0.0, -2.0 * a))
    return y, np.logaddexp(c, _logsumexp(w2 + log1m_tanh_sq + w1))


def _composite_cdf(x, w1, b1, w2, b2, c):
    """The diffcore op chain that transforms.cdf_forward_node replaces: the
    net on exp'd weights, then log(e^c + e^L) from logsumexp and softplus."""
    a = dc.add(dc.mul(dc.exp(w1), dc.reshape(x, x.value.shape + (1,))), b1)
    u = dc.add(dc.sum_(dc.mul(cops.tanh(a), dc.exp(w2)), axis=-1), b2)
    y = dc.add(u, dc.mul(dc.exp(c), x))
    log1mt2 = dc.mul(2.0, cops.sub(cops.sub(dc.constant(tf.LOG2), a),
                                   cops.softplus(dc.mul(-2.0, a))))
    slope = cops.logsumexp(dc.add(dc.add(w2, log1mt2), w1), axis=-1)
    return y, dc.add(c, cops.softplus(cops.sub(slope, c)))


def _composite_cdf_psi(x, psi):
    """_composite_cdf on psi narrowed into [w1 | b1 | w2 | b2 | c]."""
    lead, h = psi.value.shape[:-1], (psi.value.shape[-1] - 2) // 3
    parts = [dc.narrow(psi, -1, k * h, h) for k in range(3)]
    b2, c = (dc.reshape(dc.narrow(psi, -1, 3 * h + k, 1), lead) for k in range(2))
    return _composite_cdf(x, parts[0], parts[1], parts[2], b2, c)


def _knots_node(raw, bound):
    """One row of knots [-B, cumulative floored bins, B] over raw [..., K] as
    a node whose VJP runs the cumulative sum backwards, then the softmax's."""
    k = raw.value.shape[-1]
    p = np.exp(raw.value - raw.value.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    interior = -bound + 2.0 * bound * np.cumsum(tf.MIN_BIN + (1.0 - tf.MIN_BIN * k) * p,
                                                axis=-1)[..., : k - 1]
    edge = np.full(raw.value.shape[:-1] + (1,), bound, raw.value.dtype)
    knots = np.concatenate([-edge, interior, edge], axis=-1)
    if k == 1:
        return dc.constant(knots)

    def vjp(g):
        g_cum = np.zeros_like(p)
        g_cum[..., : k - 1] = g[..., 1:k] * (2.0 * bound)
        gp = np.flip(np.cumsum(np.flip(g_cum, -1), -1), -1) * (1.0 - tf.MIN_BIN * k) * p
        return gp - p * gp.sum(axis=-1, keepdims=True)

    return dc.make_node(knots, [(raw, vjp)])


def _knot_derivs_node(raw_d):
    """Knot derivatives [1, softplus(raw_d) + MIN_DERIV, 1] as a node."""
    rv = raw_d.value
    ones = np.ones(rv.shape[:-1] + (1,), rv.dtype)
    dknots = np.concatenate([ones, np.logaddexp(0.0, rv) + tf.MIN_DERIV, ones], axis=-1)
    if rv.shape[-1] == 0:
        return dc.constant(dknots)
    return dc.make_node(
        dknots, [(raw_d, lambda g: g[..., 1:-1] * 0.5 * (1.0 + np.tanh(0.5 * rv)))])


def _composite_spline(x, psi, bound):
    """The op chain that transforms.spline_forward_node replaces: knot nodes
    over narrows of psi, six gathers, a clip, two wheres and about 30
    arithmetic nodes."""
    k = (psi.value.shape[-1] + 1) // 3
    xk = _knots_node(dc.narrow(psi, -1, 0, k), bound)
    yk = _knots_node(dc.narrow(psi, -1, k, k), bound)
    dknots = _knot_derivs_node(dc.narrow(psi, -1, 2 * k, k - 1))
    xv = x.value
    idx = np.clip((xv[..., None] >= xk.value).sum(axis=-1) - 1, 0, k - 1)
    x0, x1 = cops.gather_last(xk, idx), cops.gather_last(xk, idx + 1)
    y0, y1 = cops.gather_last(yk, idx), cops.gather_last(yk, idx + 1)
    d0, d1 = cops.gather_last(dknots, idx), cops.gather_last(dknots, idx + 1)
    w = cops.sub(x1, x0)
    hgt = cops.sub(y1, y0)
    s = cops.div(hgt, w)
    xi = cops.div(cops.sub(cops.clip(x, -bound, bound), x0), w)
    one_m = cops.sub(1.0, xi)
    t = dc.mul(xi, one_m)
    dsum = cops.sub(dc.add(d0, d1), dc.mul(2.0, s))
    denom = dc.add(s, dc.mul(dsum, t))
    num = dc.mul(hgt, dc.add(dc.mul(s, dc.mul(xi, xi)), dc.mul(d0, t)))
    y_in = dc.add(y0, cops.div(num, denom))
    deriv_num = dc.mul(
        dc.mul(s, s),
        dc.add(dc.add(dc.mul(d1, dc.mul(xi, xi)), dc.mul(dc.mul(2.0, s), t)),
               dc.mul(d0, dc.mul(one_m, one_m))),
    )
    ld_in = cops.sub(cops.log(deriv_num), dc.mul(2.0, cops.log(denom)))
    inside = np.abs(xv) < bound
    return (cops.where(inside, y_in, x),
            cops.where(inside, ld_in, dc.constant(np.zeros_like(xv))))


# psi vectors below use the graph heads' packing:
# affine [mu | log_sigma], cdf [w1 | b1 | w2 | b2 | c], spline [widths | heights | derivs]


def affine_fwd(x, mu, log_sigma):
    return _graph_scalar(tf.affine_forward_node, x, np.array([mu, log_sigma]))


def affine_inv(y, mu, log_sigma):
    return float(tf.affine_inverse_np(np.array([y]), np.array([[mu, log_sigma]]))[0])


def cdf_psi(w1, b1, w2, b2, c):
    return np.concatenate([w1, b1, w2, [b2, c]])


def cdf_fwd(x, psi):
    return _graph_scalar(tf.cdf_forward_node, x, psi)


def cdf_inv(y, psi):
    out = tf.cdf_inv_batch(np.array([y]), psi[None, :])
    return float(out[0])


def random_cdf_psi(rng, h=4, scale=0.5):
    return cdf_psi(
        w1=scale * rng.standard_normal(h),
        b1=scale * rng.standard_normal(h),
        w2=scale * rng.standard_normal(h) - np.log(h),
        b2=float(scale * rng.standard_normal()),
        c=float(scale * rng.standard_normal()),
    )


def spline_table(psi, bound=BOUND):
    """_spline_parts' table of one psi: x knots, y knots, knot derivatives."""
    return tf._spline_parts(psi, bound)[0]


def spline_fwd(x, psi, bound=BOUND):
    return _graph_scalar(tf.spline_forward_node, x, psi, bound)


def spline_inv(y, psi, bound=BOUND):
    return float(tf.spline_inverse_np(np.array([y]), spline_table(psi[None, :], bound),
                                      bound)[0])


def x_knots(psi, bound=BOUND):
    return spline_table(psi, bound)[0]


def random_spline_psi(rng, k=6, scale=1.0):
    return scale * rng.standard_normal(3 * k - 1)


IDENTITY_RAW_DERIV = float(np.log(np.expm1(1.0 - tf.MIN_DERIV)))


def identity_spline_psi(k=4):
    return np.concatenate([np.zeros(2 * k), np.full(k - 1, IDENTITY_RAW_DERIV)])


def mix_only_flow(free, d, bound=BOUND):
    """One-block spline flow whose spline is the identity (to float rounding;
    exactly in its tails |x| >= bound), isolating the mix and its inverse."""
    model = build_model(ModelConfig(D=d, head_type="spline", E=8, heads=2, layers=1,
                                    mlp_hidden=16, K=4, B=bound, blocks=1))
    model.params["head.w"].value[:] = 0.0
    model.params["head.b"].value = identity_spline_psi(k=4)
    if d > 1:
        model.params["mix0"].value = np.asarray(free, dtype=np.float64)
    return model


def lower(free, d):
    mat = np.eye(d)
    mat[np.tril_indices(d, -1)] = free
    return mat


def mix_fwd(z, free, d):
    """Graph mix on a batch of rows z [N, d]."""
    with dc.no_grad():
        return tf.mix_forward_node(dc.constant(z), dc.constant(free) if d > 1 else None).value


class TestAffine:
    def test_identity(self):
        y, ld = affine_fwd(0.7, 0.0, 0.0)
        assert (y, ld) == (0.7, 0.0)

    def test_arithmetic(self):
        y, ld = affine_fwd(3.0, 1.0, np.log(2.0))
        assert y == 7.0
        assert abs(ld - np.log(2.0)) < 1e-15

    def test_inverse_examples(self):
        assert affine_inv(7.0, 1.0, np.log(2.0)) == 3.0
        assert affine_inv(1.0, 1.0, np.log(2.0)) == 0.0

    def test_exact_roundtrip_identity(self):
        for x in (-2.5, 0.3, 17.0):
            assert affine_inv(affine_fwd(x, 0.0, 0.0)[0], 0.0, 0.0) == x

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            mu = float(rng.standard_normal())
            log_sigma = float(0.5 * rng.standard_normal())
            x = float(3.0 * rng.standard_normal())
            worst = max(worst, abs(affine_inv(affine_fwd(x, mu, log_sigma)[0], mu, log_sigma) - x))
        assert worst < 1e-14


class TestCdf:
    def test_analytic_at_zero(self):
        # y = x + tanh(x): y(0) = 0 and slope 1 + 1
        psi = cdf_psi(w1=np.zeros(1), b1=np.zeros(1), w2=np.zeros(1), b2=0.0, c=0.0)
        y, ld = cdf_fwd(0.0, psi)
        assert y == 0.0
        assert abs(ld - np.log(2.0)) < 1e-12

    def test_strictly_increasing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi = random_cdf_psi(rng)
            xs = np.sort(rng.standard_normal(50) * 3)
            ys = np.array([cdf_fwd(float(x), psi)[0] for x in xs])
            assert (np.diff(ys) > 0).all()

    def test_output_onto_reals(self):
        # every target, however far out, has a preimage the forward maps back
        rng = np.random.default_rng(2)
        for _ in range(50):
            psi = random_cdf_psi(rng)
            for target in (-1e12, -1e3, -1.0, 1.0, 1e3, 1e12):
                y, _ = cdf_fwd(cdf_inv(target, psi), psi)
                assert abs(y - target) <= 1e-5 * max(1.0, abs(target))

    def test_logdet_matches_fd_slope(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            psi = random_cdf_psi(rng)
            x = float(2.0 * rng.standard_normal())
            _, ld = cdf_fwd(x, psi)
            slope = fd_slope(lambda v: cdf_fwd(v, psi)[0], x)
            assert abs(np.exp(ld) - slope) / slope < 1e-6

    def test_inverse_symmetric_case(self):
        psi = cdf_psi(w1=np.zeros(1), b1=np.zeros(1), w2=np.zeros(1), b2=0.0, c=0.0)
        assert abs(cdf_inv(0.0, psi)) < 1e-8

    def test_inverse_hits_forward_target(self):
        rng = np.random.default_rng(4)
        psi = random_cdf_psi(rng)
        y, _ = cdf_fwd(1.0, psi)
        assert abs(cdf_inv(float(y), psi) - 1.0) < 1e-6

    def test_inverse_monotone_consistency(self):
        rng = np.random.default_rng(5)
        psi = random_cdf_psi(rng)
        lo = cdf_inv(0.3, psi)
        hi = cdf_inv(0.6, psi)
        assert lo < hi

    def test_inverse_of_root_beyond_float_spacing(self):
        # past about 4.5e8 adjacent floats lie further apart than NEWTON_TOL,
        # so the bracket stops shrinking before it is narrower than it
        psi = cdf_psi(w1=np.full(4, -25.0), b1=np.zeros(4), w2=np.zeros(4), b2=0.0,
                      c=-25.0)
        y, _ = cdf_fwd(3e10, psi)
        assert abs(cdf_inv(float(y), psi) - 3e10) <= 1e-12 * 3e10

    def test_target_domain_checked(self):
        # targets are validated where inversion starts, for every head:
        # an iterative inverse would return a number for a NaN target, and no
        # bracket holds an infinite one
        for head in ("affine", "cdf", "shared_cdf", "spline"):
            model = build_model(ModelConfig(D=1, head_type=head, E=8, heads=2, layers=1,
                                            mlp_hidden=16, H=4, K=4))
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(DimensionError):
                    invert_rows(model, np.array([[bad]]))

    def test_bracket_ends_evaluated_once(self):
        # lanes that [-1, 1] already brackets cost one evaluation per bracket
        # end; on a line of slope 1, Newton lands on each root from the
        # midpoint in one step and stops at the next evaluation, a step of 0
        calls = []

        def f(x):
            calls.append(x.copy())
            return x, np.ones_like(x)

        x = tf.monotone_bisect(f, np.array([0.3, -0.7]), -1.0, 1.0)
        assert len(calls) == 2 + 2
        np.testing.assert_array_equal(calls[0], [-1.0, -1.0])
        np.testing.assert_array_equal(calls[1], [1.0, 1.0])
        np.testing.assert_array_equal(x, [0.3, -0.7])

    def test_zero_slope_bisects_silently(self):
        # a steep, saturated net: e^c underflows to 0 and tanh(a) rounds to
        # +-1 away from the root near 0.6, so the slope there is exactly 0 and
        # the Newton iterate is not finite; those steps bisect, and no
        # RuntimeWarning escapes.  e^c = 0 gives no closed-form bracket, so
        # the search starts at [-1, 1].  The last Newton step, below
        # NEWTON_TOL = 1e-7, leaves an error of about (f''/2f') NEWTON_TOL^2:
        # f''/2f' reaches about 45 on this steep net (4.5e-11 at the old 1e-6),
        # so up to about 4.5e-13
        psi = cdf_psi(w1=np.array([5.0]), b1=np.array([-0.6 * np.exp(5.0)]),
                      w2=np.zeros(1), b2=0.0, c=-800.0)
        roots = 0.6 + np.array([-0.015, -0.002, 0.0, 0.001, 0.012])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for root in roots:
                y, _ = cdf_fwd(root, psi)
                assert abs(cdf_inv(y, psi) - root) < 1e-12

    def test_root_on_bracket_end(self):
        # roots at +-2^k are ends of the bracket grown from [-1, 1]; on
        # 0.2 x + tanh(x - r), Newton from inside overshoots each of them, so
        # only starting at the end lands on it
        for r in (-16.0, -2.0, -1.0, 1.0, 2.0, 16.0):
            def f(x):
                t = np.tanh(x - r)
                return 0.2 * x + t, 1.2 - t * t

            assert abs(tf.monotone_bisect(f, np.array([0.2 * r]), -1.0, 1.0)[0] - r) < 1e-12

    def test_newton_step_outside_bracket_bisects(self):
        # tanh(x - 1.6) = 0 is bracketed by [-1, 2]; from the midpoint 0.5,
        # Newton jumps to 2.73, past the bracket, so the next evaluation is
        # the midpoint of [0.5, 2]
        calls = []

        def f(x):
            calls.append(float(x[0]))
            t = np.tanh(x - 1.6)
            return t, 1.0 - t * t

        x = tf.monotone_bisect(f, np.zeros(1), -1.0, 1.0)
        assert calls[:5] == [-1.0, 1.0, 2.0, 0.5, 1.25]
        assert abs(x[0] - 1.6) < 1e-12

    def test_newton_two_cycle_bisects(self):
        # on 0.2 x + tanh(x - 21) = 4.2, bracketed Newton from the midpoint
        # 15.5 of [-1, 32] falls into the attracting 2-cycle 21 +- 4.99, and
        # each step only moves one bracket end between the cycle's points;
        # a step not under half the step before last bisects instead
        calls = []

        def f(x):
            calls.append(x)
            assert len(calls) <= 100, "Newton 2-cycle not broken"
            t = np.tanh(x - 21.0)
            return 0.2 * x + t, 1.2 - t * t

        x = tf.monotone_bisect(f, np.array([4.2]), -1.0, 1.0)
        assert abs(x[0] - 21.0) < 1e-12
        assert len(calls) <= 7 + 5  # 7 bracket evaluations, 5 measured

    def test_criterion_4_pairs_evaluation_count(self, monkeypatch):
        # acceptance criterion 4's 1000 cdf pairs, replayed from its seed-40
        # stream after its affine and spline draws: bisection to 1e-6 took
        # 32 calls of f, Newton from [-1, 1] measured 14, and Newton to 1e-7
        # from the closed-form bracket 9
        rng = np.random.default_rng(40)
        n, h = 1000, 16
        rng.standard_normal((n, 3))
        rng.standard_normal((n, 8))
        rng.standard_normal((n, 8))
        rng.standard_normal((n, 7))
        rng.uniform(-3.5, 3.5, size=n)
        w1 = 0.5 * rng.standard_normal((n, h))
        b1 = 0.5 * rng.standard_normal((n, h))
        w2 = 0.5 * rng.standard_normal((n, h)) - np.log(h)
        b2 = 0.5 * rng.standard_normal(n)
        c = 0.5 * rng.standard_normal(n)
        x = 2.0 * rng.standard_normal(n)
        psi = np.concatenate([w1, b1, w2, b2[:, None], c[:, None]], axis=1)
        with dc.no_grad():
            y = tf.cdf_forward_node(dc.constant(x), dc.constant(psi))[0].value

        solve, calls = tf.monotone_bisect, []

        def counted(f, target, *ends):
            def g(v):
                calls.append(v)
                return f(v)
            return solve(g, target, *ends)

        monkeypatch.setattr(tf, "monotone_bisect", counted)
        xr = tf.cdf_inv_batch(y, psi)
        assert len(calls) <= 9, len(calls)
        assert np.abs(xr - x).max() < 1e-12, np.abs(xr - x).max()

    def test_bracket_failure_raises(self):
        # the root of a finite target beyond the bracket cap, 2**64, is not
        # bracketed
        psi = cdf_psi(w1=np.zeros(2), b1=np.zeros(2), w2=np.zeros(2), b2=0.0, c=0.0)
        with pytest.raises(InversionError):
            cdf_inv(1e300, psi)

    def test_closed_form_start_brackets_every_lane(self, monkeypatch):
        # the net lies within S = sum exp(w2) of b2 + e^c x, so each lane whose
        # closed-form ends (y - b2 -+ S) / e^c are finite and inside +-2**64
        # starts bracketed: f(lo) <= y <= f(hi) at the ends monotone_bisect
        # gets, on random lanes and on extreme ones (c down to -30, w2 up to
        # 10, |y| up to 1e6, |b2| up to 1e3)
        rng = np.random.default_rng(11)
        n, h = 10_000, 8
        spread = np.linspace(-2.0, 2.0, h)
        grid = np.array(np.meshgrid([-30.0, 0.0, 10.0], [-50.0, 0.0, 50.0], [-30.0, 0.0, 10.0],
                                    [-1e3, 0.0, 1e3], [-30.0, -10.0, 0.0, 5.0],
                                    [-1e6, -1.0, 0.0, 1.0, 1e6])).reshape(6, -1)
        psi = np.concatenate([
            np.concatenate([rng.normal(0.0, 2.0, (n, h)), rng.normal(0.0, 3.0, (n, h)),
                            rng.uniform(-10.0, 10.0, (n, h)), rng.normal(0.0, 10.0, (n, 1)),
                            rng.uniform(-30.0, 5.0, (n, 1))], axis=1),
            np.concatenate([grid[0][:, None] + spread, grid[1][:, None] + spread,
                            grid[2][:, None] + spread, grid[3][:, None], grid[4][:, None]],
                           axis=1)])
        y = np.concatenate([rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 6.0, n),
                            grid[5]])
        _, _, w2, b2, c = tf._cdf_params(psi)
        s, ec = np.exp(w2).sum(axis=-1), np.exp(c)
        ends = np.stack([(y - b2 - s) / ec, (y - b2 + s) / ec])
        known = (np.abs(ends) <= 2.0 ** 64).all(axis=0)
        assert known.mean() > 0.99
        seen = {}

        def spy(f, target, lo, hi):
            seen.update(f=f, lo=lo, hi=hi)
            return target

        monkeypatch.setattr(tf, "monotone_bisect", spy)
        tf.cdf_inv_batch(y, psi)
        v_lo, v_hi = seen["f"](seen["lo"])[0], seen["f"](seen["hi"])[0]
        assert (v_lo[known] <= y[known]).all() and (y[known] <= v_hi[known]).all()
        assert (seen["lo"][known] != -1.0).all() and (seen["hi"][known] != 1.0).all()
        np.testing.assert_array_equal(seen["lo"][~known], -1.0)
        np.testing.assert_array_equal(seen["hi"][~known], 1.0)

    def test_infinite_weight_lane_starts_at_default_ends(self, monkeypatch):
        # exp(w2) = inf leaves no finite closed form (ROADMAP item 14's first
        # repro): that lane's first two evaluations are at -1 and 1, while
        # its finite neighbour starts at its closed-form ends
        rng = np.random.default_rng(12)
        psi = np.stack([random_cdf_psi(rng, h=2), [0, 0, -1, 1, 1000, 1000, 0, 0.]])
        solve, calls = tf.monotone_bisect, []

        def spy(f, target, lo, hi):
            return solve(lambda x: calls.append(x.copy()) or f(x), target, lo, hi)

        monkeypatch.setattr(tf, "monotone_bisect", spy)
        with np.errstate(over="ignore", invalid="ignore"):
            tf.cdf_inv_batch(np.array([0.3, 0.7]), psi)
        assert [end[1] for end in calls[:2]] == [-1.0, 1.0]
        assert calls[0][0] != -1.0 and calls[1][0] != 1.0

    def test_unbracketable_lane_still_raises(self):
        # the shape of a benchmark failure: exp(w2) = inf times a negative
        # tanh makes f = -inf for every x >= 1, so no upper bracket exists,
        # and the error names the lane, as from the default start
        rng = np.random.default_rng(13)
        bad = cdf_psi(w1=np.array([-100.0, 0.0]), b1=np.array([-1.0, 0.0]),
                      w2=np.array([1000.0, 0.0]), b2=0.0, c=0.0)
        psi = np.stack([random_cdf_psi(rng, h=2), random_cdf_psi(rng, h=2), bad])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                InversionError, match=r"^upper bracket not found \(pathological transform\)$") as err:
            tf.cdf_inv_batch(np.array([0.3, -0.2, 0.7]), psi)
        assert err.value.index == 2

    def test_graph_matches_plain(self):
        rng = np.random.default_rng(7)
        h = 4
        psi_rows = rng.standard_normal((2, 3, 3 * h + 2)) * 0.5
        x = rng.standard_normal((2, 3))
        y_node, ld_node = tf.cdf_forward_node(dc.constant(x), dc.constant(psi_rows))
        y, ld = _cdf_reference(x, psi_rows[..., :h], psi_rows[..., h:2 * h],
                               psi_rows[..., 2 * h:3 * h], psi_rows[..., 3 * h],
                               psi_rows[..., 3 * h + 1])
        assert np.abs(y - y_node.value).max() < 1e-12
        assert np.abs(ld - ld_node.value).max() < 1e-12


def _weighted_grad(forward, x, psi_value, g, which):
    """Value of output `which` (0: y, 1: ld) of forward(x, psi) and the
    psi gradient of sum(g * output)."""
    psi = dc.parameter(psi_value.copy())
    out = forward(dc.constant(x), psi)[which]
    dc.backward(dc.sum_(dc.mul(out, dc.constant(g))))
    return out.value, psi.grad


class TestCdfNode:
    """cdf_forward_node against the composite chain it replaces."""

    H = 6

    def case(self, scale, seed):
        rng = np.random.default_rng(seed)
        psi = scale * rng.standard_normal((4, 3, 3 * self.H + 2))
        return psi, 2.0 * rng.standard_normal((4, 3)), rng.standard_normal((4, 3))

    def test_matches_composite(self):
        saturated = 0
        for scale in (0.5, 2.0, 8.0, 30.0):
            for seed in range(3):
                psi, x, g = self.case(scale, seed)
                a = np.exp(psi[..., :self.H]) * x[..., None] + psi[..., self.H:2 * self.H]
                saturated += int((np.abs(a) > 20).sum())
                for which in (0, 1):
                    v, gp = _weighted_grad(tf.cdf_forward_node, x, psi, g, which)
                    vc, gc = _weighted_grad(_composite_cdf_psi, x, psi, g, which)
                    if which == 0:
                        np.testing.assert_array_equal(v, vc)
                    else:
                        assert np.abs(v - vc).max() <= 3e-14, (scale, seed)
                    assert np.isfinite(gp).all()
                    assert np.abs(gp - gc).max() <= 1e-15 * np.abs(gc).max(), (scale, seed, which)
        assert saturated > 0

    def test_psi_gradient_matches_central_difference(self):
        psi, x, g = self.case(0.5, 7)
        for which in (0, 1):
            _, grad = _weighted_grad(tf.cdf_forward_node, x, psi, g, which)

            def f(value, i):
                bumped = psi.copy()
                bumped.flat[i] = value
                with dc.no_grad():
                    out = tf.cdf_forward_node(dc.constant(x), dc.constant(bumped))
                return float((g * out[which].value).sum())

            fd = np.array([fd_slope(lambda v: f(v, i), psi.flat[i]) for i in range(psi.size)])
            assert np.abs(fd - grad.ravel()).max() <= 1e-6 * max(1.0, np.abs(fd).max()), which


class TestSharedCdf:
    def make_phi(self, rng, h=4):
        """The shared net's globals; each position's psi is its biases [b1 | b2]."""
        return {
            "phi.w1": 0.3 * rng.standard_normal(h),
            "phi.w2": 0.3 * rng.standard_normal(h) - np.log(h),
            "phi.c": 0.3 * rng.standard_normal(1),
        }

    def shared_fwd(self, x, psi, phi):
        """Graph forward on x [N, D] with biases psi [N, D, H + 1], no_grad."""
        nodes = {name: dc.constant(v) for name, v in phi.items()}
        with dc.no_grad():
            y, ld = tf.shared_cdf_forward_node(dc.constant(np.atleast_2d(x)),
                                               dc.constant(psi), nodes)
        return y.value, ld.value

    def reference(self, x, psi, phi):
        """The shared net is the per-token net on the globals and each
        position's biases."""
        return _cdf_reference(x, phi["phi.w1"], psi[..., :-1], phi["phi.w2"], psi[..., -1],
                              phi["phi.c"][0])

    def scalar(self, x, biases, phi):
        y, ld = self.shared_fwd(np.array([[x]]), biases[None, None, :], phi)
        return float(y[0, 0]), float(ld[0, 0])

    def test_zero_conditioning_reduces_to_cdf(self):
        # at biases [b1 | b2] the shared net is the cdf net on [w1 | b1 | w2 | b2 | c]
        rng = np.random.default_rng(8)
        phi = self.make_phi(rng)
        biases = 0.3 * rng.standard_normal(5)
        psi = cdf_psi(phi["phi.w1"], biases[:4], phi["phi.w2"], biases[4], phi["phi.c"][0])
        for x in (-1.5, 0.0, 2.0):
            ys, lds = self.scalar(x, biases, phi)
            yc, ldc = cdf_fwd(x, psi)
            assert abs(ys - yc) < 1e-15
            assert abs(lds - ldc) < 1e-12

    def test_monotone_for_fixed_embedding(self):
        rng = np.random.default_rng(9)
        phi = self.make_phi(rng)
        biases = rng.standard_normal(5)
        xs = np.sort(rng.standard_normal(40) * 3)
        ys = np.array([self.scalar(float(x), biases, phi)[0] for x in xs])
        assert (np.diff(ys) > 0).all()

    def test_logdet_matches_fd_slope(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            phi = self.make_phi(rng)
            biases = rng.standard_normal(5)
            x = float(2.0 * rng.standard_normal())
            _, ld = self.scalar(x, biases, phi)
            slope = fd_slope(lambda v: self.scalar(v, biases, phi)[0], x)
            assert abs(np.exp(ld) - slope) / slope < 1e-6

    def test_embedding_shape_checked(self):
        # psi must be H + 1 = 5 wide: the globals do not broadcast to other widths
        phi = self.make_phi(np.random.default_rng(11))
        for width in (4, 6):
            with pytest.raises(DimensionError):
                self.scalar(0.0, np.zeros(width), phi)

    def test_phi_gradients_pass_through_broadcasts(self):
        # the global phi.w1, phi.w2 and phi.c reach every position through
        # shared_cdf_psi's broadcasts; their gradients sum over positions
        rng = np.random.default_rng(13)
        phi_values = self.make_phi(rng)
        x = rng.standard_normal((3, 2))
        psi_value = rng.standard_normal((3, 2, 5))
        gy, gld = rng.standard_normal((2, 3, 2))

        def grads(forward):
            phi = {name: dc.parameter(v.copy()) for name, v in phi_values.items()}
            psi = dc.parameter(psi_value.copy())
            y, ld = forward(dc.constant(x), psi, phi)
            dc.backward(dc.add(dc.sum_(dc.mul(y, dc.constant(gy))),
                               dc.sum_(dc.mul(ld, dc.constant(gld)))))
            return {"psi": psi.grad, **{name: node.grad for name, node in phi.items()}}

        def composite(x, psi, phi):
            # the per-position biases narrowed off psi, the global weights
            # broadcast by the ops themselves
            b2 = dc.reshape(dc.narrow(psi, -1, 4, 1), (3, 2))
            return _composite_cdf(x, phi["phi.w1"], dc.narrow(psi, -1, 0, 4), phi["phi.w2"],
                                  b2, dc.reshape(phi["phi.c"], ()))

        got, want = grads(tf.shared_cdf_forward_node), grads(composite)
        for name in ("phi.w1", "phi.w2", "phi.c", "psi"):
            assert np.abs(got[name]).max() > 0, name
            np.testing.assert_allclose(got[name], want[name], rtol=0,
                                       atol=1e-14 * np.abs(want[name]).max(), err_msg=name)

    def test_graph_matches_plain(self):
        rng = np.random.default_rng(12)
        phi = self.make_phi(rng)
        x = rng.standard_normal((3, 2))
        psi = rng.standard_normal((3, 2, 5))
        y_node, ld_node = self.shared_fwd(x, psi, phi)
        y, ld = self.reference(x, psi, phi)
        assert np.abs(y - y_node).max() < 1e-12
        assert np.abs(ld - ld_node).max() < 1e-12


class TestSplineActivation:
    def test_identity_configuration(self):
        xk, yk, derivs = spline_table(identity_spline_psi(k=4))
        np.testing.assert_allclose(xk, np.linspace(-3, 3, 5), atol=1e-12)
        np.testing.assert_allclose(yk, xk, atol=1e-12)
        np.testing.assert_allclose(derivs, 1.0, atol=1e-12)

    def test_knots_strictly_increasing_and_span(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            xk, yk, _ = spline_table(random_spline_psi(rng, k=8, scale=3.0))
            assert xk[0] == yk[0] == -BOUND
            assert xk[-1] == yk[-1] == BOUND
            assert (np.diff(xk) > 0).all()
            assert (np.diff(yk) > 0).all()

    def test_derivative_floor(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            assert (spline_table(random_spline_psi(rng, k=8, scale=5.0))[2] >= tf.MIN_DERIV).all()

    def test_boundary_derivatives_pinned(self):
        derivs = spline_table(random_spline_psi(np.random.default_rng(14)))[2]
        assert derivs[0] == 1.0
        assert derivs[-1] == 1.0


class TestSplineForward:
    def test_identity_spline(self):
        psi = identity_spline_psi()
        for x in (-2.9, -0.4, 0.0, 1.7):
            y, ld = spline_fwd(x, psi)
            assert abs(y - x) < 1e-12
            assert abs(ld) < 1e-12

    def test_tail_identity(self):
        psi = random_spline_psi(np.random.default_rng(15))
        for x in (10.0, -4.5, 3.0, -3.0):
            y, ld = spline_fwd(x, psi)
            assert y == x
            assert ld == 0.0

    def test_logdet_matches_fd_slope(self):
        rng = np.random.default_rng(16)
        count = 0
        while count < 200:
            psi = random_spline_psi(rng)
            x = float(rng.uniform(-2.9, 2.9))
            # keep away from knots where the derivative jumps in C^1 only
            if np.abs(x_knots(psi) - x).min() < 1e-3:
                continue
            count += 1
            _, ld = spline_fwd(x, psi)
            slope = fd_slope(lambda v: spline_fwd(v, psi)[0], x)
            assert abs(np.exp(ld) - slope) / slope < 1e-6

    def test_monotone(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            psi = random_spline_psi(rng)
            xs = np.linspace(-3.5, 3.5, 201)
            ys = np.array([spline_fwd(float(x), psi)[0] for x in xs])
            assert (np.diff(ys) > 0).all()

    def test_continuity_at_knots(self):
        # C^1 seams: the value jump is explained by the shared knot slope and
        # the side limits of the derivative agree after extrapolating the
        # curvature*eps term away (second derivatives may jump).
        rng = np.random.default_rng(18)
        eps = 1e-7
        for _ in range(20):
            psi = random_spline_psi(rng)
            derivs = spline_table(psi)[2]
            for i, knot in enumerate(x_knots(psi)[1:-1], start=1):
                knot = float(knot)
                y_lo, _ = spline_fwd(knot - eps, psi)
                y_hi, _ = spline_fwd(knot + eps, psi)
                d_k = derivs[i]
                assert abs(y_hi - y_lo - 2 * eps * d_k) < 1e-9

                def deriv(v):
                    return np.exp(spline_fwd(v, psi)[1])

                # side limits agree up to the allowed C^2 jump times eps^2
                left = 2 * deriv(knot - eps) - deriv(knot - 2 * eps)
                right = 2 * deriv(knot + eps) - deriv(knot + 2 * eps)
                assert abs(left - right) < 1e-7
                assert abs(left - d_k) < 1e-7

    def test_boundary_continuity_with_tails(self):
        rng = np.random.default_rng(19)
        eps = 1e-7
        for _ in range(20):
            psi = random_spline_psi(rng)
            for edge in (-BOUND, BOUND):
                x = edge - np.sign(edge) * eps
                inside, _ = spline_fwd(float(x), psi)
                assert abs(inside - x) < 1e-6

                def deriv(v):
                    return np.exp(spline_fwd(float(v), psi)[1])

                # slope extrapolated to the edge matches the identity tails
                lim = 2 * deriv(x) - deriv(edge - np.sign(edge) * 2 * eps)
                assert abs(lim - 1.0) < 1e-9


class TestSplineInverse:
    def test_identity(self):
        psi = identity_spline_psi()
        for y in (-2.0, 0.0, 2.5):
            assert abs(spline_inv(y, psi) - y) < 1e-12

    def test_tail(self):
        psi = random_spline_psi(np.random.default_rng(20))
        for y in (3.0, -5.0, 12.0):
            assert spline_inv(y, psi) == y

    def test_roundtrip_1000(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(1000):
            psi = random_spline_psi(rng)
            x = float(rng.uniform(-3.5, 3.5))
            y, _ = spline_fwd(x, psi)
            worst = max(worst, abs(spline_inv(y, psi) - x))
        assert worst < 1e-10

    def test_negative_discriminant_names_the_lane(self):
        # a hand-built K=2 table whose lane 1 has falling y knots and a negative
        # knot derivative: y = 0.5 lands in its bin [-0.5, -0.4] ten bin heights
        # past y0, where the bin's quadratic has no real root; lanes 0 and 2
        # are the identity
        table = np.array([[[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]] * 3)
        table[1, 1] = [-1.0, -0.5, -0.4]
        table[1, 2] = [1.0, 1.0, -0.9]
        with pytest.raises(InversionError, match="negative discriminant") as err:
            tf.spline_inverse_np(np.array([0.3, 0.5, 0.3]), table, 1.0)
        assert err.value.index == 1

    def test_graph_matches_plain(self):
        rng = np.random.default_rng(22)
        k = 5
        psi_rows = dc.constant(rng.standard_normal((3, 2, 3 * k - 1)))
        x = dc.constant(rng.uniform(-4, 4, size=(3, 2)))
        for got, want in zip(tf.spline_forward_node(x, psi_rows, 3.0),
                             _composite_spline(x, psi_rows, 3.0)):
            np.testing.assert_array_equal(got.value, want.value)


def _spline_grads(forward, x, psi, g, which):
    """Value of output `which` (0: y, 1: ld) of forward(x, psi, BOUND) and
    the psi and x gradients of sum(g * output)."""
    xp, pp = dc.parameter(x.copy()), dc.parameter(psi.copy())
    out = forward(xp, pp, BOUND)[which]
    dc.backward(dc.sum_(dc.mul(out, dc.constant(g))))
    return out.value, pp.grad, xp.grad


class TestSplineNode:
    """spline_forward_node against the op chain it replaces and against
    central differences."""

    @staticmethod
    def case(rng, k, scale, dtype, lead=(6, 7)):
        """psi, lanes x over (-4, 4): inside and in both tails, with lanes
        exactly at -B, B and 0, and an upstream gradient g."""
        psi = scale * rng.standard_normal(lead + (3 * k - 1,))
        x = rng.uniform(-4.0, 4.0, lead)
        x[0, :3] = (-BOUND, BOUND, 0.0)
        return psi.astype(dtype), x.astype(dtype), rng.standard_normal(lead).astype(dtype)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 4e-15), (np.float32, 4e-6)])
    def test_matches_composite(self, dtype, tol):
        # y and ld byte-equal, psi and x gradients within tol * max|reference|;
        # float32 inputs give float32 values and gradients
        rng = np.random.default_rng(30)
        for k in (2, 5, 8):
            for scale in (0.5, 2.0, 5.0):
                psi, x, g = self.case(rng, k, scale, dtype)
                for which in (0, 1):
                    got = _spline_grads(tf.spline_forward_node, x, psi, g, which)
                    want = _spline_grads(_composite_spline, x, psi, g, which)
                    assert got[0].dtype == dtype
                    assert got[0].tobytes() == want[0].tobytes(), (k, scale, which)
                    for grad, ref in zip(got[1:], want[1:]):
                        assert grad.dtype == dtype
                        assert np.abs(grad - ref).max() <= tol * np.abs(ref).max(), (k, scale)

    def test_gradient_at_bound(self):
        # a lane at +-B is in the identity tail: x takes g through y and
        # nothing through ld, and psi takes nothing from the lane
        rng = np.random.default_rng(31)
        psi = rng.standard_normal((2, 3, 3 * 6 - 1))
        x = np.array([[-BOUND, BOUND, -BOUND], [BOUND, BOUND, -BOUND]])
        g = rng.standard_normal((2, 3))
        for which, gx in ((0, g), (1, 0.0)):
            value, grad_psi, grad_x = _spline_grads(tf.spline_forward_node, x, psi, g, which)
            np.testing.assert_array_equal(value, x if which == 0 else 0.0)
            np.testing.assert_array_equal(grad_x, gx)
            np.testing.assert_array_equal(grad_psi, 0.0)

    def test_gradient_matches_central_difference(self):
        k = 4
        rng = np.random.default_rng(32)
        psi = rng.standard_normal((2, 4, 3 * k - 1))
        # inside (-B, B), both tails, and the bound itself for the psi gradient
        x = np.array([[-3.6, -1.3, 0.45, 2.2], [4.1, -0.8, BOUND, 1.6]])
        g = rng.standard_normal((2, 4))
        table = tf._spline_parts(psi, BOUND)[0]
        assert np.abs(table[..., 0, 1:-1] - x[..., None]).min() > 1e-2

        def value(which, x_in, psi_in):
            with dc.no_grad():
                out = tf.spline_forward_node(dc.constant(x_in), dc.constant(psi_in), BOUND)
            return float((g * out[which].value).sum())

        def bumped(a, i, v):
            a = a.copy()
            a.flat[i] = v
            return a

        for which in (0, 1):
            _, grad_psi, grad_x = _spline_grads(tf.spline_forward_node, x, psi, g, which)
            fd_psi = np.array([fd_slope(lambda v: value(which, x, bumped(psi, i, v)), psi.flat[i])
                               for i in range(psi.size)])
            assert np.abs(fd_psi - grad_psi.ravel()).max() <= 1e-6 * max(1.0, np.abs(fd_psi).max())
            # ld's slope jumps at +-B, so x is checked off the bound
            lanes = [i for i in range(x.size) if abs(x.flat[i]) != BOUND]
            fd_x = np.array([fd_slope(lambda v: value(which, bumped(x, i, v), psi), x.flat[i])
                             for i in lanes])
            fd_err = np.abs(fd_x - grad_x.ravel()[lanes]).max()
            assert fd_err <= 1e-6 * max(1.0, np.abs(fd_x).max())

    def test_one_bin_is_identity(self):
        # K=1: both knot rows are [-B, B] and both derivatives 1, so every
        # lane is the identity, ld is 0, and psi gets no gradient
        rng = np.random.default_rng(33)
        psi, x, g = self.case(rng, 1, 3.0, np.float64, lead=(5, 4))
        for which in (0, 1):
            value, grad_psi, grad_x = _spline_grads(tf.spline_forward_node, x, psi, g, which)
            np.testing.assert_array_equal(value, x if which == 0 else 0.0)
            np.testing.assert_array_equal(grad_psi, 0.0)
            np.testing.assert_array_equal(grad_x, g if which == 0 else 0.0)
        np.testing.assert_array_equal(tf.spline_inverse_np(x, spline_table(psi), BOUND), x)

    def test_three_nodes_per_call(self, monkeypatch):
        # the spline is three nodes per block in a training loss, not an op chain
        model = build_model(ModelConfig(D=4, head_type="spline", E=8, heads=2, layers=1,
                                        mlp_hidden=16, K=6, blocks=2), seed=0)
        make_node, forward = dc.make_node, tf.spline_forward_node
        calls, depth = [], []

        def counted_make_node(value, parents):
            if depth:
                calls[-1] += 1
            return make_node(value, parents)

        def counted_forward(*args):
            calls.append(0)
            depth.append(1)
            try:
                return forward(*args)
            finally:
                depth.pop()

        monkeypatch.setattr(dc, "make_node", counted_make_node)
        monkeypatch.setattr(tf, "spline_forward_node", counted_forward)
        dc.backward(nll_loss(model, np.random.default_rng(0).standard_normal((3, 4))))
        assert calls == [3, 3]


class TestMix:
    def test_identity(self):
        np.testing.assert_array_equal(mix_fwd(np.array([[4.0]]), None, 1), [[4.0]])

    def test_two_dim_arithmetic(self):
        np.testing.assert_array_equal(mix_fwd(np.array([[1.0, 1.0]]), np.array([0.5]), 2),
                                      [[1.0, 1.5]])

    def test_inverse_of_example(self):
        # both coordinates sit in the identity tails of a tiny-bound spline,
        # so inversion is the forward substitution alone and exact
        model = mix_only_flow([0.5], 2, bound=0.5)
        np.testing.assert_array_equal(invert_rows(model, np.array([[1.0, 1.5]])),
                                      [[1.0, 1.0]])

    def test_roundtrip(self):
        rng = np.random.default_rng(23)
        for d in (1, 2, 5):
            model = mix_only_flow(rng.standard_normal(d * (d - 1) // 2), d)
            z = rng.standard_normal((1, d))
            fwd, _ = forward_values(model, z)
            assert np.abs(invert_rows(model, fwd) - z).max() < 1e-12

    def test_jacobian_determinant_is_one(self):
        rng = np.random.default_rng(24)
        d = 5
        free = rng.standard_normal(d * (d - 1) // 2)
        step = 1e-6
        jac = np.zeros((d, d))
        for j in range(d):
            zp, zm = np.zeros((1, d)), np.zeros((1, d))
            zp[0, j], zm[0, j] = step, -step
            jac[:, j] = (mix_fwd(zp, free, d)[0] - mix_fwd(zm, free, d)[0]) / (2 * step)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-10

    def test_free_entry_count_checked(self):
        with pytest.raises(DimensionError):
            mix_fwd(np.zeros((1, 2)), np.zeros(2), 2)

    def test_mix_forward_node_matches(self):
        rng = np.random.default_rng(25)
        d = 4
        free = rng.standard_normal(d * (d - 1) // 2)
        z = rng.standard_normal((3, d))
        out = tf.mix_forward_node(dc.constant(z), dc.constant(free))
        for row in range(3):
            np.testing.assert_allclose(out.value[row], lower(free, d) @ z[row],
                                       rtol=1e-12)


class TestGraphLogdetOracles:
    """exp(logdet) of each graph head equals the forward map's fd slope."""

    @pytest.mark.parametrize("seed", range(5))
    def test_cdf_graph_logdet(self, seed):
        rng = np.random.default_rng(seed)
        h = 6
        psi = dc.constant(0.5 * rng.standard_normal((4, 2, 3 * h + 2)))
        x = rng.standard_normal((4, 2))

        _, ld = tf.cdf_forward_node(dc.constant(x), psi)
        for n in range(4):
            for d in range(2):
                def fwd(v):
                    bumped = x.copy()
                    bumped[n, d] = v
                    return tf.cdf_forward_node(dc.constant(bumped), psi)[0].value[n, d]

                slope = fd_slope(fwd, x[n, d])
                assert abs(np.exp(ld.value[n, d]) - slope) / slope < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_spline_graph_logdet(self, seed):
        rng = np.random.default_rng(seed + 50)
        k = 6
        psi = dc.constant(rng.standard_normal((4, 2, 3 * k - 1)))
        x = rng.uniform(-2.8, 2.8, size=(4, 2))

        _, ld = tf.spline_forward_node(dc.constant(x), psi, 3.0)
        for n in range(4):
            for d in range(2):
                def fwd(v):
                    bumped = x.copy()
                    bumped[n, d] = v
                    return tf.spline_forward_node(
                        dc.constant(bumped), psi, 3.0
                    )[0].value[n, d]

                slope = fd_slope(fwd, x[n, d], step=1e-5)
                assert abs(np.exp(ld.value[n, d]) - slope) / slope < 1e-6
