"""Transform heads: forward/inverse consistency and log-derivative oracles.

Every logdet claim is checked against a central-difference slope of the
corresponding forward map; inverses are checked by round trip.
"""

import numpy as np
import pytest

from tnaf import diffcore as dc
from tnaf import transforms as tf
from tnaf.diffcore import DimensionError
from tnaf.flow import ModelConfig, build_model, forward_values, invert_rows
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


def _cdf_reference(x, w1, b1, w2, b2):
    """Plain-numpy monotone net and its log-derivative (independent of the
    graph form); the trailing axis of the weights is the hidden layer."""
    a = np.exp(w1) * np.asarray(x)[..., None] + b1
    u = (np.tanh(a) * np.exp(w2)).sum(axis=-1) + b2
    y = 0.5 * (1.0 + np.tanh(0.5 * u))
    log_sig_prime = -np.logaddexp(0.0, u) - np.logaddexp(0.0, -u)
    # log(1 - tanh(a)^2) = 2*(log 2 - a - softplus(-2a)), stable on both tails
    log1m_tanh_sq = 2.0 * (np.log(2.0) - a - np.logaddexp(0.0, -2.0 * a))
    return y, log_sig_prime + _logsumexp(w2 + log1m_tanh_sq + w1)


def _spline_reference(x, raw_w, raw_h, raw_d, bound):
    """Plain-numpy spline forward; trailing axis of the raws is the bin axis."""
    k = raw_w.shape[-1]
    xk = tf._knot_positions(raw_w, bound)
    yk = tf._knot_positions(raw_h, bound)
    dk = tf._knot_derivs(raw_d)
    x = np.asarray(x, dtype=np.float64)
    idx = tf._bin_index(x, xk, k)
    x0, x1 = tf._gather(xk, idx), tf._gather(xk, idx + 1)
    y0, y1 = tf._gather(yk, idx), tf._gather(yk, idx + 1)
    d0, d1 = tf._gather(dk, idx), tf._gather(dk, idx + 1)
    w = x1 - x0
    hgt = y1 - y0
    s = hgt / w
    xi = (np.clip(x, -bound, bound) - x0) / w
    t = xi * (1.0 - xi)
    denom = s + (d0 + d1 - 2.0 * s) * t
    y_in = y0 + hgt * (s * xi * xi + d0 * t) / denom
    deriv = s * s * (d1 * xi * xi + 2.0 * s * t + d0 * (1.0 - xi) ** 2) / (denom * denom)
    inside = np.abs(x) < bound
    return np.where(inside, y_in, x), np.where(inside, np.log(deriv), 0.0)


# psi vectors below use the graph heads' packing:
# affine [mu | log_sigma], cdf [w1 | b1 | w2 | b2], spline [widths | heights | derivs]


def affine_fwd(x, mu, log_sigma):
    return _graph_scalar(tf.affine_forward_node, x, np.array([mu, log_sigma]))


def affine_inv(y, mu, log_sigma):
    return float(tf.affine_inverse_np(np.array([y]), np.array([[mu, log_sigma]]))[0])


def cdf_psi(w1, b1, w2, b2):
    return np.concatenate([w1, b1, w2, [b2]])


def cdf_fwd(x, psi):
    return _graph_scalar(tf.cdf_forward_node, x, psi, (psi.size - 1) // 3)


def cdf_inv(y, psi, tol=1e-6):
    h = (psi.size - 1) // 3
    out = tf.cdf_inv_batch(np.array([y]), psi[:h], psi[h:2 * h], psi[2 * h:3 * h],
                           psi[3 * h], tol=tol)
    return float(out[0])


def random_cdf_psi(rng, h=4, scale=0.5):
    return cdf_psi(
        w1=scale * rng.standard_normal(h),
        b1=scale * rng.standard_normal(h),
        w2=scale * rng.standard_normal(h) - np.log(h),
        b2=float(scale * rng.standard_normal()),
    )


def spline_parts(psi):
    k = (psi.shape[-1] + 1) // 3
    return psi[..., :k], psi[..., k:2 * k], psi[..., 2 * k:]


def spline_fwd(x, psi, bound=BOUND):
    return _graph_scalar(tf.spline_forward_node, x, psi, (psi.size + 1) // 3, bound)


def spline_inv(y, psi, bound=BOUND):
    raw_w, raw_h, raw_d = spline_parts(psi[None, :])
    return float(tf.spline_inverse_np(np.array([y]), raw_w, raw_h, raw_d, bound)[0])


def x_knots(psi, bound=BOUND):
    return tf._knot_positions(spline_parts(psi)[0], bound)


def random_spline_psi(rng, k=6, scale=1.0):
    return scale * rng.standard_normal(3 * k - 1)


IDENTITY_RAW_DERIV = float(np.log(np.expm1(1.0 - tf.MIN_DERIV)))


def identity_spline_psi(k=4):
    return np.concatenate([np.zeros(2 * k), np.full(k - 1, IDENTITY_RAW_DERIV)])


def mix_only_flow(free, d, bound=BOUND):
    """One-block spline flow whose spline is the identity (to float rounding;
    exactly in its tails |x| >= bound), isolating the mix and its inverse."""
    model = build_model(ModelConfig(D=d, head_type="spline", E=8, heads=2, layers=1,
                                    mlp_hidden=16, spline_bins=4, spline_bound=bound,
                                    spline_blocks=1))
    model.params["head0.w"].value[:] = 0.0
    model.params["head0.b"].value = identity_spline_psi(k=4)
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
        out, ld = tf.mix_forward_node(dc.constant(z), dc.constant(free) if d > 1 else None, d)
    return out.value, ld.value


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
        psi = cdf_psi(w1=np.zeros(1), b1=np.zeros(1), w2=np.zeros(1), b2=0.0)
        y, ld = cdf_fwd(0.0, psi)
        assert y == 0.5
        assert abs(ld - np.log(0.25)) < 1e-12

    def test_strictly_increasing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi = random_cdf_psi(rng)
            xs = np.sort(rng.standard_normal(50) * 3)
            ys = np.array([cdf_fwd(float(x), psi)[0] for x in xs])
            assert (np.diff(ys) > 0).all()

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            psi = random_cdf_psi(rng)
            y, _ = cdf_fwd(float(10 * rng.standard_normal()), psi)
            assert 0.0 < y < 1.0

    def test_logdet_matches_fd_slope(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            psi = random_cdf_psi(rng)
            x = float(2.0 * rng.standard_normal())
            _, ld = cdf_fwd(x, psi)
            slope = fd_slope(lambda v: cdf_fwd(v, psi)[0], x)
            assert abs(np.exp(ld) - slope) / slope < 1e-6

    def test_inverse_symmetric_case(self):
        psi = cdf_psi(w1=np.zeros(1), b1=np.zeros(1), w2=np.zeros(1), b2=0.0)
        assert abs(cdf_inv(0.5, psi, tol=1e-8)) < 1e-8

    def test_inverse_hits_forward_target(self):
        rng = np.random.default_rng(4)
        psi = random_cdf_psi(rng)
        y, _ = cdf_fwd(1.0, psi)
        assert abs(cdf_inv(float(y), psi, tol=1e-6) - 1.0) < 1e-6

    def test_inverse_monotone_consistency(self):
        rng = np.random.default_rng(5)
        psi = random_cdf_psi(rng)
        lo = cdf_inv(0.3, psi)
        hi = cdf_inv(0.6, psi)
        assert lo < hi

    def test_target_domain_checked(self):
        # uniform-base targets are validated where inversion starts
        model = build_model(ModelConfig(D=1, head_type="cdf", E=8, heads=2, layers=1,
                                        mlp_hidden=16, cdf_hidden=4))
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(DimensionError):
                invert_rows(model, np.array([[bad]]))

    def test_bracket_failure_raises(self):
        # a net whose range is (sig(b2 - sum e^w2), sig(b2 + sum e^w2)):
        # with tiny weights the range is narrow and 0.999 is unreachable
        psi = cdf_psi(w1=np.full(2, -30.0), b1=np.zeros(2),
                      w2=np.full(2, -30.0), b2=0.0)
        with pytest.raises(InversionError):
            cdf_inv(0.999, psi)

    def test_graph_matches_plain(self):
        rng = np.random.default_rng(7)
        h = 4
        psi_rows = rng.standard_normal((2, 3, 3 * h + 1)) * 0.5
        x = rng.standard_normal((2, 3))
        y_node, ld_node = tf.cdf_forward_node(dc.constant(x), dc.constant(psi_rows), h)
        y, ld = _cdf_reference(x, psi_rows[..., :h], psi_rows[..., h:2 * h],
                               psi_rows[..., 2 * h:3 * h], psi_rows[..., 3 * h])
        assert np.abs(y - y_node.value).max() < 1e-12
        assert np.abs(ld - ld_node.value).max() < 1e-12


class TestSharedCdf:
    def make_phi(self, rng, h=4, e=6):
        return {
            "phi.w1": 0.3 * rng.standard_normal(h),
            "phi.b1": 0.3 * rng.standard_normal(h),
            "phi.w2": 0.3 * rng.standard_normal(h) - np.log(h),
            "phi.b2": 0.3 * rng.standard_normal(1),
            "phi.w1_cond": rng.standard_normal((h, e)) / np.sqrt(e),
            "phi.w2_cond": rng.standard_normal((1, e)) / np.sqrt(e),
        }

    def shared_fwd(self, x, h_rows, phi):
        """Graph forward on x [N, D] with embeddings [N, D, E], no_grad."""
        nodes = {name: dc.constant(v) for name, v in phi.items()}
        with dc.no_grad():
            y, ld = tf.shared_cdf_forward_node(dc.constant(np.atleast_2d(x)),
                                               dc.constant(h_rows), nodes)
        return y.value, ld.value

    def reference(self, x, h_rows, phi):
        """The shared net is the per-token net with embedding-shifted biases."""
        b1 = phi["phi.b1"] + h_rows @ phi["phi.w1_cond"].T
        b2 = phi["phi.b2"][0] + (h_rows @ phi["phi.w2_cond"].T)[..., 0]
        return _cdf_reference(x, phi["phi.w1"], b1, phi["phi.w2"], b2)

    def scalar(self, x, h_embed, phi):
        y, ld = self.shared_fwd(np.array([[x]]), h_embed[None, None, :], phi)
        return float(y[0, 0]), float(ld[0, 0])

    def test_zero_conditioning_reduces_to_cdf(self):
        rng = np.random.default_rng(8)
        phi = self.make_phi(rng)
        psi = cdf_psi(phi["phi.w1"], phi["phi.b1"], phi["phi.w2"], phi["phi.b2"][0])
        for x in (-1.5, 0.0, 2.0):
            ys, lds = self.scalar(x, np.zeros(6), phi)
            yc, ldc = cdf_fwd(x, psi)
            assert abs(ys - yc) < 1e-15
            assert abs(lds - ldc) < 1e-12

    def test_monotone_for_fixed_embedding(self):
        rng = np.random.default_rng(9)
        phi = self.make_phi(rng)
        h_embed = rng.standard_normal(6)
        xs = np.sort(rng.standard_normal(40) * 3)
        ys = np.array([self.scalar(float(x), h_embed, phi)[0] for x in xs])
        assert (np.diff(ys) > 0).all()

    def test_logdet_matches_fd_slope(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            phi = self.make_phi(rng)
            h_embed = rng.standard_normal(6)
            x = float(2.0 * rng.standard_normal())
            _, ld = self.scalar(x, h_embed, phi)
            slope = fd_slope(lambda v: self.scalar(v, h_embed, phi)[0], x)
            assert abs(np.exp(ld) - slope) / slope < 1e-6

    def test_embedding_shape_checked(self):
        phi = self.make_phi(np.random.default_rng(11))
        with pytest.raises(DimensionError):
            self.scalar(0.0, np.zeros(5), phi)

    def test_graph_matches_plain(self):
        rng = np.random.default_rng(12)
        phi = self.make_phi(rng)
        x = rng.standard_normal((3, 2))
        h_rows = rng.standard_normal((3, 2, 6))
        y_node, ld_node = self.shared_fwd(x, h_rows, phi)
        y, ld = self.reference(x, h_rows, phi)
        assert np.abs(y - y_node).max() < 1e-12
        assert np.abs(ld - ld_node).max() < 1e-12


class TestSplineActivation:
    def test_identity_configuration(self):
        raw_w, raw_h, raw_d = spline_parts(identity_spline_psi(k=4))
        xk = tf._knot_positions(raw_w, BOUND)
        np.testing.assert_allclose(xk, np.linspace(-3, 3, 5), atol=1e-12)
        np.testing.assert_allclose(tf._knot_positions(raw_h, BOUND), xk, atol=1e-12)
        np.testing.assert_allclose(tf._knot_derivs(raw_d), 1.0, atol=1e-12)

    def test_knots_strictly_increasing_and_span(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            raw_w, raw_h, _ = spline_parts(random_spline_psi(rng, k=8, scale=3.0))
            xk = tf._knot_positions(raw_w, BOUND)
            yk = tf._knot_positions(raw_h, BOUND)
            assert xk[0] == -BOUND
            assert xk[-1] == BOUND
            assert (np.diff(xk) > 0).all()
            assert (np.diff(yk) > 0).all()

    def test_derivative_floor(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            raw_d = spline_parts(random_spline_psi(rng, k=8, scale=5.0))[2]
            assert (tf._knot_derivs(raw_d) >= tf.MIN_DERIV).all()

    def test_boundary_derivatives_pinned(self):
        raw_d = spline_parts(random_spline_psi(np.random.default_rng(14)))[2]
        derivs = tf._knot_derivs(raw_d)
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
            derivs = tf._knot_derivs(spline_parts(psi)[2])
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

    def test_graph_matches_plain(self):
        rng = np.random.default_rng(22)
        k = 5
        psi_rows = rng.standard_normal((3, 2, 3 * k - 1))
        x = rng.uniform(-4, 4, size=(3, 2))
        y_node, ld_node = tf.spline_forward_node(
            dc.constant(x), dc.constant(psi_rows), k, 3.0
        )
        y, ld = _spline_reference(x, *spline_parts(psi_rows), 3.0)
        assert np.abs(y - y_node.value).max() < 1e-12
        assert np.abs(ld - ld_node.value).max() < 1e-12


class TestMix:
    def test_identity(self):
        z, ld = mix_fwd(np.array([[4.0]]), None, 1)
        np.testing.assert_array_equal(z, [[4.0]])
        assert (ld == 0.0).all()

    def test_two_dim_arithmetic(self):
        z, ld = mix_fwd(np.array([[1.0, 1.0]]), np.array([0.5]), 2)
        np.testing.assert_array_equal(z, [[1.0, 1.5]])
        assert (ld == 0.0).all()

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
            jac[:, j] = (mix_fwd(zp, free, d)[0][0] - mix_fwd(zm, free, d)[0][0]) / (2 * step)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-10

    def test_free_entry_count_checked(self):
        with pytest.raises(DimensionError):
            mix_fwd(np.zeros((1, 2)), np.zeros(2), 2)

    def test_mix_forward_node_matches(self):
        rng = np.random.default_rng(25)
        d = 4
        free = rng.standard_normal(d * (d - 1) // 2)
        z = rng.standard_normal((3, d))
        out, ld = tf.mix_forward_node(dc.constant(z), dc.constant(free), d)
        for row in range(3):
            np.testing.assert_allclose(out.value[row], lower(free, d) @ z[row],
                                       rtol=1e-12)
        np.testing.assert_array_equal(ld.value, 0.0)


class TestGraphLogdetOracles:
    """exp(logdet) of each graph head equals the forward map's fd slope."""

    @pytest.mark.parametrize("seed", range(5))
    def test_cdf_graph_logdet(self, seed):
        rng = np.random.default_rng(seed)
        h = 6
        psi = dc.constant(0.5 * rng.standard_normal((4, 2, 3 * h + 1)))
        x = rng.standard_normal((4, 2))

        _, ld = tf.cdf_forward_node(dc.constant(x), psi, h)
        for n in range(4):
            for d in range(2):
                def fwd(v):
                    bumped = x.copy()
                    bumped[n, d] = v
                    return tf.cdf_forward_node(dc.constant(bumped), psi, h)[0].value[n, d]

                slope = fd_slope(fwd, x[n, d])
                assert abs(np.exp(ld.value[n, d]) - slope) / slope < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_spline_graph_logdet(self, seed):
        rng = np.random.default_rng(seed + 50)
        k = 6
        psi = dc.constant(rng.standard_normal((4, 2, 3 * k - 1)))
        x = rng.uniform(-2.8, 2.8, size=(4, 2))

        _, ld = tf.spline_forward_node(dc.constant(x), psi, k, 3.0)
        for n in range(4):
            for d in range(2):
                def fwd(v):
                    bumped = x.copy()
                    bumped[n, d] = v
                    return tf.spline_forward_node(
                        dc.constant(bumped), psi, k, 3.0
                    )[0].value[n, d]

                slope = fd_slope(fwd, x[n, d], step=1e-5)
                assert abs(np.exp(ld.value[n, d]) - slope) / slope < 1e-6
