"""Unit tests for the reverse-mode autodiff core."""

from collections import Counter

import numpy as np
import pytest

import composite_ops as cops
from tnaf import diffcore as dc
from tnaf import transforms as tf
from tnaf.checks import fd_gradient
from tnaf.diffcore import (
    ContractViolation,
    DimensionError,
    ParamSet,
    backward,
)
from tnaf.flow import ModelConfig, build_model, nll_loss
from tnaf.trainer import clip_gradients


def rel_err(a, b, floor=1e-8):
    scale = max(np.abs(b).max(), floor)
    return np.abs(a - b).max() / scale


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = cops.matmul(dc.constant(np.eye(3)), dc.constant(m))
        np.testing.assert_array_equal(out.value, m)

    def test_two_by_two(self):
        a = dc.constant([[1.0, 2.0], [3.0, 4.0]])
        out = cops.matmul(a, dc.constant(np.eye(2)))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])

    def test_gradient_is_row_sums(self):
        # d sum(A @ B) / dA has entry (i, k) = sum_j B[k, j]
        rng = np.random.default_rng(0)
        a = dc.parameter(rng.standard_normal((3, 4)))
        b = dc.constant(rng.standard_normal((4, 5)))
        backward(dc.sum_(cops.matmul(a, b)))
        expected = np.tile(b.value.sum(axis=1), (3, 1))
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(1)
        params = ParamSet()
        a = params.add("a", rng.standard_normal((3, 4)))
        bmat = rng.standard_normal((4, 2))

        def f(_):
            return float(dc.sum_(cops.matmul(a, dc.constant(bmat))).value)

        backward(dc.sum_(cops.matmul(a, dc.constant(bmat))))
        fd = fd_gradient(f, params)
        assert rel_err(a.grad, fd["a"]) < 1e-4

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            cops.matmul(dc.constant(np.ones((2, 3))), dc.constant(np.ones((2, 3))))

    def test_batched(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 2, 3))
        b = rng.standard_normal((5, 3, 4))
        out = cops.matmul(dc.constant(a), dc.constant(b))
        np.testing.assert_allclose(out.value, a @ b)


def _composite_linear(x, w, b=None):
    """The reshape -> matmul -> add -> reshape chain that linear replaces."""
    in_dim, out_dim = w.value.shape
    y = cops.matmul(dc.reshape(x, (-1, in_dim)), w)
    if b is not None:
        y = dc.add(y, b)
    return dc.reshape(y, x.value.shape[:-1] + (out_dim,))


class TestLinear:
    @staticmethod
    def run(op, lead, bias, dtype, seed=0):
        """op's value and its x, w (and b) gradients for a random upstream
        gradient."""
        rng = np.random.default_rng(seed)
        x = dc.parameter(rng.standard_normal(lead + (5,)).astype(dtype))
        w = dc.parameter(rng.standard_normal((5, 3)).astype(dtype))
        b = dc.parameter(rng.standard_normal(3).astype(dtype)) if bias else None
        out = op(x, w, b)
        weights = dc.constant(rng.standard_normal(out.value.shape).astype(dtype))
        backward(dc.sum_(dc.mul(out, weights)))
        return [out.value, x.grad, w.grad] + ([b.grad] if bias else [])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("lead", [(4,), (2, 3), (2, 3, 4)])
    def test_bit_identical_to_composite(self, lead, bias, dtype):
        fused = self.run(dc.linear, lead, bias, dtype)
        composite = self.run(_composite_linear, lead, bias, dtype)
        assert len(fused) == len(composite) == (4 if bias else 3)
        for f, c in zip(fused, composite):
            assert f.dtype == dtype
            np.testing.assert_array_equal(f, c)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(1)
        params = ParamSet()
        x = params.add("x", rng.standard_normal((2, 5, 4)))
        w = params.add("w", rng.standard_normal((4, 3)))
        b = params.add("b", rng.standard_normal(3))
        weights = dc.constant(rng.standard_normal((2, 5, 3)))

        def loss():
            return dc.sum_(dc.mul(cops.tanh(dc.linear(x, w, b)), weights))

        backward(loss())
        fd = fd_gradient(lambda _: float(loss().value), params)
        for name in ("x", "w", "b"):
            assert rel_err(params[name].grad, fd[name]) < 1e-4, name

    def test_in_dim_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            dc.linear(np.zeros((2, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (1, 2)])
    def test_bias_shape_checked(self, shape):
        with pytest.raises(DimensionError):
            dc.linear(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(shape))


class TestRowsMatmul:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("m", [0, 1, 3, 4, 5, 63, 64, 65, 129])
    def test_matches_matmul_and_each_row_its_tile_value(self, m, dtype):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, 32)).astype(dtype)
        w = rng.standard_normal((32, 386)).astype(dtype)
        got = dc.rows_matmul(a, w)
        expected = a @ w
        assert got.shape == expected.shape and got.dtype == dtype
        # float32 products differ from a @ w's by their rounding, about 1e-7
        tol = 1e-12 if dtype == np.float64 else 1e-6
        if m:
            assert rel_err(got.astype(np.float64), expected.astype(np.float64)) < tol
        # each row's bits in a call of dc.ROW_TILE rows
        for i in range(m):
            tile = np.zeros((dc.ROW_TILE, 32), dtype)
            tile[i % dc.ROW_TILE] = a[i]
            np.testing.assert_array_equal(got[i], (tile @ w)[i % dc.ROW_TILE])


class TestElementwise:
    def test_tanh_zero_gradient_one(self):
        x = dc.parameter(0.0)
        y = cops.tanh(x)
        backward(y)
        assert y.value == 0.0
        assert x.grad == 1.0

    def test_softplus_large_is_stable(self):
        out = cops.softplus(dc.constant(30.0)).value
        assert abs(out - 30.0) < 1e-9

    def test_softplus_negative_tail(self):
        out = cops.softplus(dc.constant(-700.0)).value
        assert 0.0 <= out < 1e-300

    def test_suffix_broadcast_vector(self):
        x = dc.parameter(np.ones((4, 3)))
        b = dc.parameter(np.array([1.0, 2.0, 3.0]))
        out = dc.add(x, b)
        backward(dc.sum_(out))
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(x.grad, np.ones((4, 3)))

    def test_incompatible_broadcast_rejected(self):
        with pytest.raises(DimensionError):
            dc.add(dc.constant(np.ones((2, 3))), dc.constant(np.ones((3, 2))))

    @pytest.mark.parametrize("seed", range(10))
    def test_unary_gradients_vs_fd(self, seed):
        rng = np.random.default_rng(seed)
        ops = [dc.exp, cops.tanh, cops.softplus]
        for op in ops:
            params = ParamSet()
            x = params.add("x", rng.standard_normal(6))

            def f(_):
                return float(dc.sum_(op(x)).value)

            params.zero_grad()
            backward(dc.sum_(op(x)))
            fd = fd_gradient(f, params)
            assert rel_err(x.grad, fd["x"]) < 1e-4, op.__name__


class TestLogsumexp:
    def test_constant_vector(self):
        out = cops.logsumexp(dc.constant([2.5, 2.5, 2.5]))
        assert abs(out.value - (2.5 + np.log(3.0))) < 1e-12

    def test_singleton(self):
        assert cops.logsumexp(dc.constant([0.0])).value == 0.0

    def test_no_overflow(self):
        out = cops.logsumexp(dc.constant([1000.0, 1000.0]))
        assert abs(out.value - (1000.0 + np.log(2.0))) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(7)
        base = cops.logsumexp(dc.constant(v)).value
        shifted = cops.logsumexp(dc.constant(v + 11.25)).value
        assert abs(shifted - (base + 11.25)) < 1e-12

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            cops.logsumexp(dc.constant(np.ones((2, 0))))

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(4)
        params = ParamSet()
        x = params.add("x", rng.standard_normal((3, 5)))

        def f(_):
            return float(dc.sum_(cops.logsumexp(x, axis=-1)).value)

        backward(dc.sum_(cops.logsumexp(x, axis=-1)))
        fd = fd_gradient(f, params)
        assert rel_err(x.grad, fd["x"]) < 1e-4


class TestLayerNorm:
    def test_constant_vector_absorbed_by_eps(self):
        x = dc.constant(np.full((2, 4), 3.7))
        out = cops.layer_norm(x, dc.constant(np.ones(4)), dc.constant(np.zeros(4)), 1e-5)
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_already_standardized(self):
        x = dc.constant(np.array([[1.0, -1.0]]))
        out = cops.layer_norm(x, dc.constant(np.ones(2)), dc.constant(np.zeros(2)), 1e-12)
        np.testing.assert_allclose(out.value, [[1.0, -1.0]], atol=1e-6)

    def test_output_statistics(self):
        rng = np.random.default_rng(5)
        x = dc.constant(rng.standard_normal((10, 16)))
        out = cops.layer_norm(x, dc.constant(np.ones(16)), dc.constant(np.zeros(16)), 1e-5)
        np.testing.assert_allclose(out.value.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.value.var(axis=-1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_vs_fd(self, seed):
        rng = np.random.default_rng(seed)
        params = ParamSet()
        x = params.add("x", rng.standard_normal((3, 6)))
        g = params.add("g", rng.standard_normal(6))
        b = params.add("b", rng.standard_normal(6))

        def loss():
            out = cops.layer_norm(x, g, b, 1e-5)
            return dc.sum_(dc.mul(out, dc.constant(weights)))

        weights = rng.standard_normal((3, 6))
        backward(loss())
        fd = fd_gradient(lambda _: float(loss().value), params)
        for name in ("x", "g", "b"):
            assert rel_err(params[name].grad, fd[name]) < 1e-4, name


class TestMaskedSoftmax:
    def test_uniform_over_unmasked(self):
        scores = dc.constant(np.zeros((1, 3, 3)))
        out = cops.masked_softmax(scores, True).value[0]
        np.testing.assert_allclose(out[1], [0.5, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0], atol=1e-15)

    # at 9, 17 and 64 some hidden lanes lie outside every row tile
    @pytest.mark.parametrize("t", [3, 9, 17, 64])
    def test_masked_positions_exactly_zero(self, t):
        rng = np.random.default_rng(6)
        scores = dc.constant(rng.standard_normal((2, t, t)))
        out = cops.masked_softmax(scores, True).value
        rows, cols = np.triu_indices(t, 1)
        hidden = out[:, rows, cols]
        assert (hidden == 0.0).all() and not np.signbit(hidden).any()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        scores = dc.constant(rng.standard_normal((4, 3, 3)) * 10)
        out = cops.masked_softmax(scores, True).value
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("t", [3, 9, 17, 64])
    def test_gradient_zero_at_masked(self, t):
        rng = np.random.default_rng(8)
        scores = dc.parameter(rng.standard_normal((1, t, t)))
        out = cops.masked_softmax(scores, True)
        backward(dc.sum_(dc.mul(out, out)))
        rows, cols = np.triu_indices(t, 1)
        assert (scores.grad[0, rows, cols] == 0.0).all()
        # lanes outside every row tile are never written: exact +0
        outside = cols >= (rows // dc.SOFTMAX_ROW_BLOCK + 1) * dc.SOFTMAX_ROW_BLOCK
        assert not np.signbit(scores.grad[0, rows[outside], cols[outside]]).any()

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(9)
        params = ParamSet()
        scores = params.add("s", rng.standard_normal((2, 3, 3)))
        weights = rng.standard_normal((2, 3, 3))

        def loss():
            return dc.sum_(dc.mul(cops.masked_softmax(scores, True),
                                  dc.constant(weights)))

        backward(loss())
        fd = fd_gradient(lambda _: float(loss().value), params)
        assert rel_err(scores.grad, fd["s"]) < 1e-4


def same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSoftmaxStatsAndBuffers:
    """masked_softmax's kept row statistics and `out` buffers, and
    masked_softmax_vjp's `out`, give the bits of fresh calls."""

    @staticmethod
    def scores(rows, n, dtype, seed=0):
        return (3.0 * np.random.default_rng(seed).standard_normal((rows, 2, n, n))).astype(dtype)

    cases = pytest.mark.parametrize("n", [1, 8, 9, 17, 63])
    dtypes = pytest.mark.parametrize("dtype", [np.float32, np.float64])
    causals = pytest.mark.parametrize("causal", [True, False])

    @cases
    @dtypes
    @causals
    def test_filled_stats_rebuild_y(self, n, dtype, causal):
        scores, scale = self.scores(3, n, dtype), 5.0 ** -0.5
        stats = []
        first = dc.masked_softmax(scores, causal, scale, stats)
        tiles = -(-n // dc.SOFTMAX_ROW_BLOCK) if causal else 1
        assert len(stats) == tiles
        same_bits(first, dc.masked_softmax(scores, causal, scale))
        same_bits(dc.masked_softmax(scores, causal, scale, stats), first)
        assert len(stats) == tiles
        # a filled list is read, not recomputed
        doubled = [(top, 2 * total) for top, total in stats]
        np.testing.assert_allclose(dc.masked_softmax(scores, causal, scale, doubled),
                                   first / 2, rtol=1e-6)

    @cases
    @dtypes
    @causals
    def test_out_reused_over_fewer_rows(self, n, dtype, causal):
        buf = np.zeros((5, 2, n, n), dtype)
        for rows, seed in ((5, 1), (3, 2), (5, 3), (1, 4)):
            scores = self.scores(rows, n, dtype, seed)
            got = dc.masked_softmax(scores, causal, 0.5, None, buf[:rows])
            assert np.shares_memory(got, buf)
            same_bits(got, dc.masked_softmax(scores, causal, 0.5))
            if causal:
                rows_hidden, cols_hidden = np.triu_indices(n, 1)
                hidden = buf[..., rows_hidden, cols_hidden]
                assert (hidden == 0.0).all() and not np.signbit(hidden).any()

    @cases
    @dtypes
    @pytest.mark.parametrize("causal", [True])  # the VJP serves the causal softmax only
    def test_vjp_out_equals_fresh(self, n, dtype, causal):
        buf = np.zeros((5, 2, n, n), dtype)
        for rows, seed in ((5, 1), (3, 2), (5, 3)):
            y = dc.masked_softmax(self.scores(rows, n, dtype, seed), causal, 0.5)
            g = self.scores(rows, n, dtype, seed + 10)
            got = dc.masked_softmax_vjp(g, y, 0.5, buf[:rows])
            assert np.shares_memory(got, buf)
            same_bits(got, dc.masked_softmax_vjp(g, y, 0.5, np.zeros_like(y)))

    @causals
    def test_filled_stats_of_another_tile_count_refused(self, causal):
        stats = []
        dc.masked_softmax(self.scores(2, 17, np.float64), causal, 1.0, stats)
        with pytest.raises(ValueError, match="kept statistics"):
            dc.masked_softmax(self.scores(2, 17, np.float64), causal, 1.0, stats + stats)
        if causal:  # 17 columns run in several tiles, 8 in one
            with pytest.raises(ValueError, match="kept statistics"):
                dc.masked_softmax(self.scores(2, 8, np.float64), causal, 1.0, stats)


def _composite_softmax(a):
    """The logsumexp/sub/exp graph that masked_softmax fuses."""
    return dc.exp(cops.sub(a, cops.logsumexp(a, -1, keepdims=True)))


def _causal_mask(t):
    m = np.zeros((t, t))
    m[np.triu_indices(t, 1)] = dc.NEG_MASK
    return m


def _cumsum_last(a):
    """Cumulative sum over the last axis as a graph op; its VJP is the
    reversed cumulative sum."""
    return dc.make_node(np.cumsum(a.value, axis=-1),
                        [(a, lambda g: np.flip(np.cumsum(np.flip(g, -1), -1), -1))])


def _composite_knots(raw, bound):
    """The knot op chain, one row of transforms._spline_parts' table (K > 1)."""
    k = raw.value.shape[-1]
    edge = dc.constant(np.full(raw.value.shape[:-1] + (1,), bound))
    q = dc.add(tf.MIN_BIN, dc.mul(1.0 - tf.MIN_BIN * k, _composite_softmax(raw)))
    cum = dc.narrow(_cumsum_last(q), -1, 0, k - 1)
    return dc.concat([dc.mul(edge, -1.0), dc.add(-bound, dc.mul(2.0 * bound, cum)), edge],
                     axis=-1)


def _composite_knot_derivs(raw_d):
    """The knot derivative op chain, row 2 of the table (K > 1)."""
    ones = dc.constant(np.ones(raw_d.value.shape[:-1] + (1,)))
    return dc.concat([ones, dc.add(cops.softplus(raw_d), tf.MIN_DERIV), ones], axis=-1)


def _composite_spline_bins(psi, points, k, bound):
    """The spline's six bin values [3, 2, ...] gathered from the composite
    knots and knot derivatives at each point's bin on the x knots."""
    xk = _composite_knots(dc.narrow(psi, -1, 0, k), bound)
    rows = (xk, _composite_knots(dc.narrow(psi, -1, k, k), bound),
            _composite_knot_derivs(dc.narrow(psi, -1, 2 * k, k - 1)))
    idx = np.clip((points[..., None] >= xk.value).sum(axis=-1) - 1, 0, k - 1)
    ends = [dc.reshape(cops.gather_last(row, i), (1,) + points.shape)
            for row in rows for i in (idx, idx + 1)]
    return dc.reshape(dc.concat(ends, axis=0), (3, 2) + points.shape)


def _spline_bins_node(psi, points, bound):
    """The bin node of transforms.spline_forward_node: y's parent over psi."""
    y, _ = tf.spline_forward_node(dc.constant(points), psi, bound)
    return y.parents[0][0]


class TestFusedSoftmaxBitIdentity:
    """The fused ops agree with the composites they replace: values within
    2e-15 (spline knots 2e-14) and input gradients within 2e-15 * max|g| for
    an upstream gradient g.  The spline's knot derivatives stay bit-identical."""

    @staticmethod
    def run(shape, op, seed=0):
        """The op's value, the input gradient and max|g| for random g."""
        rng = np.random.default_rng(seed)
        x = dc.parameter(rng.standard_normal(shape) * 3.0)
        before = x.value.tobytes()
        out = op(x)
        weights = dc.constant(rng.standard_normal(out.value.shape))
        backward(dc.sum_(dc.mul(out, weights)))
        assert x.value.tobytes() == before  # the op never writes into its input
        return out.value, x.grad, np.abs(weights.value).max()

    @staticmethod
    def agree(fused, composite, value_tol=2e-15):
        (y, gx, gmax), (yc, gxc, _) = fused, composite
        assert np.abs(y - yc).max() <= value_tol
        assert np.abs(gx - gxc).max() <= 2e-15 * gmax

    # 8, 9, 16, 17 and 64 put the edge of a block of SOFTMAX_ROW_BLOCK rows
    # on the last row, just before it, or one row before a new block
    @pytest.mark.parametrize("t", [1, 2, 63, 8, 9, 16, 17, 64])
    def test_causal_masked(self, t):
        mask = _causal_mask(t)
        fused = self.run((2, 8, t, t), lambda a: cops.masked_softmax(a, True))
        composite = self.run((2, 8, t, t), lambda a: _composite_softmax(
            dc.add(a, dc.constant(mask))))
        self.agree(fused, composite)

    @staticmethod
    def agree_without_vjp(shape, scale, composite):
        """A non-causal softmax (a cached step's) agrees with the composite in
        value within 2e-15 and refuses its VJP."""
        x = dc.parameter(np.random.default_rng(0).standard_normal(shape) * 3.0)
        out = cops.masked_softmax(x, False, scale)
        assert np.abs(out.value - composite(x).value).max() <= 2e-15
        with pytest.raises(dc.ContractViolation, match="non-causal"):
            backward(dc.sum_(out))

    @pytest.mark.parametrize("t", [1, 2, 63])
    def test_unmasked(self, t):
        self.agree_without_vjp((2, 8, t, t), 1.0, _composite_softmax)

    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("t", [5, 17])
    def test_scale(self, t, causal):
        scale = 1.0 / np.sqrt(3.0)
        mask = _causal_mask(t) if causal else None

        def composite(a):
            a = dc.mul(a, scale)
            return _composite_softmax(a if mask is None else dc.add(a, dc.constant(mask)))

        if not causal:
            return self.agree_without_vjp((2, 3, t, t), scale, composite)
        fused = self.run((2, 3, t, t), lambda a: cops.masked_softmax(a, causal, scale))
        self.agree(fused, self.run((2, 3, t, t), composite))

    def test_spline_knot_slice(self):
        # the spline's bin node gathers from knots built over [N, D, K]
        # slices of psi [N, D, 3K - 1]; the derivative slots of its value and
        # of the psi gradient are bit-identical to the composite's
        shape, k, bound = (5, 16, 23), 8, 3.0
        points = np.random.default_rng(1).uniform(-bound, bound, shape[:-1])
        fused = self.run(shape, lambda a: _spline_bins_node(a, points, bound))
        composite = self.run(shape, lambda a: _composite_spline_bins(a, points, k, bound))
        self.agree(fused, composite, value_tol=2e-14)
        np.testing.assert_array_equal(fused[0][2], composite[0][2])
        np.testing.assert_array_equal(fused[1][..., 2 * k:], composite[1][..., 2 * k:])


class TestBackward:
    def test_square(self):
        x = dc.parameter(3.0)
        backward(dc.mul(x, x))
        assert x.grad == 6.0

    def test_fanout_sums_contributions(self):
        x = dc.parameter(2.0)
        backward(dc.add(x, x))
        assert x.grad == 2.0

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ContractViolation):
            backward(dc.parameter(np.ones(3)))

    def test_gradient_of_another_shape_refused(self):
        x = dc.parameter(np.ones(3))
        y = dc.make_node(np.ones(3), [(x, lambda g: g[:2])])
        with pytest.raises(DimensionError, match=r"gradient shape \(2,\) does not match "
                                                  r"value shape \(3,\)"):
            backward(dc.sum_(y))

    def test_repr_names_shape_and_grad_mode(self):
        assert repr(dc.parameter(np.ones((2, 3)))) == "Node(shape=(2, 3), requires_grad=True)"
        assert repr(dc.constant(1.0)) == "Node(shape=(), requires_grad=False)"

    def test_accumulates_across_calls(self):
        x = dc.parameter(1.0)
        backward(dc.mul(x, x))
        backward(dc.mul(x, x))
        assert x.grad == 4.0

    def test_repeated_backward_of_one_loss_doubles(self):
        x = dc.parameter(np.array([1.0, 2.0]))
        loss = dc.sum_(dc.mul(x, 3.0))
        backward(loss)
        backward(loss)
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])

    def test_repeated_backward_of_model_loss_doubles(self):
        model = build_model(ModelConfig(D=3, head_type="spline", E=8, heads=2, layers=1,
                                        mlp_hidden=8), seed=0)
        batch = np.random.default_rng(0).standard_normal((4, 3))
        backward(nll_loss(model, batch))
        once = {name: p.grad.copy() for name, p in model.params.items()}
        model.params.zero_grad()
        loss = nll_loss(model, batch)
        backward(loss)
        backward(loss)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.grad, 2.0 * once[name], err_msg=name)

    def test_three_contributions_to_one_node_vs_fd(self, monkeypatch):
        # a three-block spline's psi takes one narrow contribution per block:
        # it borrows the first, and the second and third each allocate a sum
        model = build_model(ModelConfig(D=3, head_type="spline", E=8, heads=2, layers=1,
                                        mlp_hidden=8, K=3, blocks=3), seed=0)
        rng = np.random.default_rng(4)
        for j in range(3):
            model.params[f"mix{j}"].value[:] = 0.5 * rng.standard_normal(3)
        batch = rng.standard_normal((4, 3))
        taken = Counter()
        real = dc.Node.accumulate_grad
        monkeypatch.setattr(dc.Node, "accumulate_grad",
                            lambda node, g: taken.update([node]) or real(node, g))
        backward(nll_loss(model, batch))
        monkeypatch.undo()
        assert max(n for node, n in taken.items() if node.parents) == 3

        def f(_):
            with dc.no_grad():
                return float(nll_loss(model, batch).value)

        fd = fd_gradient(f, model.params)
        scale = max(np.abs(g).max() for g in fd.values())
        for name, p in model.params.items():
            assert np.abs(p.grad - fd[name]).max() / scale < 1e-4, name

    def test_parameter_grads_share_no_memory(self):
        params = ParamSet()
        p1 = params.add("p1", np.ones(3))
        p2 = params.add("p2", np.ones(3))
        w = np.array([3.0, -4.0, 12.0])
        backward(dc.sum_(dc.mul(dc.add(p1, p2), dc.constant(w))))
        assert not np.shares_memory(p1.grad, p2.grad)
        norm = clip_gradients(params, 1.0)
        scale = 1.0 / norm
        np.testing.assert_array_equal(p1.grad, w * scale)
        np.testing.assert_array_equal(p2.grad, w * scale)

    @pytest.mark.parametrize("a_first", [True, False])
    def test_fanout_through_views_is_exact(self, a_first):
        # h and k both borrow add's gradient buffer, then each takes a second
        # contribution through mul and a reshape view; neither may write into
        # the shared buffer (the term order sets which is processed first)
        x = dc.parameter(np.arange(6.0).reshape(2, 3))
        h, k = dc.mul(x, 2.0), dc.mul(x, 3.0)
        w = np.arange(1.0, 7.0).reshape(2, 3)
        v = np.arange(10.0, 16.0)
        t_add = dc.sum_(dc.mul(dc.add(h, k), dc.constant(w)))
        t_mul = dc.sum_(dc.mul(dc.reshape(dc.mul(h, k), (6,)), dc.constant(v)))
        backward(dc.add(t_add, t_mul) if a_first else dc.add(t_mul, t_add))
        # loss = sum(w * 5x) + sum(v * 6x^2)
        np.testing.assert_array_equal(x.grad, 5.0 * w + 12.0 * v.reshape(2, 3) * x.value)

    def test_interior_grads_released(self):
        model = build_model(ModelConfig(D=3, head_type="cdf", E=8, heads=2, layers=2,
                                        mlp_hidden=8, H=4), seed=0)
        loss = nll_loss(model, np.random.default_rng(1).standard_normal((4, 3)))
        backward(loss)
        seen, stack, interior = set(), [loss], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.parents:
                interior += 1
                assert node._grad is None, node
            stack.extend(parent for parent, _ in node.parents)
        # embedding 1, one node per encoder layer, head and loss 11
        assert interior == 14
        assert all(p._grad is not None for _, p in model.params.items())

    @pytest.mark.parametrize("seed", range(10))
    def test_random_composition_vs_fd(self, seed):
        rng = np.random.default_rng(seed)
        params = ParamSet()
        w1 = params.add("w1", rng.standard_normal((4, 5)) * 0.5)
        w2 = params.add("w2", rng.standard_normal((5, 3)) * 0.5)
        b = params.add("b", rng.standard_normal(3) * 0.1)
        x = rng.standard_normal((2, 4))

        def loss():
            h = cops.tanh(cops.matmul(dc.constant(x), w1))
            out = dc.add(cops.matmul(h, w2), b)
            return dc.sum_(dc.mul(cops.softplus(out), out))

        backward(loss())
        fd = fd_gradient(lambda _: float(loss().value), params)
        for name in ("w1", "w2", "b"):
            assert rel_err(params[name].grad, fd[name]) < 1e-4


def _spline_sum(x, psi):
    """sum(y) + sum(2 ld) of a K=3 spline with bound 2."""
    y, ld = tf.spline_forward_node(dc._wrap(x), dc._wrap(psi), 2.0)
    return dc.add(dc.sum_(y), dc.sum_(dc.mul(ld, 2.0)))


def _op_zoo(x):
    """One scalar-valued composition per op family, all differentiable at
    generic points."""
    n = dc.constant(np.linspace(0.5, 2.0, 12).reshape(3, 4))
    idx = np.array([1, 3, 0])
    cond = np.array([[True, False, True, True]] * 3)
    return {
        "add": dc.sum_(dc.add(x, n)),
        "sub": dc.sum_(cops.sub(n, x)),
        "mul": dc.sum_(dc.mul(x, n)),
        "div": dc.sum_(cops.div(n, dc.add(dc.mul(x, x), 0.5))),
        "exp": dc.sum_(dc.exp(x)),
        "log": dc.sum_(cops.log(dc.add(dc.mul(x, x), 0.5))),
        "tanh": dc.sum_(cops.tanh(x)),
        "softplus": dc.sum_(cops.softplus(x)),
        "sum_axis": dc.sum_(dc.mul(dc.sum_(x, axis=0), dc.constant(np.arange(1.0, 5.0)))),
        "logsumexp": dc.sum_(cops.logsumexp(x, axis=-1)),
        "reshape": dc.sum_(dc.mul(dc.reshape(x, (2, 6)), dc.constant(np.ones((2, 6))))),
        "transpose": dc.sum_(dc.mul(dc.transpose(x, (1, 0)), dc.constant(np.ones((4, 3))))),
        "concat": dc.sum_(dc.mul(dc.concat([x, x], axis=1),
                                 dc.constant(np.arange(24.0).reshape(3, 8)))),
        "narrow": dc.sum_(dc.mul(dc.narrow(x, 1, 1, 2), dc.constant(np.ones((3, 2))))),
        "broadcast_to": dc.sum_(dc.mul(
            dc.broadcast_to(dc.narrow(x, 0, 0, 1), (2, 1, 4)),
            dc.constant(np.arange(8.0).reshape(2, 1, 4)))),
        "stretched_broadcast": dc.sum_(dc.mul(dc.narrow(x, 1, 0, 1),
                                              dc.constant(np.arange(30.0).reshape(2, 3, 5)))),
        "gather_last": dc.sum_(cops.gather_last(x, idx)),
        # a K=3 spline (psi [3, 8]): over psi at three points, then over the
        # 12 lanes of x, some in the tails of B = 2, for fixed psi
        "spline_psi": _spline_sum(np.array([-1.3, 0.2, 1.7]),
                                  dc.concat([x, dc.mul(x, -1.0)], 1)),
        "spline_x": _spline_sum(x, np.linspace(-1.0, 1.0, 96).reshape(3, 4, 8)),
        "where": dc.sum_(cops.where(cond, dc.mul(x, x), dc.mul(x, -1.0))),
        "clip": dc.sum_(dc.mul(cops.clip(x, -0.9, 0.9), dc.constant(np.ones((3, 4))))),
        "matmul": dc.sum_(cops.matmul(x, dc.constant(np.linspace(-1, 1, 8).reshape(4, 2)))),
        "logsumexp_keepdims": dc.sum_(cops.logsumexp(x, axis=0, keepdims=True)),
    }


@pytest.mark.parametrize("seed", range(10))
def test_every_op_gradient_vs_fd(seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((3, 4))
    names = list(_op_zoo(dc.constant(base)))
    for name in names:
        params = ParamSet()
        x = params.add("x", base.copy())

        def loss(_):
            return float(_op_zoo(x)[name].value)

        params.zero_grad()
        backward(_op_zoo(x)[name])
        fd = fd_gradient(loss, params)
        assert rel_err(x.grad, fd["x"]) < 1e-4, (name, seed)


@pytest.mark.parametrize("seed", range(10))
def test_strict_lower_embed_gradient_vs_fd(seed):
    rng = np.random.default_rng(seed)
    params = ParamSet()
    free = params.add("free", rng.standard_normal(6))
    weights = rng.standard_normal((4, 4))

    def loss(_):
        return float(dc.sum_(dc.mul(dc.strict_lower_embed(free, 4),
                                    dc.constant(weights))).value)

    backward(dc.sum_(dc.mul(dc.strict_lower_embed(free, 4), dc.constant(weights))))
    fd = fd_gradient(loss, params)
    assert rel_err(free.grad, fd["free"]) < 1e-4


class TestFdGradient:
    def test_linear_gives_ones(self):
        params = ParamSet()
        params.add("p", np.array([1.0, -2.0, 0.5]))

        def f(ps):
            return float(ps["p"].value.sum())

        fd = fd_gradient(f, params)
        np.testing.assert_allclose(fd["p"], 1.0, atol=1e-9)

    def test_constant_gives_zeros(self):
        params = ParamSet()
        params.add("p", np.ones(4))
        fd = fd_gradient(lambda ps: 0.0, params)
        np.testing.assert_array_equal(fd["p"], 0.0)


class TestShapeOps:
    def test_where_routes_gradients(self):
        a = dc.parameter(np.array([1.0, 2.0, 3.0]))
        b = dc.parameter(np.array([4.0, 5.0, 6.0]))
        cond = np.array([True, False, True])
        backward(dc.sum_(cops.where(cond, a, b)))
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])

    def test_gather_and_scatter(self):
        a = dc.parameter(np.arange(12.0).reshape(3, 4))
        idx = np.array([1, 0, 3])
        out = cops.gather_last(a, idx)
        np.testing.assert_array_equal(out.value, [1.0, 4.0, 11.0])
        backward(dc.sum_(out))
        expected = np.zeros((3, 4))
        expected[[0, 1, 2], idx] = 1.0
        np.testing.assert_array_equal(a.grad, expected)

    def test_concat_narrow_roundtrip(self):
        a = dc.parameter(np.ones((2, 3)))
        b = dc.parameter(np.full((2, 2), 2.0))
        cat = dc.concat([a, b], axis=1)
        assert cat.value.shape == (2, 5)
        backward(dc.sum_(dc.narrow(cat, 1, 3, 2)))
        np.testing.assert_array_equal(a.grad, 0.0)
        np.testing.assert_array_equal(b.grad, 1.0)

    def test_strict_lower_embed(self):
        free = dc.parameter(np.array([0.5, -1.0, 2.0]))
        mat = dc.strict_lower_embed(free, 3)
        expected = np.array([[1.0, 0, 0], [0.5, 1.0, 0], [-1.0, 2.0, 1.0]])
        np.testing.assert_array_equal(mat.value, expected)
        backward(dc.sum_(dc.mul(mat, mat)))
        np.testing.assert_allclose(free.grad, 2.0 * free.value)

    def test_transpose_roundtrip_gradient(self):
        a = dc.parameter(np.arange(24.0).reshape(2, 3, 4))
        out = dc.transpose(a, (2, 0, 1))
        assert out.value.shape == (4, 2, 3)
        backward(dc.sum_(dc.mul(out, out)))
        np.testing.assert_allclose(a.grad, 2.0 * a.value)

    def test_broadcast_to_refuses_incompatible_shape(self):
        with pytest.raises(DimensionError, match=r"cannot broadcast \(3,\) to \(2, 4\)"):
            dc.broadcast_to(dc.constant(np.ones(3)), (2, 4))

    def test_clip_gradient_mask(self):
        a = dc.parameter(np.array([-2.0, 0.0, 2.0]))
        backward(dc.sum_(cops.clip(a, -1.0, 1.0)))
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])


class TestModes:
    def test_no_grad_builds_no_graph(self):
        x = dc.parameter(1.0)
        with dc.no_grad():
            y = dc.mul(x, x)
        assert not y.requires_grad
        assert y.parents == ()

    def test_paramset_duplicate_rejected(self):
        params = ParamSet()
        params.add("x", 1.0)
        with pytest.raises(ContractViolation):
            params.add("x", 2.0)

    def test_paramset_order_and_count(self):
        params = ParamSet()
        params.add("b", np.ones(3))
        params.add("a", np.ones((2, 2)))
        assert params.names() == ["b", "a"]
        assert params.total_count() == 7
