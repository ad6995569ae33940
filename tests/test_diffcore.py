"""Unit tests for the reverse-mode autodiff core."""

import numpy as np
import pytest

from tnaf import diffcore as dc
from tnaf.diffcore import (
    ContractViolation,
    DimensionError,
    DomainError,
    ParamSet,
    backward,
    fd_gradient,
)

FD_STEP = 1e-5


def rel_err(a, b, floor=1e-8):
    scale = max(np.abs(b).max(), floor)
    return np.abs(a - b).max() / scale


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = dc.matmul(dc.constant(np.eye(3)), dc.constant(m))
        np.testing.assert_array_equal(out.value, m)

    def test_two_by_two(self):
        a = dc.constant([[1.0, 2.0], [3.0, 4.0]])
        out = dc.matmul(a, dc.constant(np.eye(2)))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])

    def test_gradient_is_row_sums(self):
        # d sum(A @ B) / dA has entry (i, k) = sum_j B[k, j]
        rng = np.random.default_rng(0)
        a = dc.parameter(rng.standard_normal((3, 4)))
        b = dc.constant(rng.standard_normal((4, 5)))
        backward(dc.sum_(dc.matmul(a, b)))
        expected = np.tile(b.value.sum(axis=1), (3, 1))
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(1)
        params = ParamSet()
        a = params.add("a", rng.standard_normal((3, 4)))
        bmat = rng.standard_normal((4, 2))

        def f(_):
            return float(dc.sum_(dc.matmul(a, dc.constant(bmat))).value)

        backward(dc.sum_(dc.matmul(a, dc.constant(bmat))))
        fd = fd_gradient(f, params, FD_STEP)
        assert rel_err(a.grad, fd["a"]) < 1e-4

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            dc.matmul(dc.constant(np.ones((2, 3))), dc.constant(np.ones((2, 3))))

    def test_batched(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 2, 3))
        b = rng.standard_normal((5, 3, 4))
        out = dc.matmul(dc.constant(a), dc.constant(b))
        np.testing.assert_allclose(out.value, a @ b)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert dc.sigmoid(dc.constant(0.0)).value == 0.5

    def test_tanh_zero_gradient_one(self):
        x = dc.parameter(0.0)
        y = dc.tanh(x)
        backward(y)
        assert y.value == 0.0
        assert x.grad == 1.0

    def test_softplus_large_is_stable(self):
        out = dc.softplus(dc.constant(30.0)).value
        assert abs(out - 30.0) < 1e-9

    def test_softplus_negative_tail(self):
        out = dc.softplus(dc.constant(-700.0)).value
        assert 0.0 <= out < 1e-300

    def test_log_domain_checked_mode(self):
        with dc.checked_mode():
            with pytest.raises(DomainError):
                dc.log(dc.constant([-1.0]))

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
        ops = [dc.exp, dc.tanh, dc.sigmoid, dc.softplus, dc.neg]
        for op in ops:
            params = ParamSet()
            x = params.add("x", rng.standard_normal(6))

            def f(_):
                return float(dc.sum_(op(x)).value)

            params.zero_grad()
            backward(dc.sum_(op(x)))
            fd = fd_gradient(f, params, FD_STEP)
            assert rel_err(x.grad, fd["x"]) < 1e-4, op.__name__


class TestLogsumexp:
    def test_constant_vector(self):
        out = dc.logsumexp(dc.constant([2.5, 2.5, 2.5]))
        assert abs(out.value - (2.5 + np.log(3.0))) < 1e-12

    def test_singleton(self):
        assert dc.logsumexp(dc.constant([0.0])).value == 0.0

    def test_no_overflow(self):
        out = dc.logsumexp(dc.constant([1000.0, 1000.0]))
        assert abs(out.value - (1000.0 + np.log(2.0))) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(7)
        base = dc.logsumexp(dc.constant(v)).value
        shifted = dc.logsumexp(dc.constant(v + 11.25)).value
        assert abs(shifted - (base + 11.25)) < 1e-12

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            dc.logsumexp(dc.constant(np.ones((2, 0))))

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(4)
        params = ParamSet()
        x = params.add("x", rng.standard_normal((3, 5)))

        def f(_):
            return float(dc.sum_(dc.logsumexp(x, axis=-1)).value)

        backward(dc.sum_(dc.logsumexp(x, axis=-1)))
        fd = fd_gradient(f, params, FD_STEP)
        assert rel_err(x.grad, fd["x"]) < 1e-4


class TestLayerNorm:
    def test_constant_vector_absorbed_by_eps(self):
        x = dc.constant(np.full((2, 4), 3.7))
        out = dc.layer_norm(x, dc.constant(np.ones(4)), dc.constant(np.zeros(4)), 1e-5)
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_already_standardized(self):
        x = dc.constant(np.array([[1.0, -1.0]]))
        out = dc.layer_norm(x, dc.constant(np.ones(2)), dc.constant(np.zeros(2)), 1e-12)
        np.testing.assert_allclose(out.value, [[1.0, -1.0]], atol=1e-6)

    def test_output_statistics(self):
        rng = np.random.default_rng(5)
        x = dc.constant(rng.standard_normal((10, 16)))
        out = dc.layer_norm(x, dc.constant(np.ones(16)), dc.constant(np.zeros(16)), 1e-5)
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
            out = dc.layer_norm(x, g, b, 1e-5)
            return dc.sum_(dc.mul(out, dc.constant(weights)))

        weights = rng.standard_normal((3, 6))
        backward(loss())
        fd = fd_gradient(lambda _: float(loss().value), params, FD_STEP)
        for name in ("x", "g", "b"):
            assert rel_err(params[name].grad, fd[name]) < 1e-4, name


class TestMaskedSoftmax:
    def mask(self):
        m = np.zeros((3, 3))
        m[np.triu_indices(3, 1)] = dc.NEG_MASK
        return m

    def test_uniform_over_unmasked(self):
        scores = dc.constant(np.zeros((1, 3, 3)))
        out = dc.masked_softmax(scores, self.mask()).value[0]
        np.testing.assert_allclose(out[1], [0.5, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_masked_positions_exactly_zero(self):
        rng = np.random.default_rng(6)
        scores = dc.constant(rng.standard_normal((2, 3, 3)))
        out = dc.masked_softmax(scores, self.mask()).value
        assert (out[:, np.triu_indices(3, 1)[0], np.triu_indices(3, 1)[1]] == 0.0).all()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        scores = dc.constant(rng.standard_normal((4, 3, 3)) * 10)
        out = dc.masked_softmax(scores, self.mask()).value
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradient_zero_at_masked(self):
        rng = np.random.default_rng(8)
        scores = dc.parameter(rng.standard_normal((1, 3, 3)))
        out = dc.masked_softmax(scores, self.mask())
        backward(dc.sum_(dc.mul(out, out)))
        rows, cols = np.triu_indices(3, 1)
        assert (scores.grad[0, rows, cols] == 0.0).all()

    def test_fully_masked_row_rejected(self):
        m = np.full((2, 2), dc.NEG_MASK)
        with pytest.raises(ContractViolation):
            dc.masked_softmax(dc.constant(np.zeros((1, 2, 2))), m)

    def test_invalid_mask_values_rejected(self):
        m = np.full((2, 2), -5.0)
        with pytest.raises(ContractViolation):
            dc.masked_softmax(dc.constant(np.zeros((1, 2, 2))), m)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(9)
        params = ParamSet()
        scores = params.add("s", rng.standard_normal((2, 3, 3)))
        weights = rng.standard_normal((2, 3, 3))

        def loss():
            return dc.sum_(dc.mul(dc.masked_softmax(scores, self.mask()),
                                  dc.constant(weights)))

        backward(loss())
        fd = fd_gradient(lambda _: float(loss().value), params, FD_STEP)
        assert rel_err(scores.grad, fd["s"]) < 1e-4


class TestBackward:
    def test_square(self):
        x = dc.parameter(3.0)
        backward(dc.mul(x, x))
        assert x.grad == 6.0

    def test_sigmoid_gradient(self):
        x = dc.parameter(0.0)
        backward(dc.sigmoid(x))
        assert x.grad == 0.25

    def test_fanout_sums_contributions(self):
        x = dc.parameter(2.0)
        backward(dc.add(x, x))
        assert x.grad == 2.0

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ContractViolation):
            backward(dc.parameter(np.ones(3)))

    def test_accumulates_across_calls(self):
        x = dc.parameter(1.0)
        backward(dc.mul(x, x))
        backward(dc.mul(x, x))
        assert x.grad == 4.0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_composition_vs_fd(self, seed):
        rng = np.random.default_rng(seed)
        params = ParamSet()
        w1 = params.add("w1", rng.standard_normal((4, 5)) * 0.5)
        w2 = params.add("w2", rng.standard_normal((5, 3)) * 0.5)
        b = params.add("b", rng.standard_normal(3) * 0.1)
        x = rng.standard_normal((2, 4))

        def loss():
            h = dc.tanh(dc.matmul(dc.constant(x), w1))
            out = dc.add(dc.matmul(h, w2), b)
            return dc.sum_(dc.mul(dc.sigmoid(out), out))

        backward(loss())
        fd = fd_gradient(lambda _: float(loss().value), params, FD_STEP)
        for name in ("w1", "w2", "b"):
            assert rel_err(params[name].grad, fd[name]) < 1e-4


def _op_zoo(x):
    """One scalar-valued composition per op family, all differentiable at
    generic points."""
    n = dc.constant(np.linspace(0.5, 2.0, 12).reshape(3, 4))
    idx = np.array([1, 3, 0])
    cond = np.array([[True, False, True, True]] * 3)
    return {
        "add": dc.sum_(dc.add(x, n)),
        "sub": dc.sum_(dc.sub(n, x)),
        "mul": dc.sum_(dc.mul(x, n)),
        "div": dc.sum_(dc.div(n, dc.add(dc.mul(x, x), 0.5))),
        "neg": dc.sum_(dc.neg(x)),
        "exp": dc.sum_(dc.exp(x)),
        "log": dc.sum_(dc.log(dc.add(dc.mul(x, x), 0.5))),
        "tanh": dc.sum_(dc.tanh(x)),
        "sigmoid": dc.sum_(dc.sigmoid(x)),
        "softplus": dc.sum_(dc.softplus(x)),
        "sum_axis": dc.sum_(dc.mul(dc.sum_(x, axis=0), dc.constant(np.arange(1.0, 5.0)))),
        "mean": dc.sum_(dc.mul(dc.mean(x, axis=1), dc.constant(np.arange(1.0, 4.0)))),
        "logsumexp": dc.sum_(dc.logsumexp(x, axis=-1)),
        "reshape": dc.sum_(dc.mul(dc.reshape(x, (2, 6)), dc.constant(np.ones((2, 6))))),
        "transpose": dc.sum_(dc.mul(dc.transpose(x, (1, 0)), dc.constant(np.ones((4, 3))))),
        "concat": dc.sum_(dc.mul(dc.concat([x, x], axis=1),
                                 dc.constant(np.arange(24.0).reshape(3, 8)))),
        "narrow": dc.sum_(dc.mul(dc.narrow(x, 1, 1, 2), dc.constant(np.ones((3, 2))))),
        "broadcast_to": dc.sum_(dc.mul(
            dc.broadcast_to(dc.narrow(x, 0, 0, 1), (2, 1, 4)),
            dc.constant(np.arange(8.0).reshape(2, 1, 4)))),
        "expand_last": dc.sum_(dc.mul(dc.expand_last(dc.narrow(x, 1, 0, 1), 5),
                                      dc.constant(np.arange(15.0).reshape(3, 5)))),
        "gather_last": dc.sum_(dc.gather_last(x, idx)),
        "cumsum_last": dc.sum_(dc.mul(dc.cumsum_last(x),
                                      dc.constant(np.arange(12.0).reshape(3, 4)))),
        "where": dc.sum_(dc.where(cond, dc.mul(x, x), dc.neg(x))),
        "clip": dc.sum_(dc.mul(dc.clip(x, -0.9, 0.9), dc.constant(np.ones((3, 4))))),
        "matmul": dc.sum_(dc.matmul(x, dc.constant(np.linspace(-1, 1, 8).reshape(4, 2)))),
        "softmax": dc.sum_(dc.mul(dc.softmax_last(x),
                                  dc.constant(np.arange(12.0).reshape(3, 4)))),
        "logsumexp_keepdims": dc.sum_(dc.logsumexp(x, axis=0, keepdims=True)),
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
        fd = fd_gradient(loss, params, FD_STEP)
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
    fd = fd_gradient(loss, params, FD_STEP)
    assert rel_err(free.grad, fd["free"]) < 1e-4


class TestFdGradient:
    def test_linear_gives_ones(self):
        params = ParamSet()
        params.add("p", np.array([1.0, -2.0, 0.5]))

        def f(ps):
            return float(ps["p"].value.sum())

        fd = fd_gradient(f, params, FD_STEP)
        np.testing.assert_allclose(fd["p"], 1.0, atol=1e-9)

    def test_constant_gives_zeros(self):
        params = ParamSet()
        params.add("p", np.ones(4))
        fd = fd_gradient(lambda ps: 0.0, params, FD_STEP)
        np.testing.assert_array_equal(fd["p"], 0.0)

    def test_bad_step_rejected(self):
        with pytest.raises(DimensionError):
            fd_gradient(lambda ps: 0.0, ParamSet(), 0.0)


class TestShapeOps:
    def test_where_routes_gradients(self):
        a = dc.parameter(np.array([1.0, 2.0, 3.0]))
        b = dc.parameter(np.array([4.0, 5.0, 6.0]))
        cond = np.array([True, False, True])
        backward(dc.sum_(dc.where(cond, a, b)))
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])

    def test_gather_and_scatter(self):
        a = dc.parameter(np.arange(12.0).reshape(3, 4))
        idx = np.array([1, 0, 3])
        out = dc.gather_last(a, idx)
        np.testing.assert_array_equal(out.value, [1.0, 4.0, 11.0])
        backward(dc.sum_(out))
        expected = np.zeros((3, 4))
        expected[[0, 1, 2], idx] = 1.0
        np.testing.assert_array_equal(a.grad, expected)

    def test_cumsum_gradient(self):
        a = dc.parameter(np.array([1.0, 2.0, 3.0]))
        backward(dc.sum_(dc.mul(dc.cumsum_last(a), dc.constant([1.0, 10.0, 100.0]))))
        np.testing.assert_array_equal(a.grad, [111.0, 110.0, 100.0])

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

    def test_clip_gradient_mask(self):
        a = dc.parameter(np.array([-2.0, 0.0, 2.0]))
        backward(dc.sum_(dc.clip(a, -1.0, 1.0)))
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])


class TestModes:
    def test_no_grad_builds_no_graph(self):
        x = dc.parameter(1.0)
        with dc.no_grad():
            y = dc.mul(x, x)
        assert not y.requires_grad
        assert y.parents == ()

    def test_checked_mode_flags_nonfinite(self):
        with dc.checked_mode(), np.errstate(over="ignore"):
            with pytest.raises(DomainError):
                dc.exp(dc.constant(1000.0))

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
