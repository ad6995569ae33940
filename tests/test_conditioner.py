"""Conditioner tests: embedding, masking, and the autoregressive contract."""

import numpy as np
import pytest

from tnaf import diffcore as dc
from tnaf.conditioner import (
    ConditionerConfig,
    causal_mask,
    condition,
    conditioner_param_count,
    embed_sequence,
    encoder_layer,
    init_conditioner_params,
)
from tnaf.diffcore import DimensionError
from tnaf.flow import HEADS, ModelConfig, build_model, project_head, total_param_count

TINY = dict(E=8, heads=2, L=1, mlp_hidden=16)
PSI = 3  # projection width used by the head-projection tests


def tiny_config(d, **overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return ConditionerConfig(D=d, **kwargs)


def fresh(d, seed=0, **overrides):
    cfg = tiny_config(d, **overrides)
    return cfg, init_conditioner_params(cfg, np.random.default_rng(seed))


def with_projection(params, e, rng):
    """Add a `head.{w,b}` projection of width PSI, as projected heads do."""
    params.add("head.w", rng.uniform(-1.0, 1.0, size=(e, PSI)) / np.sqrt(e))
    params.add("head.b", np.zeros(PSI))
    return params


def zero_weights(params):
    """Zero every weight/bias but keep layer-norm gains at one."""
    for name, node in params.items():
        if name.endswith("ln1.g") or name.endswith("ln2.g"):
            node.value = np.ones_like(node.value)
        else:
            node.value = np.zeros_like(node.value)


class TestCausalMask:
    def test_single(self):
        np.testing.assert_array_equal(causal_mask(1), [[0.0]])

    def test_three(self):
        m = causal_mask(3)
        inf = dc.NEG_MASK
        np.testing.assert_array_equal(
            m, [[0.0, inf, inf], [0.0, 0.0, inf], [0.0, 0.0, 0.0]]
        )

    def test_last_row_attends_everywhere(self):
        assert (causal_mask(5)[4] == 0.0).all()


class TestEmbedSequence:
    def test_d1_is_bos_only(self):
        cfg, params = fresh(1)
        a = embed_sequence(np.array([0.3]), params, cfg).value
        b = embed_sequence(np.array([-9.0]), params, cfg).value
        np.testing.assert_array_equal(a, b)
        expected = params["bos"].value + params["positional"].value[0]
        np.testing.assert_array_equal(a[0], expected)

    def test_zero_weights_leaves_bos_row(self):
        cfg, params = fresh(3)
        zero_weights(params)
        bos_vec = np.random.default_rng(1).standard_normal(cfg.E)
        params["bos"].value = bos_vec.copy()
        out = embed_sequence(np.array([1.0, 2.0, 3.0]), params, cfg).value
        np.testing.assert_array_equal(out[0], bos_vec)
        np.testing.assert_array_equal(out[1:], 0.0)

    def test_last_input_never_embedded(self):
        cfg, params = fresh(4, seed=3)
        x = np.array([0.1, -0.5, 2.0, 7.0])
        x2 = x.copy()
        x2[3] += 123.0
        a = embed_sequence(x, params, cfg).value
        b = embed_sequence(x2, params, cfg).value
        np.testing.assert_array_equal(a, b)

    def test_length_mismatch(self):
        cfg, params = fresh(3)
        with pytest.raises(DimensionError):
            embed_sequence(np.zeros(4), params, cfg)

    def test_batch_matches_single(self):
        cfg, params = fresh(3, seed=5)
        rows = np.random.default_rng(0).standard_normal((4, 3))
        batched = embed_sequence(rows, params, cfg).value
        for i, row in enumerate(rows):
            single = embed_sequence(row, params, cfg).value
            np.testing.assert_array_equal(batched[i], single)


class TestEncoderLayer:
    def test_zero_weights_is_identity(self):
        cfg, params = fresh(3, seed=7)
        zero_weights(params)
        seq = dc.constant(np.random.default_rng(2).standard_normal((3, cfg.E)))
        out = encoder_layer(seq, params, 0, causal_mask(3), cfg)
        np.testing.assert_array_equal(out.value, seq.value)

    def test_causal_dependency_by_fd(self):
        cfg, params = fresh(3, seed=11)
        base = np.random.default_rng(4).standard_normal((3, cfg.E))
        out0 = encoder_layer(dc.constant(base), params, 0, causal_mask(3), cfg).value
        bumped = base.copy()
        bumped[2] += 1.0  # perturbing the last row must not touch earlier rows
        out1 = encoder_layer(dc.constant(bumped), params, 0, causal_mask(3), cfg).value
        np.testing.assert_array_equal(out0[:2], out1[:2])
        assert np.abs(out0[2] - out1[2]).max() > 0

    def test_d1_shape(self):
        cfg, params = fresh(1, seed=13)
        seq = dc.constant(np.random.default_rng(5).standard_normal((1, cfg.E)))
        out = encoder_layer(seq, params, 0, causal_mask(1), cfg)
        assert out.value.shape == (1, cfg.E)


class TestCondition:
    def test_prefix_rows_bit_identical_under_late_perturbation(self):
        cfg, params = fresh(5, seed=17)
        x = np.random.default_rng(6).standard_normal(5)
        j = 2  # bump x_3 (1-indexed): rows h_1..h_3 must not move at all
        bumped = x.copy()
        bumped[j] += 1.0
        a = condition(x, params, cfg).value
        b = condition(bumped, params, cfg).value
        np.testing.assert_array_equal(a[: j + 1], b[: j + 1])
        assert np.abs(a[j + 1:] - b[j + 1:]).max() > 0

    def test_first_row_unconditioned(self):
        cfg, params = fresh(4, seed=19)
        rng = np.random.default_rng(7)
        a = condition(rng.standard_normal(4), params, cfg).value
        b = condition(rng.standard_normal(4), params, cfg).value
        np.testing.assert_array_equal(a[0], b[0])

    def test_scalar_reduction_jacobian_strictly_lower(self):
        cfg, params = fresh(4, seed=23)
        rng = np.random.default_rng(8)
        weights = rng.standard_normal(cfg.E)
        x = rng.standard_normal(4)
        step = 1e-5

        def reduced(v):
            return condition(v, params, cfg).value @ weights

        jac = np.zeros((4, 4))
        for j in range(4):
            xp, xm = x.copy(), x.copy()
            xp[j] += step
            xm[j] -= step
            jac[:, j] = (reduced(xp) - reduced(xm)) / (2 * step)
        # row i is h_{i+1}: may depend on x_1..x_i only -> zero at and above diag
        assert np.abs(np.triu(jac, 0)).max() < 1e-8

    def test_deterministic(self):
        cfg, params = fresh(3, seed=29)
        x = np.array([0.5, -1.0, 2.0])
        a = condition(x, params, cfg).value
        b = condition(x, params, cfg).value
        np.testing.assert_array_equal(a, b)

    def test_permutation_sensitivity(self):
        cfg, params = fresh(3, seed=31)
        x = np.array([0.5, -1.0, 2.0])
        a = condition(x, params, cfg).value
        b = condition(x[::-1].copy(), params, cfg).value
        assert np.abs(a - b).max() > 1e-6


class TestProjectHead:
    def test_zero_weights_gives_bias(self):
        cfg, params = fresh(3, seed=37)
        with_projection(params, cfg.E, np.random.default_rng(37))
        params["head.w"].value = np.zeros_like(params["head.w"].value)
        params["head.b"].value = np.arange(PSI, dtype=float)
        h = condition(np.zeros(3), params, cfg)
        psi = project_head(h, params).value
        for row in psi:
            np.testing.assert_array_equal(row, params["head.b"].value)

    def test_identity_head_returns_embeddings(self):
        # shared_cdf consumes the embeddings unprojected: no head.* parameters
        # and one pseudo-parameter per embedding coordinate
        model = build_model(ModelConfig(D=3, head_type="shared_cdf", E=8, heads=2,
                                        layers=1, mlp_hidden=16, cdf_hidden=4), seed=41)
        assert not [n for n in model.params.names() if n.startswith("head")]
        assert model.head.psi_count() == 3 * 8

    def test_cdf_head_psi_dim(self):
        # one hidden layer of width 128 -> 3*128 + 1 pseudo-parameters per token
        cfg = ModelConfig(D=6, head_type="cdf", cdf_hidden=128)
        assert HEADS["cdf"](cfg).psi_count() == 6 * 385


class TestParamCount:
    def test_closed_form_matches_actual(self):
        for d, e, heads, layers, m in [(6, 32, 8, 3, 64),
                                       (3, 8, 2, 1, 16),
                                       (1, 4, 4, 2, 8)]:
            cfg = ConditionerConfig(D=d, E=e, heads=heads, L=layers, mlp_hidden=m)
            params = init_conditioner_params(cfg, np.random.default_rng(0))
            assert params.total_count() == conditioner_param_count(cfg)

    def test_reference_config_value(self):
        cfg = ConditionerConfig(D=6, E=32, heads=8, L=3, mlp_hidden=64)
        # the reference cdf model adds a 32 -> 385 projection to the conditioner
        assert conditioner_param_count(cfg) + 32 * 385 + 385 == 38_625
        assert total_param_count(ModelConfig(D=6, head_type="cdf")) == 38_625

    def test_slope_in_d_is_e(self):
        for d in (1, 2, 7, 42):
            a = conditioner_param_count(tiny_config(d))
            b = conditioner_param_count(tiny_config(d + 1))
            assert b - a == TINY["E"]

    def test_invalid_configs_rejected(self):
        with pytest.raises(DimensionError):
            ConditionerConfig(D=2, E=6, heads=4)
        with pytest.raises(DimensionError):
            ConditionerConfig(D=0, E=8, heads=2)


class TestAutoregressivePsi:
    @pytest.mark.parametrize("seed", range(3))
    def test_psi_jacobian_zero_at_and_above_diagonal(self, seed):
        cfg, params = fresh(4, seed=seed)
        with_projection(params, cfg.E, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 100)
        weights = rng.standard_normal(PSI)
        x = rng.standard_normal(4)
        step = 1e-5

        def reduced(v):
            h = condition(v, params, cfg)
            return project_head(h, params).value @ weights

        for j in range(4):
            xp, xm = x.copy(), x.copy()
            xp[j] += step
            xm[j] -= step
            col = (reduced(xp) - reduced(xm)) / (2 * step)
            # psi_i (row i-1) may depend on x_j only for j < i
            assert np.abs(col[: j + 1]).max() < 1e-8
