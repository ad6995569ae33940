"""Flow assembly: log-likelihood, triangularity, sampling, determinant oracle."""

import numpy as np
import pytest

from tnaf import diffcore as dc
from tnaf.checks import check_inversion
from tnaf.diffcore import DimensionError, fd_gradient
from tnaf.flow import (
    ModelConfig,
    build_model,
    forward_values,
    invert_rows,
    log_prob,
    nll_loss,
    numerical_jacobian,
    sample,
    total_param_count,
)
from tnaf.transforms import InversionError

ALL_HEADS = ("affine", "cdf", "shared_cdf", "spline")


def tiny_model(d, head, seed=0, **overrides):
    kwargs = dict(E=8, heads=2, layers=1, mlp_hidden=16, cdf_hidden=4,
                  spline_bins=4, spline_blocks=2)
    kwargs.update(overrides)
    return build_model(ModelConfig(D=d, head_type=head, **kwargs), seed=seed)


def normal_logpdf(y):
    """Closed-form standard-normal log-density of each row."""
    return -0.5 * (y * y).sum(axis=-1) - 0.5 * y.shape[-1] * np.log(2 * np.pi)


def identity_affine(d, seed=0):
    model = tiny_model(d, "affine", seed=seed)
    model.params["head.w"].value = np.zeros_like(model.params["head.w"].value)
    model.params["head.b"].value = np.zeros_like(model.params["head.b"].value)
    return model


class TestBasePairing:
    def test_normal_log_density(self):
        # every head shares the standard-normal base; an identity flow shows it
        model = identity_affine(3)
        got = log_prob(model, np.zeros(3)).logp
        assert abs(got + 1.5 * np.log(2 * np.pi)) < 1e-12
        y = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_allclose(log_prob(model, y).logp, normal_logpdf(y), rtol=1e-12)


class TestLogProb:
    def test_identity_flow_standard_normal(self):
        model = identity_affine(2)
        res = log_prob(model, np.zeros(2))
        assert abs(res.logp + np.log(2 * np.pi)) < 1e-12
        assert res.logdet == 0.0
        np.testing.assert_array_equal(res.y, np.zeros(2))

    def test_constant_scale_logdet(self):
        model = identity_affine(3)
        model.params["head.b"].value[1] = np.log(2.0)  # sigma = 2 everywhere
        x = np.array([0.3, -1.2, 0.7])
        res = log_prob(model, x)
        expected = normal_logpdf(res.y) + 3 * np.log(2.0)
        assert abs(res.logp - expected) < 1e-12
        assert abs(res.logdet - 3 * np.log(2.0)) < 1e-12

    def test_result_invariant(self):
        model = tiny_model(3, "spline", seed=5)
        rows = np.random.default_rng(0).standard_normal((6, 3))
        res = log_prob(model, rows)
        np.testing.assert_allclose(res.logp, normal_logpdf(res.y) + res.logdet,
                                   rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            log_prob(tiny_model(3, "affine"), np.zeros(4))

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_batch_matches_per_row(self, head):
        model = tiny_model(3, head, seed=7)
        rows = np.random.default_rng(1).standard_normal((5, 3))
        batched = log_prob(model, rows)
        for i, row in enumerate(rows):
            single = log_prob(model, row)
            assert abs(single.logp - batched.logp[i]) < 1e-12


class TestDeterminantOracle:
    @pytest.mark.parametrize("head", ALL_HEADS)
    @pytest.mark.parametrize("d", (2, 4))
    def test_logdet_matches_brute_force(self, head, d):
        for seed in range(3):
            model = tiny_model(d, head, seed=seed)
            x = np.random.default_rng(seed + 10).standard_normal(d)
            _, ld = forward_values(model, x[None, :])
            jac = numerical_jacobian(model, x)
            sign, logdet = np.linalg.slogdet(jac)
            assert sign > 0
            assert abs(ld.sum() - logdet) / max(abs(logdet), 1e-12) < 1e-6


class TestTriangularity:
    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_strictly_lower_with_positive_diagonal(self, head):
        for seed in range(3):
            model = tiny_model(4, head, seed=seed)
            x = np.random.default_rng(seed).standard_normal(4)
            jac = numerical_jacobian(model, x)
            assert np.abs(np.triu(jac, 1)).max() < 1e-8
            assert (np.diag(jac) > 0).all()

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_d1_degenerate(self, head):
        model = tiny_model(1, head, seed=3)
        jac = numerical_jacobian(model, np.array([0.4]))
        assert jac.shape == (1, 1)
        assert jac[0, 0] > 0

    def test_identity_flow_jacobian(self):
        model = identity_affine(3)
        jac = numerical_jacobian(model, np.array([0.1, -0.5, 2.0]))
        np.testing.assert_allclose(jac, np.eye(3), atol=1e-8)


class TestNllGradient:
    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_matches_fd(self, head):
        model = tiny_model(3, head, seed=11)
        batch = np.random.default_rng(2).standard_normal((4, 3))
        loss = nll_loss(model, batch)
        dc.backward(loss)

        def f(params):
            with dc.no_grad():
                return float(nll_loss(model, batch).value)

        fd = fd_gradient(f, model.params, 1e-5)
        scale = max(np.abs(g).max() for g in fd.values())
        worst = max(
            np.abs(p.grad - fd[name]).max() for name, p in model.params.items()
        )
        assert worst / scale < 1e-4

    def test_single_row_batch(self):
        model = tiny_model(2, "affine", seed=13)
        row = np.random.default_rng(3).standard_normal((1, 2))
        loss = nll_loss(model, row)
        assert abs(float(loss.value) + log_prob(model, row[0]).logp) < 1e-12

    def test_duplicated_rows_same_loss(self):
        model = tiny_model(2, "cdf", seed=17)
        row = np.random.default_rng(4).standard_normal((1, 2))
        doubled = np.vstack([row, row])
        a = float(nll_loss(model, row).value)
        b = float(nll_loss(model, doubled).value)
        assert abs(a - b) < 1e-12


class TestSampling:
    def test_identity_flow_returns_noise(self):
        model = identity_affine(3)
        expected = np.random.default_rng(21).standard_normal((10, 3))
        got = sample(model, 10, seed=21)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_deterministic(self):
        model = tiny_model(3, "spline", seed=19)
        a = sample(model, 8, seed=5)
        b = sample(model, 8, seed=5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("head,tol", [
        ("affine", 1e-9), ("spline", 1e-9), ("cdf", 1e-4), ("shared_cdf", 1e-4),
    ])
    def test_noise_recovered_by_forward(self, head, tol):
        model = tiny_model(3, head, seed=23)
        seed = 29
        rows = sample(model, 16, seed=seed)
        drawn = np.random.default_rng(seed).standard_normal((16, 3))
        res = log_prob(model, rows)
        assert np.abs(res.y - drawn).max() < tol

    @pytest.mark.parametrize("head,tol", [
        # the cdf rows are loose upper bounds; test_heads holds every head's
        # round trip to its inversion_tol, 1e-9
        ("affine", 1e-9), ("spline", 1e-9), ("cdf", 1e-5), ("shared_cdf", 1e-5),
    ])
    def test_forward_then_invert_roundtrip(self, head, tol):
        model = tiny_model(4, head, seed=31)
        x = np.random.default_rng(6).standard_normal((32, 4))
        y, _ = forward_values(model, x)
        recovered = invert_rows(model, y)
        assert np.abs(recovered - x).max() < tol

    def test_check_inversion_reports_residual(self):
        result = check_inversion(tiny_model(4, "spline", seed=31))
        assert result.passed
        assert float(result.detail.split("residual ")[1]) < 1e-12

    def test_non_finite_column_raises(self):
        # a fresh wide affine flow whose inverse overflows on the way: the
        # overflow raises no RuntimeWarning (the suite turns those into
        # errors), and the first non-finite column names its row and dimension
        model = build_model(ModelConfig(D=63, head_type="affine", E=16, heads=2, layers=2,
                                        mlp_hidden=32), seed=1)
        with pytest.raises(InversionError, match="sample 5, dimension 8: .*non-finite"):
            sample(model, 16, seed=5)

    def test_sample_count_checked(self):
        with pytest.raises(DimensionError):
            sample(tiny_model(2, "affine"), 0, seed=0)

    def test_non_finite_targets_validated(self):
        # a non-finite target is rejected in any column, not only the first
        for head in ALL_HEADS:
            model = tiny_model(2, head, seed=37)
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(DimensionError, match="finite"):
                    invert_rows(model, np.array([[0.5, bad]]))

    def test_sampling_moments_match_base(self):
        # empirical mean/cov of an identity flow against the standard normal
        model = identity_affine(2, seed=41)
        n = 50_000
        rows = sample(model, n, seed=43)
        se_mean = 1.0 / np.sqrt(n)
        assert np.abs(rows.mean(axis=0)).max() < 3 * se_mean
        cov = np.cov(rows.T)
        se_var = np.sqrt(2.0 / (n - 1))
        assert np.abs(np.diag(cov) - 1.0).max() < 3 * se_var
        assert abs(cov[0, 1]) < 3 * se_mean


class TestParamCounts:
    def test_matches_actual_all_heads(self):
        for head in ALL_HEADS:
            for d in (1, 2, 5):
                model = tiny_model(d, head)
                assert model.params.total_count() == total_param_count(model.config), (
                    head, d)

    def test_default_cdf_reference(self):
        cfg = ModelConfig(D=6, head_type="cdf")
        assert total_param_count(cfg) == 38_658

    def test_miniboone_shape_default(self):
        cfg = ModelConfig(D=43, head_type="cdf")
        assert total_param_count(cfg) < 10 ** 5
        bigger = ModelConfig(D=44, head_type="cdf")
        assert total_param_count(bigger) - total_param_count(cfg) == 32

    def test_d1_edge(self):
        model = tiny_model(1, "spline")
        res = log_prob(model, np.array([0.5]))
        assert np.isfinite(res.logp)
        rows = sample(model, 5, seed=3)
        assert rows.shape == (5, 1)
