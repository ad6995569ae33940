"""Flow assembly: log-likelihood, triangularity, sampling, determinant oracle."""

import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from tnaf import diffcore as dc
from tnaf import flow
from tnaf import transforms as tf
from tnaf.checks import check_inversion, fd_gradient, numerical_jacobian
from tnaf.diffcore import DimensionError
from tnaf.flow import (
    ROW_BLOCK,
    ModelConfig,
    build_model,
    forward_values,
    invert_rows,
    log_prob,
    nll_loss,
    sample,
)
from tnaf.transforms import InversionError

ALL_HEADS = ("affine", "cdf", "shared_cdf", "spline")


def tiny_model(d, head, seed=0, **overrides):
    kwargs = dict(E=8, heads=2, layers=1, mlp_hidden=16, H=4, K=4, blocks=2)
    kwargs.update(overrides)
    return build_model(ModelConfig(D=d, head_type=head, **kwargs), seed=seed)


def pathological_spline_model():
    """A D=1 one-block spline flow whose psi is fixed to one drawn at scale 1e6,
    and a target its spline inverse fails on (the root escapes its bin in
    float arithmetic), found by drawing lanes until one fails."""
    rng = np.random.default_rng(0)
    while True:
        psi = rng.standard_normal((256, 23)) * 1e6
        y = rng.uniform(-3, 3, 256)
        try:
            tf.spline_inverse_np(y, tf._spline_parts(psi, 3.0)[0], 3.0)
        except InversionError as err:
            lane = err.index
            break
    model = build_model(ModelConfig(D=1, head_type="spline", blocks=1), seed=0)
    model.params["head.w"].value[:] = 0.0
    model.params["head.b"].value[:] = psi[lane]
    return model, y[lane]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_non_finite_rows_refused(self, head, bad):
        # as invert_rows refuses non-finite targets; the CLI maps it to exit 3
        model = build_model(ModelConfig(D=2, head_type=head), seed=0)
        for row in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(DimensionError, match="rows must be finite"):
                log_prob(model, np.array([[0.5, -0.5], row]))
            with pytest.raises(DimensionError, match="rows must be finite"):
                log_prob(model, np.array(row))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_forward_values_refuses_non_finite_rows(self, head, bad):
        # the oracles' entry point checks what log_prob checks: a NaN score
        # under the attention mask would poison the rows before it
        model = tiny_model(3, head, seed=3)
        with pytest.raises(DimensionError, match="rows must be finite"):
            forward_values(model, np.array([[0.0, bad, 0.0]]))

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_batch_matches_per_row(self, head):
        model = tiny_model(3, head, seed=7)
        rows = np.random.default_rng(1).standard_normal((5, 3))
        batched = log_prob(model, rows)
        for i, row in enumerate(rows):
            single = log_prob(model, row)
            assert single.logp == batched.logp[i]


def likelihood_calls(monkeypatch, failing_half=None) -> list:
    """(thread, rows) of every later flow._log_likelihood call; failing_half
    "first" makes a call on the main thread raise, "second" one off it."""
    calls, real, main = [], flow._log_likelihood, threading.get_ident()

    def traced(model, x):
        calls.append((threading.get_ident(), len(x)))
        if failing_half == ("first" if threading.get_ident() == main else "second"):
            raise ValueError(f"{failing_half} half failed")
        return real(model, x)

    monkeypatch.setattr(flow, "_log_likelihood", traced)
    return calls


class TestLogProbSplit:
    """log_prob and forward_values score a call of SPLIT_SCORES attention
    scores or more in two row halves, the second on a one-worker pool."""

    def test_forced_split_equals_unsplit_halves(self, monkeypatch):
        model = tiny_model(5, "cdf", seed=3)
        rows = np.random.default_rng(2).standard_normal((9, 5))
        halves = [log_prob(model, part) for part in (rows[:4], rows[4:])]
        monkeypatch.setattr(flow, "SPLIT_SCORES", 0)
        calls = likelihood_calls(monkeypatch)
        got = log_prob(model, rows)
        # the caller scores the first half, one extra thread the second
        main = threading.get_ident()
        assert [c for c in calls if c[0] == main] == [(main, 4)]
        assert [c[1:] for c in calls if c[0] != main] == [(5,)]
        for name in ("y", "logdet", "logp"):
            np.testing.assert_array_equal(
                getattr(got, name), np.concatenate([getattr(h, name) for h in halves]))

    def test_d63_split_equals_one_call(self, monkeypatch):
        model = build_model(ModelConfig(D=63, head_type="spline"), seed=0)
        x = np.random.default_rng(4).standard_normal((64, 63))
        calls = likelihood_calls(monkeypatch)
        split = log_prob(model, x)
        assert sorted(n for _, n in calls) == [32, 32]
        monkeypatch.setattr(flow, "SPLIT_SCORES", float("inf"))
        whole = log_prob(model, x)
        for name in ("y", "logdet", "logp"):
            np.testing.assert_array_equal(getattr(split, name), getattr(whole, name))

    def test_error_in_second_half_is_raised(self, monkeypatch):
        model = tiny_model(3, "affine", seed=1)
        monkeypatch.setattr(flow, "SPLIT_SCORES", 0)
        likelihood_calls(monkeypatch, failing_half="second")
        with pytest.raises(ValueError, match="second half failed"):
            log_prob(model, np.zeros((6, 3)))

    def test_error_in_first_half_is_raised_once_second_is_done(self, monkeypatch):
        model = tiny_model(3, "affine", seed=1)
        monkeypatch.setattr(flow, "SPLIT_SCORES", 0)
        calls = likelihood_calls(monkeypatch, failing_half="first")
        threads = threading.active_count()
        with pytest.raises(ValueError, match="first half failed"):
            log_prob(model, np.zeros((6, 3)))
        assert sorted(n for _, n in calls) == [3, 3]
        assert threading.active_count() == threads

    def test_forward_values_split_like_log_prob(self, monkeypatch):
        model = tiny_model(4, "spline", seed=2)
        rows = np.random.default_rng(5).standard_normal((7, 4))
        whole = forward_values(model, rows)
        monkeypatch.setattr(flow, "SPLIT_SCORES", 0)
        calls = likelihood_calls(monkeypatch)
        split = forward_values(model, rows)
        assert sorted(n for _, n in calls) == [3, 4]
        for got, want in zip(split, whole):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(split[0], log_prob(model, rows).y)

    def test_second_half_keeps_the_callers_error_state(self, monkeypatch):
        model = tiny_model(3, "affine", seed=1)
        monkeypatch.setattr(flow, "SPLIT_SCORES", 0)
        seen, real = [], flow._log_likelihood
        monkeypatch.setattr(flow, "_log_likelihood",
                            lambda m, x: seen.append(np.geterr()["over"]) or real(m, x))
        with np.errstate(over="raise"):
            log_prob(model, np.zeros((6, 3)))
        assert seen == ["raise", "raise"]

    def test_import_loads_no_pool_modules(self):
        # the split imports its pool itself: import layout alone has moved
        # benchmark processes that never split between glibc heap states
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, tnaf; "
             "print(sorted({'concurrent.futures', 'queue'} & set(sys.modules)))"],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_call_below_threshold_starts_no_thread(self, monkeypatch):
        cfg = ModelConfig(D=63, head_type="spline")
        assert 33 * cfg.heads * 63 ** 2 < flow.SPLIT_SCORES <= 34 * cfg.heads * 63 ** 2
        model = build_model(cfg, seed=0)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda t: pytest.fail("log_prob started a thread"))
        calls = likelihood_calls(monkeypatch)
        log_prob(model, np.zeros((33, 63)))
        assert [c[:2] for c in calls] == [(threading.get_ident(), 33)]


class TestRowIdentity:
    """A row's outputs are the same bits whatever rows share its call:
    every forward product over rows runs in dc.rows_matmul's fixed tiles."""

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_log_prob_row_alone_equals_row_in_any_call(self, head, monkeypatch):
        model = build_model(ModelConfig(D=8, head_type=head), seed=5)
        x = np.random.default_rng(6).standard_normal((130, 8))
        whole = log_prob(model, x)
        calls = {size: [log_prob(model, x[s:s + size]) for s in range(0, len(x), size)]
                 for size in (1, 3, 5, 64, 100)}
        monkeypatch.setattr(flow, "SPLIT_SCORES", 0)
        calls["split"] = [log_prob(model, x)]
        for size, parts in calls.items():
            for name in ("y", "logdet", "logp"):
                got = np.concatenate([getattr(p, name) for p in parts])
                np.testing.assert_array_equal(got, getattr(whole, name),
                                              err_msg=f"{size}-row calls, {name}")

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_invert_rows_row_alone_equals_row_in_any_call(self, head):
        model = build_model(ModelConfig(D=8, head_type=head), seed=5)
        targets = np.random.default_rng(7).standard_normal((10, 8))
        whole = invert_rows(model, targets)
        for size in (1, 3, 5):
            got = np.concatenate([invert_rows(model, targets[s:s + size])
                                  for s in range(0, len(targets), size)])
            np.testing.assert_array_equal(got, whole, err_msg=f"{size}-row calls")

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_first_sample_independent_of_count(self, head):
        model = build_model(ModelConfig(D=8, head_type=head), seed=5)
        np.testing.assert_array_equal(sample(model, 1, 9)[0], sample(model, 5, 9)[0])

    # heads=1 puts a whole embedding in each lane (head_dim = E = 8, so a
    # score sums 8 products) and heads=8 one value; one row of one head is a
    # lone lane, whose sums numpy would run in another order than many lanes'
    @pytest.mark.parametrize("heads", (1, 8))
    @pytest.mark.parametrize("d", (1, 2, 8))
    def test_invert_rows_row_alone_equals_row_in_5_at_any_head_dim(self, d, heads):
        model = build_model(ModelConfig(D=d, head_type="affine", E=8, heads=heads, layers=2,
                                        mlp_hidden=16), seed=d)
        targets = np.random.default_rng(d).standard_normal((5, d))
        whole = invert_rows(model, targets)
        for r in range(5):
            np.testing.assert_array_equal(invert_rows(model, targets[r:r + 1])[0], whole[r],
                                          err_msg=f"row {r}")

    def test_d63_spline_inversion_row_alone_equals_row_in_any_call(self):
        # the benchmark's width: the cached key count reaches 63, and a 1-row
        # step runs its products in one padded row tile
        model = build_model(ModelConfig(D=63, head_type="spline"), seed=5)
        targets = np.random.default_rng(7).standard_normal((10, 63))
        whole = invert_rows(model, targets)
        for size in (1, 3, 4, 5):
            got = np.concatenate([invert_rows(model, targets[s:s + size])
                                  for s in range(0, len(targets), size)])
            np.testing.assert_array_equal(got, whole, err_msg=f"{size}-row calls")
        np.testing.assert_array_equal(sample(model, 1, 9)[0], sample(model, 5, 9)[0])


class TestSplineInverseTable:
    @pytest.mark.parametrize("blocks", (1, 2, 3))
    @pytest.mark.parametrize("k", (1, 2, 8))
    def test_one_knot_table_equals_per_block_tables(self, blocks, k):
        # SplineHead.inverse reads every block's knots off one table; each
        # block's own table over its columns of psi gives the same bits
        d, n = 4, 9
        model = tiny_model(d, "spline", seed=blocks, K=k, blocks=blocks)
        rng = np.random.default_rng(10 * blocks + k)
        for j in range(blocks):
            model.params[f"mix{j}"].value[:] = rng.standard_normal(d * (d - 1) // 2)
        bound, bw = model.config.B, 3 * k - 1
        # targets inside and beyond +-B, and on it
        targets = rng.uniform(-2 * bound, 2 * bound, (n, d))
        targets[:2] = [[bound] * d, [-bound] * d]
        state = model.head.inverse_state(model.params, n)
        per_block = model.head.inverse_state(model.params, n)
        for i in range(d):
            psi = rng.standard_normal((n, blocks * bw))
            got = model.head.inverse(psi, targets[:, i], i, state)
            v = targets[:, i]
            for j in reversed(range(blocks)):
                lmat, premix = per_block[j]
                if i > 0:
                    v = v - premix[:, :i] @ lmat[i, :i]
                premix[:, i] = v
                table = tf._spline_parts(psi[:, j * bw:(j + 1) * bw], bound)[0]
                v = tf.spline_inverse_np(v, table, bound)
            assert got.tobytes() == v.tobytes(), f"dimension {i}"


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

        fd = fd_gradient(f, model.params)
        scale = max(np.abs(g).max() for g in fd.values())
        worst = max(
            np.abs(p.grad - fd[name]).max() for name, p in model.params.items()
        )
        assert worst / scale < 1e-4

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_positional_takes_one_contribution(self, head, monkeypatch):
        # embed_sequence adds every position's row through one narrow
        model = tiny_model(3, head, seed=11)
        positional, taken = model.params["positional"], []
        real = dc.Node.accumulate_grad
        monkeypatch.setattr(dc.Node, "accumulate_grad",
                            lambda node, g: taken.append(node is positional) or real(node, g))
        loss = nll_loss(model, np.random.default_rng(2).standard_normal((4, 3)))
        for passes in (1, 2):
            dc.backward(loss)
            assert sum(taken) == passes

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
        # round trip to checks.INVERSION_TOL, 1e-9
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

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("head", ("cdf", "shared_cdf"))
    def test_fresh_wide_cdf_inversion_within_1e_12(self, head, seed):
        # ROADMAP item 4's residual bound, met by the CDF heads on fresh models
        # at D=63, BSDS300's width: round trip and residual both under 1e-12
        model = build_model(ModelConfig(D=63, head_type=head), seed=seed)
        detail = check_inversion(model, seed).detail
        err = float(detail.split("round-trip error ")[1].split(",")[0])
        assert err < 1e-12 and float(detail.split("residual ")[1]) < 1e-12, detail

    def test_non_finite_column_raises(self):
        # a fresh wide affine flow whose inverse overflows on the way: the
        # overflow raises no RuntimeWarning (the suite turns those into
        # errors), and the first non-finite column names its row and dimension
        model = build_model(ModelConfig(D=63, head_type="affine", E=16, heads=2, layers=2,
                                        mlp_hidden=32), seed=1)
        with pytest.raises(InversionError, match="sample 5, dimension 8: .*non-finite"):
            sample(model, 16, seed=5)

    def test_rows_invert_in_blocks_with_a_cache_each(self, monkeypatch):
        model = tiny_model(2, "cdf", seed=3)
        y = np.random.default_rng(8).standard_normal((2 * ROW_BLOCK + 3, 2))
        caches = []
        real = flow.KVCache
        monkeypatch.setattr(flow, "KVCache",
                            lambda params, cfg, n: caches.append(n) or real(params, cfg, n))
        x = invert_rows(model, y)
        assert caches == [ROW_BLOCK, ROW_BLOCK, 3]
        assert x.tobytes() == np.concatenate([invert_rows(model, y[s:s + ROW_BLOCK])
                                              for s in range(0, len(y), ROW_BLOCK)]).tobytes()
        # a target no bracket reaches fails in the last block, named by its
        # row in the whole input
        y[2 * ROW_BLOCK + 1, 1] = 1e300
        with pytest.raises(InversionError, match=f"sample {2 * ROW_BLOCK + 1}, dimension 1:"
                           ) as err:
            invert_rows(model, y)
        assert err.value.index == 2 * ROW_BLOCK + 1

    def test_spline_inversion_failure_names_its_row(self):
        # the spline's root check raises InversionError, which invert_rows
        # names by row and dimension like any other inversion failure
        model, y = pathological_spline_model()
        targets = np.array([[4.0], [y], [y]])
        with pytest.raises(InversionError, match="sample 1, dimension 0: spline inverse"
                           ) as err:
            invert_rows(model, targets)
        assert err.value.index == 1

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_layer_weights_looked_up_once_per_block(self, monkeypatch, head):
        # every parameter is gathered once per block of rows, not at every
        # step: the embedding's and each encoder layer's by the KVCache,
        # shared_cdf's phi.* and the spline's mixes by inverse_state, and
        # head.{w,b} by _invert_block.  A 4-row D=63 spline inversion made 3150
        # lookups when the layers' were per step, and 177 when the head
        # projection's were.
        model = build_model(ModelConfig(D=63, head_type=head), seed=2)
        looked_up = []
        real = dc.ParamSet.__getitem__
        monkeypatch.setattr(dc.ParamSet, "__getitem__",
                            lambda params, name: looked_up.append(name) or real(params, name))
        invert_rows(model, np.random.default_rng(3).standard_normal((4, 63)))
        assert sorted(looked_up) == sorted(model.params.names())

    # every head's psi is numpy at each step; what nodes remain are the
    # spline's two mix matrices, built once per block
    @pytest.mark.parametrize("head, d, nodes", [("affine", 2, 0), ("cdf", 8, 0),
                                                ("spline", 63, 2), ("shared_cdf", 8, 0)])
    def test_graph_nodes_per_inversion(self, monkeypatch, head, d, nodes):
        model = build_model(ModelConfig(D=d, head_type=head), seed=2)
        made = []
        real = dc.make_node
        monkeypatch.setattr(dc, "make_node", lambda *a: made.append(1) or real(*a))
        invert_rows(model, np.random.default_rng(3).standard_normal((4, d)))
        assert len(made) == nodes

    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_step_psi_is_the_projection_value(self, monkeypatch, head):
        # each cached step's psi, as the head's inverse gets it, has the bits
        # of project_head on that step's hidden rows
        model = tiny_model(8, head, seed=4)
        hidden, psis = [], []
        step, inverse = flow.KVCache.step, model.head.inverse
        monkeypatch.setattr(flow.KVCache, "step", lambda cache, x: hidden.append(step(cache, x))
                            or hidden[-1])
        monkeypatch.setattr(model.head, "inverse", lambda psi, *rest: psis.append(psi)
                            or inverse(psi, *rest))
        invert_rows(model, np.random.default_rng(4).standard_normal((5, 8)))
        assert len(psis) == len(hidden) == 8
        for rows, psi in zip(hidden, psis):
            np.testing.assert_array_equal(
                psi, flow.project_head(dc.constant(rows), model.params).value)

    @pytest.mark.parametrize("d", (1, 2, 8))
    @pytest.mark.parametrize("head", ALL_HEADS)
    def test_no_targets_invert_to_no_rows(self, head, d):
        assert invert_rows(tiny_model(d, head), np.zeros((0, d))).shape == (0, d)

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


def param_count(cfg):
    return build_model(cfg).params.total_count()


class TestParamCounts:
    def test_matches_actual_all_heads(self):
        # tiny_model's counts at D = 1, 2, 5: the conditioner grows by E = 8 per
        # dimension, and the spline's two mixes by D - 1 each
        expected = {"affine": (642, 650, 674), "cdf": (750, 758, 782),
                    "shared_cdf": (678, 686, 710), "spline": (822, 832, 874)}
        for head in ALL_HEADS:
            for d, count in zip((1, 2, 5), expected[head]):
                assert tiny_model(d, head).params.total_count() == count, (head, d)

    def test_default_cdf_reference(self):
        assert param_count(ModelConfig(D=6, head_type="cdf")) == 38_562

    def test_miniboone_shape_default(self):
        cfg = ModelConfig(D=43, head_type="cdf")
        assert param_count(cfg) == 39_746 < 10 ** 5
        bigger = ModelConfig(D=44, head_type="cdf")
        assert param_count(bigger) - param_count(cfg) == 32

    def test_d1_edge(self):
        model = tiny_model(1, "spline")
        res = log_prob(model, np.array([0.5]))
        assert np.isfinite(res.logp)
        rows = sample(model, 5, seed=3)
        assert rows.shape == (5, 1)


class TestRefusedInput:
    """Each refusal of a malformed batch names the shape it got."""

    def test_log_prob_of_a_3d_array(self):
        with pytest.raises(DimensionError, match=r"vector or matrix, got shape \(1, 2, 2\)"):
            log_prob(tiny_model(2, "affine"), np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("targets", [np.zeros(2), np.zeros((3, 3))],
                             ids=["vector", "D_plus_1_columns"])
    def test_invert_rows_of_a_non_matrix_or_wrong_width(self, targets):
        message = f"targets must be [n, 2], got shape {targets.shape}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            invert_rows(tiny_model(2, "affine"), targets)

    def test_nll_loss_of_an_empty_batch(self):
        message = "batch must be a nonempty matrix [n, 2], got shape (0, 2)"
        with pytest.raises(DimensionError, match=re.escape(message)):
            nll_loss(tiny_model(2, "affine"), np.zeros((0, 2)))
