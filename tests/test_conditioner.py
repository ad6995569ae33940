"""Conditioner tests: embedding, masking, and the autoregressive contract."""

import tracemalloc

import numpy as np
import pytest

import composite_ops as cops
from tnaf import conditioner
from tnaf import diffcore as dc
from tnaf.conditioner import (
    KVCache,
    condition,
    embed_sequence,
    encoder_layer,
    init_conditioner_params,
)
from tnaf.checks import fd_gradient
from tnaf.diffcore import DimensionError, ParamSet
from tnaf.flow import (
    HEADS,
    ModelConfig,
    build_model,
    forward_values,
    invert_rows,
    log_prob,
    nll_loss,
    project_head,
)

TINY = dict(E=8, heads=2, layers=1, mlp_hidden=16)
PSI = 3  # projection width used by the head-projection tests


def tiny_config(d, **overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return ModelConfig(D=d, **kwargs)


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
    """The attention's causal softmax hides exactly the columns c > r."""

    @staticmethod
    def hidden(d):
        return dc.masked_softmax(np.zeros((1, d, d)), True)[0] == 0.0

    def test_single(self):
        np.testing.assert_array_equal(
            dc.masked_softmax(np.zeros((1, 1)), True), [[1.0]])

    def test_three(self):
        np.testing.assert_array_equal(self.hidden(3), np.triu(np.ones((3, 3), bool), 1))

    def test_last_row_attends_everywhere(self):
        # 17 rows span three row blocks of the tiled softmax
        assert not self.hidden(17)[16].any()


class TestEmbedSequence:
    def test_d1_is_bos_only(self):
        cfg, params = fresh(1)
        a = embed_sequence(np.array([[0.3]]), params, cfg).value[0]
        b = embed_sequence(np.array([[-9.0]]), params, cfg).value[0]
        np.testing.assert_array_equal(a, b)
        expected = params["bos"].value + params["positional"].value[0]
        np.testing.assert_array_equal(a[0], expected)

    def test_zero_weights_leaves_bos_row(self):
        cfg, params = fresh(3)
        zero_weights(params)
        bos_vec = np.random.default_rng(1).standard_normal(cfg.E)
        params["bos"].value = bos_vec.copy()
        out = embed_sequence(np.array([[1.0, 2.0, 3.0]]), params, cfg).value[0]
        np.testing.assert_array_equal(out[0], bos_vec)
        np.testing.assert_array_equal(out[1:], 0.0)

    def test_last_input_never_embedded(self):
        cfg, params = fresh(4, seed=3)
        x = np.array([0.1, -0.5, 2.0, 7.0])
        x2 = x.copy()
        x2[3] += 123.0
        a = embed_sequence(x[None], params, cfg).value[0]
        b = embed_sequence(x2[None], params, cfg).value[0]
        np.testing.assert_array_equal(a, b)

    def test_length_mismatch(self):
        cfg, params = fresh(3)
        with pytest.raises(DimensionError):
            embed_sequence(np.zeros((1, 4)), params, cfg)

    def test_batch_matches_single(self):
        cfg, params = fresh(3, seed=5)
        rows = np.random.default_rng(0).standard_normal((4, 3))
        batched = embed_sequence(rows, params, cfg).value
        for i, row in enumerate(rows):
            single = embed_sequence(row[None], params, cfg).value[0]
            np.testing.assert_array_equal(batched[i], single)

    # a 1-row batch reads the start token's gradient off one row, unsummed
    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_bit_identical_to_reference(self, d, dtype, rows):
        cfg, params = fresh(d, seed=d)
        rng = np.random.default_rng(d)
        x = rng.standard_normal((rows, d)).astype(dtype)
        weights = dc.constant(rng.standard_normal((rows, d, cfg.E)).astype(dtype))

        def outputs(embed):  # the embeddings, then each EMBED_PARAMS gradient
            shadow = ParamSet()
            for name, node in params.items():
                shadow.add(name, node.value.astype(dtype))
            out = embed(x, shadow, cfg)
            dc.backward(dc.sum_(dc.mul(out, weights)))
            return [out.value] + [shadow[name].grad for name in conditioner.EMBED_PARAMS]

        for got, want in zip(outputs(embed_sequence), outputs(cops.embed_sequence)):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)


class TestEncoderLayer:
    def test_zero_weights_is_identity(self):
        cfg, params = fresh(3, seed=7)
        zero_weights(params)
        seq = dc.constant(np.random.default_rng(2).standard_normal((1, 3, cfg.E)))
        out = encoder_layer(seq, params, 0, cfg)
        np.testing.assert_array_equal(out.value, seq.value)

    def test_causal_dependency_by_fd(self):
        cfg, params = fresh(3, seed=11)
        base = np.random.default_rng(4).standard_normal((3, cfg.E))
        out0 = encoder_layer(dc.constant(base[None]), params, 0, cfg).value[0]
        bumped = base.copy()
        bumped[2] += 1.0  # perturbing the last row must not touch earlier rows
        out1 = encoder_layer(dc.constant(bumped[None]), params, 0, cfg).value[0]
        np.testing.assert_array_equal(out0[:2], out1[:2])
        assert np.abs(out0[2] - out1[2]).max() > 0

    def test_d1_shape(self):
        cfg, params = fresh(1, seed=13)
        seq = dc.constant(np.random.default_rng(5).standard_normal((1, 1, cfg.E)))
        out = encoder_layer(seq, params, 0, cfg)
        assert out.value.shape == (1, 1, cfg.E)


def layer_values(d, dtype, seed=0, rows=3, **overrides):
    """A config, its layer-0 parameter values as `dtype` (every entry random,
    so no bias is zero and no gain one) and a sequence [rows, d, E]."""
    cfg, params = fresh(d, seed=seed, **overrides)
    rng = np.random.default_rng(seed)
    values = {name: (0.5 * rng.standard_normal(node.value.shape)).astype(dtype)
              for name, node in params.items() if name.startswith("layer0.")}
    return cfg, values, rng.standard_normal((rows, d, cfg.E)).astype(dtype)


def softmax_rows(monkeypatch) -> list:
    """The batch rows of every later dc.masked_softmax call, in call order."""
    rows, real = [], dc.masked_softmax
    monkeypatch.setattr(dc, "masked_softmax", lambda s, *a: rows.append(len(s)) or real(s, *a))
    return rows


def layer_gradients(layer_fn, cfg, values, seq_value, seq_fn=dc.parameter, passes=1):
    """The layer's output, then the gradients of seq (None when it is a
    constant) and of each layer parameter for a fixed upstream gradient
    after `passes` backward() calls of one loss."""
    params = ParamSet()
    for name, value in values.items():
        params.add(name, value.copy())
    seq = seq_fn(seq_value.copy())
    out = layer_fn(seq, params, 0, cfg)
    weights = np.random.default_rng(99).standard_normal(out.value.shape).astype(seq_value.dtype)
    loss = dc.sum_(dc.mul(out, dc.constant(weights)))
    for _ in range(passes):
        dc.backward(loss)
    seq_grad = seq.grad if seq.requires_grad else None
    return [out.value, seq_grad] + [node.grad for _, node in params.items()]


class TestBlockNode:
    """The one-node layer against the op chain it replaced
    (composite_ops.encoder_layer) and against finite differences."""

    # 5, 17 and 63 tokens end the causal softmax's row tiles in blocks of
    # 5, 1 and 7 rows
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("d", [5, 17, 63])
    def test_bit_identical_to_reference(self, d, dtype):
        cfg, values, seq = layer_values(d, dtype, seed=d)
        block = layer_gradients(encoder_layer, cfg, values, seq)
        reference = layer_gradients(cops.encoder_layer, cfg, values, seq)
        assert len(block) == len(reference) == 2 + len(conditioner.LAYER_PARAMS)
        for got, want in zip(block, reference):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    # 10 rows in chunks of 3 end in a chunk of one row; the default shape
    # at D=63 takes 4 rows per chunk in float64 and 8 in float32
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("d, shape", [(17, {}), (63, {}),
                                          (63, dict(E=32, heads=8, mlp_hidden=64))])
    def test_row_chunks_bit_identical_to_reference(self, d, shape, dtype, monkeypatch):
        cfg, values, seq = layer_values(d, dtype, seed=d, rows=10, **shape)
        reference = layer_gradients(cops.encoder_layer, cfg, values, seq)
        if not shape:
            row_bytes = cfg.heads * d * d * np.dtype(dtype).itemsize
            monkeypatch.setattr(conditioner, "ATTN_CHUNK_BYTES", 3 * row_bytes)
        calls = softmax_rows(monkeypatch)
        block = layer_gradients(encoder_layer, cfg, values, seq)
        per_chunk = 3 if not shape else 8 if dtype == np.float32 else 4
        chunks = [per_chunk] * (10 // per_chunk) + [10 % per_chunk]
        # the forward keeps no softmax: the vjp recomputes every chunk's from
        # its kept row statistics
        assert calls == chunks + chunks
        assert len(block) == 2 + len(conditioner.LAYER_PARAMS)
        for got, want in zip(block, reference):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_row_chunks_keep_statistics_under_grad_only(self, monkeypatch):
        monkeypatch.setattr(conditioner, "ATTN_CHUNK_BYTES", 1)  # one row per chunk
        cfg, values, seq = layer_values(5, np.float64)
        stats, outs, real = [], [], dc.masked_softmax

        def record(scores, causal, scale, kept=None, out=None):
            stats.append(kept)
            outs.append(out)
            return real(scores, causal, scale, kept, out)

        monkeypatch.setattr(dc, "masked_softmax", record)
        layer_gradients(encoder_layer, cfg, values, seq)
        # the forward fills one list per chunk, and the vjp reads the same lists
        assert [len(st) for st in stats] == [1] * 6
        assert all(a is b for a, b in zip(stats[:3], stats[3:]))
        # the forward's chunks share one buffer, and the vjp's another
        for loop in (outs[:3], outs[3:]):
            assert all(np.shares_memory(o, loop[0]) for o in loop)
        assert not np.shares_memory(outs[0], outs[3])
        stats.clear()
        outs.clear()
        with dc.no_grad():
            layer_gradients(encoder_layer, cfg, values, seq)
        assert stats == [None] * 3
        assert all(np.shares_memory(o, outs[0]) for o in outs)

    def test_one_chunk_keeps_its_softmax(self, monkeypatch):
        cfg, values, seq = layer_values(5, np.float64)
        calls = softmax_rows(monkeypatch)
        layer_gradients(encoder_layer, cfg, values, seq)
        assert calls == [3]

    @pytest.mark.parametrize("d", [1, 8, 17])
    def test_condition_and_cached_steps_match_reference(self, d):
        # the reference runs the op chains of both stages, its cached steps
        # through the same KVCache arrays
        cfg, params = fresh(d, seed=d, layers=2)
        x = np.random.default_rng(d).standard_normal((4, d))
        block = condition(x, params, cfg).value, TestKVCache.cached_rows(x, params, cfg)
        cache = KVCache(params, cfg, len(x))
        with dc.no_grad():
            steps = [cops.condition(x[:, max(i - 1, 0):i], params, cfg, cache).value
                     for i in range(d)]
        reference = cops.condition(x, params, cfg).value, np.concatenate(steps, axis=1)
        for got, want in zip(block, reference):
            np.testing.assert_array_equal(got, want)

    def test_cached_steps_in_row_chunks_match_reference(self, monkeypatch):
        # one row per chunk: every cached step of the 4 rows runs 4 chunks
        monkeypatch.setattr(conditioner, "ATTN_CHUNK_BYTES", 1)
        self.test_condition_and_cached_steps_match_reference(8)

    def test_gradient_vs_fd(self):
        cfg, values, seq = layer_values(3, np.float64, seed=5, E=4, mlp_hidden=4)
        params = ParamSet()
        for name, value in values.items():
            params.add(name, value)
        seq_node = params.add("seq", seq)
        weights = dc.constant(np.random.default_rng(6).standard_normal(seq.shape))

        def loss():
            return dc.sum_(dc.mul(encoder_layer(seq_node, params, 0, cfg), weights))

        dc.backward(loss())
        fd = fd_gradient(lambda _: float(loss().value), params)
        for name, node in params.items():
            scale = max(np.abs(fd[name]).max(), 1e-8)
            assert np.abs(node.grad - fd[name]).max() / scale < 1e-4, name

    def test_second_backward_adds_one_more_pass(self):
        cfg, values, seq = layer_values(5, np.float64)
        once = layer_gradients(encoder_layer, cfg, values, seq)
        twice = layer_gradients(encoder_layer, cfg, values, seq, passes=2)
        np.testing.assert_array_equal(twice[0], once[0])
        for got, want in zip(twice[1:], once[1:]):
            np.testing.assert_array_equal(got, 2.0 * want)

    @pytest.mark.parametrize("passes", [1, 2])
    def test_constant_seq_still_gives_parameter_gradients(self, passes):
        cfg, values, seq = layer_values(5, np.float64)
        with_seq = layer_gradients(encoder_layer, cfg, values, seq, passes=passes)
        without = layer_gradients(encoder_layer, cfg, values, seq, dc.constant, passes)
        assert without[1] is None
        for got, want in zip(without[2:], with_seq[2:]):
            assert np.abs(got).max() > 0
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("passes", [1, 2])
    def test_row_chunks_add_passes_and_take_a_constant_seq(self, passes, monkeypatch):
        monkeypatch.setattr(conditioner, "ATTN_CHUNK_BYTES", 1)  # one row per chunk
        cfg, values, seq = layer_values(5, np.float64)
        once = layer_gradients(encoder_layer, cfg, values, seq)
        with_seq = layer_gradients(encoder_layer, cfg, values, seq, passes=passes)
        without = layer_gradients(encoder_layer, cfg, values, seq, dc.constant, passes)
        np.testing.assert_array_equal(with_seq[0], once[0])
        for got, want in zip(with_seq[1:], once[1:]):
            np.testing.assert_array_equal(got, passes * want)
        assert without[1] is None
        for got, want in zip(without[2:], with_seq[2:]):
            assert np.abs(got).max() > 0
            np.testing.assert_array_equal(got, want)


class TestAttentionMemory:
    """A forward pass over several row chunks holds one chunk's attention
    scores at a time and keeps none of them."""

    def test_log_prob_runs_the_softmax_by_row_chunk(self, monkeypatch):
        cfg = ModelConfig(D=63, head_type="spline")
        model = build_model(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((256, 63))
        calls = softmax_rows(monkeypatch)
        log_prob(model, x)
        per_chunk = conditioner.ATTN_CHUNK_BYTES // (cfg.heads * 63 * 63 * 8)
        assert per_chunk == 4
        assert calls == [per_chunk] * (256 // per_chunk) * cfg.layers

    def test_log_prob_peak_memory(self):
        cfg = ModelConfig(D=63, head_type="spline")
        model = build_model(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((256, 63))
        scores = 256 * cfg.heads * 63 * 63 * 8  # float64 [256, 8, 63, 63], 62 MiB
        tracemalloc.start()
        try:
            log_prob(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the layer's other intermediates take about one score array; keeping
        # every chunk's softmax, or one whole-batch softmax, adds another
        assert peak < 1.5 * scores, f"peak {peak / 2**20:.1f} MiB"

    def test_grad_layer_keeps_no_softmax_until_backward(self, monkeypatch):
        # float32 at the default shape: 64 rows run in 8 chunks of 8 rows
        cfg, values, seq = layer_values(63, np.float32, rows=64, E=32, heads=8, mlp_hidden=64)
        scores = 64 * cfg.heads * 63 * 63 * 4  # float32 [64, 8, 63, 63], 7.8 MiB
        calls = softmax_rows(monkeypatch)

        def kept():  # bytes the layer's node holds from its forward to its backward
            params = ParamSet()
            for name, value in values.items():
                params.add(name, value)
            seq_node = dc.parameter(seq)
            tracemalloc.start()
            try:
                out = encoder_layer(seq_node, params, 0, cfg)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            dc.backward(dc.sum_(out))
            return held

        chunked = kept()
        assert calls == [8] * 16
        calls.clear()
        monkeypatch.setattr(conditioner, "ATTN_CHUNK_BYTES", scores)
        whole = kept()
        assert calls == [64]
        # the one chunk keeps its softmax; the chunks keep their row
        # statistics and no softmax buffer
        assert chunked < whole - scores / 2, f"{chunked / 2**20:.1f} vs {whole / 2**20:.1f} MiB"


class TestGraphSize:
    """Each affine map over the last axis is one dc.linear node, each
    conditioner stage one node, and a cached step none."""

    @staticmethod
    def nodes_made(monkeypatch, fn) -> int:
        made = []
        real = dc.make_node
        monkeypatch.setattr(dc, "make_node", lambda *a: made.append(1) or real(*a))
        fn()
        return len(made)

    def test_encoder_layer(self, monkeypatch):
        # the whole pre-norm layer is one node over conditioner._block
        cfg, params = fresh(5)
        seq = embed_sequence(np.random.default_rng(0).standard_normal((3, 5)), params, cfg)
        assert self.nodes_made(monkeypatch, lambda: encoder_layer(seq, params, 0, cfg)) == 1

    def test_cached_encoder_layer_step(self, monkeypatch):
        # the embedding and every layer run in numpy, under grad too
        cfg, params = fresh(5, layers=2)
        x = np.random.default_rng(0).standard_normal((3, 5))
        cache = KVCache(params, cfg, 3)
        made = [self.nodes_made(monkeypatch, lambda: cache.step(x[:, i - 1:i])) for i in range(5)]
        assert made == [0] * 5

    def test_embed_sequence(self, monkeypatch):
        # the start token, the inputs' projection and the positions: one node
        cfg, params = fresh(5)
        x = np.random.default_rng(0).standard_normal((3, 5))
        assert self.nodes_made(monkeypatch, lambda: embed_sequence(x, params, cfg)) == 1

    def test_cached_step_embedding(self, monkeypatch):
        # a step's embedding is numpy: no node, and each position's rows are
        # those of the full pass's one node
        cfg, params = fresh(5)
        x = np.random.default_rng(0).standard_normal((3, 5))
        full = embed_sequence(x, params, cfg).value
        cache = KVCache(params, cfg, 3)
        made, rows = [], []
        for p in range(5):
            made.append(self.nodes_made(monkeypatch, lambda: rows.append(
                conditioner._embed(x[:, max(p - 1, 0):p], cache.embed, p)[0])))
        assert made == [0] * 5
        np.testing.assert_array_equal(np.concatenate(rows, axis=1), full)

    # the default config's 3 encoder layers and the embedding take 4 nodes;
    # the rest are the head's and the loss's
    @pytest.mark.parametrize("head, d, nodes", [("affine", 2, 20), ("cdf", 8, 15),
                                                ("shared_cdf", 8, 20), ("spline", 63, 28)])
    def test_nll_loss(self, monkeypatch, head, d, nodes):
        model = build_model(ModelConfig(D=d, head_type=head), seed=0)
        x = np.random.default_rng(0).standard_normal((4, d))
        assert self.nodes_made(monkeypatch, lambda: nll_loss(model, x)) == nodes


class TestCondition:
    def test_prefix_rows_bit_identical_under_late_perturbation(self):
        cfg, params = fresh(5, seed=17)
        x = np.random.default_rng(6).standard_normal(5)
        j = 2  # bump x_3 (1-indexed): rows h_1..h_3 must not move at all
        bumped = x.copy()
        bumped[j] += 1.0
        a = condition(x[None], params, cfg).value[0]
        b = condition(bumped[None], params, cfg).value[0]
        np.testing.assert_array_equal(a[: j + 1], b[: j + 1])
        assert np.abs(a[j + 1:] - b[j + 1:]).max() > 0

    def test_first_row_unconditioned(self):
        cfg, params = fresh(4, seed=19)
        rng = np.random.default_rng(7)
        a = condition(rng.standard_normal((1, 4)), params, cfg).value[0]
        b = condition(rng.standard_normal((1, 4)), params, cfg).value[0]
        np.testing.assert_array_equal(a[0], b[0])

    def test_scalar_reduction_jacobian_strictly_lower(self):
        cfg, params = fresh(4, seed=23)
        rng = np.random.default_rng(8)
        weights = rng.standard_normal(cfg.E)
        x = rng.standard_normal(4)
        step = 1e-5

        def reduced(v):
            return condition(v[None], params, cfg).value[0] @ weights

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
        x = np.array([[0.5, -1.0, 2.0]])
        a = condition(x, params, cfg).value
        b = condition(x, params, cfg).value
        np.testing.assert_array_equal(a, b)

    def test_permutation_sensitivity(self):
        cfg, params = fresh(3, seed=31)
        x = np.array([[0.5, -1.0, 2.0]])
        a = condition(x, params, cfg).value
        b = condition(x[:, ::-1].copy(), params, cfg).value
        assert np.abs(a - b).max() > 1e-6


class TestProjectHead:
    def test_zero_weights_gives_bias(self):
        cfg, params = fresh(3, seed=37)
        with_projection(params, cfg.E, np.random.default_rng(37))
        params["head.w"].value = np.zeros_like(params["head.w"].value)
        params["head.b"].value = np.arange(PSI, dtype=float)
        h = condition(np.zeros((1, 3)), params, cfg)
        psi = project_head(h, params).value[0]
        for row in psi:
            np.testing.assert_array_equal(row, params["head.b"].value)

    def test_identity_head_returns_embeddings(self):
        # shared_cdf consumes the embeddings unprojected: no head.* parameters
        # and one pseudo-parameter per embedding coordinate
        model = build_model(ModelConfig(D=3, head_type="shared_cdf", E=8, heads=2,
                                        layers=1, mlp_hidden=16, H=4), seed=41)
        assert not [n for n in model.params.names() if n.startswith("head")]
        assert model.D * model.head.width == 3 * 8

    def test_cdf_head_psi_dim(self):
        # one hidden layer of width 128 -> 3*128 + 2 pseudo-parameters per token
        cfg = ModelConfig(D=6, head_type="cdf", H=128)
        assert cfg.D * HEADS["cdf"](cfg).width == 6 * 386


def conditioner_count(cfg):
    return init_conditioner_params(cfg, np.random.default_rng(0)).total_count()


class TestParamCount:
    def test_closed_form_matches_actual(self):
        # 3E + DE + layers (4E^2 + 8E + 2Em + m) for each shape
        for (d, e, heads, layers, m), count in [((6, 32, 8, 3, 64), 25_824),
                                                ((3, 8, 2, 1, 16), 640),
                                                ((1, 4, 4, 2, 8), 352)]:
            cfg = ModelConfig(D=d, E=e, heads=heads, layers=layers, mlp_hidden=m)
            assert conditioner_count(cfg) == count, cfg

    def test_reference_config_value(self):
        cfg = ModelConfig(D=6, head_type="cdf")
        # the reference cdf model adds a 32 -> 386 projection to the conditioner
        assert conditioner_count(cfg) + 32 * 386 + 386 == 38_562
        assert build_model(cfg).params.total_count() == 38_562

    def test_slope_in_d_is_e(self):
        for d in (1, 2, 7, 42):
            a = conditioner_count(tiny_config(d))
            b = conditioner_count(tiny_config(d + 1))
            assert b - a == TINY["E"]

    def test_invalid_configs_rejected(self):
        with pytest.raises(DimensionError, match="not divisible"):
            ModelConfig(D=2, E=6, heads=4)
        with pytest.raises(DimensionError, match="D must be"):
            ModelConfig(D=0, E=8, heads=2)


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
            h = condition(v[None], params, cfg)
            return project_head(h, params).value[0] @ weights

        for j in range(4):
            xp, xm = x.copy(), x.copy()
            xp[j] += step
            xm[j] -= step
            col = (reduced(xp) - reduced(xm)) / (2 * step)
            # psi_i (row i-1) may depend on x_j only for j < i
            assert np.abs(col[: j + 1]).max() < 1e-8


class TestKVCache:
    @staticmethod
    def cached_rows(x, params, cfg):
        """Hidden rows from D one-token steps, as invert_rows runs them."""
        cache = KVCache(params, cfg, x.shape[0])
        rows = [cache.step(x[:, i - 1:i]) for i in range(cfg.D)]
        assert cache.length == cfg.D
        return np.stack(rows, axis=1)

    @pytest.mark.parametrize("d", [1, 2, 8, 63])
    def test_steps_match_full_pass(self, d):
        cfg, params = fresh(d, seed=d, layers=2)
        x = np.random.default_rng(d).standard_normal((5, d))
        full = condition(x, params, cfg).value
        assert np.abs(self.cached_rows(x, params, cfg) - full).max() <= 1e-12

    # the lane layouts' extremes: heads=1 (head_dim = E) and heads=E
    # (head_dim = 1); one row of one head is the cache's lone lane
    @pytest.mark.parametrize("heads", [1, 8])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_steps_match_full_pass_at_any_head_dim(self, d, n, heads):
        cfg, params = fresh(d, seed=d, layers=2, heads=heads)
        x = np.random.default_rng(d).standard_normal((n, d))
        full = condition(x, params, cfg).value
        assert np.abs(self.cached_rows(x, params, cfg) - full).max() <= 1e-12

    def test_keys_and_values_are_lane_major(self):
        # [D, head_dim, rows, heads]; a lone lane runs twice
        cfg, params = fresh(3, layers=2)
        x = np.random.default_rng(0).standard_normal((4, 3))
        cache = KVCache(params, cfg, 4)
        cache.step(x[:, :0])
        normed = dc.layer_norm(embed_sequence(x, params, cfg).value[:, :1],
                               params["layer0.ln1.g"].value, params["layer0.ln1.b"].value,
                               conditioner.LAYER_NORM_EPS)[0][:, 0]
        k = dc.rows_matmul(normed, params["layer0.wk"].value)
        assert cache.keys[0].shape == (3, 4, 4, 2)
        np.testing.assert_array_equal(cache.keys[0][0], k.reshape(4, 2, 4).transpose(2, 0, 1))
        assert KVCache(params, tiny_config(3, heads=1), 1).keys[0].shape == (3, 8, 2, 1)

    def test_embed_from_position_matches_full(self):
        cfg, params = fresh(4, seed=5)
        x = np.random.default_rng(5).standard_normal((3, 4))
        w = [params[name].value for name in conditioner.EMBED_PARAMS]
        full = embed_sequence(x, params, cfg).value
        np.testing.assert_array_equal(conditioner._embed(x[:, :0], w, 0)[0], full[:, :1])
        later, vjp = conditioner._embed(x[:, 1:3], w, 2)
        np.testing.assert_array_equal(later, full[:, 2:4])
        assert vjp is None

    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_invert_rows_encodes_one_token_per_layer_step(self, head, monkeypatch):
        model = build_model(ModelConfig(D=5, head_type=head, E=8, heads=2, layers=2,
                                        mlp_hidden=16, H=4, K=4), seed=7)
        y, _ = forward_values(model, np.random.default_rng(0).standard_normal((3, 5)))
        calls = []
        block = conditioner._block

        def counted(x, *args):
            calls.append(x.shape)
            return block(x, *args)

        monkeypatch.setattr(conditioner, "_block", counted)
        invert_rows(model, y)
        assert calls == [(3, 1, model.config.E)] * (model.config.layers * model.D)
