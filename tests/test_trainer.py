"""Optimizer, clipping, and the training loop contract."""

import tracemalloc

import numpy as np
import pytest

from tnaf import diffcore as dc
from tnaf import trainer
from tnaf.data import DatasetMatrix, Splits, batches, make_splits, standardize
from tnaf.diffcore import ParamSet
from tnaf.flow import HEADS, ModelConfig, build_model, log_prob, nll_loss
from tnaf.trainer import (
    Adam,
    TrainConfig,
    TrainingFault,
    clip_gradients,
    evaluate,
    float32_gradients,
    train,
)


def loss_of(params):
    # simple quadratic bowl sum((p - 3)^2)
    total = None
    for _, p in params.items():
        term = dc.sum_(dc.mul(dc.add(p, -3.0), dc.add(p, -3.0)))
        total = term if total is None else dc.add(total, term)
    return total


class TestClip:
    def test_below_threshold_unchanged(self):
        params = ParamSet()
        p = params.add("p", np.zeros(2))
        p.grad = np.array([0.6, 0.8])  # norm 1
        norm = clip_gradients(params, 5.0)
        assert abs(norm - 1.0) < 1e-12
        np.testing.assert_array_equal(p.grad, [0.6, 0.8])

    def test_three_four_five(self):
        params = ParamSet()
        p = params.add("p", np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        norm = clip_gradients(params, 1.0)
        assert abs(norm - 5.0) < 1e-12
        np.testing.assert_allclose(p.grad, [0.6, 0.8], rtol=1e-12)

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            params = ParamSet()
            a = params.add("a", np.zeros(3))
            b = params.add("b", np.zeros((2, 2)))
            a.grad = 10 * rng.standard_normal(3)
            b.grad = 10 * rng.standard_normal((2, 2))
            clip_gradients(params, 2.5)
            total = float((a.grad ** 2).sum() + (b.grad ** 2).sum())
            assert np.sqrt(total) <= 2.5 + 1e-9

    def test_nan_raises_training_fault(self):
        params = ParamSet()
        p = params.add("p", np.zeros(2))
        p.grad = np.array([np.nan, 1.0])
        with pytest.raises(TrainingFault) as err:
            clip_gradients(params, 1.0, step=17)
        assert err.value.step == 17


class TestAdam:
    def test_zero_gradient_no_move(self):
        params = ParamSet()
        p = params.add("p", np.array([1.0, -2.0]))
        opt = Adam(params)
        opt.step(1e-2)
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_descent_direction(self):
        params = ParamSet()
        p = params.add("p", np.array([10.0]))
        opt = Adam(params)
        loss = dc.sum_(dc.mul(p, p))
        dc.backward(loss)
        opt.step(1e-1)
        assert abs(p.value[0]) < 10.0

    def test_gradients_zeroed_after_step(self):
        params = ParamSet()
        p = params.add("p", np.array([1.0]))
        dc.backward(dc.sum_(dc.mul(p, p)))
        Adam(params).step(1e-3)
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_quadratic_bowl_converges(self):
        params = ParamSet()
        p = params.add("p", np.array([8.0, 0.5]))
        opt = Adam(params)
        first_hit = None
        for step in range(1, 2001):
            dc.backward(loss_of(params))
            opt.step(1e-2)
            if first_hit is None and np.abs(p.value - 3.0).max() < 1e-3:
                first_hit = step
        assert first_hit is not None and first_hit <= 2000


def normal_splits(n=4000, d=1, seed=0):
    rng = np.random.default_rng(seed)
    matrix = DatasetMatrix(rng.standard_normal((n, d)))
    splits = make_splits(matrix, (0.8, 0.1, 0.1), seed=seed)
    splits, _ = standardize(splits)
    return splits


class TestTrain:
    def test_affine_learns_standard_normal(self):
        splits = normal_splits()
        model = build_model(
            ModelConfig(D=1, head_type="affine", E=8, heads=2, layers=1,
                        mlp_hidden=16), seed=1)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=128, max_steps=3000,
                          eval_every=250, patience=50, seed=1)
        train(model, splits, cfg)
        res = log_prob(model, splits.train.data[:1])
        # recover the learned affine pseudo-parameters from the transform
        y0 = log_prob(model, np.zeros(1)).y[0]           # mu
        y1 = log_prob(model, np.ones(1)).y[0] - y0       # sigma
        assert abs(y0) < 0.05
        assert abs(y1 - 1.0) < 0.05

    def test_max_steps_zero_is_noop(self):
        splits = normal_splits(n=400)
        model = build_model(ModelConfig(D=1, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=2)
        before = model.params.snapshot()
        report = train(model, splits, TrainConfig(max_steps=0))
        assert report.history == []
        assert report.best_step is None and report.best_val_nll is None
        for name, value in before.items():
            np.testing.assert_array_equal(model.params[name].value, value)

    def test_deterministic_trajectory(self):
        splits = normal_splits(n=600)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_steps=120,
                          eval_every=40, patience=10, seed=5)
        reports = []
        finals = []
        for _ in range(2):
            model = build_model(ModelConfig(D=1, head_type="affine", E=8,
                                            heads=2, layers=1, mlp_hidden=16),
                                seed=5)
            reports.append(train(model, splits, cfg))
            finals.append(model.params.snapshot())
        assert reports[0].history == reports[1].history
        assert reports[0].best_step == reports[1].best_step
        assert reports[0].best_val_nll == reports[1].best_val_nll
        for name in finals[0]:
            np.testing.assert_array_equal(finals[0][name], finals[1][name])

    def test_batches_run_epoch_after_epoch(self, monkeypatch):
        # 40 training rows in batches of 16: 16, 16, 8 per epoch, each epoch
        # reshuffled by its own `batches` call
        splits = normal_splits(n=50)
        seen, epochs = [], []

        def recorded(matrix, batch_size, seed, epoch):
            epochs.append(epoch)
            return batches(matrix, batch_size, seed, epoch)

        monkeypatch.setattr(trainer, "batches", recorded)
        monkeypatch.setattr(trainer, "float32_gradients",
                            lambda model, batch, step: seen.append(batch) or 0.0)
        model = build_model(ModelConfig(D=1, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=3)
        train(model, splits, TrainConfig(batch_size=16, max_steps=7, eval_every=7, seed=4))
        assert epochs == [0, 1, 2]
        expected = [b for e in range(3) for b in batches(splits.train, 16, 4, e)][:7]
        assert [b.tobytes() for b in seen] == [b.tobytes() for b in expected]

    def test_empty_train_split_refused(self):
        # the batch stream would never yield a batch
        splits = normal_splits(n=50)
        empty = Splits(DatasetMatrix(np.zeros((0, 1))), splits.val, splits.test)
        model = build_model(ModelConfig(D=1, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=3)
        with pytest.raises(ValueError, match="empty"):
            train(model, empty, TrainConfig(max_steps=1))

    def test_best_snapshot_restored(self):
        splits = normal_splits(n=800)
        model = build_model(ModelConfig(D=1, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=7)
        cfg = TrainConfig(learning_rate=5e-3, batch_size=64, max_steps=400,
                          eval_every=50, patience=100, seed=7)
        report = train(model, splits, cfg)
        val_ll, _ = evaluate(model, splits.val)
        assert abs(-val_ll - report.best_val_nll) < 1e-12
        assert report.best_val_nll == min(h[2] for h in report.history)

    def test_metric_log_format(self):
        splits = normal_splits(n=500)
        model = build_model(ModelConfig(D=1, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=9)
        lines = []
        cfg = TrainConfig(batch_size=64, max_steps=80, eval_every=40,
                          patience=10, seed=9)
        train(model, splits, cfg, log_fn=lines.append)
        assert len(lines) == 2
        for line in lines:
            fields = dict(part.split("=") for part in line.split())
            assert set(fields) == {"step", "train_nll", "val_nll"}
            int(fields["step"])
            float(fields["train_nll"])
            float(fields["val_nll"])

    def test_training_fault_restores_snapshot(self):
        splits = normal_splits(n=500)
        model = build_model(ModelConfig(D=1, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=11)
        # poison the start token so the first loss is non-finite
        model.params["bos"].value[:] = np.inf
        before = model.params.snapshot()
        cfg = TrainConfig(batch_size=32, max_steps=10, eval_every=5, seed=11)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingFault) as err:
                train(model, splits, cfg)
        assert err.value.step == 1
        for name, value in before.items():
            np.testing.assert_array_equal(model.params[name].value, value)


class TestFloat32Step:
    """The float32 graph each training step runs, against the float64 graph."""

    @pytest.mark.parametrize("head", sorted(HEADS))
    @pytest.mark.parametrize("d", [2, 8, 63])
    def test_loss_and_gradients_match_float64(self, head, d):
        model = build_model(ModelConfig(D=d, head_type=head), seed=d)
        batch = np.random.default_rng(d).standard_normal((32, d))
        loss32 = float32_gradients(model, batch)
        grads32 = {name: p.grad for name, p in model.params.items()}
        model.params.zero_grad()
        loss64 = nll_loss(model, batch)
        dc.backward(loss64)
        # one bound against the global max |g|: a gradient that is small next
        # to the others carries relatively more float32 rounding (the D=2
        # spline's mix0 gradient is 3e-4 of the max and differs from float64
        # by 6e-4 of its own size), so every gradient is held to that scale
        scale = max(np.abs(p.grad).max() for _, p in model.params.items())
        assert abs(loss32 - float(loss64.value)) < 1e-5 * abs(float(loss64.value))
        for name, p in model.params.items():
            assert grads32[name].dtype == np.float64
            assert np.abs(grads32[name] - p.grad).max() < 1e-4 * scale, name

    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_every_node_and_gradient_is_float32(self, head, monkeypatch):
        # D=63 passes every promotion trap: the spline's mix matrices, several
        # softmax row tiles, each head's own buffers
        model = build_model(ModelConfig(D=63, head_type=head), seed=1)
        batch = np.random.default_rng(1).standard_normal((8, 63))
        dtypes = set()
        init, accumulate = dc.Node.__init__, dc.Node.accumulate_grad

        def recording_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            dtypes.add(("node", node.value.dtype))

        def recording_accumulate(node, g):
            dtypes.add(("grad", g.dtype))
            accumulate(node, g)

        monkeypatch.setattr(dc.Node, "__init__", recording_init)
        monkeypatch.setattr(dc.Node, "accumulate_grad", recording_accumulate)
        float32_gradients(model, batch)
        assert dtypes == {("node", np.dtype(np.float32)), ("grad", np.dtype(np.float32))}


class TestEvaluate:
    def test_identity_flow_on_normal_data(self):
        model = build_model(ModelConfig(D=1, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=13)
        model.params["head.w"].value[:] = 0.0
        model.params["head.b"].value[:] = 0.0
        rng = np.random.default_rng(14)
        rows = DatasetMatrix(rng.standard_normal((100_000, 1)))
        mean_ll, std_err = evaluate(model, rows)
        expected = -0.5 * (1.0 + np.log(2 * np.pi))
        assert abs(mean_ll - expected) < 3 * std_err

    def test_single_row_std_err_zero(self):
        model = build_model(ModelConfig(D=2, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=15)
        _, std_err = evaluate(model, DatasetMatrix(np.zeros((1, 2))))
        assert std_err == 0.0

    def test_duplicated_dataset_same_mean(self):
        model = build_model(ModelConfig(D=2, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=17)
        rows = np.random.default_rng(18).standard_normal((50, 2))
        a, _ = evaluate(model, DatasetMatrix(rows))
        b, _ = evaluate(model, DatasetMatrix(np.vstack([rows, rows])))
        assert abs(a - b) < 1e-12

    def test_blocks_equal_one_call(self, monkeypatch):
        # 515 rows score in blocks of 256, 256 and 3; each row's logp is the
        # same bits in a block as in one call of all of them
        model = build_model(ModelConfig(D=8, head_type="cdf"), seed=0)
        x = np.random.default_rng(2).standard_normal((515, 8))
        whole = log_prob(model, x).logp
        blocks = []
        monkeypatch.setattr(trainer, "log_prob",
                            lambda m, rows: blocks.append(log_prob(m, rows)) or blocks[-1])
        mean_ll, std_err = evaluate(model, DatasetMatrix(x))
        assert [len(b.logp) for b in blocks] == [256, 256, 3]
        np.testing.assert_array_equal(np.concatenate([b.logp for b in blocks]), whole)
        assert mean_ll == float(whole.mean())
        assert std_err == float(whole.std(ddof=1) / np.sqrt(whole.size))

    def test_peak_memory_is_one_row_block(self):
        # evaluate's log_prob calls take ROW_BLOCK rows each, so 1024 rows
        # peak about as high as one 256-row call, not four times as high
        model = build_model(ModelConfig(D=63, head_type="spline"), seed=0)
        x = np.random.default_rng(0).standard_normal((1024, 63))
        peaks = []
        for call in (lambda: log_prob(model, x[:256]), lambda: evaluate(model, DatasetMatrix(x))):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], [peak / 2**20 for peak in peaks]


class TestCheckedModeParams:
    def test_step_keeps_parameters_finite_under_checked_mode(self):
        splits = normal_splits(n=400)
        model = build_model(ModelConfig(D=1, head_type="affine", E=8, heads=2,
                                        layers=1, mlp_hidden=16), seed=19)
        cfg = TrainConfig(batch_size=64, max_steps=40, eval_every=20,
                          patience=5, seed=19)
        train(model, splits, cfg)
        for _, p in model.params.items():
            assert np.isfinite(p.value).all()


def test_evaluate_refuses_an_empty_matrix():
    model = build_model(ModelConfig(D=2, head_type="affine", E=8, heads=2, layers=1,
                                    mlp_hidden=16), seed=19)
    with pytest.raises(ValueError, match="empty matrix"):
        evaluate(model, DatasetMatrix(np.zeros((0, 2))))
