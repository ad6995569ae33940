"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line.  Criteria 5 and 6
share one training run (session fixture); everything else is fast.
"""

import json
import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from tnaf import diffcore as dc
from tnaf.cli import main as cli_main
from tnaf.data import (
    DatasetMatrix,
    gauss_mixture_8_nll_oracle,
    make_splits,
    standardize,
    toy_generate,
)
from tnaf.checks import fd_gradient, numerical_jacobian
from tnaf.flow import (
    ModelConfig,
    build_model,
    forward_values,
    log_prob,
    nll_loss,
    sample,
)
from tnaf.trainer import TrainConfig, evaluate, train
from tnaf.transforms import (
    _spline_parts,
    affine_forward_node,
    affine_inverse_np,
    cdf_inv_batch,
    spline_forward_node,
    spline_inverse_np,
)

ALL_HEADS = ("affine", "cdf", "shared_cdf", "spline")


def _trapezoid2(grid_values, h):
    """Composite 2-D trapezoid rule on an evenly spaced square grid."""
    w = np.ones(grid_values.shape[0])
    w[0] = w[-1] = 0.5
    return float(w @ grid_values @ w * h * h)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def small_model(d, head, seed):
    return build_model(
        ModelConfig(D=d, head_type=head, E=16, heads=4, layers=2, mlp_hidden=32,
                    H=8, K=4, blocks=2),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# 1. triangularity
# ---------------------------------------------------------------------------


def test_criterion_1_triangularity():
    with criterion("1 triangularity"):
        d = 8
        for head in ALL_HEADS:
            for seed in range(20):
                model = small_model(d, head, seed)
                x = np.random.default_rng(1000 + seed).standard_normal(d)
                jac = numerical_jacobian(model, x)
                assert np.abs(np.triu(jac, 1)).max() < 1e-8, (head, seed)
                assert (np.diag(jac) > 0).all(), (head, seed)


# ---------------------------------------------------------------------------
# 2. log-det vs brute-force Jacobian determinant
# ---------------------------------------------------------------------------


def test_criterion_2_logdet_oracle():
    with criterion("2 logdet"):
        for d in (2, 6):
            for head in ALL_HEADS:
                for seed in range(20):
                    model = small_model(d, head, seed)
                    x = np.random.default_rng(2000 + seed).standard_normal(d)
                    _, ld = forward_values(model, x[None, :])
                    claimed = float(ld.sum())
                    sign, logdet = np.linalg.slogdet(numerical_jacobian(model, x))
                    assert sign > 0
                    rel = abs(claimed - logdet) / max(abs(logdet), 1e-12)
                    assert rel < 1e-6, (head, d, seed, rel)


# ---------------------------------------------------------------------------
# 3. full-parameter gradient check on a tiny model
# ---------------------------------------------------------------------------


def test_criterion_3_gradient_oracle():
    with criterion("3 gradient"):
        for seed in range(5):
            model = build_model(
                ModelConfig(D=3, head_type="cdf", E=8, heads=2, layers=1,
                            mlp_hidden=16, H=4),
                seed=seed,
            )
            batch = np.random.default_rng(3000 + seed).standard_normal((6, 3))
            model.params.zero_grad()
            dc.backward(nll_loss(model, batch))

            def f(params):
                with dc.no_grad():
                    return float(nll_loss(model, batch).value)

            fd = fd_gradient(f, model.params)
            scale = max(np.abs(g).max() for g in fd.values())
            worst = max(
                np.abs(p.grad - fd[name]).max()
                for name, p in model.params.items()
            )
            assert worst / scale < 1e-4, (seed, worst / scale)


# ---------------------------------------------------------------------------
# 4. per-transform inversion round trips
# ---------------------------------------------------------------------------


def test_criterion_4_inversion_roundtrip():
    with criterion("4 inversion"):
        rng = np.random.default_rng(40)
        n = 1000

        # affine: closed form, vectorized over 1000 (x, psi) pairs
        draws = np.array([(rng.standard_normal(), 0.7 * rng.standard_normal(),
                           3 * rng.standard_normal()) for _ in range(n)])
        psi, x = draws[:, :2], draws[:, 2]
        with dc.no_grad():
            y, _ = affine_forward_node(dc.constant(x), dc.constant(psi))
        worst = np.abs(affine_inverse_np(y.value, psi) - x).max()
        assert worst < 1e-9, worst

        # spline: quadratic inverse, vectorized over 1000 (x, psi) pairs
        k = 8
        raw_w = rng.standard_normal((n, k))
        raw_h = rng.standard_normal((n, k))
        raw_d = rng.standard_normal((n, k - 1))
        x = rng.uniform(-3.5, 3.5, size=n)
        psi = np.concatenate([raw_w, raw_h, raw_d], axis=1)
        with dc.no_grad():
            y, _ = spline_forward_node(dc.constant(x), dc.constant(psi), 3.0)
        xr = spline_inverse_np(y.value, _spline_parts(psi, 3.0)[0], 3.0)
        assert np.abs(xr - x).max() < 1e-9, np.abs(xr - x).max()

        # cdf: safeguarded Newton to NEWTON_TOL over 1000 (x, psi) pairs
        h = 16
        w1 = 0.5 * rng.standard_normal((n, h))
        b1 = 0.5 * rng.standard_normal((n, h))
        w2 = 0.5 * rng.standard_normal((n, h)) - np.log(h)
        b2 = 0.5 * rng.standard_normal(n)
        c = 0.5 * rng.standard_normal(n)
        x = 2.0 * rng.standard_normal(n)
        a = np.exp(w1) * x[:, None] + b1
        y = b2 + np.exp(c) * x + (np.tanh(a) * np.exp(w2)).sum(-1)
        psi = np.concatenate([w1, b1, w2, b2[:, None], c[:, None]], axis=1)
        xr = cdf_inv_batch(y, psi)
        assert np.abs(xr - x).max() < 1e-9, np.abs(xr - x).max()


# ---------------------------------------------------------------------------
# 5 + 6. trained-model quality (shared training run)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def mixture_run():
    matrix = toy_generate("gauss_mixture_8", 25_000, seed=11)
    splits = make_splits(matrix, (0.8, 0.1, 0.1), seed=11)
    splits, stats = standardize(splits)
    assert splits.train.n_rows == 20_000
    model = build_model(ModelConfig(D=2, head_type="cdf"), seed=3)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=256, max_steps=4500,
                      eval_every=250, patience=8, seed=3)
    report = train(model, splits, cfg)
    return model, splits, stats, report


def test_criterion_5_normalization(mixture_run):
    with criterion("5 normalization"):
        model, _, _, _ = mixture_run
        grid = np.linspace(-6.0, 6.0, 400)
        h = grid[1] - grid[0]
        xx, yy = np.meshgrid(grid, grid)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        dens = np.zeros(len(pts))
        for s in range(0, len(pts), 8192):
            dens[s:s + 8192] = np.exp(log_prob(model, pts[s:s + 8192]).logp)
        total = _trapezoid2(dens.reshape(400, 400), h)
        assert 0.98 <= total <= 1.02, total


def test_criterion_6_density_fit(mixture_run):
    with criterion("6 density fit"):
        model, splits, stats, _ = mixture_run
        test_ll, _ = evaluate(model, splits.test)
        model_nll = -test_ll

        # single-Gaussian maximum-likelihood baseline, same standardized space
        tr = splits.train.data
        mu = tr.mean(axis=0)
        cov = np.cov(tr.T, bias=True)
        inv = np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        centered = splits.test.data - mu
        quad = (centered @ inv * centered).sum(axis=1)
        baseline_nll = 0.5 * (quad.mean() + logdet + 2.0 * np.log(2.0 * np.pi))

        # Monte-Carlo oracle under the true density, moved to the same space
        oracle = gauss_mixture_8_nll_oracle(1_000_000, seed=123)
        oracle_std = oracle - float(np.log(stats.std).sum())

        assert baseline_nll - model_nll >= 1.0, (baseline_nll, model_nll)
        assert abs(model_nll - oracle_std) <= 0.3, (model_nll, oracle_std)


def test_trained_model_sampling_radius(mixture_run, tmp_path):
    """Samples from the trained mixture model stay within the data's support
    (>= 99% of 10k draws inside radius 6, raw space)."""
    from tnaf.checkpoint import parse_run_config, save_checkpoint
    from tnaf.data import load_matrix

    model, _, stats, _ = mixture_run
    rc = parse_run_config({
        "model": {"D": 2, "head_type": "cdf"},
        "data": {"toy": "gauss_mixture_8", "n": 25_000, "seed": 11},
    })
    ckpt = tmp_path / "mix.ckpt"
    save_checkpoint(str(ckpt), model, stats, rc)
    out = tmp_path / "samples.csv"
    assert cli_main(["sample", "-m", str(ckpt), "-n", "10000", "--seed", "2",
                     "-o", str(out)]) == 0
    rows = load_matrix(str(out), "csv").data
    assert rows.shape == (10_000, 2)
    radius = np.linalg.norm(rows, axis=1)
    assert (radius <= 6.0).mean() >= 0.99


def _d1_mass(model, half_width=40.0, n=80_001):
    """Trapezoid mass of a D=1 model over [-half_width, half_width].  The
    ends must map beyond +-10, so the normal tails left out hold < 1e-22."""
    x = np.linspace(-half_width, half_width, n)[:, None]
    ends, _ = forward_values(model, x[[0, -1]])
    assert ends[0, 0] < -10.0 and ends[1, 0] > 10.0, ends
    dens = np.concatenate([np.exp(log_prob(model, x[s:s + 8192]).logp)
                           for s in range(0, n, 8192)])
    return float((dens.sum() - 0.5 * (dens[0] + dens[-1])) * (x[1, 0] - x[0, 0]))


@pytest.mark.parametrize("head", ("cdf", "shared_cdf"))
def test_cdf_heads_integrate_to_one_at_d1(head):
    model = build_model(ModelConfig(D=1, head_type=head), seed=0)
    assert abs(_d1_mass(model) - 1.0) < 1e-6
    fresh = {name: p.value.copy() for name, p in model.params.items()}
    matrix = DatasetMatrix(toy_generate("gauss_mixture_8", 2000, seed=5).data[:, :1])
    splits, _ = standardize(make_splits(matrix, seed=5))
    train(model, splits, TrainConfig(batch_size=128, max_steps=60, eval_every=30, seed=5))
    assert any((p.value != fresh[name]).any() for name, p in model.params.items())
    assert abs(_d1_mass(model) - 1.0) < 1e-6


@pytest.mark.parametrize("head", ("cdf", "shared_cdf"))
@pytest.mark.parametrize("d", (2, 8, 32, 63))
def test_fresh_cdf_models_sample(head, d):
    # the CLI's default architecture: every normal draw has a preimage
    rows = sample(build_model(ModelConfig(D=d, head_type=head), seed=0), 256, seed=1)
    assert rows.shape == (256, d)
    assert np.isfinite(rows).all()


# ---------------------------------------------------------------------------
# 7. parameter-count closed form and linear-in-D scaling
# ---------------------------------------------------------------------------


def test_criterion_7_parameter_efficiency():
    with criterion("7 parameter count"):
        grid = [
            (ModelConfig(D=6, head_type="cdf"), 38_562),
            (ModelConfig(D=43, head_type="cdf"), 39_746),
            (ModelConfig(D=4, head_type="affine", E=16, heads=4), 9_938),
            (ModelConfig(D=5, head_type="shared_cdf", E=16, heads=4, H=32), 10_546),
            (ModelConfig(D=7, head_type="spline", E=16, heads=4, K=8, blocks=2), 10_776),
            (ModelConfig(D=1, head_type="spline", E=8, heads=2, blocks=3), 4_877),
        ]
        for cfg, count in grid:
            assert build_model(cfg, seed=0).params.total_count() == count, cfg

        # default configuration grows linearly in D with slope E = 32
        def count(d):
            return build_model(ModelConfig(D=d, head_type="cdf")).params.total_count()

        for d in (2, 6, 21, 43, 63):
            assert count(d + 1) - count(d) == 32, d
        assert count(43) < 10 ** 5


@pytest.mark.skipif(
    not os.environ.get("TNAF_STRETCH_DATA"),
    reason="non-blocking stretch check; set TNAF_STRETCH_DATA=<path.csv> to run",
)
def test_criterion_7_stretch_power_subset(tmp_path):
    """Train the default 3-layer model on a 50k-row 6-column subset."""
    with criterion("7s stretch"):
        matrix_path = os.environ["TNAF_STRETCH_DATA"]
        doc = {
            "model": {"D": 6, "head_type": "cdf"},
            "train": {"max_steps": 20_000, "eval_every": 500, "patience": 10,
                      "seed": 0},
            "data": {"path": matrix_path, "format": "csv", "seed": 0},
        }
        cfg = tmp_path / "stretch.json"
        cfg.write_text(json.dumps(doc))
        ckpt = tmp_path / "stretch.ckpt"
        assert cli_main(["train", "-c", str(cfg), "-o", str(ckpt)]) == 0


# ---------------------------------------------------------------------------
# 8. end-to-end determinism of the train command
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    with criterion("8 determinism"):
        doc = {
            "model": {"D": 2, "E": 8, "heads": 2, "layers": 1, "mlp_hidden": 16,
                      "head_type": "cdf", "H": 4},
            "train": {"batch_size": 64, "max_steps": 60, "eval_every": 20,
                      "patience": 5, "seed": 7},
            "data": {"toy": "gauss_mixture_8", "n": 600, "seed": 7},
        }
        cfg = tmp_path / "det.json"
        cfg.write_text(json.dumps(doc))
        outputs = []
        for name in ("a.ckpt", "b.ckpt"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "tnaf.cli", "train", "-c", str(cfg),
                 "-o", str(out)],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# 9. head-type x depth ablation harness
# ---------------------------------------------------------------------------


def test_criterion_9_ablation_harness(tmp_path, capsys):
    with criterion("9 ablation"):
        base = {
            "model": {"D": 2, "E": 16, "heads": 4, "mlp_hidden": 16, "H": 8,
                      "K": 4},
            "train": {"batch_size": 64, "max_steps": 30, "eval_every": 15,
                      "patience": 5, "seed": 5},
            "data": {"toy": "two_moons", "n": 500, "seed": 5},
        }
        matrix = {"base": base,
                  "grid": {"head_type": ["cdf", "shared_cdf", "spline"],
                           "layers": [3, 5]}}
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(matrix))
        table_path = tmp_path / "table.tsv"
        assert cli_main(["ablate", "-c", str(cfg), "-o", str(table_path)]) == 0
        capsys.readouterr()
        lines = table_path.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["head_type", "layers", "test_ll",
                                        "std_err", "param_count"]
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 6
        combos = {(r[0], int(r[1])) for r in rows}
        assert combos == {(h, l) for h in ("cdf", "shared_cdf", "spline")
                          for l in (3, 5)}
        for r in rows:
            float(r[2])
            float(r[3])
            assert int(r[4]) > 0
