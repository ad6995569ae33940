"""Head contract: every head registered in HEADS gets these checks.

A new head is covered by registering it (and pinning its golden checkpoint
hash and its parameter count below).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from tnaf import diffcore as dc
from tnaf import flow
from tnaf.checkpoint import load_checkpoint, parse_run_config, save_checkpoint
from tnaf.checks import INVERSION_TOL, run_all_checks
from tnaf.cli import main
from tnaf.conditioner import init_conditioner_params, uniform_init
from tnaf.data import DatasetMatrix, Splits, StandardizationStats
from tnaf.flow import (
    HEADS, ModelConfig, build_model, forward_values, invert_rows, log_prob, nll_loss, sample,
)
from tnaf.trainer import TrainConfig, train

# sha256 of the untrained checkpoint of tiny_doc(head) at seed 0, re-pinned
# when the all-zero attention key biases layer*.bk left the manifest, and
# for spline and shared_cdf when the spline's per-block projections
# head{j}.{w,b} became one head.{w,b} and phi.w{1,2}_cond were stored [E, out]
# (every stored value kept its bytes or, for phi.w1_cond, its transpose's).
# Pins parameter names, order and shapes and the order of the build-RNG draws.
GOLDEN_SHA256 = {
    "affine": "eea15fb36962ed084396f0a421ef3ee1c6b73923d21f2710ddbbc5a1bb9a699f",
    "cdf": "ab3928594ee06571fdd714c00e3746c1e0d0ca1051dde8941a761a192a146846",
    "shared_cdf": "58ec072cb12e1508d8659d3d049aec3ca74f9239952003c7289db95a64d74a20",
    "spline": "232965862223ab14f26bebf25b52e450bac8017dc93f2f4749b475840dc7d769",
}


def tiny_doc(head):
    return {"model": {"D": 3, "E": 8, "heads": 2, "layers": 1, "mlp_hidden": 16,
                      "head_type": head, "H": 4, "K": 4},
            "train": {"seed": 0}, "data": {"toy": "gauss_mixture_8", "n": 50}}


def untrained(head, tmp_path):
    """(model, run config, checkpoint path) of the untrained tiny model."""
    rc = parse_run_config(tiny_doc(head))
    model = build_model(rc.model, seed=rc.train.seed)
    path = tmp_path / f"{head}.ckpt"
    save_checkpoint(str(path), model, StandardizationStats(np.zeros(3), np.ones(3)), rc)
    return model, rc, path


@pytest.fixture(params=sorted(HEADS))
def head(request):
    return request.param


# parameter count of the untrained tiny model: the 640-parameter conditioner
# plus the head's.  Pins the layout's size where the golden hash pins its bytes.
PARAM_COUNT = {"affine": 658, "cdf": 766, "shared_cdf": 694, "spline": 844}


def test_param_count_matches_parameters(head, tmp_path):
    model, _, _ = untrained(head, tmp_path)
    assert model.params.total_count() == PARAM_COUNT[head]


def test_psi_count_behind_count_with_psi(head, tmp_path, capsys):
    model, _, path = untrained(head, tmp_path)
    # projected heads emit the width of their one head.b bias per position;
    # unprojected ones read the E-wide embedding itself
    width = model.params["head.b"].value.size if "head.b" in model.params.names() else 0
    assert model.D * model.head.width == model.D * (width or model.config.E)
    assert main(["inspect", "-m", str(path), "--count-with-psi"]) == 0
    printed = capsys.readouterr().out.split("param_count=")[1].split()[0]
    assert int(printed) == PARAM_COUNT[head] + model.D * model.head.width


# the hyperparameter line `tnaf inspect` prints for the tiny model, from each
# head's `keys` (affine reads none and prints no line)
HYPER_LINE = {"affine": [], "cdf": ["H=4"], "shared_cdf": ["H=4"],
              "spline": ["K=4 B=3.0 blocks=2"]}


def test_keys_are_model_config_fields(head):
    # `tnaf inspect` reads each key off the ModelConfig with getattr
    fields = {field.name for field in dataclasses.fields(ModelConfig)}
    assert set(HEADS[head].keys) <= fields


def test_inspect_prints_the_head_hyperparameters(head, tmp_path, capsys):
    _, _, path = untrained(head, tmp_path)
    assert main(["inspect", "-m", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:-2] == HYPER_LINE[head]


def test_base_kind(head, tmp_path):
    # every head pairs with the standard-normal base: it scores y by the
    # normal log-density and samples by inverting normal draws
    model, _, _ = untrained(head, tmp_path)
    res = log_prob(model, np.random.default_rng(1).standard_normal((16, 3)))
    normal = -0.5 * (res.y * res.y).sum(axis=1) - 1.5 * np.log(2 * np.pi)
    np.testing.assert_allclose(res.logp, normal + res.logdet, rtol=1e-12)
    y, _ = forward_values(model, sample(model, 16, seed=4))
    noise = np.random.default_rng(4).standard_normal((16, 3))
    assert np.abs(y - noise).max() < INVERSION_TOL


def test_oracles_pass_at_d1(head):
    # a 1x1 Jacobian has no upper triangle: triangularity reads 0 through
    # the same np.triu as every other width
    model = build_model(ModelConfig(D=1, head_type=head, E=8, heads=2, layers=1,
                                    mlp_hidden=16, H=4, K=4))
    results = run_all_checks(model)
    assert all(result.passed for result in results), results
    assert results[0].detail == "max upper magnitude 0.00e+00"


def test_log_prob_finite(head, tmp_path):
    model, _, _ = untrained(head, tmp_path)
    logp = log_prob(model, np.random.default_rng(2).standard_normal((16, 3))).logp
    assert np.isfinite(logp).all()


def test_invert_rows_round_trip(head, tmp_path):
    model, _, _ = untrained(head, tmp_path)
    x = np.random.default_rng(3).standard_normal((16, 3))
    y, _ = forward_values(model, x)
    assert np.abs(invert_rows(model, y) - x).max() < INVERSION_TOL


def test_save_load_save_byte_identical(head, tmp_path):
    _, _, path = untrained(head, tmp_path)
    loaded, stats, rc = load_checkpoint(str(path))
    again = tmp_path / "again.ckpt"
    save_checkpoint(str(again), loaded, stats, rc)
    assert again.read_bytes() == path.read_bytes()


def test_untrained_checkpoint_matches_golden_hash(head, tmp_path):
    _, _, path = untrained(head, tmp_path)
    assert head in GOLDEN_SHA256, f"pin the untrained checkpoint hash of head {head!r}"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[head]


def counting_project_head(monkeypatch):
    """Wrap flow.project_head, as a tracer does; returns the call log."""
    calls = []
    inner = flow.project_head

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(flow, "project_head", counted)
    return calls


def test_spline_projects_once_per_loss(tmp_path, monkeypatch):
    # one projection emits every block's psi; one per block would be J calls
    model, _, _ = untrained("spline", tmp_path)
    assert model.config.blocks == 2
    calls = counting_project_head(monkeypatch)
    nll_loss(model, np.random.default_rng(0).standard_normal((4, 3)))
    assert len(calls) == 1


def test_spline_projects_once_per_inverted_dimension(tmp_path, monkeypatch):
    # each cached step runs the value-only projection once, for every block
    model, _, _ = untrained("spline", tmp_path)
    widths = []
    step_psi = model.head.step_psi

    def counted(params):
        project = step_psi(params)

        def run(hidden):
            psi = project(hidden)
            widths.append(psi.shape[-1])
            return psi
        return run

    monkeypatch.setattr(model.head, "step_psi", counted)
    invert_rows(model, np.random.default_rng(0).standard_normal((4, 3)))
    assert widths == [model.head.width] * model.D


def replay_head_draws(cfg, seed=0):
    """The build RNG as the head's init finds it, past the conditioner's draws
    (untrained() builds at seed 0)."""
    rng = np.random.default_rng(seed)
    init_conditioner_params(cfg, rng)
    return rng


def test_spline_projection_keeps_the_per_block_draws(tmp_path):
    model, _, _ = untrained("spline", tmp_path)
    cfg = model.config
    rng = replay_head_draws(cfg)
    blocks = [uniform_init(rng, cfg.E, (cfg.E, 3 * cfg.K - 1))
              for _ in range(cfg.blocks)]
    joined = np.concatenate(blocks, axis=1)
    assert model.params["head.w"].value.tobytes() == joined.tobytes()


def test_shared_cdf_conditioning_weights_are_the_old_draws_transposed(tmp_path):
    model, _, _ = untrained("shared_cdf", tmp_path)
    cfg = model.config
    rng = replay_head_draws(cfg)
    w1 = uniform_init(rng, cfg.E, (cfg.H, cfg.E))
    w2 = uniform_init(rng, cfg.E, (1, cfg.E))
    for name, old in (("phi.w1_cond", w1), ("phi.w2_cond", w2)):
        value = model.params[name].value
        assert value.shape == (cfg.E, old.shape[0]) and value.flags.c_contiguous
        assert value.tobytes() == np.ascontiguousarray(old.T).tobytes()


class ShiftHead(flow.Head):
    """y = x + psi with log-det 0: a head that states only its psi width and
    its two transforms, and takes everything else from the base."""

    width = 1

    def forward(self, x, psi, params):
        return dc.add(x, dc.reshape(psi, x.value.shape)), dc.constant(np.zeros_like(x.value))

    def inverse(self, psi, target, i, state):
        return target - psi[:, 0]


def test_a_head_of_width_forward_and_inverse_is_complete(tmp_path, monkeypatch):
    monkeypatch.setitem(HEADS, "shift", ShiftHead)
    model, _, path = untrained("shift", tmp_path)
    assert model.params.names()[-2:] == ["head.w", "head.b"]
    assert model.D * model.head.width == 3
    rows = np.random.default_rng(5).standard_normal((24, 3))
    splits = Splits(*(DatasetMatrix(rows[k::3]) for k in range(3)))
    train(model, splits, TrainConfig(batch_size=8, max_steps=1, eval_every=1))
    assert np.isfinite(log_prob(model, rows).logp).all()
    y, _ = forward_values(model, rows)
    assert np.abs(invert_rows(model, y) - rows).max() < INVERSION_TOL
    assert all(result.passed for result in run_all_checks(model)), run_all_checks(model)
    loaded, stats, rc = load_checkpoint(str(path))
    again = tmp_path / "again.ckpt"
    save_checkpoint(str(again), loaded, stats, rc)
    assert again.read_bytes() == path.read_bytes()
