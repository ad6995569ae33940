"""Head contract: every head registered in HEADS gets these checks.

A new head is covered by registering it (and pinning its golden checkpoint
hash below).
"""

import hashlib

import numpy as np
import pytest

from tnaf.checkpoint import load_checkpoint, parse_run_config, save_checkpoint
from tnaf.cli import main
from tnaf.data import StandardizationStats
from tnaf.flow import HEADS, build_model, forward_values, invert_rows, log_prob, total_param_count

# sha256 of the untrained checkpoint of tiny_doc(head) at seed 0, as written
# before heads were registry objects.  Pins parameter names, order and shapes
# and the order of the build-RNG draws.
GOLDEN_SHA256 = {
    "affine": "654c9f6ebaede7154554ddc5fc7df40d8e69acc8c2dac268bb887dabeb2e915c",
    "cdf": "ee0a59aad140afe863551d1f3b1859e8f71b100327242c9eb51362a3fb0de4f7",
    "shared_cdf": "f866b0bf7e8aba8c46bd2a3f6a4d7af9d729629b683138c3c2364bbac0eb6b3c",
    "spline": "9284fffe191f1a0f564726e68e6de5923b4f6a9d1fa0651cba5f9a94bfb068c5",
}
BASE_KINDS = ("standard_normal", "unit_uniform")


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


def test_param_count_matches_parameters(head, tmp_path):
    model, _, _ = untrained(head, tmp_path)
    assert total_param_count(model.config) == model.params.total_count()


def test_psi_count_behind_count_with_psi(head, tmp_path, capsys):
    model, _, path = untrained(head, tmp_path)
    # projected heads emit the widths of their head*.b biases per position;
    # unprojected ones read the E-wide embedding itself
    widths = sum(p.value.size for name, p in model.params.items()
                 if name.startswith("head") and name.endswith(".b"))
    assert model.head.psi_count() == model.D * (widths or model.config.E)
    assert main(["inspect", "-m", str(path), "--count-with-psi"]) == 0
    printed = capsys.readouterr().out.split("param_count=")[1].split()[0]
    assert int(printed) == total_param_count(model.config) + model.head.psi_count()


def test_base_kind(head, tmp_path):
    model, _, _ = untrained(head, tmp_path)
    assert model.head.base_kind in BASE_KINDS
    assert model.base.kind == model.head.base_kind
    y, _ = forward_values(model, np.random.default_rng(1).standard_normal((16, 3)))
    model.base.check_support(y)


def test_log_prob_finite(head, tmp_path):
    model, _, _ = untrained(head, tmp_path)
    logp = log_prob(model, np.random.default_rng(2).standard_normal((16, 3))).logp
    assert np.isfinite(logp).all()


def test_invert_rows_round_trip(head, tmp_path):
    model, _, _ = untrained(head, tmp_path)
    x = np.random.default_rng(3).standard_normal((16, 3))
    y, _ = forward_values(model, x)
    assert np.abs(invert_rows(model, y) - x).max() < model.head.inversion_tol


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
