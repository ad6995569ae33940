"""Each oracle in tnaf.checks fails, and says why, when its contract breaks."""

import numpy as np

from tnaf import checks
from tnaf import diffcore as dc
from tnaf.flow import ModelConfig, build_model


def tiny_model(d=2):
    return build_model(ModelConfig(D=d, head_type="affine", E=8, heads=2, layers=1,
                                   mlp_hidden=16), seed=0)


def test_triangularity_fails_on_an_upper_entry():
    jac = np.array([[1.0, 1e-3], [0.5, 2.0]])
    res = checks.check_triangularity([(np.zeros(2), jac)])
    assert not res.passed
    assert res.detail == "upper magnitude 1.00e-03, min diag 1.00e+00"


def test_logdet_fails_on_a_negative_determinant():
    jac = np.array([[-1.0, 0.0], [0.0, 1.0]])
    res = checks.check_logdet(tiny_model(), [(np.zeros(2), jac)])
    assert not res.passed
    assert res.detail == "numerical Jacobian not orientation-preserving"


def test_gradient_fails_when_backward_scales_every_gradient(monkeypatch):
    model = tiny_model()
    assert checks.check_gradient(model).passed
    backward = dc.backward

    def scaled(loss):
        backward(loss)
        for _, p in model.params.items():
            p.grad = 1.5 * p.grad

    monkeypatch.setattr(dc, "backward", scaled)
    res = checks.check_gradient(model)
    assert not res.passed
    assert "analytic" in res.detail and "vs fd" in res.detail
