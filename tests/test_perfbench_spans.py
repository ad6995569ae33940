"""The benchmark's span tracer (perfbench/spans.py) patches tnaf functions by
name; renaming or deleting one of them must fail here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from tnaf import diffcore as dc
from tnaf.flow import ModelConfig, build_model, invert_rows, nll_loss

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_traced_name():
    spans = load_spans()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in spans.SPANNED]
    model = build_model(ModelConfig(D=2, head_type="affine", E=8, heads=2, layers=1,
                                    mlp_hidden=16), seed=0)
    batch = np.random.default_rng(0).standard_normal((4, 2))
    tracer = spans.Tracer()
    with tracer.installed():
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, attr
        tracer.phase = "train"
        dc.backward(nll_loss(model, batch))
        tracer.phase = "invert"
        invert_rows(model, batch)
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"diffcore.backward", "diffcore.masked_softmax",
            "conditioner.encoder_layer"} <= names
    # the encoder layer looks its helpers up in diffcore at each call, so
    # the per-layer metrics see them in training and in every cached step
    phased = {(rec[spans.PHASE], rec[spans.NAME]) for rec in tracer.spans}
    assert {("train", "diffcore.layer_norm"), ("train", "diffcore.masked_softmax"),
            ("invert", "diffcore.layer_norm"), ("invert", "diffcore.masked_softmax")} <= phased
    assert tracer.counts[("train", "grad_copy_bytes")] > 0
