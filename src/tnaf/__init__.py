"""Autoregressive normalizing-flow density estimation.

A causal-masked transformer conditions per-dimension invertible transforms
(affine, monotone CDF nets, rational-quadratic splines), giving exact
log-likelihoods through the triangular Jacobian and sampling by sequential
inversion.
"""

from . import checks, checkpoint, conditioner, data, diffcore, flow, trainer, transforms
from .checkpoint import RunConfig, load_checkpoint, save_checkpoint
from .data import DatasetMatrix, Splits, StandardizationStats, load_matrix, make_splits, standardize, toy_generate
from .flow import FlowModel, ModelConfig, build_model, log_prob, nll_loss, sample
from .trainer import TrainConfig, TrainReport, evaluate, train

__all__ = [
    "DatasetMatrix",
    "FlowModel",
    "ModelConfig",
    "RunConfig",
    "Splits",
    "StandardizationStats",
    "TrainConfig",
    "TrainReport",
    "build_model",
    "checks",
    "checkpoint",
    "conditioner",
    "data",
    "diffcore",
    "evaluate",
    "flow",
    "load_checkpoint",
    "load_matrix",
    "log_prob",
    "make_splits",
    "nll_loss",
    "sample",
    "save_checkpoint",
    "standardize",
    "toy_generate",
    "train",
    "trainer",
    "transforms",
]

__version__ = "0.1.0"
