"""The three benchmark workloads: model shape, synthetic data and op counts.

Every phase runs a fixed *count* of operations.  The count is a fixed
function of the run's time budget (``--seconds``), computed from a nominal
per-op cost measured once on the reference machine (2 cores, OpenBLAS), so
both sides of a comparison do exactly the same arithmetic on the same model
states whatever their speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import tnaf
from tnaf.data import DatasetMatrix, Splits

PHASES = ("train", "logprob", "invert", "sample")

# Share of the time budget each phase is sized for.
BUDGET_SHARE = {"train": 0.35, "logprob": 0.15, "invert": 0.4, "sample": 0.1}
MIN_COUNT = {"train": 2, "logprob": 2, "invert": 1, "sample": 1}

# Set-up warms train and log_prob on a full batch, and invert_rows and sample
# on this many rows: set-up is repeated in every run (see run.py) and
# invert_rows at D=63 takes about a quarter of a second per row.
WARM_ROWS = 1
VAL_BATCHES = 1
TEST_BATCHES = 8
TRAIN_ROWS = 8192


@dataclass(frozen=True)
class Workload:
    name: str
    D: int
    head: str
    batch: int        # rows per train step and per log_prob call
    invert_rows: int  # rows per invert_rows and per sample call
    # nominal reference seconds per op, used only to size the op counts
    cost: dict
    kernel_s: float   # reference-kernel time on the reference machine (refclock.py)

    @property
    def scores_shape(self) -> tuple[int, int, int, int]:
        """Shape of the attention scores of one log_prob call."""
        return (self.batch, tnaf.ModelConfig(D=self.D).heads, self.D, self.D)


WORKLOADS = {
    w.name: w
    for w in (
        # tiny tensors: graph bookkeeping and backward dominate; attention,
        # heads and inversion are negligible
        Workload("d2-affine", 2, "affine", 256, 256,
                 {"train": 0.019, "logprob": 0.0063, "invert": 0.0125, "sample": 0.013},
                 1.2e-3),
        # the CDF head is a third of log_prob and bisection most of
        # invert_rows; attention is minor
        Workload("d8-cdf", 8, "cdf", 256, 256,
                 {"train": 0.17, "logprob": 0.065, "invert": 0.8, "sample": 0.8},
                 5.0e-3),
        # BSDS300 width: masked softmax dominates, invert_rows reruns the whole
        # conditioner 63 times and memory peaks; 4 rows per inversion call
        # because one call costs about a quarter of a second per row
        Workload("d63-spline", 63, "spline", 64, 4,
                 {"train": 0.55, "logprob": 0.26, "invert": 1.0, "sample": 1.0},
                 23.5e-3),
    )
}


def op_counts(w: Workload, seconds: float) -> dict[str, int]:
    """Ops per phase for a budget of `seconds`; the same on every machine."""
    return {
        p: max(MIN_COUNT[p], int(round(BUDGET_SHARE[p] * seconds / w.cost[p])))
        for p in PHASES
    }


def _gaussian_mixture(d: int, n: int, rng: np.random.Generator,
                      components: int = 8) -> np.ndarray:
    """Rows of a fixed d-dimensional mixture; only the draw depends on rng."""
    shape = np.random.default_rng(d)
    means = shape.normal(0.0, 2.0, size=(components, d))
    scales = shape.uniform(0.3, 1.2, size=(components, d))
    comp = rng.integers(0, components, size=n)
    return means[comp] + scales[comp] * rng.standard_normal((n, d))


def make_splits(w: Workload, seed: int) -> Splits:
    """Seeded train/val/test rows, standardized by the train split."""
    n_val = VAL_BATCHES * w.batch
    n_test = TEST_BATCHES * w.batch
    n = TRAIN_ROWS + n_val + n_test
    if w.D == 2:
        rows = tnaf.toy_generate("gauss_mixture_8", n, seed).data
    else:
        rows = _gaussian_mixture(w.D, n, np.random.default_rng(seed))
    parts = np.split(rows, [TRAIN_ROWS, TRAIN_ROWS + n_val])
    splits, _ = tnaf.standardize(Splits(*(DatasetMatrix(p) for p in parts)))
    return splits


def heldout_batches(w: Workload, splits: Splits) -> list[np.ndarray]:
    rows = splits.test.data
    return [rows[i:i + w.batch] for i in range(0, rows.shape[0], w.batch)]


def sample_seed(seed: int, call: int) -> int:
    """Seed of the `call`-th sample op; fixed by the workload seed alone."""
    return seed * 1000 + call


def inversion_tol(head: str) -> float:
    """Round-trip tolerance of tnaf.checks.check_inversion for this head."""
    return 1e-4 if head in ("cdf", "shared_cdf") else 1e-9

