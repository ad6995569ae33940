"""Self-contained correctness oracles for a flow model.

Each oracle compares the model against an independent numerical route:
finite differences for gradients and Jacobians, brute-force determinants
for the log-det, and explicit round trips for inversion.  They back the
`check` CLI command and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .flow import FlowModel, forward_values, invert_rows, nll_loss, numerical_jacobian

FD_STEP = 1e-5
TRIANGULAR_TOL = 1e-8
LOGDET_RTOL = 1e-6
GRADIENT_RTOL = 1e-4
JACOBIAN_TRIALS = 3
INVERSION_TOL = 1e-9   # check_inversion's flow-level round trip, for every head
GRADIENT_ROWS = 4      # batch rows of check_gradient
GRADIENT_COORDS = 128  # coordinates check_gradient samples, spread over parameters
INVERSION_ROWS = 64    # rows of check_inversion's round trip


@dataclass
class OracleResult:
    name: str
    passed: bool
    detail: str


def _scaled_err(claimed, reference):
    """|claimed - reference| / max(|reference|, 1): relative where
    |reference| >= 1, absolute below, so it is defined at a log-det of 0."""
    return np.abs(claimed - reference) / np.maximum(np.abs(reference), 1.0)


def jacobian_trials(model: FlowModel, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """JACOBIAN_TRIALS standard-normal points x from default_rng(seed), each
    with the numerical Jacobian at x: the shared input of the triangularity
    and log-det oracles."""
    rng = np.random.default_rng(seed)
    points = [rng.standard_normal(model.D) for _ in range(JACOBIAN_TRIALS)]
    return [(x, numerical_jacobian(model, x, FD_STEP)) for x in points]


def check_triangularity(trials: list[tuple[np.ndarray, np.ndarray]]) -> OracleResult:
    """The numerical Jacobian must be lower triangular with positive diagonal."""
    worst = 0.0
    for _, jac in trials:
        upper = np.abs(np.triu(jac, 1)).max() if len(jac) > 1 else 0.0
        worst = max(worst, float(upper))
        if upper >= TRIANGULAR_TOL or np.any(np.diag(jac) <= 0.0):
            return OracleResult(
                "triangularity", False,
                f"upper magnitude {upper:.2e}, min diag {np.diag(jac).min():.2e}",
            )
    return OracleResult("triangularity", True, f"max upper magnitude {worst:.2e}")


def check_logdet(model: FlowModel,
                 trials: list[tuple[np.ndarray, np.ndarray]]) -> OracleResult:
    """The claimed log-derivatives vs the numerical Jacobian, twice: their sum
    vs the brute-force log-determinant, and each dimension's ld_i vs
    log J_ii.  Both errors are scaled by max(|numerical|, 1) and bounded by
    LOGDET_RTOL."""
    worst_sum = worst_dim = 0.0
    for x, jac in trials:
        _, ld = forward_values(model, x[None, :])
        claimed = float(ld.sum())
        sign, logdet = np.linalg.slogdet(jac)
        if sign <= 0:
            return OracleResult("logdet", False, "numerical Jacobian not orientation-preserving")
        err = float(_scaled_err(claimed, logdet))
        worst_sum = max(worst_sum, err)
        if err >= LOGDET_RTOL:
            return OracleResult(
                "logdet", False,
                f"claimed {claimed:.8f} vs numerical {logdet:.8f} (scaled err {err:.2e})",
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            log_diag = np.log(np.diag(jac))
        dim_err = _scaled_err(ld[0], log_diag)
        # a NaN (a non-positive J_ii) fails the comparison too
        bad = ~(dim_err < LOGDET_RTOL)
        if bad.any():
            i = int(np.argmax(bad))
            return OracleResult(
                "logdet", False,
                f"dimension {i}: claimed {ld[0, i]:.8f} vs log J_ii {log_diag[i]:.8f} "
                f"(scaled err {dim_err[i]:.2e})",
            )
        worst_dim = max(worst_dim, float(dim_err.max()))
    return OracleResult("logdet", True, f"max scaled error {worst_sum:.2e} on the sum, "
                                         f"{worst_dim:.2e} per dimension")


def check_gradient(model: FlowModel, seed: int = 0) -> OracleResult:
    """backward() vs central differences on a sampled coordinate subset.

    Sampling keeps the oracle tractable for big models; the acceptance suite
    covers every coordinate on a tiny model.
    """
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((GRADIENT_ROWS, model.D))

    def loss_value() -> float:
        with dc.no_grad():
            return float(nll_loss(model, batch).value)

    model.params.zero_grad()
    loss = nll_loss(model, batch)
    dc.backward(loss)
    analytic = {name: p.grad.copy() for name, p in model.params.items()}
    model.params.zero_grad()

    names = model.params.names()
    coords = []
    for name in names:
        size = model.params[name].value.size
        take = max(1, min(size, GRADIENT_COORDS // len(names)))
        idxs = rng.choice(size, size=take, replace=False)
        coords.extend((name, int(i)) for i in idxs)

    scale = max(max(np.abs(g).max() for g in analytic.values()), 1e-8)
    worst = 0.0
    for name, i in coords:
        flat = model.params[name].value.reshape(-1)
        fd = dc.fd_coordinate(loss_value, flat, i, FD_STEP)
        err = abs(analytic[name].reshape(-1)[i] - fd) / scale
        worst = max(worst, float(err))
        if err >= GRADIENT_RTOL:
            return OracleResult(
                "gradient", False,
                f"{name}[{i}]: analytic {analytic[name].reshape(-1)[i]:.3e} "
                f"vs fd {fd:.3e} (scaled err {err:.2e})",
            )
    return OracleResult("gradient", True, f"max scaled error {worst:.2e} over {len(coords)} coords")


def check_inversion(model: FlowModel, seed: int = 0) -> OracleResult:
    """x -> y -> x round trip through the model's own inverse path.

    The tolerance is INVERSION_TOL for every head: the CDF heads' Newton
    inverse lands within about 1e-12 of each per-dimension root, so the error
    that compounds across dimensions via the conditioner stays far below it.
    The detail also reports the residual max|f(x_hat) - y|, which measures
    the inverter apart from the conditioning of the model; it has no bound.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((INVERSION_ROWS, model.D))
    y, _ = forward_values(model, x)
    recovered = invert_rows(model, y)
    err = float(np.abs(x - recovered).max())
    residual = float(np.abs(forward_values(model, recovered)[0] - y).max())
    bound = "" if err < INVERSION_TOL else f" >= {INVERSION_TOL:.0e}"
    return OracleResult("inversion", err < INVERSION_TOL,
                        f"round-trip error {err:.2e}{bound}, residual {residual:.2e}")


def run_all_checks(model: FlowModel, seed: int = 0) -> list[OracleResult]:
    trials = jacobian_trials(model, seed)
    return [
        check_triangularity(trials),
        check_logdet(model, trials),
        check_gradient(model, seed),
        check_inversion(model, seed),
    ]
