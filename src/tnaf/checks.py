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


@dataclass
class OracleResult:
    name: str
    passed: bool
    detail: str


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


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
    """Sum of per-dimension log-derivs vs the brute-force Jacobian determinant."""
    worst = 0.0
    for x, jac in trials:
        _, ld = forward_values(model, x[None, :])
        claimed = float(ld.sum())
        sign, logdet = np.linalg.slogdet(jac)
        if sign <= 0:
            return OracleResult("logdet", False, "numerical Jacobian not orientation-preserving")
        err = _rel(claimed, float(logdet))
        worst = max(worst, err)
        if err >= LOGDET_RTOL:
            return OracleResult(
                "logdet", False,
                f"claimed {claimed:.8f} vs numerical {logdet:.8f} (rel {err:.2e})",
            )
    return OracleResult("logdet", True, f"max relative error {worst:.2e}")


def check_gradient(model: FlowModel, seed: int = 0, batch_rows: int = 4,
                   max_coords: int = 128) -> OracleResult:
    """backward() vs central differences on a sampled coordinate subset.

    Sampling keeps the oracle tractable for big models; the acceptance suite
    covers every coordinate on a tiny model.
    """
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((batch_rows, model.D))

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
        take = max(1, min(size, max_coords // len(names)))
        idxs = rng.choice(size, size=take, replace=False)
        coords.extend((name, int(i)) for i in idxs)

    scale = max(max(np.abs(g).max() for g in analytic.values()), 1e-8)
    worst = 0.0
    for name, i in coords:
        flat = model.params[name].value.reshape(-1)
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = loss_value()
        flat[i] = orig - FD_STEP
        fm = loss_value()
        flat[i] = orig
        fd = (fp - fm) / (2.0 * FD_STEP)
        err = abs(analytic[name].reshape(-1)[i] - fd) / scale
        worst = max(worst, float(err))
        if err >= GRADIENT_RTOL:
            return OracleResult(
                "gradient", False,
                f"{name}[{i}]: analytic {analytic[name].reshape(-1)[i]:.3e} "
                f"vs fd {fd:.3e} (scaled err {err:.2e})",
            )
    return OracleResult("gradient", True, f"max scaled error {worst:.2e} over {len(coords)} coords")


def check_inversion(model: FlowModel, seed: int = 0, rows: int = 64) -> OracleResult:
    """x -> y -> x round trip through the model's own inverse path.

    The tolerance is the head's, 1e-9 for every head: the CDF heads' Newton
    inverse lands within about 1e-12 of each per-dimension root, so the error
    that compounds across dimensions via the conditioner stays far below it.
    The detail also reports the residual max|f(x_hat) - y|, which measures
    the inverter apart from the conditioning of the model; it has no bound.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, model.D))
    y, _ = forward_values(model, x)
    recovered = invert_rows(model, y)
    err = float(np.abs(x - recovered).max())
    residual = float(np.abs(forward_values(model, recovered)[0] - y).max())
    tol = model.head.inversion_tol
    bound = "" if err < tol else f" >= {tol:.0e}"
    return OracleResult("inversion", err < tol,
                        f"round-trip error {err:.2e}{bound}, residual {residual:.2e}")


def run_all_checks(model: FlowModel, seed: int = 0) -> list[OracleResult]:
    trials = jacobian_trials(model, seed)
    return [
        check_triangularity(trials),
        check_logdet(model, trials),
        check_gradient(model, seed),
        check_inversion(model, seed),
    ]
