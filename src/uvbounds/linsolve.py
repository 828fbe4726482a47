"""The linear kernel of the implicit steps: a batched Thomas sweep.

Every solver step goes through one vectorized sweep that solves a whole
batch of tridiagonal systems at once: one per variance slice for P0, P1
and the x-stages of the 2D Craig-Sneyd step, one per asset row for its
z-stages.

Acceptance of a solve is residual-based: every solve verifies
``max|A x - b| <= lin_tol * (1 + max|b|)`` and raises otherwise.
"""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

__all__ = [
    "LinearSolveError",
    "solve_tridiag_batch",
]

DEFAULT_TOL = 1e-10


class LinearSolveError(RuntimeError):
    """Singular pivot or factor, or residual failure, in a linear solve."""


def _check_residual(residual: np.ndarray, rhs: np.ndarray, tol: float, what: str) -> None:
    res = float(np.max(np.abs(residual))) if len(residual) else 0.0
    bound = tol * (1.0 + float(np.max(np.abs(rhs))) if len(rhs) else 1.0)
    log.debug("%s residual max-norm %.3e (bound %.3e)", what, res, bound)
    if not np.isfinite(res) or res > bound:
        raise LinearSolveError(f"{what}: residual {res:.3e} exceeds {bound:.3e}")


def solve_tridiag_batch(lower: np.ndarray, main: np.ndarray, upper: np.ndarray,
                        rhs: np.ndarray, lin_tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve a batch of independent tridiagonal systems by the Thomas sweep.

    All inputs are (n_systems, n) arrays except lower/upper, which are
    (n_systems, n-1). Vectorizes over the batch axis. The pivots are
    checked once, after the forward sweep: a singular pivot is reported
    at its first row, in the first system that has one there.
    """
    main = np.asarray(main, float)
    rhs = np.asarray(rhs, float)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    nb, n = main.shape
    if n == 1:
        _check_pivots(main)
        x = rhs / main
        _check_residual((main * x - rhs).ravel(), rhs.ravel(), lin_tol, "tridiagonal batch")
        return x

    cp = np.empty((nb, n - 1))
    dp = np.empty((nb, n))
    piv = np.empty((nb, n))
    # a bad pivot only spoils its own system; all are checked after the sweep
    with np.errstate(all="ignore"):
        piv[:, 0] = main[:, 0]
        cp[:, 0] = upper[:, 0] / piv[:, 0]
        dp[:, 0] = rhs[:, 0] / piv[:, 0]
        for k in range(1, n):
            piv[:, k] = main[:, k] - lower[:, k - 1] * cp[:, k - 1]
            den = piv[:, k]
            if k < n - 1:
                cp[:, k] = upper[:, k] / den
            dp[:, k] = (rhs[:, k] - lower[:, k - 1] * dp[:, k - 1]) / den
    _check_pivots(piv)
    for k in range(n - 2, -1, -1):
        dp[:, k] -= cp[:, k] * dp[:, k + 1]

    resid = main * dp
    resid[:, :-1] += upper * dp[:, 1:]
    resid[:, 1:] += lower * dp[:, :-1]
    _check_residual((resid - rhs).ravel(), rhs.ravel(), lin_tol, "tridiagonal batch")
    return dp


def _check_pivots(piv: np.ndarray) -> None:
    """Raise on the first row, then first system, with a zero or non-finite pivot."""
    bad = ~np.isfinite(piv) | (np.abs(piv) < 1e-300)
    if np.any(bad):
        row = int(np.argmax(bad.any(axis=0)))
        sys_idx = int(np.argmax(bad[:, row]))
        raise LinearSolveError(
            f"tridiagonal solve: singular pivot at row {row} (system {sys_idx})"
        )
