"""Linear kernels for the implicit steps.

Every solver step goes through a vectorized Thomas sweep that solves a
whole batch of tridiagonal systems at once: one per variance slice for P0,
P1 and the x-stages of the 2D Craig-Sneyd step, one per asset row for its
z-stages. The banded kernel solves the unsplit 9-point 2D system by sparse
LU, with a diagonally preconditioned BiCGStab fallback for grids too large
to factor comfortably; only the reference step the tests compare the
split scheme with uses it.

Acceptance of a solve is residual-based: every solve verifies
``max|A x - b| <= lin_tol * (1 + max|b|)`` and raises otherwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

log = logging.getLogger(__name__)

__all__ = [
    "BandedSystem",
    "LinearSolveError",
    "solve_tridiag_batch",
    "solve_banded",
]

DEFAULT_TOL = 1e-10

# above this many unknowns "auto" switches from direct LU to BiCGStab
_DIRECT_LIMIT = 200_000


class LinearSolveError(RuntimeError):
    """Singular pivot, breakdown or residual failure in a linear solve."""

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


@dataclass(frozen=True)
class BandedSystem:
    """Sparse system from the 2D scheme: at most 9 nonzeros per row."""

    matrix: sp.spmatrix
    rhs: np.ndarray

    def __post_init__(self) -> None:
        m = sp.csr_matrix(self.matrix)
        b = np.asarray(self.rhs, float)
        if m.shape[0] != m.shape[1] or b.shape != (m.shape[0],):
            raise ValueError("BandedSystem: matrix must be square and match the rhs")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", b)


def _check_residual(residual: np.ndarray, rhs: np.ndarray, tol: float, what: str,
                    history=None) -> None:
    res = float(np.max(np.abs(residual))) if len(residual) else 0.0
    bound = tol * (1.0 + float(np.max(np.abs(rhs))) if len(rhs) else 1.0)
    log.debug("%s residual max-norm %.3e (bound %.3e)", what, res, bound)
    if not np.isfinite(res) or res > bound:
        raise LinearSolveError(
            f"{what}: residual {res:.3e} exceeds {bound:.3e}", residual_history=history
        )


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


def solve_banded(system: BandedSystem, lin_tol: float = DEFAULT_TOL,
                 method: str = "auto") -> np.ndarray:
    """Solve the 2D implicit system; residual-checked.

    method: "direct" (sparse LU), "iterative" (BiCGStab with diagonal
    preconditioning) or "auto" (direct up to {limit} unknowns).
    """
    a = sp.csc_matrix(system.matrix)
    b = system.rhs
    if method == "auto":
        method = "direct" if a.shape[0] <= _DIRECT_LIMIT else "iterative"

    if method == "direct":
        try:
            lu = spla.splu(a)
            x = lu.solve(b)
            # iterative refinement: stiff control fields can push the raw
            # LU residual above the contract bound
            bound = lin_tol * (1.0 + float(np.max(np.abs(b))))
            for _ in range(3):
                r = b - a @ x
                if float(np.max(np.abs(r))) <= bound:
                    break
                x = x + lu.solve(r)
        except RuntimeError as exc:  # singular factorization
            raise LinearSolveError(f"sparse LU failed: {exc}") from exc
        _check_residual(a @ x - b, b, lin_tol, "banded direct")
        return x

    if method != "iterative":
        raise ValueError(f"unknown solve method {method!r}")

    diag = a.diagonal()
    if np.any(diag == 0.0) or not np.all(np.isfinite(diag)):
        raise LinearSolveError("iterative solve: zero or non-finite diagonal")
    precond = spla.LinearOperator(a.shape, matvec=lambda v: v / diag)
    history: list[float] = []

    def _track(xk):
        history.append(float(np.max(np.abs(a @ xk - b))))

    atol = 0.5 * lin_tol * (1.0 + float(np.max(np.abs(b))))
    x, info = spla.bicgstab(a, b, M=precond, rtol=0.0, atol=atol,
                            maxiter=20 * a.shape[0], callback=_track)
    if info != 0:
        raise LinearSolveError(
            f"BiCGStab did not converge (info={info})", residual_history=history
        )
    _check_residual(a @ x - b, b, lin_tol, "banded iterative", history=history)
    return x


solve_banded.__doc__ = solve_banded.__doc__.format(limit=_DIRECT_LIMIT)
