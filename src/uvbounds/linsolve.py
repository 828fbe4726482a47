"""The linear kernel of the implicit steps: LAPACK ``dgttrf``/``dgttrs``.

Every solver step ends in a batch of independent tridiagonal systems, one
per variance slice for P0, P1 and the x-stages of the 2D Craig-Sneyd
step. ``tridiag_solver`` factors a batch once and returns the solve, so a
matrix that serves several right-hand sides is factored once. The
z-stages solve one matrix for every asset row: ``tridiag_solver`` makes
its dense inverse once per theta*dt, as the solution of a batch of n_z
copies with the identity as right-hand sides, and each z-stage is one
matrix product with it, at 2*n_z flops per node (``solver_pdelta``).

The two routines come from scipy's compiled LAPACK wrappers, the
extension module ``scipy/linalg/_flapack``, loaded by file path on the
first factor. Importing them as ``scipy.linalg.lapack`` would run the
``scipy.linalg`` package init, whose array-API layer copies the numpy
namespace and so forces the lazy imports of ``numpy.f2py``,
``numpy.testing``, ``numpy.ma`` and ``numpy.random``. With the CLI
loaded, that import took 0.19-0.31 s and 25 MiB RSS, against 5-17 ms and
2.5-4 MiB for the extension alone (2-core x86-64 host, Python 3.11.7,
numpy 2.4.6, scipy 1.17.1). The f2py wrappers, with their argument
checks, are the same objects ``scipy.linalg.lapack`` exports.

Acceptance of a solve is residual-based: every solve, the z-stage's
product included, verifies ``max|A x - b| <= lin_tol * (1 + max|b|)`` by
the tridiagonal product (``check_tridiag_residual``) and raises otherwise.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import sys
from pathlib import Path

import numpy as np
import scipy

log = logging.getLogger(__name__)

__all__ = [
    "LinearSolveError",
    "check_tridiag_residual",
    "tridiag_solver",
]

class LinearSolveError(RuntimeError):
    """Singular pivot or factor, or residual failure, in a linear solve."""


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrappers, without the ``scipy.linalg`` package."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is imported already
        return sys.modules[name]
    stem = Path(scipy.__file__).parent / "linalg" / "_flapack"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # the interpreter registers an extension module as it loads it; a
            # later import of scipy.linalg, finding no entry, then binds the
            # module (the same wrappers) as the package's attribute
            sys.modules.pop(name, None)
            return module
    raise ImportError(f"scipy's LAPACK extension not found: {stem} with a suffix "
                      f"in {importlib.machinery.EXTENSION_SUFFIXES}")


def check_tridiag_residual(lower, main, upper, x: np.ndarray, rhs: np.ndarray,
                           lin_tol: float, what: str) -> None:
    """Raise unless ``max|A x - rhs| <= lin_tol * (1 + max|rhs|)``.

    A is tridiagonal along the rows of ``x``: ``main`` multiplies ``x``,
    ``upper`` multiplies ``x[:, 1:]`` and ``lower`` ``x[:, :-1]``, each per
    row or broadcast over the rows.
    """
    resid = main * x
    resid[:, :-1] += upper * x[:, 1:]
    resid[:, 1:] += lower * x[:, :-1]
    resid -= rhs
    _check_residual(resid, rhs, lin_tol, what)


def _check_residual(residual: np.ndarray, rhs: np.ndarray, tol: float, what: str) -> None:
    res = float(np.max(np.abs(residual))) if len(residual) else 0.0
    bound = tol * (1.0 + float(np.max(np.abs(rhs))) if len(rhs) else 1.0)
    log.debug("%s residual max-norm %.3e (bound %.3e)", what, res, bound)
    if not np.isfinite(res) or res > bound:
        raise LinearSolveError(f"{what}: residual {res:.3e} exceeds {bound:.3e}")


def tridiag_solver(lower: np.ndarray, main: np.ndarray, upper: np.ndarray,
                   lin_tol: float):
    """Factor a batch of independent tridiagonal systems; return ``solve(rhs)``.

    ``main`` and the right-hand sides are (n_systems, n) arrays, ``lower``
    and ``upper`` (n_systems, n-1). The batch is factored as one system
    whose couplings between consecutive systems are zero: partial pivoting
    swaps rows only towards a larger sub-diagonal entry, never across a zero
    coupling, so each system is factored and solved on its own. A singular
    factor is reported at its first row, in the first system that has one
    there.
    """
    lapack = _flapack()
    main = np.asarray(main, float)
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    nb, n = main.shape
    # the batch as one system of order nb*n + 2, built in place: two trailing
    # identity rows, since the scipy wrappers reject systems of order < 3
    dl, du = np.zeros(nb * n + 1), np.zeros(nb * n + 1)
    dl[:-1].reshape(nb, n)[:, :-1] = lower
    du[:-1].reshape(nb, n)[:, :-1] = upper
    d = np.empty(nb * n + 2)
    d[:-2].reshape(nb, n)[...] = main
    d[-2:] = 1.0
    lu = lapack.dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1,
                       overwrite_du=1)[:5]  # (dl, d, du, du2, ipiv)
    _check_pivots(lu[1][:-2].reshape(nb, n))  # U's diagonal

    def solve(rhs: np.ndarray) -> np.ndarray:
        # the padded right-hand side, also the contiguous copy the residual
        # reads: the caller's array may be a transposed view
        b = np.empty(nb * n + 2)
        b[:-2].reshape(nb, n)[...] = rhs
        b[-2:] = 0.0
        rhs = b[:-2].reshape(nb, n)
        x = lapack.dgttrs(*lu, b)[0][:-2].reshape(nb, n)
        check_tridiag_residual(lower, main, upper, x, rhs, lin_tol, "tridiagonal batch")
        return x

    return solve


def _check_pivots(piv: np.ndarray) -> None:
    """Raise on the first row, then first system, with a zero or non-finite pivot."""
    bad = ~np.isfinite(piv) | (np.abs(piv) < 1e-300)
    if np.any(bad):
        row = int(np.argmax(bad.any(axis=0)))
        sys_idx = int(np.argmax(bad[:, row]))
        raise LinearSolveError(
            f"tridiagonal solve: singular pivot at row {row} (system {sys_idx})"
        )
