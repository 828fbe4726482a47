"""The linear kernels of the implicit steps: LAPACK ``dpttrf``/``dpttrs`` and ``dgtsv``.

Every solver step ends in a batch of independent tridiagonal systems, one
per variance slice for P0, P1 and the x-stages of the 2D Craig-Sneyd
step. Those x-systems, scaled row by row, are symmetric positive definite
(``solver_pdelta._Scheme``), so ``spd_tridiag_solver`` factors them as
L D L^T by ``dpttrf`` and solves by ``dpttrs``: no pivoting, and no
division on the chain of the back substitution. On one 10,002-unknown
batch, ``dpttrs`` took 72-79 us against 164-169 us for LAPACK's general
tridiagonal solve by LU, and ``dpttrf`` 94-97 us against 132-145 us for
the LU factor (2-core x86-64 host, one BLAS thread). A matrix that serves
several right-hand sides is factored once. The z-stages solve one matrix for
every asset row by a product with its dense inverse
(``solver_pdelta._Scheme.solve_z``), built once per theta*dt by ``dgtsv``,
LAPACK's tridiagonal LU with partial pivoting, on the identity
(``tridiag_inverse_t``). At 100, 200 and 400 variance nodes that took
0.11, 0.46-0.52 and 1.9-2.2 ms, against 0.28, 1.60-1.74 and 9.7-11.9 ms for
numpy's dense LU inverse (best of 5 x 20 calls, one BLAS thread), which
also pulled 0.7-0.8 MiB of numpy's LAPACK into the process on first use.

The routines come from scipy's compiled LAPACK wrappers, the
extension module ``scipy/linalg/_flapack``, loaded by file path on the
first factor. scipy's directory is found by ``importlib.util.find_spec``,
which locates the package without running ``scipy/__init__.py``, and the
manifest's scipy version is read from that directory's ``version.py``
(``scipy_version``). So no solve runs scipy's package init, which took
12-14 ms and 1.3 MiB RSS after numpy (same host and versions as below).
Importing the routines as ``scipy.linalg.lapack`` would run the
``scipy.linalg`` package init, whose array-API layer copies the numpy
namespace and so forces the lazy imports of ``numpy.f2py``,
``numpy.testing``, ``numpy.ma`` and ``numpy.random``. With the CLI
loaded, that import took 0.19-0.31 s and 25 MiB RSS, against 5-17 ms and
2.5-4 MiB for the extension alone (2-core x86-64 host, Python 3.11.7,
numpy 2.4.6, scipy 1.17.1). The f2py wrappers, with their argument
checks, are the same objects ``scipy.linalg.lapack`` exports.

Acceptance of a solve is residual-based: every solve verifies
``max|A x - b| <= lin_tol * (1 + max|b|)`` of its unscaled system and raises
otherwise (``check_residual``); the z-stage's product and its inverse by the
tridiagonal product (``check_tridiag_residual``), the scaled x-stage in
difference form. A passing residual is not recorded: the module logs
nothing and does not import ``logging``, which no command configures.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from .core import SolverError

__all__ = [
    "LinearSolveError",
    "check_residual",
    "check_tridiag_residual",
    "scipy_version",
    "spd_tridiag_solver",
    "tridiag_inverse_t",
]

class LinearSolveError(SolverError):
    """Singular pivot or factor, or residual failure, in a linear solve; a
    ``SolverError``, so the CLI maps it to exit 3 as every solver failure."""


def _scipy_dir() -> Path:
    """scipy's package directory, found without importing the package."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    return Path(spec.submodule_search_locations[0])


def _load_from(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scipy_version() -> str:
    """The installed scipy's ``__version__``, read without its package init."""
    return _load_from("scipy.version", _scipy_dir() / "version.py").version


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrappers, without the ``scipy.linalg`` package."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is imported already
        return sys.modules[name]
    stem = _scipy_dir() / "linalg" / "_flapack"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            module = _load_from(name, path)
            # the interpreter registers an extension module as it loads it; a
            # later import of scipy.linalg, finding no entry, then binds the
            # module (the same wrappers) as the package's attribute
            sys.modules.pop(name, None)
            return module
    raise ImportError(f"scipy's LAPACK extension not found: {stem} with a suffix "
                      f"in {importlib.machinery.EXTENSION_SUFFIXES}")


def check_tridiag_residual(lower, main, upper, x: np.ndarray, rhs: np.ndarray,
                           lin_tol: float, what: str) -> None:
    """Raise unless ``max|A x - rhs| <= lin_tol * (1 + max|rhs|)``
    (``check_residual``), for one tridiagonal matrix A along every row of ``x``.

    A's coefficients are laid out by the unknown they multiply, each one
    row as long as x's: A[i, i] = main[i], A[i + 1, i] = lower[i] and
    A[i - 1, i] = upper[i]. With lower = 0 on the last unknown and upper = 0
    on the first, no row reaches into the next, so the two shifts are
    slices of the flattened arrays: on a 100 x 100 batch that took 42 us,
    against 93 us with 2D slices.
    """
    resid = _times(main, x, np.empty(np.shape(x)))
    shifted = _times(upper, x, np.empty(np.shape(x)))
    flat, flat_shifted = resid.reshape(-1), shifted.reshape(-1)
    flat[:-1] += flat_shifted[1:]
    _times(lower, x, shifted)
    flat[1:] += flat_shifted[:-1]
    resid -= rhs
    check_residual(resid, rhs, lin_tol, what)


def _times(coef, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """coef * x, made in ``out``. The coefficient row is first copied out to
    x's shape: numpy 2.4 runs a broadcast operand of a product through a
    64 KiB copy buffer, but not a copy."""
    np.copyto(out, coef)
    return np.multiply(out, x, out=out)


def _max_abs(a: np.ndarray) -> float:
    # NaN anywhere makes both ends NaN, and np.maximum keeps it
    return float(np.maximum(a.max(), -a.min())) if a.size else 0.0


def check_residual(residual: np.ndarray, rhs: np.ndarray, tol: float, what: str) -> None:
    """Raise unless ``max|residual| <= tol * (1 + max|rhs|)``; a NaN fails."""
    res = _max_abs(residual)
    # the bound is at least tol: a residual within tol passes without it
    if res <= tol:
        return
    bound = tol * (1.0 + _max_abs(rhs))
    if not np.isfinite(res) or res > bound:
        raise LinearSolveError(f"{what}: residual {res:.3e} exceeds {bound:.3e}")


def tridiag_inverse_t(lower, main, upper, what: str) -> np.ndarray:
    """The transposed inverse M^-T of the tridiagonal M, as a C-contiguous array.

    The diagonals are laid out as ``check_tridiag_residual`` reads them,
    each of length n: M[i, i] = main[i], M[i + 1, i] = lower[i] and
    M[i - 1, i] = upper[i], so lower[-1] and upper[0] are not read. LAPACK
    ``dgtsv`` solves M X = I by LU with partial pivoting and returns X in
    Fortran order, whose transpose is M^-T in C order at no copy. A pivot
    that is exactly zero raises. The residual is the caller's to check.
    """
    n = main.size
    if n == 1:  # f2py rejects the empty off-diagonals of order 1
        if main[0] == 0.0:
            raise LinearSolveError(f"{what}: the 1 x 1 matrix is zero")
        return np.reciprocal(main).reshape(1, 1)
    *_, x, info = _flapack().dgtsv(lower[:-1], main, upper[1:], np.eye(n, order="F"),
                                   overwrite_b=1)
    if info > 0:
        raise LinearSolveError(f"{what}: pivot at row {info - 1} is exactly zero")
    return x.T


def spd_tridiag_solver(main: np.ndarray, off: np.ndarray):
    """Factor a symmetric positive-definite tridiagonal matrix as L D L^T; return ``solve(b)``.

    ``main`` (n) and ``off`` (n-1) are its diagonals. LAPACK ``dpttrf``
    overwrites them with the factor, and ``solve`` overwrites ``b`` (n)
    with the solution by ``dpttrs`` and returns it. A pivot of D that is
    not positive and finite raises. The residual is the caller's to check,
    on the system it scaled into this form.
    """
    lapack = _flapack()
    d, e, info = lapack.dpttrf(main, off, overwrite_d=1, overwrite_e=1)
    # dpttrf stops at the first pivot <= 0; NaN compares false and passes
    if info > 0 or not np.isfinite(d).all():
        row = info - 1 if info > 0 else int(np.argmax(~np.isfinite(d)))
        raise LinearSolveError(f"symmetric tridiagonal solve: pivot {d[row]:.3e} "
                               f"at row {row} is not positive and finite")

    def solve(b: np.ndarray) -> np.ndarray:
        return lapack.dpttrs(d, e, b, overwrite_b=1)[0]

    return solve
