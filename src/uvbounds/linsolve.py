"""The linear kernels of the implicit steps: LAPACK ``dpttrf``/``dpttrs`` and ``dgtsv``.

Every solver step ends in a batch of independent tridiagonal systems. The
x-system I - c*A1(q), one per variance slice for P0, P1 and the x-stages
of the 2D Craig-Sneyd step, scales to symmetric positive definite form,
so ``XSolver`` factors it as L D L^T by ``dpttrf`` and solves by
``dpttrs``: no pivoting, and no division on the chain of the back
substitution. On one 10,002-unknown batch, ``dpttrs`` took 72-79 us
against 164-169 us for LAPACK's general tridiagonal solve by LU, and
``dpttrf`` 94-97 us against 132-145 us for the LU factor (2-core x86-64
host, one BLAS thread); a ``paper.cfg`` ``sweep-error`` spent 0.10 s in
x-stage factors and 0.19 s in solves, against 0.16 s and 0.33 s by LU. A
matrix that serves several right-hand sides is factored once. The z-stages
solve one matrix for every asset row by a product with its dense inverse:
``ZSolver`` builds it once per theta*dt by ``dgtsv``, LAPACK's tridiagonal
LU with partial pivoting, on the identity, and is the one place that reads
the z-system's diagonals. At 100, 200 and 400 variance nodes that took
0.11, 0.46-0.52 and 1.9-2.2 ms, against 0.28, 1.60-1.74 and 9.7-11.9 ms
for numpy's dense LU inverse (best of 5 x 20 calls, one BLAS thread),
which also pulled 0.7-0.8 MiB of numpy's LAPACK into the process on first
use.

The three routines come from the OpenBLAS numpy already has loaded. numpy
2 wheels bundle scipy-openblas64, which exports them under the ILP64 names
``scipy_dpttrf_64_``, ``scipy_dpttrs_64_`` and ``scipy_dgtsv_64_``; a
``ctypes.CDLL`` of numpy's own ``_multiarray_umath`` extension finds them
through the libraries that extension links, with no file search, and
reopening a loaded library maps nothing new (``_numpy_lapack``). They are
resolved on the first factor, not at import. Where the extension does not
export all three names (numpy 1.x, Windows, macOS on Accelerate, conda
builds), the solves take them from scipy's compiled LAPACK wrappers, the
extension module ``scipy/linalg/_flapack``, loaded by file path
(``_flapack``). Both serve the solves with f2py's calling conventions
(``_lapack``), and they gave bitwise the same factors, solutions and
inverses at numpy 2.4.6 and scipy 1.17.1. The choice follows only from what
numpy's extension exports, and the manifest names it (``lapack_name``).
Loading ``_flapack`` maps a second OpenBLAS beside numpy's: loaded after
the CLI's set-up, scipy's OpenBLAS library added 1.48 MiB RSS and the
``_flapack`` module 1.02 MiB on top of it, and without them the
benchmark's ``sweep`` peaked at 33.55 MiB against 36.04 MiB. A call
through ctypes checks its arrays in Python and so costs about 6 us more
than f2py's (``dpttrs`` on 10 unknowns: 5.7-8.0 us against 0.4-0.8 us).
A ``paper.cfg`` sweep makes 902 ``dpttrs``, 461 ``dpttrf`` and 10
``dgtsv`` calls, so that is under 10 ms of a 0.59 s run, no more than
loading ``_flapack`` took; the sweep's median wall time did not move.

``_flapack`` is loaded without running ``scipy/__init__.py``: scipy's
directory is found by ``importlib.util.find_spec``, and the manifest's
scipy version is read from that directory's ``version.py``
(``scipy_version``). scipy's package init took 12-14 ms and 1.3 MiB RSS
after numpy. Importing the routines as ``scipy.linalg.lapack`` would run
the ``scipy.linalg`` package init, whose array-API layer copies the numpy
namespace and so forces the lazy imports of ``numpy.f2py``,
``numpy.testing``, ``numpy.ma`` and ``numpy.random``. With the CLI
loaded, that import took 0.19-0.31 s and 25 MiB RSS, against 5-17 ms and
2.5-4 MiB for the extension alone (2-core x86-64 host, Python 3.11.7,
numpy 2.4.6, scipy 1.17.1). The f2py wrappers, with their argument
checks, are the same objects ``scipy.linalg.lapack`` exports.

Acceptance of a solve is residual-based: every solve verifies
``max|A x - b| <= lin_tol * (‖A‖∞ * max|x| + max|b|)`` of its unscaled
system and raises otherwise (``check_residual``); the z-stage's product and
its inverse by the tridiagonal product (``ZSolver``), the scaled x-stage in
difference form (``XSolver``). That bound is the normwise backward error's:
a backward-stable solve leaves a residual of order the unit roundoff times
``‖A‖∞ * max|x| + max|b|``, so a bound of ``lin_tol * (1 + max|b|)``
rejected correct solves of stiff systems, such as a 3000-node x-stage whose
banded LU left 4.5e-8 against a bound of 2.0e-8. ‖A‖∞ is 1 + 4*max(t) for
an x-stage and M's largest absolute row sum for a z-stage (``norm`` of
each), made once per factor; on ``paper.cfg`` they are 23.5 and 6.1-51.5,
and no solve's residual there exceeds ``lin_tol``. A residual within
``lin_tol`` passes before max|x| is made, so a solve that passes there
costs nothing more; a NaN fails. A backward-stable solve of a system that
amplifies passes too: the march that steps such systems checks its own
surfaces (``solver_pdelta``). A passing residual is not recorded: the module
logs nothing and does not import ``logging``, which no command configures.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from .core import SolverError

__all__ = [
    "LinearSolveError",
    "XSolver",
    "ZSolver",
    "check_residual",
    "lapack_name",
    "scipy_version",
    "x_layout",
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


# the routines' names in numpy's scipy-openblas64: ILP64, so every integer is 64-bit
_SYMBOL = "scipy_{}_64_"
_INT = ctypes.c_int64
_INT_P = ctypes.POINTER(_INT)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


@functools.cache
def _numpy_lapack():
    """dpttrf, dpttrs and dgtsv of numpy's bundled OpenBLAS, or None where
    numpy's extension does not export all three."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        return None
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        return _NumpyLapack(*[getattr(lib, _SYMBOL.format(name))
                              for name in ("dpttrf", "dpttrs", "dgtsv")])
    except (OSError, AttributeError):  # not loadable by path, or a name not exported
        return None


def _lapack():
    """The routines a solve calls, with f2py's calling conventions: numpy's
    where its extension exports them, scipy's wrappers otherwise."""
    routines = _numpy_lapack()
    return _flapack() if routines is None else routines


def lapack_name() -> str:
    """The library a solve takes its LAPACK routines from, found without
    loading scipy's."""
    return "scipy _flapack" if _numpy_lapack() is None else "numpy scipy-openblas64"


def _pointer(a, shape: tuple, name: str):
    """A pointer to a's data, for LAPACK to read and write in place, once a
    is a writeable, Fortran-contiguous float64 array of the given shape."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape):
        raise ValueError(f"{name}: need a float64 array of shape {shape}, got "
                         f"{getattr(a, 'dtype', type(a).__name__)} of shape {np.shape(a)}")
    if not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError(f"{name}: need a writeable, Fortran-contiguous array")
    if not a.size:  # LAPACK reads no element of it
        return None
    # from_buffer takes a C-contiguous buffer, as the transpose of a
    # Fortran-contiguous array is, at the same address; the ctypes object
    # holds the buffer, and so the array, as long as the byref holds it
    return ctypes.byref(ctypes.c_double.from_buffer(a.T))


def _operand(a, overwrite: int):
    """a itself if it may be overwritten, else a Fortran-ordered copy, as f2py makes."""
    return a if overwrite else np.array(a, order="F")


def _order(d) -> int:
    """n, the order of the system whose main diagonal is d."""
    if not (isinstance(d, np.ndarray) and d.ndim == 1):
        raise ValueError(f"d: need a 1-D array, got shape {np.shape(d)}")
    return d.shape[0]


def _rhs(b, n: int):
    """(pointer, nrhs) for the right-hand sides b, of shape (n,) or (n, nrhs)."""
    shape = (n, *np.shape(b)[1:2])
    return _pointer(b, shape, "b"), shape[1] if len(shape) == 2 else 1


class _NumpyLapack:
    """LAPACK routines called through ctypes the way scipy's f2py wrappers
    are: the same arguments, ``overwrite_*`` flags and returns (the arrays
    LAPACK wrote, then its ``info``). An array whose flag is unset is first
    copied in Fortran order, as f2py copies it. Where f2py would convert an
    array, this raises ValueError before the call: every array must be
    float64, writeable, Fortran-contiguous and of its system's length.
    """

    def __init__(self, dpttrf, dpttrs, dgtsv):
        dpttrf.argtypes = [_INT_P, _DOUBLE_P, _DOUBLE_P, _INT_P]
        dpttrs.argtypes = [_INT_P, _INT_P, _DOUBLE_P, _DOUBLE_P, _DOUBLE_P, _INT_P, _INT_P]
        dgtsv.argtypes = [_INT_P, _INT_P, *[_DOUBLE_P] * 4, _INT_P, _INT_P]
        for routine in (dpttrf, dpttrs, dgtsv):
            routine.restype = None
        self._dpttrf, self._dpttrs, self._dgtsv = dpttrf, dpttrs, dgtsv

    def dpttrf(self, d, e, overwrite_d=0, overwrite_e=0):
        d, e = _operand(d, overwrite_d), _operand(e, overwrite_e)
        n = _order(d)
        ptrs = _pointer(d, (n,), "d"), _pointer(e, (max(n - 1, 0),), "e")
        info = _INT()
        self._dpttrf(_INT(n), *ptrs, info)
        return d, e, info.value

    def dpttrs(self, d, e, b, overwrite_b=0):
        b = _operand(b, overwrite_b)
        n = _order(d)
        ptrs = _pointer(d, (n,), "d"), _pointer(e, (max(n - 1, 0),), "e")
        b_ptr, nrhs = _rhs(b, n)
        info = _INT()
        self._dpttrs(_INT(n), _INT(nrhs), *ptrs, b_ptr, _INT(max(n, 1)), info)
        return b, info.value

    def dgtsv(self, dl, d, du, b, overwrite_dl=0, overwrite_d=0, overwrite_du=0,
              overwrite_b=0):
        dl, d, du, b = (_operand(dl, overwrite_dl), _operand(d, overwrite_d),
                        _operand(du, overwrite_du), _operand(b, overwrite_b))
        n = _order(d)
        off = (max(n - 1, 0),)
        ptrs = _pointer(dl, off, "dl"), _pointer(d, (n,), "d"), _pointer(du, off, "du")
        b_ptr, nrhs = _rhs(b, n)
        info = _INT()
        self._dgtsv(_INT(n), _INT(nrhs), *ptrs, b_ptr, _INT(max(n, 1)), info)
        return dl, d, du, b, info.value


def _times(coef, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """coef * x, made in ``out``. The coefficient row is first copied out to
    x's shape: numpy 2.4 runs a broadcast operand of a product through a
    64 KiB copy buffer, but not a copy."""
    np.copyto(out, coef)
    return np.multiply(out, x, out=out)


def _max_abs(a: np.ndarray) -> float:
    # NaN anywhere makes both ends NaN, and np.maximum keeps it
    return float(np.maximum(a.max(), -a.min())) if a.size else 0.0


def check_residual(residual: np.ndarray, rhs: np.ndarray, tol: float, what: str,
                   x: np.ndarray, a_norm: float) -> None:
    """Raise unless ``max|residual| <= tol * (a_norm * max|x| + max|rhs|)``,
    the residual of ``A x = rhs`` with ``a_norm`` = ‖A‖∞; a NaN or infinite
    residual fails.

    That is the residual a backward-stable solve leaves, to a modest
    multiple of the unit roundoff (Rigal & Gaches 1967; Higham 2002, §7.1),
    so a large ‖A‖ does not fail a correct solve. A residual within ``tol``
    passes at once, before max|x| and max|rhs| are made.
    """
    res = _max_abs(residual)
    if res <= tol:
        return
    bound = tol * (a_norm * _max_abs(x) + _max_abs(rhs))
    # NaN compares false, so a NaN bound fails too
    if not (np.isfinite(res) and res <= bound):
        raise LinearSolveError(f"{what}: residual {res:.3e} exceeds {bound:.3e}")


class ZSolver:
    """rhs -> (I - c*A2)^-1 rhs along every row of rhs, as ``rhs @ inv_t``.

    M = I - c*A2 is one tridiagonal matrix for every row, read off
    ``a2_t`` = A2^T (dense, n >= 2 unknowns) with c = theta*dt. Its
    diagonals are laid out by the unknown they multiply, each one row as
    long as a row of rhs: M[i, i] = main[i], M[i + 1, i] = lower[i] and
    M[i - 1, i] = upper[i]. LAPACK ``dgtsv`` solves M X = I by LU with
    partial pivoting and returns X in Fortran order, whose transpose is
    ``inv_t`` = M^-T in C order at no copy; a pivot that is exactly zero
    raises. ``norm`` is ‖M‖∞, its largest absolute row sum, made once. The
    inverse, and every product with it, is checked by M's tridiagonal
    product against ``check_residual``'s rule.
    """

    def __init__(self, a2_t: np.ndarray, c: float, lin_tol: float):
        self._lin_tol = lin_tol
        lower, main, upper = self._m = (np.append(-c * np.diagonal(a2_t, 1), 0.0),
                                        1.0 - c * np.diagonal(a2_t),
                                        np.insert(-c * np.diagonal(a2_t, -1), 0, 0.0))
        n = main.size
        *_, x, info = _lapack().dgtsv(lower[:-1], main, upper[1:], np.eye(n, order="F"),
                                       overwrite_b=1)
        if info > 0:
            raise LinearSolveError(f"z-stage inverse: pivot at row {info - 1} is exactly zero")
        self.inv_t = x.T
        # row i of M is lower[i - 1], main[i], upper[i + 1]
        rows = np.abs(main)
        rows[1:] += np.abs(lower[:-1])
        rows[:-1] += np.abs(upper[1:])
        self.norm = float(rows.max())
        self._check(self.inv_t, np.eye(n), "z-stage inverse")

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        x = rhs @ self.inv_t
        self._check(x, rhs, "z-stage")
        return x

    def _check(self, x: np.ndarray, rhs: np.ndarray, what: str) -> None:
        # M x - rhs along every row of x. With lower = 0 on the last unknown
        # and upper = 0 on the first, no row reaches into the next, so the two
        # shifts are slices of the flattened arrays: on a 100 x 100 batch that
        # took 42 us, against 93 us with 2D slices
        lower, main, upper = self._m
        resid = _times(main, x, np.empty(np.shape(x)))
        shifted = _times(upper, x, np.empty(np.shape(x)))
        flat, flat_shifted = resid.reshape(-1), shifted.reshape(-1)
        flat[:-1] += flat_shifted[1:]
        _times(lower, x, shifted)
        flat[1:] += flat_shifted[:-1]
        resid -= rhs
        check_residual(resid, rhs, self._lin_tol, what, x, self.norm)


def x_layout(k: np.ndarray) -> tuple:
    """(k, identity rows, coupled, moved) of every x-system on the grid whose
    k = z*x^2/dx^2 is given flat, slice after slice: the rows where k is
    zero, whether rows i and i + 1 both have k > 0, and the pairs (regular
    row, identity row) for the regular rows after, then before, one."""
    regular = k > 0.0
    after = np.flatnonzero(regular[1:] & ~regular[:-1]) + 1
    before = np.flatnonzero(regular[:-1] & ~regular[1:])
    return (k, np.flatnonzero(~regular), regular[:-1] & regular[1:],
            ((after, after - 1), (before, before + 1)))


class XSolver:
    """rhs -> (I - c*A1(q))^-1 rhs, batched over the z-slices, for c > 0.

    A1 = 0.5*q^2*z*x^2*d_xx, so row i of I - c*A1, flat slice after slice,
    is (-t, 1 + 2*t, -t) with t = c*a, a = 0.5*q^2*k and the layout's k.
    Divided by a, a row reads (-c, 1/a + 2*c, -c): the batch is symmetric
    positive definite, and is factored once here; a pivot of D that is not
    positive and finite raises. Rows where k is zero, the ends of every
    slice and every z = 0 slice, are identity rows; their couplings move to
    the right-hand side as +c*b. A row with t below 2^-54, where 1 + 2*t
    rounds to 1, has its 1/a capped at c*2^54, so it stays an identity row
    to rounding and its scaled right-hand side finite. ``norm`` is
    ‖I - c*A1‖∞. Every call checks the unscaled system in difference form
    against ``check_residual``'s rule. A solver holds no reference to its
    caller, so one that is dropped is freed at once.
    """

    def __init__(self, layout: tuple, q: np.ndarray, c: float, lin_tol: float):
        k, identity_rows, coupled, self._moved = layout
        self._shape, self._c, self._lin_tol = q.shape, c, lin_tol
        # the coupling t = c*a = 0.5*c*q^2*k, flat, slice after slice, as k:
        # zero on the identity rows, the ends of every slice
        t = self._t = q.T.copy().reshape(-1)
        t *= t
        t *= k
        t *= 0.5 * c
        # the scaled system: each regular row divided by a, as c/(c*a), with
        # c*a at least 2^-54; the identity rows' c/1, later set to 1, keeps
        # a huge c from overflowing as c*2^54 there
        scale = self._scale = np.maximum(t, 2.0 ** -54)
        scale[identity_rows] = 1.0
        np.divide(c, scale, out=scale)
        d = scale + 2.0 * c
        d[identity_rows] = 1.0
        scale[identity_rows] = 1.0
        self._lapack = _lapack()
        # -c where two regular rows couple, and -0.0, as 0*(-c), elsewhere
        d, self._e, info = self._lapack.dpttrf(d, np.where(coupled, -c, -0.0),
                                               overwrite_d=1, overwrite_e=1)
        # dpttrf stops at the first pivot <= 0; NaN compares false and passes
        if info > 0 or not np.isfinite(d).all():
            row = info - 1 if info > 0 else int(np.argmax(~np.isfinite(d)))
            raise LinearSolveError(f"symmetric tridiagonal solve: pivot {d[row]:.3e} "
                                   f"at row {row} is not positive and finite")
        self._d = d
        self.norm = 1.0 + 4.0 * float(t.max())

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        b = rhs.T.copy().reshape(-1)
        del rhs  # frees a temporary passed to the bound method (``_Scheme.solve``)
        r = b * self._scale
        for row, identity_row in self._moved:
            r[row] += self._c * b[identity_row]
        x = self._lapack.dpttrs(self._d, self._e, r, overwrite_b=1)[0]
        # the unscaled residual x - t*(x[i-1] - 2*x[i] + x[i+1]) - b; t is
        # zero at the ends of every slice, so the shifts couple no two slices
        resid = np.multiply(-2.0, x)
        resid[1:] += x[:-1]
        resid[:-1] += x[1:]
        resid *= self._t
        np.subtract(x, resid, out=resid)
        resid -= b
        check_residual(resid, b, self._lin_tol, "x-stage", x, self.norm)
        del resid
        # checked, b is spent: the solution goes back out in its buffer
        out = b.reshape(self._shape)
        out[...] = x.reshape(self._shape[::-1]).T
        return out
