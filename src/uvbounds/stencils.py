"""Discrete differential operators on (x, z) surfaces.

Interior nodes use the classical central formulas:

    d_xx s = (s[i+1,j] + s[i-1,j] - 2 s[i,j]) / dx^2
    d_xz s = (s[i+1,j+1] + s[i-1,j-1] - s[i-1,j+1] - s[i+1,j-1]) / (4 dx dz)

and the analogues for d_x, d_z, d_zz. Each operator comes in two forms,
``*_values`` applied to an (n_x, n_z) array and ``*_matrix`` acting on the
row-major flattened surface. Boundary rules, used consistently by both:

* d_xx, d_zz are zero on their boundary rows/columns. With the payoff
  affine near both x-boundaries this is exact there, and at z = 0 the
  diffusion coefficient z vanishes anyway.
* d_x, d_z fall back to one-sided two-point differences.
* d_xz is the composition d_x(d_z(s)), which reproduces the 4-point cross
  stencil at interior nodes and goes one-sided in whichever direction
  touches a boundary.

The control selection reads two composite fields, scaled by coordinates:
z*x^2*d_xx (``lxx_values``) and x*z*d_xz (``lxz_values``).

A degenerate grid with a single z-node makes every z-derivative zero.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .core import GridSpec

__all__ = [
    "dx_values", "dxx_values", "dz_values", "dzz_values", "dxz_values",
    "lxx_values", "lxz_values",
    "dx_matrix", "dz_matrix", "dxx_matrix", "dzz_matrix", "dxz_matrix",
    "sign_with_deadband",
]


def _require_axis_nodes(s: np.ndarray, axis: int, n: int, op: str) -> None:
    if s.shape[axis] < n:
        raise ValueError(f"{op}: need at least {n} nodes along axis {axis}, "
                         f"got shape {s.shape}")


def dx_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    _require_axis_nodes(v, 0, 2, "d_x")
    out = np.empty_like(v, dtype=float)
    h = grid.dx
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (v[1] - v[0]) / h
    out[-1] = (v[-1] - v[-2]) / h
    return out


def dxx_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    _require_axis_nodes(v, 0, 3, "d_xx")
    out = np.zeros_like(v, dtype=float)
    out[1:-1] = (v[2:] + v[:-2] - 2.0 * v[1:-1]) / grid.dx ** 2
    return out


def dz_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    if grid.n_z == 1:
        return np.zeros_like(v, dtype=float)
    _require_axis_nodes(v, 1, 2, "d_z")
    out = np.empty_like(v, dtype=float)
    h = grid.dz
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * h)
    out[:, 0] = (v[:, 1] - v[:, 0]) / h
    out[:, -1] = (v[:, -1] - v[:, -2]) / h
    return out


def dzz_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = np.zeros_like(v, dtype=float)
    if grid.n_z < 3:
        return out
    out[:, 1:-1] = (v[:, 2:] + v[:, :-2] - 2.0 * v[:, 1:-1]) / grid.dz ** 2
    return out


def dxz_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    if grid.n_z == 1:
        return np.zeros_like(v, dtype=float)
    return dx_values(dz_values(v, grid), grid)


# -- coefficient fields ------------------------------------------------------

def _coords(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """x and z as broadcastable (n_x, 1) and (1, n_z) arrays."""
    return grid.x_nodes()[:, None], grid.z_nodes()[None, :]


def lxx_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    x, z = _coords(grid)
    return z * x ** 2 * dxx_values(v, grid)


def lxz_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    x, z = _coords(grid)
    return x * z * dxz_values(v, grid)


# -- sparse-matrix forms -----------------------------------------------------
#
# Surfaces flatten row-major, flat = i * n_z + j, so an operator along x is
# kron(D1, I_nz) and one along z is kron(I_nx, D1).

def _first_diff_1d(n: int, h: float) -> sp.csr_matrix:
    if n == 1:
        return sp.csr_matrix((1, 1))
    m = sp.lil_matrix((n, n))
    for i in range(1, n - 1):
        m[i, i - 1] = -0.5 / h
        m[i, i + 1] = 0.5 / h
    m[0, 0] = -1.0 / h
    m[0, 1] = 1.0 / h
    m[n - 1, n - 2] = -1.0 / h
    m[n - 1, n - 1] = 1.0 / h
    return m.tocsr()


def _second_diff_1d(n: int, h: float) -> sp.csr_matrix:
    m = sp.lil_matrix((n, n))
    if n >= 3:
        for i in range(1, n - 1):
            m[i, i - 1] = 1.0 / h ** 2
            m[i, i] = -2.0 / h ** 2
            m[i, i + 1] = 1.0 / h ** 2
    return m.tocsr()


def dx_matrix(grid: GridSpec) -> sp.csr_matrix:
    return sp.kron(_first_diff_1d(grid.n_x, grid.dx), sp.identity(grid.n_z), format="csr")


def dxx_matrix(grid: GridSpec) -> sp.csr_matrix:
    return sp.kron(_second_diff_1d(grid.n_x, grid.dx), sp.identity(grid.n_z), format="csr")


def dz_matrix(grid: GridSpec) -> sp.csr_matrix:
    if grid.n_z == 1:
        return sp.csr_matrix((grid.n_x, grid.n_x))
    return sp.kron(sp.identity(grid.n_x), _first_diff_1d(grid.n_z, grid.dz), format="csr")


def dzz_matrix(grid: GridSpec) -> sp.csr_matrix:
    if grid.n_z == 1:
        return sp.csr_matrix((grid.n_x, grid.n_x))
    return sp.kron(sp.identity(grid.n_x), _second_diff_1d(grid.n_z, grid.dz), format="csr")


def dxz_matrix(grid: GridSpec) -> sp.csr_matrix:
    if grid.n_z == 1:
        n = grid.n_x * grid.n_z
        return sp.csr_matrix((n, n))
    return (dx_matrix(grid) @ dz_matrix(grid)).tocsr()


def sign_with_deadband(values: np.ndarray, eps: float) -> np.ndarray:
    """Branch selector for gamma-sign tests: +1 on the ">= 0" branch.

    Magnitudes below eps count as zero and fall on the +1 branch, so ties
    break deterministically toward the upper volatility bound.
    """
    return np.where(np.asarray(values) > -eps, 1, -1)
