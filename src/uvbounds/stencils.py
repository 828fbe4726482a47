"""Discrete differential operators on (x, z) surfaces.

Interior nodes use the classical central formulas:

    d_xx s = (s[i+1,j] + s[i-1,j] - 2 s[i,j]) / dx^2
    d_xz s = (s[i+1,j+1] + s[i-1,j-1] - s[i-1,j+1] - s[i+1,j-1]) / (4 dx dz)

and the analogues for d_x, d_z, d_zz. Each operator has one definition,
``*_values``, applied to an (n_x, n_z) array. Every output node reads only
the 3x3 block of nodes around it; the solvers rely on that to probe the
matrices they need from these functions. Boundary rules:

* d_xx, d_zz are zero on their boundary rows/columns. With the payoff
  affine near both x-boundaries this is exact there, and at z = 0 the
  diffusion coefficient z vanishes anyway.
* d_x, d_z fall back to one-sided two-point differences.
* d_xz is the composition d_x(d_z(s)), which reproduces the 4-point cross
  stencil at interior nodes and goes one-sided in whichever direction
  touches a boundary.

The control selection reads two composite fields, scaled by coordinates:
z*x^2*d_xx (``lxx_values``) and x*z*d_xz (``lxz_values``).
Sign tests on these fields and on d_xx count magnitudes below a threshold
as zero through one rule, ``deadband``.

A degenerate grid with a single z-node makes every z-derivative zero.
"""

from __future__ import annotations

import numpy as np

from .core import GridSpec

__all__ = [
    "dx_values", "dxx_values", "dz_values", "dzz_values", "dxz_values",
    "lxx_values", "lxz_values",
    "deadband",
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


def deadband(field, eps: float) -> np.ndarray:
    """``field`` with magnitudes below ``eps`` set to zero.

    The one deadband rule of every sign test: a field value inside the
    band counts as zero, so it falls on the nonnegative branch, and ties
    break toward the upper volatility bound.
    """
    field = np.asarray(field, dtype=float)
    return np.where(np.abs(field) < eps, 0.0, field)
