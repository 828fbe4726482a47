"""Discrete differential operators on (x, z) surfaces.

Interior nodes use the classical central formulas:

    d_xx s = (s[i+1,j] + s[i-1,j] - 2 s[i,j]) / dx^2
    d_xz s = (s[i+1,j+1] + s[i-1,j-1] - s[i-1,j+1] - s[i+1,j-1]) / (4 dx dz)

and the analogues for d_x, d_z, d_zz. Each operator has one definition,
``*_values``, applied to an (n_x, n_z) array. Every output node reads only
the 3x3 block of nodes around it; the solvers rely on that to probe the
matrices they need from these functions. Boundary rules:

* Every x-difference (d_x, d_xx and so d_xz) is zero on the x-boundary
  rows i = 0 and n_x - 1. The x-domain is truncated, so those rows are
  boundary conditions, not PDE rows: no x-term of any price (x-diffusion,
  cross term, P1's source) acts on them. With the payoff affine near both
  x-boundaries, the zero d_xx is exact there.
* d_zz is zero on its boundary columns; at z = 0 the diffusion
  coefficient z vanishes anyway. d_z falls back to one-sided two-point
  differences there.
* d_xz is the composition d_x(d_z(s)), which reproduces the 4-point cross
  stencil at interior nodes, goes one-sided in z at a z-boundary and is
  zero on the x-boundary rows.

The control selection reads two composite fields, scaled by coordinates:
z*x^2*d_xx (``lxx_values``) and x*z*d_xz (``lxz_values``). Their
coefficient arrays z*x^2 and x*z depend on the (x, z) nodes alone, so each
spatial grid's pair is built once, whatever n_t, and kept read-only.
Sign tests on these fields and on d_xx count magnitudes below a threshold
as zero through one rule, ``deadband``.

A degenerate grid with a single z-node makes every z-derivative zero.
"""

from __future__ import annotations

import functools

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
    out = np.zeros_like(v, dtype=float)
    np.divide(np.subtract(v[2:], v[:-2], out=out[1:-1]), 2.0 * grid.dx, out=out[1:-1])
    return out


def dxx_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    _require_axis_nodes(v, 0, 3, "d_xx")
    out = np.zeros_like(v, dtype=float)
    inner = np.add(v[2:], v[:-2], out=out[1:-1])
    inner -= 2.0 * v[1:-1]
    inner /= grid.dx ** 2
    return out


def dz_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    if grid.n_z == 1:
        return np.zeros_like(v, dtype=float)
    _require_axis_nodes(v, 1, 2, "d_z")
    out = np.empty(np.shape(v))
    h = grid.dz
    # the interior as shifts along the flat arrays, which numpy runs without
    # the copy buffers it takes for column slices; at j = 0 and n_z - 1 the
    # shifts reach across rows, and the one-sided columns overwrite those
    flat, flat_v = out.reshape(-1), np.reshape(v, -1)
    np.divide(np.subtract(flat_v[2:], flat_v[:-2], out=flat[1:-1]), 2.0 * h, out=flat[1:-1])
    out[:, 0] = (v[:, 1] - v[:, 0]) / h
    out[:, -1] = (v[:, -1] - v[:, -2]) / h
    return out


def dzz_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    if grid.n_z == 1:
        return np.zeros_like(v, dtype=float)
    out = np.empty(np.shape(v))
    flat, flat_v = out.reshape(-1), np.reshape(v, -1)  # flat shifts, as in dz_values
    inner = np.add(flat_v[2:], flat_v[:-2], out=flat[1:-1])
    inner -= 2.0 * flat_v[1:-1]
    inner /= grid.dz ** 2
    out[:, 0] = out[:, -1] = 0.0  # where the shifts reach across rows
    return out


def dxz_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    return dx_values(dz_values(v, grid), grid)


# -- coefficient fields ------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _coefficients(x_min: float, x_max: float, n_x: int,
                  z_min: float, z_max: float, n_z: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (n_x, n_z) arrays z*x^2 and x*z of a grid's nodes.

    Keyed on the spatial fields alone, so every n_t on one (x, z) grid
    shares one pair.
    """
    grid = GridSpec(x_min, x_max, n_x, z_min, z_max, n_z, 1)
    x, z = grid.x_nodes()[:, None], grid.z_nodes()[None, :]
    fields = (z * x ** 2, x * z)
    for f in fields:
        f.setflags(write=False)
    return fields


def _spatial(grid: GridSpec) -> tuple:
    return grid.x_min, grid.x_max, grid.n_x, grid.z_min, grid.z_max, grid.n_z


def lxx_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = dxx_values(v, grid)
    out *= _coefficients(*_spatial(grid))[0]
    return out


def lxz_values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = dxz_values(v, grid)
    out *= _coefficients(*_spatial(grid))[1]
    return out


def deadband(field, eps: float) -> np.ndarray:
    """``field`` with magnitudes below ``eps`` set to zero.

    The one deadband rule of every sign test: a field value inside the
    band counts as zero, so it falls on the nonnegative branch, and ties
    break toward the upper volatility bound.
    """
    field = np.asarray(field, dtype=float)
    return np.where(np.abs(field) < eps, 0.0, field)
