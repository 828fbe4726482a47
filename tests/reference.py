"""Reference implementations the tests compare the package against.

Not collected by pytest (no ``test_`` prefix); test modules import it as
``reference``.

* ``generator_matrix`` and ``lu_solve``: the unsplit weighted step of the
  2D equation, its 9-point matrix probed from the same values-form
  operators as the Craig-Sneyd step and solved by sparse LU. The split
  step differs from it by O(dt^2).
* ``brownian_increments``: one step's correlated shocks for all paths in
  a single draw, the unchunked form of what the Monte Carlo path kernel
  draws chunk by chunk.
* ``write_rows_csv``: the CSV dialect written one row at a time, each cell
  through ``csvio.fmt``; the package's column writer must match its bytes.
  ``read_csv`` reads a file back as raw strings.
"""

import csv
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from uvbounds.core import GridSpec, ModelParams
from uvbounds.csvio import fmt
from uvbounds.linsolve import LinearSolveError, _check_residual
from uvbounds.montecarlo import _correlate, _stream
from uvbounds.solver_pdelta import _Split


def generator_matrix(split: _Split, q: np.ndarray):
    """A(q) = A0 + A1 + A2 as a sparse matrix on the row-major flattened grid.

    Probed from the values-form operators with nine colours (i mod 3,
    j mod 3): each output node's 3x3 footprint meets exactly one node of
    each colour, so every probe yields one matrix column per node.
    """
    grid = split.grid
    n = grid.n_x * grid.n_z
    i = np.arange(grid.n_x)[:, None]
    j = np.arange(grid.n_z)[None, :]
    row = np.arange(n).reshape(grid.n_x, grid.n_z)
    rows, cols, vals = [], [], []
    for ci in range(3):
        for cj in range(3):
            probe = np.zeros((grid.n_x, grid.n_z))
            probe[ci::3, cj::3] = 1.0
            y = split.a0(q, probe) + split.a1(q, probe) + split.a2(probe)
            # the node of this colour in {i-1, i, i+1} x {j-1, j, j+1}
            col = (i + (ci - i + 1) % 3 - 1) * grid.n_z + (j + (cj - j + 1) % 3 - 1)
            hit = y != 0.0
            rows.append(row[hit])
            cols.append(col[hit])
            vals.append(y[hit])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def lu_solve(params: ModelParams, grid: GridSpec, lin_tol: float):
    """Reference implicit step: the unsplit weighted system, by sparse LU.

    A drop-in for the Craig-Sneyd ``solve`` of ``solver_pdelta._scheme``,
    so tests can march both and bound the splitting error.
    """
    split = _Split(params, grid)

    def solve(q: np.ndarray, w_next: np.ndarray, dt: float, theta: float) -> np.ndarray:
        gen = generator_matrix(split, q)
        flat = w_next.ravel()
        rhs = flat + (1.0 - theta) * dt * (gen @ flat)
        a = sp.csc_matrix(sp.identity(len(flat)) - theta * dt * gen)
        try:
            x = spla.splu(a).solve(rhs)
        except RuntimeError as exc:  # exactly singular factor
            raise LinearSolveError(f"sparse LU failed: {exc}") from exc
        _check_residual(a @ x - rhs, rhs, lin_tol, "sparse LU")
        return x.reshape(w_next.shape)

    return solve


def brownian_increments(seed: int, step: int, n_paths: int, rho: float,
                        dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Correlated increment pair (dW, dW_z) for one time step.

    dW drives the asset, dW_z the variance process; corr(dW, dW_z) = rho.
    Path p consumes the step-block's draws 2p and 2p+1, so its increments
    do not depend on how many paths the run asked for.
    """
    return _correlate(_stream(seed, step).standard_normal((n_paths, 2)), rho, dt)


def write_rows_csv(path, header, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a CSV file, every cell a raw string."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)
