import numpy as np
import pytest
import scipy.sparse as sp

from uvbounds.core import GridSpec, ModelParams, SolverConfig
from uvbounds.linsolve import LinearSolveError, tridiag_solver
from uvbounds.solver_pdelta import _scheme, _Split
from reference import generator_matrix, lu_solve


def solve_batch(lower, main, upper, rhs, **kw):
    return tridiag_solver(lower, main, upper, **kw)(rhs)


def solve_one(lower, main, upper, rhs, **kw):
    """One tridiagonal system through the batch kernel, as a batch of one."""
    rows = [np.asarray(a, float)[None, :] for a in (lower, main, upper, rhs)]
    return solve_batch(*rows, **kw)[0]


def test_identity_returns_rhs():
    n = 7
    rhs = np.arange(n, dtype=float)
    np.testing.assert_array_equal(
        solve_one(np.zeros(n - 1), np.ones(n), np.zeros(n - 1), rhs), rhs)


def test_three_by_three_hand_solution():
    # 2x1 - x2 = 1; -x1 + 2x2 - x3 = 1; -x2 + 2x3 = 1  ->  (1.5, 2, 1.5)
    x = solve_one([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0], np.ones(3))
    np.testing.assert_allclose(x, [1.5, 2.0, 1.5], atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_random_diagonally_dominant_residual(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(3, 60)
    lower = rng.standard_normal(n - 1)
    upper = rng.standard_normal(n - 1)
    main = 3.0 + np.abs(rng.standard_normal(n)) + np.abs(lower).max() + np.abs(upper).max()
    main *= rng.choice([-1.0, 1.0], size=n)
    rhs = rng.standard_normal(n) * 10
    x = solve_one(lower, main, upper, rhs, lin_tol=1e-10)
    resid = np.abs(sp.diags([lower, main, upper], [-1, 0, 1]) @ x - rhs).max()
    assert resid <= 1e-10 * (1 + np.abs(rhs).max())


def test_batch_matches_individual_solves():
    rng = np.random.default_rng(11)
    nb, n = 5, 20
    lower = rng.standard_normal((nb, n - 1))
    upper = rng.standard_normal((nb, n - 1))
    main = 4.0 + np.abs(rng.standard_normal((nb, n)))
    rhs = rng.standard_normal((nb, n))
    batch = solve_batch(lower, main, upper, rhs)
    for b in range(nb):
        single = solve_one(lower[b], main[b], upper[b], rhs[b])
        np.testing.assert_array_equal(batch[b], single)


def test_row_interchanges_stay_inside_each_system():
    # |lower| > |main| makes partial pivoting swap rows; the zero couplings
    # between the flattened systems keep every swap inside its own system
    rng = np.random.default_rng(12)
    nb, n = 6, 9
    lower = 5.0 + rng.random((nb, n - 1))
    upper = rng.standard_normal((nb, n - 1))
    main = 0.1 * rng.standard_normal((nb, n))
    rhs = rng.standard_normal((nb, n))
    batch = solve_batch(lower, main, upper, rhs)
    for b in range(nb):
        single = solve_one(lower[b], main[b], upper[b], rhs[b])
        np.testing.assert_array_equal(batch[b], single)


def test_zero_thomas_pivot_solves():
    # [[0, 1], [1, 1]] x = b is nonsingular, though elimination without
    # pivoting meets a zero pivot in its first row
    rhs = np.array([2.0, 5.0])
    x = solve_one([1.0], [0.0, 1.0], [1.0], rhs, lin_tol=1e-12)
    resid = np.array([x[1], x[0] + x[1]]) - rhs
    assert np.abs(resid).max() <= 1e-12 * (1 + np.abs(rhs).max())


def test_singular_pivot_reports_row():
    with pytest.raises(LinearSolveError, match="row 1"):
        solve_one([0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0], np.ones(3))


def test_singular_pivot_reports_first_row_then_first_system():
    # zero pivots: system 0 at row 4, systems 1 and 2 at row 3. The earliest
    # row is reported, and the first system that fails there
    nb, n = 4, 6
    main = np.full((nb, n), 2.0)
    main[0, 4] = 0.0
    main[1, 3] = 0.0
    main[2, 3] = 0.0
    off = np.zeros((nb, n - 1))
    with pytest.raises(LinearSolveError, match=r"row 3 \(system 1\)"):
        solve_batch(off, main, off, np.ones((nb, n)))


# -- the LU reference step of the 2D scheme ------------------------------------

PARAMS = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                     kappa=15, theta=0.04, delta=0.05, rho=-0.9)


def _reference(n_x=12, n_z=9, seed=0, params=PARAMS):
    """The LU step on a production grid, with a random control field in the band."""
    grid = GridSpec(0, 200, n_x, 0, 0.12, n_z, 4)
    q = np.random.default_rng(seed).uniform(params.d, params.u, size=(n_x, n_z))
    return grid, q, lu_solve(params, grid, 1e-10)


def test_banded_identity():
    # dt = 0: the system is the identity
    _, q, solve = _reference()
    w = np.arange(q.size, dtype=float).reshape(q.shape)
    np.testing.assert_allclose(solve(q, w, 0.0, 0.5), w, atol=1e-14)


def test_banded_manufactured_solution():
    # fully implicit: (I - dt*A) w_true, with A applied in values form, solves back
    grid, q, solve = _reference()
    split = _Split(PARAMS, grid)
    w_true = np.random.default_rng(5).standard_normal(q.shape)
    dt = grid.dt(PARAMS.T)
    a_w = split.a0(q, w_true) + split.a1(q, w_true) + split.a2(w_true)
    w = solve(q, w_true - dt * a_w, dt, 1.0)
    assert np.max(np.abs(w - w_true)) <= 1e-8


def test_banded_block_diagonal_matches_tridiag():
    # no z-coupling at delta = 0: the system is one tridiagonal problem per z-slice
    p = PARAMS.replace(delta=0.0)
    grid, q, solve = _reference(n_x=10, n_z=4, seed=9, params=p)
    w = np.random.default_rng(9).standard_normal(q.shape)
    dt = grid.dt(p.T)
    _, x_stage = _scheme(_Split(p, grid), SolverConfig(lin_tol=1e-10))
    want = x_stage(q, w, dt, 0.5)
    np.testing.assert_allclose(solve(q, w, dt, 0.5), want, atol=1e-9)


def test_singular_banded_raises():
    # 3 x 1 nodes, dx = 1, z = 0.25, q = 1: the generator's middle row is
    # (0.125, -0.25, 0.125), so at theta*dt = -4 the middle column of
    # I - theta*dt*A is zero
    grid = GridSpec(0, 2, 3, 0.25, 0.25, 1, 1)
    solve = lu_solve(PARAMS, grid, 1e-10)
    with pytest.raises(LinearSolveError):
        solve(np.ones((3, 1)), np.ones((3, 1)), -4.0, 1.0)


def test_banded_validate_finds_nonfinite():
    # a NaN control puts NaN in the matrix: the solve raises, never returns NaN
    grid, q, solve = _reference()
    q[5, 4] = np.nan
    with pytest.raises(LinearSolveError):
        solve(q, np.ones(q.shape), grid.dt(PARAMS.T), 0.5)


def test_production_matrix_has_nine_point_footprint():
    grid, q, _ = _reference()
    a = generator_matrix(_Split(PARAMS, grid), q)
    assert np.diff(a.indptr).max() <= 9
