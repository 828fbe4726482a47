import numpy as np
import pytest
import scipy.sparse as sp

from uvbounds.core import GridSpec, ModelParams
from uvbounds.linsolve import BandedSystem, LinearSolveError, solve_banded, solve_tridiag_batch


def solve_one(lower, main, upper, rhs, **kw):
    """One tridiagonal system through the batch kernel, as a batch of one."""
    rows = [np.asarray(a, float)[None, :] for a in (lower, main, upper, rhs)]
    return solve_tridiag_batch(*rows, **kw)[0]


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
    batch = solve_tridiag_batch(lower, main, upper, rhs)
    for b in range(nb):
        single = solve_one(lower[b], main[b], upper[b], rhs[b])
        np.testing.assert_array_equal(batch[b], single)


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
        solve_tridiag_batch(off, main, off, np.ones((nb, n)))


# -- banded ---------------------------------------------------------------

def _cn_like_matrix(n_x=12, n_z=9, seed=0):
    """Implicit-step matrix of the 2D scheme, the real production pattern."""
    from uvbounds.solver_pdelta import _Assembler
    rng = np.random.default_rng(seed)
    grid = GridSpec(0, 200, n_x, 0, 0.12, n_z, 4)
    params = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                         kappa=15, theta=0.04, delta=0.05, rho=-0.9)
    asm = _Assembler(grid)
    q = rng.uniform(params.d, params.u, size=(n_x, n_z))
    gen = asm.generator(q, params)
    return (asm.eye - 0.5 * grid.dt(params.T) * gen).tocsr()


def test_banded_identity():
    n = 30
    sys_ = BandedSystem(sp.identity(n, format="csr"), np.arange(n, dtype=float))
    np.testing.assert_allclose(solve_banded(sys_), np.arange(n), atol=1e-14)


def test_banded_manufactured_solution():
    a = _cn_like_matrix()
    rng = np.random.default_rng(5)
    x_true = rng.standard_normal(a.shape[0])
    rhs = a @ x_true
    x = solve_banded(BandedSystem(a, rhs))
    assert np.max(np.abs(x - x_true)) <= 1e-8


def test_banded_block_diagonal_matches_tridiag():
    # no z-coupling: the system is n_z independent tridiagonal problems
    rng = np.random.default_rng(9)
    n_x, n_z = 10, 4
    blocks = []
    parts = []
    for _ in range(n_z):
        lower = rng.standard_normal(n_x - 1) * 0.1
        upper = rng.standard_normal(n_x - 1) * 0.1
        main = 2.0 + np.abs(rng.standard_normal(n_x))
        blocks.append((lower, main, upper))
        parts.append(sp.diags([lower, main, upper], [-1, 0, 1]))
    # flat index = i * n_z + j: permute the block-diagonal (j-major) matrix
    perm = np.arange(n_x * n_z).reshape(n_x, n_z).T.ravel()
    p = sp.csr_matrix((np.ones(n_x * n_z), (perm, np.arange(n_x * n_z))))
    a = (p @ sp.block_diag(parts) @ p.T).tocsr()
    rhs = rng.standard_normal(n_x * n_z)
    x = solve_banded(BandedSystem(a, rhs))
    for j, (lower, main, upper) in enumerate(blocks):
        slice_rhs = rhs.reshape(n_x, n_z)[:, j]
        want = solve_one(lower, main, upper, slice_rhs)
        np.testing.assert_allclose(x.reshape(n_x, n_z)[:, j], want, atol=1e-9)


def test_iterative_agrees_with_direct():
    a = _cn_like_matrix(seed=3)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(a.shape[0])
    xd = solve_banded(BandedSystem(a, rhs), method="direct")
    xi = solve_banded(BandedSystem(a, rhs), method="iterative")
    np.testing.assert_allclose(xi, xd, atol=1e-7)


def test_singular_banded_raises():
    a = sp.csr_matrix(np.zeros((4, 4)))
    with pytest.raises(LinearSolveError):
        solve_banded(BandedSystem(a, np.ones(4)))


def test_banded_validate_finds_nonfinite():
    # the residual check of the banded solve rejects a NaN matrix
    a = sp.csr_matrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(LinearSolveError):
        solve_banded(BandedSystem(a, np.ones(2)))


def test_production_matrix_has_nine_point_footprint():
    a = _cn_like_matrix()
    per_row = np.diff(a.indptr)
    assert per_row.max() <= 9
    BandedSystem(a, np.zeros(a.shape[0]))  # shape/rhs checks pass


def test_unknown_method_rejected():
    sys_ = BandedSystem(sp.identity(3, format="csr"), np.ones(3))
    with pytest.raises(ValueError):
        solve_banded(sys_, method="magic")
