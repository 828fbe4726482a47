import re
import sys

import numpy as np
import pytest

from uvbounds import linsolve
from uvbounds.core import GridSpec, SolverConfig
from uvbounds.linsolve import LinearSolveError
from uvbounds.solver_pdelta import _Scheme
from reference import PAPER_CFG, PARAMS, generator_matrix, lu_solve


def test_loaded_lapack_is_bitwise_scipy_linalg_lapack(monkeypatch):
    # each source of the routines gives scipy.linalg.lapack's factors and
    # solutions, bit for bit, on a batch laid out as the x-stage's is, and
    # dgtsv's inverse of a tridiagonal matrix as the z-stage builds it
    from scipy.linalg import lapack

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")  # load it by path
    rng = np.random.default_rng(17)
    n = 300
    d = 3.0 + rng.random(n)
    e = rng.uniform(-1.0, 1.0, n - 1)
    e[24::25] = 0.0  # zero couplings between systems of 25
    rhs = np.asfortranarray(rng.standard_normal((n, 3)))
    lower, upper = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
    ldlt = lapack.dpttrf(d, e)
    want = [*ldlt, *lapack.dpttrs(*ldlt[:2], rhs),
            *lapack.dgtsv(lower, d, upper, np.eye(n, order="F"))]
    assert ldlt[-1] == 0 and want[-1] == 0
    # scipy's wrappers loaded by file path, past the cache, and numpy's,
    # where its extension exports them
    for ours in [linsolve._flapack.__wrapped__(), linsolve._numpy_lapack()]:
        if ours is None:
            continue
        got = [*ours.dpttrf(d, e), *ours.dpttrs(*ldlt[:2], rhs),
               *ours.dgtsv(lower, d, upper, np.eye(n, order="F"))]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def _valid_arguments(routine: str):
    """(args, overwrite flags) of a valid call, each array overwritten in place."""
    n = 6
    d, e = np.full(n, 3.0), np.full(n - 1, -1.0)
    return {"dpttrf": ((d, e), {"overwrite_d": 1, "overwrite_e": 1}),
            "dpttrs": ((d, e, np.ones(n)), {"overwrite_b": 1}),
            "dgtsv": ((e, d, e.copy(), np.eye(n, order="F")),
                      {"overwrite_dl": 1, "overwrite_d": 1, "overwrite_du": 1,
                       "overwrite_b": 1})}[routine]


@pytest.mark.parametrize("routine", ["dpttrf", "dpttrs", "dgtsv"])
@pytest.mark.parametrize("spoil", ["float32", "strided", "read-only", "short", "long"])
def test_numpy_lapack_rejects_a_bad_array_before_any_call(routine, spoil):
    # ctypes passes a bare pointer: every array is checked before it, in
    # place as the solves pass them, and a bad one raises ValueError
    calls = []  # the stand-ins for the ctypes functions record each call
    lapack = linsolve._NumpyLapack(*[lambda *args: calls.append(args) for _ in range(3)])
    method = getattr(lapack, routine)
    args, flags = _valid_arguments(routine)
    method(*args, **flags)
    assert len(calls) == 1
    for i, a in enumerate(args):
        bad = list(args)
        if spoil == "float32":
            bad[i] = a.astype(np.float32)
        elif spoil == "strided":
            bad[i] = np.repeat(a, 2, axis=0)[::2]
        elif spoil == "read-only":
            bad[i] = a.copy(order="A")
            bad[i].setflags(write=False)
        elif spoil == "short":
            bad[i] = a[:-1]
        else:
            bad[i] = np.concatenate([a, a[:1]])
        with pytest.raises(ValueError, match="need a"):
            method(*bad, **flags)
    assert len(calls) == 1


def test_the_scipy_fallback_gives_the_same_csv_bytes(monkeypatch, tmp_path):
    # the resolver finds none of numpy's names, so the solves load scipy's
    # wrappers; both paths give every CSV of solve-pdelta byte for byte
    from uvbounds.cli import run

    argv = ["solve-pdelta", "--config", str(PAPER_CFG), "--set", "grid.n_x=40",
            "--set", "grid.n_z=10", "--set", "grid.n_t=4", "--out"]
    assert run([*argv, str(tmp_path / "default")]) == 0
    monkeypatch.setattr(linsolve, "_SYMBOL", "uvbounds_no_such_{}_")
    monkeypatch.setattr(linsolve, "_numpy_lapack", linsolve._numpy_lapack.__wrapped__)
    assert linsolve._numpy_lapack() is None
    assert linsolve.lapack_name() == "scipy _flapack"
    assert run([*argv, str(tmp_path / "fallback")]) == 0
    csvs = sorted(path.name for path in (tmp_path / "default").glob("*.csv"))
    assert csvs and csvs == sorted(path.name for path in (tmp_path / "fallback").glob("*.csv"))
    for name in csvs:
        assert (tmp_path / "default" / name).read_bytes() == \
            (tmp_path / "fallback" / name).read_bytes()


def test_missing_lapack_extension_names_its_path(monkeypatch, tmp_path):
    fake_scipy = tmp_path / "scipy"
    (fake_scipy / "linalg").mkdir(parents=True)
    monkeypatch.setattr(linsolve, "_scipy_dir", lambda: fake_scipy)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with pytest.raises(ImportError, match=re.escape(str(fake_scipy / "linalg" / "_flapack"))):
        linsolve._flapack.__wrapped__()  # past the cache


# -- the z-system's solver -----------------------------------------------------

def _z_solver(m):
    """(solver, M): the ``ZSolver`` of M = I - 1*A2 with A2 = I - m, and that
    M, dense, bitwise the matrix the solver reads; M is the tridiagonal m up
    to the rounding of 1 - (1 - m[i, i])."""
    a2 = np.eye(len(m)) - m
    return linsolve.ZSolver(a2.T, 1.0, SolverConfig().lin_tol), np.eye(len(m)) - a2


@pytest.mark.parametrize("n", [2, 3, 100])
def test_tridiag_inverse_matches_numpy_inverse(n):
    # against numpy's dense LU inverse, transposed, with a tolerance fixed in
    # advance
    rng = np.random.default_rng(41 + n)
    solver, m = _z_solver(np.diag(1.0 + rng.random(n))
                          + np.diag(rng.uniform(-1.0, 1.0, n - 1), 1)
                          + np.diag(rng.uniform(-1.0, 1.0, n - 1), -1))
    want = np.linalg.inv(m).T
    got = solver.inv_t
    assert got.shape == (n, n) and got.flags.c_contiguous
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m,match", [
    ([[1.0, 1.0], [1.0, 1.0]], "z-stage inverse: pivot at row 1 is exactly zero"),  # 1 - 1 = 0
], ids=["2x2"])
def test_tridiag_inverse_exact_zero_pivot_raises(m, match):
    with pytest.raises(LinearSolveError, match=match):
        _z_solver(np.array(m))


@pytest.mark.parametrize("n", [2, 3, 100])
def test_tridiag_norm_is_the_largest_absolute_row_sum(n):
    rng = np.random.default_rng(53 + n)
    solver, m = _z_solver(np.diag(rng.uniform(-5.0, 5.0, n))
                          + np.diag(rng.uniform(-5.0, 5.0, n - 1), 1)
                          + np.diag(rng.uniform(-5.0, 5.0, n - 1), -1))
    assert solver.norm == pytest.approx(np.linalg.norm(m, np.inf), rel=1e-15)


def test_residual_bound_scales_with_the_norm_and_the_solution():
    # tol*(‖A‖∞*max|x| + max|b|) = 1e-10*(1e4*2 + 3); a residual within tol
    # passes before the bound is made, so even a NaN norm is not read there
    x, b = np.array([2.0, -1.0]), np.array([-3.0, 1.0])
    bound = 1e-10 * (1e4 * 2.0 + 3.0)
    linsolve.check_residual(np.array([1e-10, 0.0]), b, 1e-10, "t", x, np.nan)
    linsolve.check_residual(np.array([0.0, -bound]), b, 1e-10, "t", x, 1e4)
    with pytest.raises(LinearSolveError, match=r"t: residual 2\.000e-06 exceeds 2\.000e-06"):
        linsolve.check_residual(np.array([0.0, np.nextafter(bound, 1.0)]), b, 1e-10, "t", x,
                                1e4)
    for bad in (np.nan, np.inf):
        with pytest.raises(LinearSolveError, match=f"t: residual {bad} exceeds"):
            linsolve.check_residual(np.array([bad, 0.0]), b, 1e-10, "t", x, np.inf)
    with pytest.raises(LinearSolveError, match="t: residual 1.000e-09 exceeds nan"):
        linsolve.check_residual(np.array([1e-9, 0.0]), b, 1e-10, "t", x, np.nan)


# -- the LU reference step of the 2D scheme ------------------------------------



def _reference(n_x=12, n_z=9, seed=0, params=PARAMS):
    """The LU step on a production grid, with a random control field in the band,
    as ``solve(q, w_next, dt, theta)``."""
    grid = GridSpec(0, 200, n_x, 0, 0.12, n_z, 4)
    q = np.random.default_rng(seed).uniform(params.d, params.u, size=(n_x, n_z))
    scheme = _Scheme(params, grid)
    lu = lu_solve(scheme)
    return grid, q, lambda q, w, dt, theta: lu(q, scheme.select(w)[1], dt, theta)


def test_banded_identity():
    # dt = 0: the system is the identity
    _, q, solve = _reference()
    w = np.arange(q.size, dtype=float).reshape(q.shape)
    np.testing.assert_allclose(solve(q, w, 0.0, 0.5), w, atol=1e-14)


def test_banded_manufactured_solution():
    # fully implicit: (I - dt*A) w_true, with A applied in values form, solves back
    grid, q, solve = _reference()
    scheme = _Scheme(PARAMS, grid)
    w_true = np.random.default_rng(5).standard_normal(q.shape)
    dt = grid.dt(PARAMS.T)
    a_w = scheme.a0(q, w_true) + scheme.a1(q, w_true) + scheme.a2(w_true)
    w = solve(q, w_true - dt * a_w, dt, 1.0)
    assert np.max(np.abs(w - w_true)) <= 1e-8


def test_banded_block_diagonal_matches_tridiag():
    # no z-coupling at delta = 0: the system is one tridiagonal problem per z-slice
    p = PARAMS.replace(delta=0.0)
    grid, q, solve = _reference(n_x=10, n_z=4, seed=9, params=p)
    w = np.random.default_rng(9).standard_normal(q.shape)
    dt = grid.dt(p.T)
    scheme = _Scheme(p, grid)
    want = scheme.solve(q, scheme.select(w)[1], dt, 0.5)
    np.testing.assert_allclose(solve(q, w, dt, 0.5), want, atol=1e-9)


def test_singular_banded_raises():
    # 3 x 1 nodes, dx = 1, z = 0.25, q = 1: the generator's middle row is
    # (0.125, -0.25, 0.125), so at theta*dt = -4 the middle column of
    # I - theta*dt*A is zero
    grid = GridSpec(0, 2, 3, 0.25, 0.25, 1, 1)
    scheme = _Scheme(PARAMS, grid)
    solve = lu_solve(scheme)
    fields = scheme.select(np.ones((3, 1)))[1]
    with pytest.raises(LinearSolveError):
        solve(np.ones((3, 1)), fields, -4.0, 1.0)


def test_banded_validate_finds_nonfinite():
    # a NaN control puts NaN in the matrix: the solve raises, never returns NaN
    grid, q, solve = _reference()
    q[5, 4] = np.nan
    with pytest.raises(LinearSolveError):
        solve(q, np.ones(q.shape), grid.dt(PARAMS.T), 0.5)


def test_production_matrix_has_nine_point_footprint():
    grid, q, _ = _reference()
    a = generator_matrix(_Scheme(PARAMS, grid), q)
    assert np.diff(a.indptr).max() <= 9
