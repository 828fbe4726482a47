import gc
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from uvbounds import linsolve, solver_pdelta
from uvbounds.blackscholes import bs_call
from uvbounds.core import GridSpec, SolverConfig, SolverError
from uvbounds.linsolve import LinearSolveError
from uvbounds.payoff import PayoffSpec, evaluate, terminal_surface
from uvbounds.solver_pdelta import (TAG_A, TAG_B, TAG_C, _Scheme, candidate_tags, select_q,
                                    solve_p0p1, solve_pdelta)
from uvbounds.stencils import deadband, lxx_values, lxz_values
from reference import (
    BF, GRID, PARAMS, exponent_sum_terminals, generator_matrix, lu_solve, lu_x_solver,
    lu_z_solve, nearest_node_control, pdelta_with_controls, select_q_node,
    sqrt_delta_derivative, worst_case_call,
)

SMALL = GridSpec(0, 200, 40, 0, 0.12, 12, 6)
GEPS = SolverConfig().resolve_gamma_eps(PARAMS)


def _tags(q, p):
    """Candidate tags read off a control: A at u, B at d, C strictly inside (d, u)."""
    return np.where(q == p.u, TAG_A, np.where(q == p.d, TAG_B, TAG_C))


# -- pointwise control selection ----------------------------------------------

def test_select_q_rho_zero_reduces_to_curvature_sign():
    p = PARAMS.replace(rho=0.0)
    assert select_q(2.0, 5.0, p, GEPS) == p.u
    assert select_q(-2.0, 5.0, p, GEPS) == p.d
    # deadband tie goes up
    assert select_q(0.0, 5.0, p, GEPS) == p.u
    assert select_q(-1e-9, 5.0, p, GEPS) == p.u
    # delta = 0, where P0 takes its control from this rule: q is the
    # bang-bang rule on the sign of lxx with the deadband, whatever lxz
    p0 = PARAMS.replace(delta=0.0)
    rng = np.random.default_rng(3)
    lxx = np.concatenate([[GEPS, -GEPS, 0.0, -0.0, np.nextafter(-GEPS, 0.0)],
                          rng.standard_normal(200) * 10.0 * GEPS])
    lxz = rng.standard_normal(lxx.size) * 10.0
    bang_bang = np.where(deadband(lxx, GEPS) >= 0.0, p0.u, p0.d)
    np.testing.assert_array_equal(select_q(lxx, lxz, p0, GEPS), bang_bang)


def test_select_q_flat_node_ties_up_whatever_the_cross_term():
    # both fields inside the deadband: the node is flat, so it ties and goes up,
    # with either sign of a rounding-level cross term
    assert PARAMS.rho != 0.0
    for lxz in (0.5 * GEPS, -0.5 * GEPS):
        assert select_q(0.0, lxz, PARAMS, GEPS) == PARAMS.u


def test_select_q_positive_curvature_endpoints_only():
    # convex in q: the stationary point is a minimum, never a candidate
    q = select_q(1.0, -80.0, PARAMS, GEPS)
    assert q in (PARAMS.u, PARAMS.d)
    b = PARAMS.rho * np.sqrt(PARAMS.delta) * (-80.0)
    f_u = 0.5 * PARAMS.u**2 + PARAMS.u * b
    f_d = 0.5 * PARAMS.d**2 + PARAMS.d * b
    assert q == (PARAMS.u if f_u >= f_d else PARAMS.d)


def test_select_q_stationary_point_outside_band():
    # gxx=-1, gxz=1, rho=-0.9, delta=0.04: q_hat = -0.18, out of [0.75, 1.25];
    # by hand f(u) = -1.00625 < f(d) = -0.41625, so the lower endpoint wins
    p = PARAMS.replace(delta=0.04)
    assert select_q(-1.0, 1.0, p, GEPS) == p.d


def test_select_q_interior_winner_in_band():
    # arrange q_hat = 1.0: f(q_hat) = 0.5 beats both endpoints (0.46875)
    p = PARAMS.replace(delta=0.04)
    b_coeff = p.rho * np.sqrt(p.delta)
    lxz = 1.0 / b_coeff
    q = select_q(-1.0, lxz, p, GEPS)
    assert p.d < q < p.u
    assert q == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("rho", [-0.99, 0.0, 0.5])
def test_select_q_attains_the_sup_over_the_band(rho, delta):
    # why one rule is exact: where f(q) = 0.5*q^2*a + q*b is concave its sup
    # over [d, u] is q_hat clamped into the band, so a clamped q_hat is an
    # endpoint; where it is convex or flat, an endpoint wins
    p = PARAMS.replace(rho=rho, delta=delta)
    c0 = rho * np.sqrt(delta)
    rng = np.random.default_rng(41)
    n = 4000

    def field():
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-7.0, 3.0, n)

    lxx, lxz = field(), field()
    if c0 != 0.0:
        # half the nodes concave with q_hat inside the band
        k = n // 2
        lxx[:k] = -np.abs(lxx[:k])
        lxz[:k] = -rng.uniform(p.d, p.u, k) * lxx[:k] / c0
    q = select_q(lxx, lxz, p, GEPS)

    a = np.where(np.abs(lxx) < GEPS, 0.0, lxx)
    b = np.where(np.abs(c0 * lxz) < GEPS, 0.0, c0 * lxz)

    def f(x):
        return 0.5 * x * x * a + x * b

    q_hat = np.clip(-b / np.where(a < 0.0, a, -1.0), p.d, p.u)
    sup = np.maximum(f(p.u), f(p.d))
    sup = np.where(a < 0.0, np.maximum(sup, f(q_hat)), sup)
    np.testing.assert_allclose(f(q), sup, rtol=1e-12, atol=0.0)
    assert np.all((p.d <= q) & (q <= p.u))
    assert np.any((p.d < q) & (q < p.u)) == (c0 != 0.0)


def test_select_q_vectorized_matches_scalar():
    # random fields, then the rule's edge cases: a = 0 with b != 0, a = -eps
    # exactly, a inside the deadband, b = 0 (also with a = 0), lxz beyond the
    # deadband with b = rho*sqrt(delta)*lxz inside it, a convex and a concave
    # node whose b*b overflows, and, where rho*sqrt(delta) = -1/4 is exact,
    # q_hat exactly at d and at u
    rng = np.random.default_rng(0)
    b_eps = GEPS / (PARAMS.rho * np.sqrt(PARAMS.delta))  # b = eps: q_hat = 1 at a = -eps
    edges = [(0.0, 3.0), (0.0, -3.0), (-GEPS, b_eps), (-GEPS, -b_eps),
             (-0.5 * GEPS, 3.0), (0.5 * GEPS, -3.0), (-np.nextafter(GEPS, 0), b_eps),
             (-2.0, 0.0), (2.0, 0.0), (0.0, 0.0), (-2.0, 0.5 * GEPS), (0.0, 2.0 * GEPS),
             (1.5, 1e200), (-1.5, 1e200), (-1.0, -3.0), (-1.0, -5.0), (-2.0, -10.0)]
    exact = PARAMS.replace(rho=-0.5, delta=0.25)
    for params in (PARAMS, exact):
        geps = SolverConfig().resolve_gamma_eps(params)
        lxx = np.concatenate([rng.standard_normal(40) * 2, [e[0] for e in edges]])
        lxz = np.concatenate([rng.standard_normal(40) * 3, [e[1] for e in edges]])
        ref = np.array([select_q_node(a, b, params, geps) for a, b in zip(lxx, lxz)])
        qv = select_q(lxx, lxz, params, geps)
        np.testing.assert_array_equal(qv.view(np.uint64), ref.view(np.uint64))
        for i in range(lxx.size):  # 0-d inputs
            q = select_q(np.float64(lxx[i]), np.asarray(lxz[i]), params, geps)
            assert q.shape == () and q.view(np.uint64) == ref[i].view(np.uint64)
        # a scalar cross field against an array lxx, as the scheme passes it
        ref0 = np.array([select_q_node(a, 0.0, params, geps) for a in lxx])
        q0 = select_q(lxx, 0.0, params, geps)
        np.testing.assert_array_equal(q0.view(np.uint64), ref0.view(np.uint64))
    # q_hat lands exactly on d and on u, and is not strictly better there
    assert [select_q_node(*e, exact, GEPS) for e in edges[-3:]] == [0.75, 1.25, 1.25]


@pytest.mark.parametrize("params", [PARAMS.replace(rho=0.0), PARAMS.replace(delta=0.0)],
                         ids=["rho0", "delta0"])
def test_select_skips_cross_field_where_its_coefficient_is_zero(params):
    # the scheme's select leaves out lxz when rho*sqrt(delta) = 0; the control
    # is that of select_q fed the computed field, and the fields are w's
    w = np.random.default_rng(29).standard_normal((SMALL.n_x, SMALL.n_z))
    q, fields = _Scheme(params, SMALL).select(w)
    geps = SolverConfig().resolve_gamma_eps(params)
    q_ref = select_q(lxx_values(w, SMALL), lxz_values(w, SMALL), params, geps)
    np.testing.assert_array_equal(q, q_ref)
    assert fields.w is w
    np.testing.assert_array_equal(fields.lxx, lxx_values(w, SMALL))
    # with no cross term the stationary point is q_hat = 0, outside the band
    assert not np.any((params.d < q) & (q < params.u))


# -- full solves ----------------------------------------------------------------

@pytest.mark.parametrize("payoff", [BF, PayoffSpec.put(100)], ids=["butterfly", "put"])
def test_delta_zero_matches_leading_order(payoff):
    # with no cross term and no z-stage the 2D step is the P0 step, bit for bit
    p0, _ = solve_p0p1(payoff, PARAMS, SMALL)
    full = solve_pdelta(payoff, PARAMS.replace(delta=0.0), SMALL)
    np.testing.assert_array_equal(full.values, p0.values)


def test_call_payoff_control_and_price():
    p = PARAMS.replace(rho=0.0, delta=0.01)
    p_delta, q = pdelta_with_controls(PayoffSpec.call(100), p, SMALL)
    assert np.all(q == p.u)
    probe = p_delta.value_at(p.x0, p.z0)
    ref = bs_call(p.x0, 100.0, p.u * np.sqrt(p.z0), p.T)
    assert probe >= ref - 0.05
    assert probe <= ref + 0.5  # z-diffusion adds only a little value at small delta


def test_interior_candidate_never_fires_without_correlation():
    _, q_hist = pdelta_with_controls(BF, PARAMS.replace(rho=0.0), SMALL)
    assert not np.any(candidate_tags(q_hist, PARAMS) == TAG_C)


def test_single_slice_grid_reduces_to_frozen_band_problem():
    grid = GridSpec(0, 200, 40, PARAMS.z0, PARAMS.z0, 1, 6)
    full = solve_pdelta(BF, PARAMS, grid)
    p0, _ = solve_p0p1(BF, PARAMS, grid)
    np.testing.assert_array_equal(full.values, p0.values)
    # so does the LU reference step, built by probing on one z-node
    scheme = _Scheme(PARAMS, grid)
    scheme.solve = lu_solve(scheme)
    w_lu = scheme.march(BF).values
    np.testing.assert_allclose(w_lu, p0.values, rtol=0, atol=1e-12)


def test_control_in_band_and_undershoot_small():
    p_delta, q = pdelta_with_controls(BF, PARAMS, SMALL)
    assert q.min() >= PARAMS.d
    assert q.max() <= PARAMS.u
    # the central cross/drift stencils are not monotone near z = 0, so a
    # strict nonnegativity floor is unattainable for kinked payoffs; the
    # observed oscillation stays three orders below the payoff scale
    assert p_delta.values.min() >= -1e-3 * 10.0


@pytest.mark.parametrize("payoff", [PayoffSpec.call(100), BF], ids=["call", "butterfly"])
def test_x_boundary_rows_keep_the_payoff(payoff):
    # every x-difference is zero on the x-boundary rows, so no x-term moves
    # them, and A2 leaves a payoff that is constant in z. Measured: 0, but
    # 1.8e-12 for the call at x_max, by rounding in the z-stage. While d_xz
    # went one-sided there, the explicit cross term moved the x_max row by
    # 0.0136 (call) and 0.0311 (butterfly)
    h = terminal_surface(payoff, GRID).values
    p = solve_pdelta(payoff, PARAMS, GRID).values
    np.testing.assert_allclose(p[[0, -1]], h[[0, -1]], rtol=0,
                               atol=1e-10 * (1.0 + np.abs(h).max()))


PROBE_GRIDS = {
    "40x12": SMALL,
    "12x1": GridSpec(0, 200, 12, PARAMS.z0, PARAMS.z0, 1, 6),
    "12x2": GridSpec(0, 200, 12, 0, 0.12, 2, 6),
    "12x3": GridSpec(0, 200, 12, 0, 0.12, 3, 6),
    "3x12": GridSpec(0, 200, 3, 0, 0.12, 12, 6),
}


@pytest.mark.parametrize("grid", PROBE_GRIDS.values(), ids=PROBE_GRIDS.keys())
def test_generator_matches_dense_operator_composition(grid):
    from uvbounds import stencils as st

    rng = np.random.default_rng(17)
    w = rng.standard_normal((grid.n_x, grid.n_z))
    q = rng.uniform(PARAMS.d, PARAMS.u, size=(grid.n_x, grid.n_z))
    gen = generator_matrix(_Scheme(PARAMS, grid), q)
    via_matrix = (gen @ w.ravel()).reshape(w.shape)

    x = grid.x_nodes()[:, None]
    z = grid.z_nodes()[None, :]
    coeff_xx = 0.5 * q * q * z * x**2
    expected = (
        coeff_xx * st.dxx_values(w, grid)
        + PARAMS.rho * np.sqrt(PARAMS.delta) * q * x * z * st.dxz_values(w, grid)
        + PARAMS.delta * (0.5 * z * st.dzz_values(w, grid)
                          + PARAMS.kappa * (PARAMS.theta - z) * st.dz_values(w, grid))
    )
    assert np.max(np.abs(via_matrix - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_split_parts_sum_to_generator():
    rng = np.random.default_rng(23)
    w = rng.standard_normal((SMALL.n_x, SMALL.n_z))
    q = rng.uniform(PARAMS.d, PARAMS.u, size=w.shape)
    scheme = _Scheme(PARAMS, SMALL)
    parts = scheme.a0(q, w) + scheme.a1(q, w) + scheme.a2(w)
    whole = (generator_matrix(scheme, q) @ w.ravel()).reshape(w.shape)
    assert np.max(np.abs(parts - whole)) <= 1e-12 * np.max(np.abs(whole))
    # the z-stage inverts I - c*A2 with the same A2
    c = 0.01
    y = scheme.solve_z(w, c, 1.0)
    np.testing.assert_allclose(y - c * scheme.a2(y), w, rtol=0, atol=1e-12)
    # the x-stage's probed k makes A1 = 0.5*q^2*k*(w[i+1] + w[i-1] - 2*w[i]),
    # zero on the boundary rows, and the x-stage inverts I - c*A1
    for grid in PROBE_GRIDS.values():
        w = rng.standard_normal((grid.n_x, grid.n_z))
        q = rng.uniform(PARAMS.d, PARAMS.u, size=w.shape)
        scheme = _Scheme(PARAMS, grid)
        a1 = scheme.a1(q, w)
        k = scheme.k.reshape(grid.n_z, grid.n_x).T  # flat, slice after slice
        np.testing.assert_array_equal(k[[0, -1]], 0.0)
        tri = np.zeros_like(w)
        tri[1:-1] = w[2:] + w[:-2] - 2.0 * w[1:-1]
        assert np.max(np.abs(0.5 * q * q * k * tri - a1)) <= 1e-12 * np.max(np.abs(a1))
        y = scheme.x_solver(q, c)(w)
        np.testing.assert_allclose(y - c * scheme.a1(q, y), w, rtol=0, atol=1e-12)


# the probe grids, and one whose variance grid starts above zero
Z_GRIDS = {**PROBE_GRIDS, "12x9, z_min > 0": GridSpec(0, 200, 12, 0.02, 0.12, 9, 6)}


@pytest.mark.parametrize("grid", Z_GRIDS.values(), ids=Z_GRIDS.keys())
def test_a2_matrix_matches_stencil_form(grid):
    w = np.random.default_rng(29).standard_normal((grid.n_x, grid.n_z))
    scheme = _Scheme(PARAMS, grid)
    want = scheme.a2_stencil(w)
    assert np.max(np.abs(scheme.a2(w) - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("grid", Z_GRIDS.values(), ids=Z_GRIDS.keys())
def test_dense_z_solve_matches_tridiagonal_batch(grid, theta):
    # the z-stage's product with the dense inverse against a banded LU solve
    # of the same system on every x-row
    rng = np.random.default_rng(31)
    rhs = rng.standard_normal((grid.n_x, grid.n_z))
    scheme = _Scheme(PARAMS, grid)
    dt = 0.05
    want = lu_z_solve(scheme, theta * dt, rhs)
    got = scheme.solve_z(rhs, dt, theta)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_z_stage_residual_check_catches_a_wrong_inverse():
    rhs = np.random.default_rng(37).standard_normal((SMALL.n_x, SMALL.n_z))
    scheme = _Scheme(PARAMS, SMALL)
    dt = SMALL.dt(PARAMS.T)
    scheme.solve_z(rhs, dt, 0.5)
    # the cached solver's inverse, spoiled after its own check passed
    solver, = scheme._z.values()
    solver.inv_t[3, 2] += 1e-6
    with pytest.raises(LinearSolveError, match=r"z-stage: residual \S+ exceeds"):
        scheme.solve_z(rhs, dt, 0.5)


def test_stiff_z_inverse_passes_a_backward_stable_check():
    # kappa = 1e6 and theta = 1 on the paper grid, at the Rannacher start's
    # c = dt/2: ‖M‖∞ = 5.2e5, and the inverse leaves a residual of 8.9e-8 on
    # the identity, which a bound of lin_tol*(1 + max|b|) = 2e-10 once
    # rejected. The check scales with ‖M‖∞ * max|M^-1|, and each product
    # matches banded LU of M (the gap measured 2.1e-15 of max|x|)
    p = PARAMS.replace(kappa=1e6, theta=1.0)
    scheme = _Scheme(p, GRID)
    rhs = np.random.default_rng(47).standard_normal((GRID.n_x, GRID.n_z))
    c = 0.5 * GRID.dt(p.T)
    got = scheme.solve_z(rhs, c, 1.0)
    m = np.eye(GRID.n_z) - c * scheme.a2_t.T
    assert scheme._z[c].norm == pytest.approx(np.linalg.norm(m, np.inf), rel=1e-15)
    want = lu_z_solve(scheme, c, rhs)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_stiff_z_march_fails_the_divergence_check():
    # the same variance process, marched: every solve passes its residual
    # check, but the z-stages amplify, and the first level leaves the
    # butterfly's range [0, 9.0] by more than its margin of 18.0 (measured
    # [-128.5, 56.7])
    with pytest.raises(SolverError, match=r"backward march diverged at time level 19: "
                                          r"values in \[-1\.\d+e\+02"):
        solve_pdelta(BF, PARAMS.replace(kappa=1e6, theta=1.0), GRID)


@pytest.mark.parametrize("level", [5.0, 0.0, -3.0])
def test_constant_payoff_passes_the_divergence_check(level):
    # a range of one point leaves the march a margin of |level| alone, far
    # outside the rounding of a constant surface (8e-15 measured at 5.0);
    # zero data stays exactly zero, with no margin at all
    price = solve_pdelta(PayoffSpec.tabulated([0.0, 200.0], [level, level]), PARAMS,
                         SMALL).values
    assert np.max(np.abs(price - level)) <= 1e-13


def test_z_stage_nan_rhs_fails_the_residual_check():
    rhs = np.ones((SMALL.n_x, SMALL.n_z))
    rhs[5, 2] = np.nan
    with pytest.raises(LinearSolveError, match="z-stage: residual nan exceeds"):
        _Scheme(PARAMS, SMALL).solve_z(rhs, SMALL.dt(PARAMS.T), 0.5)


def test_failed_z_inverse_raises(monkeypatch):
    # dgtsv faked to report an exactly zero pivot, as LAPACK's info > 0 does:
    # it becomes a LinearSolveError, and so a SolverError naming the time level
    real = linsolve._lapack()

    def dgtsv(*args, **kw):
        return (*real.dgtsv(*args, **kw)[:-1], 2)

    monkeypatch.setattr(linsolve, "_lapack", lambda: SimpleNamespace(
        dgtsv=dgtsv, dpttrf=real.dpttrf, dpttrs=real.dpttrs))
    rhs = np.ones((SMALL.n_x, SMALL.n_z))
    with pytest.raises(LinearSolveError, match="z-stage inverse: pivot at row 1 is exactly zero"):
        _Scheme(PARAMS, SMALL).solve_z(rhs, SMALL.dt(PARAMS.T), 0.5)
    with pytest.raises(SolverError, match="time level"):
        solve_pdelta(BF, PARAMS, SMALL)


def test_nan_in_a2_fails_the_z_inverse_check():
    # each inverse is checked as it is built, with the identity as right-hand side
    scheme = _Scheme(PARAMS, SMALL)
    scheme.a2_t[3, 2] = np.nan
    with pytest.raises(LinearSolveError, match="z-stage inverse: residual nan exceeds"):
        scheme.solve_z(np.ones((SMALL.n_x, SMALL.n_z)), SMALL.dt(PARAMS.T), 0.5)


# the probe grids, n_x = 3 and 4 (GridSpec needs 3), and grids whose
# variance or asset grid starts above zero; the tiny z_min puts rows with
# c*a below 2^-54, and a subnormal k, on the first slice
X_GRIDS = {
    **PROBE_GRIDS,
    "3x4": GridSpec(0, 200, 3, 0, 0.12, 4, 6),
    "4x3": GridSpec(0, 200, 4, 0, 0.12, 3, 6),
    "12x9, z_min > 0": GridSpec(0, 200, 12, 0.02, 0.12, 9, 6),
    "12x9, x_min > 0": GridSpec(40, 200, 12, 0, 0.12, 9, 6),
    "30x10, z_min = 1e-310": GridSpec(0, 200, 30, 1e-310, 0.12, 10, 6),
}


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("grid", X_GRIDS.values(), ids=X_GRIDS.keys())
def test_spd_x_solve_matches_lu_batch(grid, theta):
    rng = np.random.default_rng(41)
    q = rng.uniform(PARAMS.d, PARAMS.u, size=(grid.n_x, grid.n_z))
    rhs = rng.standard_normal((grid.n_x, grid.n_z))
    scheme = _Scheme(PARAMS, grid)
    c = theta * grid.dt(PARAMS.T)
    want = lu_x_solver(scheme, q, c)(rhs)
    got = scheme.x_solver(q, c)(rhs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # identity rows, the ends of each slice and the z = 0 slice, are exact
    np.testing.assert_array_equal(got[[0, -1]], rhs[[0, -1]])
    if grid.z_min == 0.0:
        np.testing.assert_array_equal(got[:, 0], rhs[:, 0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n_x=hst.integers(3, 40), n_z=hst.integers(1, 10),
       x_min=hst.one_of(hst.just(0.0), hst.floats(1.0, 150.0)),
       z_min=hst.one_of(hst.just(0.0), hst.floats(1e-3, 0.1)),
       log_c=hst.floats(-6.0, 6.0), seed=hst.integers(0, 2 ** 16))
def test_random_x_systems_match_lu(n_x, n_z, x_min, z_min, log_c, seed):
    # c = theta*dt over twelve decades, up to 1e6, where max(c*a) reaches the
    # order of 1e8 and both solves pass only a residual bound that scales
    # with ‖I - c*A1‖∞. Two backward-stable solves differ by about eps times
    # the condition number of I - c*A1, at most 1 + 4*max(c*a): 1e-13 as in
    # test_spd_x_solve_matches_lu_batch while max(c*a) stays below about 30
    # (c up to about 0.1 here), and 4*eps times that bound beyond it. The gap
    # measured at most 5.6e-16*(1 + max(c*a)) for c below 100 (1.8e-13 for c
    # in [1, 10), 2.2e-13 in [10, 100)), and at most 0.13*eps*(1 + 4*max(c*a))
    # for c in [10, 1e6), over 600 random systems with c from 1e-6 to 1e6
    grid = GridSpec(x_min, 200, n_x, z_min, z_min if n_z == 1 else z_min + 0.12, n_z, 4)
    rng = np.random.default_rng(seed)
    q = rng.uniform(PARAMS.d, PARAMS.u, size=(n_x, n_z))
    rhs = rng.standard_normal((n_x, n_z))
    scheme, c = _Scheme(PARAMS, grid), 10.0 ** log_c
    want = lu_x_solver(scheme, q, c)(rhs)
    got = scheme.x_solver(q, c)(rhs)
    coupling = 0.5 * c * np.max(q * q * scheme.k.reshape(n_z, n_x).T)
    bound = max(1e-13, 4.0 * np.finfo(float).eps * (1.0 + 4.0 * coupling))
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
    np.testing.assert_array_equal(got[[0, -1]], rhs[[0, -1]])
    if z_min == 0.0:
        np.testing.assert_array_equal(got[:, 0], rhs[:, 0])


def _shifted_dpttrs(monkeypatch):
    """Wrap dpttrs to add ``shift[0]`` to one unknown of every solution."""
    real = linsolve._lapack()
    shift = [0.0]

    def dpttrs(*args, **kw):
        x, info = real.dpttrs(*args, **kw)
        x[17] += shift[0]
        return x, info

    monkeypatch.setattr(linsolve, "_lapack",
                        lambda: SimpleNamespace(dpttrf=real.dpttrf, dpttrs=dpttrs))
    return shift


def test_x_stage_residual_check_catches_a_wrong_solution(monkeypatch):
    rng = np.random.default_rng(43)
    q = rng.uniform(PARAMS.d, PARAMS.u, size=(SMALL.n_x, SMALL.n_z))
    rhs = rng.standard_normal(q.shape)
    c = 0.5 * SMALL.dt(PARAMS.T)
    want = lu_x_solver(_Scheme(PARAMS, SMALL), q, c)(rhs)
    shift = _shifted_dpttrs(monkeypatch)
    solve = _Scheme(PARAMS, SMALL).x_solver(q, c)
    assert np.max(np.abs(solve(rhs) - want)) <= 1e-13 * np.max(np.abs(want))
    shift[0] = 1e-6
    with pytest.raises(LinearSolveError, match=r"x-stage: residual \S+ exceeds"):
        solve(rhs)


def test_x_stage_nan_rhs_fails_the_residual_check():
    q = np.full((SMALL.n_x, SMALL.n_z), PARAMS.u)
    rhs = np.ones(q.shape)
    rhs[5, 2] = np.nan
    solve = _Scheme(PARAMS, SMALL).x_solver(q, 0.5 * SMALL.dt(PARAMS.T))
    with pytest.raises(LinearSolveError, match="x-stage: residual nan exceeds"):
        solve(rhs)


def _failing_dpttrf(monkeypatch, row: int):
    """Fake dpttrf to report a non-positive pivot at ``row`` (LAPACK's 1-based info)."""
    real = linsolve._lapack()

    def dpttrf(d, e, **kw):
        d, e, _ = real.dpttrf(d, e, **kw)
        d[row] = 0.0
        return d, e, row + 1

    monkeypatch.setattr(linsolve, "_lapack",
                        lambda: SimpleNamespace(dpttrf=dpttrf, dpttrs=real.dpttrs))


def test_failed_ldlt_factor_raises(monkeypatch):
    _failing_dpttrf(monkeypatch, 7)
    q = np.full((SMALL.n_x, SMALL.n_z), PARAMS.u)
    with pytest.raises(LinearSolveError, match=r"pivot 0\.000e\+00 at row 7 is not positive"):
        _Scheme(PARAMS, SMALL).x_solver(q, 0.01)
    with pytest.raises(SolverError, match="time level"):
        solve_pdelta(BF, PARAMS, SMALL)


def test_nan_control_fails_the_ldlt_factor():
    q = np.full((SMALL.n_x, SMALL.n_z), PARAMS.u)
    q[9, 4] = np.nan  # a NaN pivot passes dpttrf's test for <= 0
    # the batch runs slice after slice: that node is row 4*n_x + 9
    with pytest.raises(LinearSolveError, match="pivot nan at row 169 is not positive"):
        _Scheme(PARAMS, SMALL).x_solver(q, 0.01)


@pytest.mark.slow
@pytest.mark.parametrize("delta", [0.05, 1.0])
@pytest.mark.parametrize("rho", [-0.99, 0.99])
def test_splitting_gap_to_lu_is_second_order(rho, delta):
    # the Craig-Sneyd step against the unsplit system solved by sparse LU,
    # both marched with the same control selection: halving dt cuts the
    # gap by nearly 4 (at least 3)
    p = PARAMS.replace(rho=rho, delta=delta)
    cfg = SolverConfig()
    gaps = []
    for n_t in (10, 20, 40):
        grid = GridSpec(0, 200, 60, 0, 0.12, 30, n_t)
        w_adi = _Scheme(p, grid, cfg).march(BF).values
        lu = _Scheme(p, grid, cfg)
        lu.solve = lu_solve(lu)
        w_lu = lu.march(BF).values
        gaps.append(np.max(np.abs(w_adi - w_lu)))
    assert gaps[0] >= 3.0 * gaps[1], gaps
    assert gaps[1] >= 3.0 * gaps[2], gaps


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n_x=hst.integers(3, 16), n_z=hst.integers(1, 8), d=hst.floats(0.3, 0.99),
       u=hst.floats(1.01, 2.0), kappa=hst.floats(12.5, 150.0),
       delta=hst.one_of(hst.just(0.0), hst.floats(0.0, 1.0)), rho=hst.floats(-0.99, 0.99),
       theta=hst.sampled_from([0.5, 1.0]), log_dt=hst.floats(-5.0, -1.0),
       passes=hst.integers(1, 3), seed=hst.integers(0, 2 ** 16))
def test_step_matches_lu_to_splitting_order(n_x, n_z, d, u, kappa, delta, rho, theta,
                                            log_dt, passes, seed):
    # one predictor-corrector step against the unsplit weighted system solved
    # by sparse LU with the control the step chose. In h = dt*||A(q)||_inf,
    # the Craig-Sneyd step's local gap is O(h^3) (O(dt^2) over a march) and
    # saturates at O(|w|) for stiff steps: on 600 random cases it measured at
    # most 0.032*h^3*max|w| for h < 1, 0.006*h^2*max|w| beyond, and 3.2e-16*max|w|
    # where rounding dominates
    p = PARAMS.replace(d=d, u=u, kappa=kappa, delta=delta, rho=rho)
    z_lo, z_hi = (0.04, 0.04) if n_z == 1 else (0.0, 0.12)
    grid = GridSpec(0, 200, n_x, z_lo, z_hi, n_z, 4)
    rng = np.random.default_rng(seed)
    w = terminal_surface(BF, grid).values + rng.standard_normal((n_x, n_z))
    scheme, dt = _Scheme(p, grid, SolverConfig(corrector_passes=passes)), 10.0 ** log_dt
    w_new, q = scheme.step(w, dt, theta)
    want = lu_solve(scheme)(q, scheme.select(w)[1], dt, theta)
    h = dt * np.max(np.abs(generator_matrix(scheme, q)).sum(axis=1))
    bound = 0.1 * h * h * min(1.0, h) + 1e-14
    assert np.max(np.abs(w_new - want)) <= bound * np.max(np.abs(w)), h


def test_price_drift_is_linear_in_delta_when_uncorrelated():
    # rho = 0 and theta = z0: the only delta-effect is the z-diffusion term
    p = PARAMS.replace(rho=0.0, theta=PARAMS.z0, kappa=15.0)
    p0, _ = solve_p0p1(BF, p, SMALL)
    i, j = SMALL.ix_nearest(p.x0), SMALL.iz_nearest(p.z0)
    gaps = []
    for delta in (0.02, 0.04):
        p_delta = solve_pdelta(BF, p.replace(delta=delta), SMALL)
        gaps.append(abs(p_delta.values[i, j] - p0.values[i, j]))
    assert gaps[0] > 0
    assert 1.2 < gaps[1] / gaps[0] < 3.0  # doubling delta roughly doubles the gap


def test_raw_gap_vanishes_with_root_delta_rate():
    # sup |2D price - leading order| shrinks at least like delta^0.45
    grid = GridSpec(0, 200, 60, 0, 0.12, 20, 8)
    p0, _ = solve_p0p1(BF, PARAMS, grid)
    deltas = np.array([0.0125, 0.025, 0.05])
    gaps = np.array([
        np.max(np.abs(solve_pdelta(BF, PARAMS.replace(delta=d), grid).values - p0.values))
        for d in deltas
    ])
    assert np.all(np.diff(gaps) > 0)
    slope = np.polyfit(np.log(deltas), np.log(gaps), 1)[0]
    assert slope >= 0.45


def test_correction_improves_slice_approximation():
    # along the initial-variance slice the first-order combination tracks
    # the 2D price far better than the leading order alone
    grid = GridSpec(0, 200, 80, 0, 0.12, 30, 10)
    p0, p1 = solve_p0p1(BF, PARAMS, grid)
    full = solve_pdelta(BF, PARAMS, grid)
    x = grid.x_nodes()
    win = (x >= 60) & (x <= 140)
    j0 = grid.iz_nearest(PARAMS.z0)
    corr = np.sqrt(PARAMS.delta) * p1.values
    e_first_order = np.abs(full.values - p0.values - corr)[win, j0]
    e_leading = np.abs(full.values - p0.values)[win, j0]
    assert e_first_order.max() < 0.5 * e_leading.max()


def test_step_matches_single_step_solve():
    cfg = SolverConfig(rannacher_steps=0)
    grid = GridSpec(0, 200, 30, 0, 0.12, 8, 1)
    term = terminal_surface(BF, grid)
    stepped, q = _Scheme(PARAMS, grid, cfg).step(term.values, grid.dt(PARAMS.T),
                                                 cfg.cn_weight)
    solved, q_hist = pdelta_with_controls(BF, PARAMS, grid, cfg)
    np.testing.assert_array_equal(stepped, solved.values)
    np.testing.assert_array_equal(q, q_hist[0])
    np.testing.assert_array_equal(_tags(q, PARAMS), candidate_tags(q_hist, PARAMS)[0])


@pytest.mark.parametrize("cfg,n_z_factors", [(SolverConfig(), 1),
                                             (SolverConfig(cn_weight=0.6), 2)])
def test_each_matrix_factored_once(monkeypatch, cfg, n_z_factors):
    # paper.cfg's time grid: the Rannacher 1*dt/2 and the trapezoidal 0.5*dt
    # are one theta*dt, so its z-system's solver, with its dense inverse, is
    # built once per solve_pdelta; the x-system, one symmetric batch of every
    # slice, is factored once per Craig-Sneyd step
    grid = GridSpec(0, 200, 60, 0, 0.12, 30, 20)  # n_x != n_z tells the systems apart
    shapes, x_factors, n_solves = [], [], [0]
    z_solver, x_solver = solver_pdelta.ZSolver, solver_pdelta.XSolver
    solve = _Scheme.solve

    def counting_z_solver(a2_t, c, lin_tol):
        shapes.append(np.shape(a2_t))
        return z_solver(a2_t, c, lin_tol)

    def counting_x_solver(layout, q, c, lin_tol):
        x_factors.append(np.shape(q))
        return x_solver(layout, q, c, lin_tol)

    def counting_solve(*args):
        n_solves[0] += 1
        return solve(*args)

    monkeypatch.setattr(solver_pdelta, "ZSolver", counting_z_solver)
    monkeypatch.setattr(solver_pdelta, "XSolver", counting_x_solver)
    monkeypatch.setattr(_Scheme, "solve", counting_solve)
    solve_pdelta(BF, PARAMS, grid, cfg)
    assert shapes == [(grid.n_z, grid.n_z)] * n_z_factors
    assert x_factors.count((grid.n_x, grid.n_z)) == len(x_factors) == n_solves[0] >= grid.n_t


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("rho,delta,n_z", [
    pytest.param(-0.9, 0.05, 10, id="-0.9-0.05"), pytest.param(0.0, 0.05, 10, id="0.0-0.05"),
    pytest.param(-0.9, 0.0, 10, id="-0.9-0.0"), pytest.param(-0.9, 0.05, 1, id="one-slice")])
def test_each_stencil_field_computed_once_per_surface(monkeypatch, rho, delta, n_z, passes):
    # every select reads a new surface and computes its lxx, and its lxz
    # where the cross term is live, which needs rho*sqrt(delta) != 0 and more
    # than one z-node; the solves from w_next reuse them, so only each
    # solve's predicted level adds an lxz. Making a _Scheme probes lxx 3 times
    p = PARAMS.replace(rho=rho, delta=delta)
    z_lo, z_hi = (0.0, 0.12) if n_z > 1 else (0.12, 0.12)
    grid = GridSpec(0, 200, 30, z_lo, z_hi, n_z, 6)
    calls = dict.fromkeys(["lxx", "lxz", "select", "solve"], 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(solver_pdelta, "lxx_values", counting("lxx", lxx_values))
    monkeypatch.setattr(solver_pdelta, "lxz_values", counting("lxz", lxz_values))
    monkeypatch.setattr(_Scheme, "select", counting("select", _Scheme.select))
    monkeypatch.setattr(_Scheme, "solve", counting("solve", _Scheme.solve))
    solve_pdelta(BF, p, grid, SolverConfig(corrector_passes=passes))
    # some corrector pass re-solved from w_next after selecting on a new surface
    assert calls["solve"] > grid.n_t + 1
    assert calls["lxx"] == 3 + calls["select"]
    cross = rho * np.sqrt(delta) != 0.0 and n_z > 1
    assert calls["lxz"] == (calls["select"] + calls["solve"] if cross else 0)


def _assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_x=hst.integers(3, 16), n_z=hst.integers(1, 8),
       rho=hst.sampled_from([-0.99, 0.0, 0.5]), delta=hst.sampled_from([0.0, 0.05, 1.0]),
       theta=hst.sampled_from([0.5, 1.0]), seed=hst.integers(0, 2 ** 16))
def test_reused_scheme_never_changes_a_step(n_x, n_z, rho, delta, theta, seed):
    # a scheme keeps its last x-system factor (by the control's identity) and
    # its z-inverses. Steps on w and on another surface, in turn, again
    # after the other was selected, and on w.copy(), agree bit for bit,
    # tags read off the control included, with a select and a solve by a
    # fresh scheme, which reuses nothing; for P^delta and for P0
    p = PARAMS.replace(rho=rho, delta=delta)
    z_lo, z_hi = (0.04, 0.04) if n_z == 1 else (0.0, 0.12)
    grid = GridSpec(0, 200, n_x, z_lo, z_hi, n_z, 4)
    rng = np.random.default_rng(seed)
    w = terminal_surface(BF, grid).values + rng.standard_normal((n_x, n_z))
    other = 10.0 * rng.standard_normal((n_x, n_z))
    cfg, dt = SolverConfig(), 0.02
    for make in (lambda: _Scheme(p, grid, cfg),
                 lambda: _Scheme(p.replace(delta=0.0), grid, cfg)):
        def fresh_step(v):
            scheme = make()
            q, fields = scheme.select(v.copy())
            return q, _tags(q, p), scheme.solve(q, fields, dt, theta)

        want = {"w": fresh_step(w), "other": fresh_step(other)}
        scheme = make()
        for name, v in [("w", w), ("other", other), ("w", w), ("w", w.copy()),
                        ("other", other), ("w", w)]:
            q, fields = scheme.select(v)
            scheme.select(other)
            for a, b in zip((q, _tags(q, p), scheme.solve(q, fields, dt, theta)), want[name]):
                _assert_bitwise(a, b)


def test_peak_memory_does_not_grow_with_time_steps():
    # 252 more levels must add less than one 40x10 surface (3,200 B) to the
    # traced peak of solve_pdelta, where a control history adds 252 surfaces
    # (the peak measured 32 B lower at n_t = 256 than at 4; it grew by
    # 6,016 B with an (n_t, 3) tag count array, and 924,480 B - 118,112 B
    # with the history)
    grids = [GridSpec(0, 200, 40, 0, 0.12, 10, n_t) for n_t in (4, 256)]

    def peak(grid):
        tracemalloc.start()
        try:
            solve_pdelta(BF, PARAMS, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for grid in grids:
        peak(grid)  # warm-up: imports, and the grid's cached coefficient fields
    small, big = (peak(grid) for grid in grids)
    assert big - small < 40 * 10 * 8, (small, big)


def test_solve_pdelta_working_set_is_bounded():
    # every surface-sized buffer of a Craig-Sneyd sub-step goes once the stage
    # that reads it is done. In 200x200 surfaces, the traced peak of a warm
    # solve, with the held x-factor, z-inverse and coefficient fields, is
    # measured 18.20 on CPython 3.11 and numpy 2.4, in a z-stage residual
    # check (21.2, in the corrector's select_q, while it held the blended
    # surface and its fields); n_t = 40 reads the same. CPython 3.10 keeps a
    # caller's temporary arguments alive through the call, so there the
    # blended surface and its fields stay live in select_q: 21.19 with that
    # emulated
    grid = GridSpec(0, 200, 200, 0, 0.12, 200, 4)
    solve_pdelta(BF, PARAMS, grid)  # warm-up: imports, and the grid's cached coefficient fields
    tracemalloc.start()
    try:
        solve_pdelta(BF, PARAMS, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    surfaces = peak / (grid.n_x * grid.n_z * 8)
    assert surfaces <= (19.0 if sys.version_info >= (3, 11) else 22.0), surfaces


def test_dropped_x_factor_is_freed_without_the_collector():
    # the march drops the control and its x-factor after each sub-step's
    # hook; with no reference cycle through the scheme, reference counting
    # frees the factor's four flat surfaces there, not at the next collection
    scheme = _Scheme(PARAMS, SMALL)
    solver = weakref.ref(scheme.x_solver(np.full((SMALL.n_x, SMALL.n_z), PARAMS.u), 0.01))
    gc.disable()
    try:
        scheme._x = None
        assert solver() is None
    finally:
        gc.enable()


def test_delta_zero_solves_never_build_a2(monkeypatch):
    # with no A2 no z-stage runs, so no scheme makes a2_t, an n_z x n_z
    # matrix (one surface at n_z = n_x): P0 + P1, and P^delta at delta = 0,
    # as solve-p0, compare-bs and gamma-diag run it
    def a2_stencil(scheme, w):
        raise AssertionError("a2_stencil called at delta = 0")

    monkeypatch.setattr(_Scheme, "a2_stencil", a2_stencil)
    solve_p0p1(BF, PARAMS, SMALL)
    solve_pdelta(BF, PARAMS.replace(delta=0.0), SMALL)


def test_failure_carries_time_level_context():
    cfg = SolverConfig(lin_tol=1e-30)
    with pytest.raises(SolverError, match="time level"):
        solve_pdelta(BF, PARAMS, SMALL, cfg)


@pytest.mark.slow
@pytest.mark.parametrize("kappa", [15.0, 150.0])
def test_call_converges_at_order_two_to_heston(kappa):
    # a call is convex, so q = u wherever it matters and P^delta is Heston's
    # price with v0 = u^2*z0, mean reversion delta*kappa, level u^2*theta and
    # vol-of-vol u*sqrt(delta) (4.898696 at delta = 0.05). On 2n x n x n/5
    # grids, x in [0, 400], errors at (x0, z0) measured -2.381e-2, -5.730e-3
    # and -1.415e-3 for n = 50, 100, 200: observed orders 2.06 and 2.02. At
    # kappa = 150, where 4 to 5 z-rows of the central stencil couple with the
    # wrong sign, -1.811e-2, -4.543e-3 and -1.132e-3 against 4.936646:
    # orders 1.99 and 2.00
    p = PARAMS.replace(kappa=kappa)
    heston = worst_case_call(p, 100.0)
    errors = np.array([
        solve_pdelta(PayoffSpec.call(100), p, GridSpec(0, 400, 2 * n, 0, 0.12, n, n // 5))
        .value_at(p.x0, p.z0) - heston
        for n in (50, 100, 200)])
    order = np.log2(np.abs(errors[:-1]) / np.abs(errors[1:]))
    assert np.all(np.diff(np.abs(errors)) < 0.0), errors
    assert np.all(order >= 1.8), (errors, order)


@pytest.mark.parametrize("n", [100, pytest.param(200, marks=pytest.mark.slow)],
                         ids=["100x100x20", "200x200x40"])
def test_call_sqrt_delta_derivative_approaches_p1(n):
    # D1 = (P^delta - P0)/sqrt(delta) tends, as delta -> 0, to the scheme's
    # first-order term, which is P1 up to a grid error: sup |D1 - P1| over
    # x in [60, 140], z >= 0.02 must not grow as delta falls. Measured
    # 9.894e-3, 5.523e-3 and 5.111e-3 on 100^2, and 6.771e-3, 2.419e-3 and
    # 2.138e-3 on 200^2. Deadbanding lxz instead of rho*sqrt(delta)*lxz
    # flipped controls at any delta > 0, and the gap jumped to 1.121e-2 and
    # 5.724e-3 at delta = 1e-10
    call = PayoffSpec.call(100)
    grid = GridSpec(0, 200, n, 0, 0.12, n, n // 5)
    x, z = grid.x_nodes(), grid.z_nodes()
    window = np.ix_((x >= 60.0) & (x <= 140.0), z >= 0.02)
    _, p1 = solve_p0p1(call, PARAMS, grid)
    gaps = [np.max(np.abs(sqrt_delta_derivative(call, PARAMS, grid, None, delta)
                          - p1.values)[window])
            for delta in (1e-6, 1e-8, 1e-10)]
    assert np.all(np.diff(gaps) <= 0.0), gaps


def refined_windows():
    """The 100^2 and 200^2 grids (n x n x n/5 on [0, 200] x [0, 0.12]), each
    with its x-nodes and the index of its window x in [60, 140], z >= 0.02."""
    for n in (100, 200):
        grid = GridSpec(0, 200, n, 0, 0.12, n, n // 5)
        x, z = grid.x_nodes(), grid.z_nodes()
        yield grid, x, np.ix_((x >= 60.0) & (x <= 140.0), z >= 0.02)


@pytest.mark.slow
@pytest.mark.parametrize("widen", [{"u": 1.3}, {"d": 0.7}, {"u": 10.0}, {"u": 30.0}, {"u": 1e3}],
                         ids=["u=1.3", "d=0.7", "u=10", "u=30", "u=1e3"])
def test_widening_the_band_lowers_the_price_by_a_defect_that_refines_away(widen):
    # the sup runs over a larger set, so the continuous price cannot drop;
    # the non-monotone cross stencil lets the discrete one drop a little.
    # min(P_wide - P) over x in [60, 140], z >= 0.02 measured -3.26e-4 (u)
    # and -3.12e-4 (d) on 100^2, and -7.46e-5 and -7.82e-5 on 200^2: it
    # falls 4.4x and 4.0x per doubling. The wide bands, whose explicit
    # cross term on the x-boundary rows once diverged (u = 30, 1e3), show
    # no defect on either grid, and their probes rise: 7.704, 8.342 and
    # 8.493 on 100^2, 7.768, 8.625 and 8.933 on 200^2, against 5.105
    defects = []
    for grid, _, window in refined_windows():
        wide = solve_pdelta(BF, PARAMS.replace(**widen), grid)
        base = solve_pdelta(BF, PARAMS, grid)
        assert wide.value_at(PARAMS.x0, PARAMS.z0) > base.value_at(PARAMS.x0, PARAMS.z0)
        gap = wide.values - base.values
        defects.append(max(0.0, -gap[window].min()))
    assert defects[0] <= 4e-4, defects
    assert defects[1] <= defects[0] / 3.0, defects


@pytest.mark.slow
def test_seller_price_below_buyer_price_by_a_defect_that_refines_away():
    # a worst-case price is sublinear in the payoff, so P(h) + P(-h) >= 0;
    # with the cross term on, the explicit A0 and the central cross stencil
    # break it on the grid. For h the butterfly at the nodes, min(P(h) + P(-h))
    # over x in [60, 140], z >= 0.02 measured -4.93e-3, -1.70e-3 and -3.52e-4
    # on 50^2, 100^2 and 200^2: it falls 2.9x, then 4.8x per doubling
    defects = []
    for grid, x, window in refined_windows():
        h = evaluate(BF, x)
        total = (solve_pdelta(PayoffSpec.tabulated(x, h), PARAMS, grid).values
                 + solve_pdelta(PayoffSpec.tabulated(x, -h), PARAMS, grid).values)
        defects.append(max(0.0, -total[window].min()))
    assert defects[0] <= 2e-3, defects
    assert defects[1] <= defects[0] / 3.0, defects


@pytest.mark.slow
def test_price_of_a_sum_above_the_sum_of_prices_by_a_defect_that_refines_away():
    # sublinearity's other half, P(h1 + h2) <= P(h1) + P(h2), broken on the
    # grid by the same cross term. For h1 the call at 100 and h2 = -2 x the
    # butterfly, both at the nodes, max(P(h1 + h2) - P(h1) - P(h2)) over
    # x in [60, 140], z >= 0.02 measured 3.58e-3, 1.91e-3 and 3.81e-4 on
    # 50^2, 100^2 and 200^2 (4.16e-3, 2.63e-3 and 8.32e-4 on the whole grid):
    # it falls 1.9x, then 5.0x per doubling
    defects = []
    for grid, x, window in refined_windows():
        def price(h):
            return solve_pdelta(PayoffSpec.tabulated(x, h), PARAMS, grid).values

        h1, h2 = evaluate(PayoffSpec.call(100), x), -2.0 * evaluate(BF, x)
        excess = price(h1 + h2) - price(h1) - price(h2)
        defects.append(max(0.0, excess[window].max()))
    assert defects[0] <= 2.5e-3, defects
    assert defects[1] <= defects[0] / 3.0, defects


# -- probabilistic cross-checks (independent of every grid/stencil choice) -----
# The simulations run on the reference simulator, which takes the scheme's
# own state-dependent control; for a constant control it is bitwise the
# package's path kernel.



@pytest.mark.slow
def test_convex_price_matches_expectation_under_frozen_control():
    # a convex payoff pins the control at u, so the scheme solves a linear
    # problem whose value is a plain expectation over the coupled paths;
    # the simulation knows nothing about stencils or boundaries
    pde = solve_pdelta(PayoffSpec.call(100), PARAMS, GRID).value_at(PARAMS.x0, PARAMS.z0)
    _, x_T, _ = exponent_sum_terminals(PARAMS, PARAMS.u, 200, 100_000, seed=314)
    payoffs = np.maximum(x_T - 100.0, 0.0)
    mc = payoffs.mean()
    se = payoffs.std(ddof=1) / np.sqrt(len(payoffs))
    assert abs(pde - mc) < max(4 * se, 0.05)


@pytest.mark.slow
def test_worst_case_price_dominates_fixed_control_valuations():
    # the 2D price is a sup over admissible controls: simulating any fixed
    # rule must value the payoff below it
    from uvbounds.payoff import evaluate

    pde = solve_pdelta(BF, PARAMS, GRID).value_at(PARAMS.x0, PARAMS.z0)
    controls = [PARAMS.d, PARAMS.u,
                lambda t, x, z: np.where(x >= 100.0, PARAMS.d, PARAMS.u)]
    for control in controls:
        _, x_T, _ = exponent_sum_terminals(PARAMS, control, 200, 100_000, seed=271)
        values = evaluate(BF, x_T)
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert values.mean() - 3 * se <= pde + 0.01


@pytest.mark.slow
@pytest.mark.parametrize("grid", [GRID, GridSpec(0, 200, 200, 0, 0.12, 200, 40)],
                         ids=["100x100x20", "200x200x40"])
def test_worst_case_price_attained_by_its_own_control(grid):
    # the other side of the sandwich: simulating the scheme's own control
    # field (nearest node) attains P^delta, as in Guyon & Henry-Labordere
    # (2011), "Uncertain volatility model: a Monte Carlo approach",
    # J. Comput. Finance 14(3). At 800 steps on 1.2M paths the simulation
    # sits 0.018 (100x100x20) and 0.007 (200x200x40) below P^delta, within
    # 0.0032; the 0.03 allowance covers that discretization gap. 40,000
    # paths give se = 0.018.
    from uvbounds.payoff import evaluate

    p_delta, q_hist = pdelta_with_controls(BF, PARAMS, grid)
    pde = p_delta.value_at(PARAMS.x0, PARAMS.z0)
    control = nearest_node_control(q_hist, grid, PARAMS.T)
    _, x_T, _ = exponent_sum_terminals(PARAMS, control, 800, 40_000, seed=2011)
    values = evaluate(BF, x_T)
    se = values.std(ddof=1) / np.sqrt(len(values))
    assert abs(values.mean() - pde) <= 3 * se + 0.03
