import numpy as np
import pytest

from uvbounds import solver_p0p1, solver_pdelta, stepping
from uvbounds.blackscholes import bs_call, bs_payoff_price
from uvbounds.core import GridSpec, ModelParams, SolverConfig
from uvbounds.payoff import PayoffSpec, evaluate, terminal_surface
from uvbounds.solver_p0p1 import _scheme, solve_p0p1

PARAMS = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                     kappa=15, theta=0.04, delta=0.05, rho=-0.9)
GRID = GridSpec(0, 200, 100, 0, 0.12, 100, 20)
SMALL = GridSpec(0, 200, 50, 0, 0.12, 16, 8)
BF = PayoffSpec.butterfly(90, 100, 110)


def predictor(term, params, grid, config=SolverConfig()):
    """The predictor of one trapezoidal step: the shared step, no corrector pass."""
    select, solve, _ = _scheme(params, grid, config)
    return stepping.step(term.values, select, solve, grid.dt(params.T),
                         config.cn_weight, 0)


def window(grid, lo=60.0, hi=140.0):
    x = grid.x_nodes()
    return (x >= lo) & (x <= hi)


def test_affine_payoff_is_invariant():
    # payoff x on [0, 200]: zero curvature, zero-gamma boundaries -> frozen
    affine = PayoffSpec.capped_linear(10_000)
    term = terminal_surface(affine, SMALL)
    prov, q, _ = predictor(term, PARAMS, SMALL)
    assert np.all(q == PARAMS.u)  # deadband tie resolves up
    np.testing.assert_allclose(prov, term.values, atol=1e-9)


def test_predictor_q_all_up_for_convex_payoff():
    term = terminal_surface(PayoffSpec.call(100), GRID)
    _, q, _ = predictor(term, PARAMS, GRID)
    assert np.all(q == PARAMS.u)


def test_first_step_q_from_hand_stencil():
    # strikes on nodes: discrete gamma is +0.5 at 90/110, -1 at 100, 0 elsewhere
    grid = GridSpec(0, 200, 101, 0, 0.12, 4, 20)
    term = terminal_surface(BF, grid)
    _, q, _ = predictor(term, PARAMS, grid)
    x = grid.x_nodes()
    z = grid.z_nodes()
    expected = np.where(
        (x[:, None] == 100.0) & (z[None, :] > 1e-9), PARAMS.d, PARAMS.u)
    np.testing.assert_array_equal(q, expected)


def test_corrector_idempotent_when_control_unchanged():
    term = terminal_surface(PayoffSpec.call(100), SMALL)
    cfg = SolverConfig()
    dt, theta = SMALL.dt(PARAMS.T), cfg.cn_weight
    prov, q_pred, _ = predictor(term, PARAMS, SMALL, cfg)
    working = theta * prov + (1.0 - theta) * term.values
    select, solve, _ = _scheme(PARAMS, SMALL, cfg)
    q_corr, _ = select(working)
    np.testing.assert_array_equal(q_pred, q_corr)
    np.testing.assert_array_equal(solve(q_corr, term.values, dt, theta), prov)
    corr, q_step, _ = stepping.step(term.values, select, solve, dt, theta, 1)
    np.testing.assert_array_equal(q_step, q_pred)
    np.testing.assert_array_equal(corr, prov)


def test_call_price_matches_high_vol_bs_curve():
    sol = solve_p0p1(PayoffSpec.call(100), PARAMS, GRID)
    x = GRID.x_nodes()
    win = window(GRID)
    for z_probe in (0.04, 0.08):
        j = GRID.iz_nearest(z_probe)
        vol = PARAMS.u * np.sqrt(GRID.z_nodes()[j])
        err = np.abs(sol.p0.values[win, j] - bs_call(x[win], 100, vol, PARAMS.T))
        assert np.max(err) < 0.05


def test_capped_linear_matches_low_vol_bs_curve():
    spec = PayoffSpec.capped_linear(100)
    sol = solve_p0p1(spec, PARAMS, GRID)
    x = GRID.x_nodes()
    win = window(GRID)
    j = GRID.iz_nearest(PARAMS.z0)
    vol = PARAMS.d * np.sqrt(GRID.z_nodes()[j])
    ref = bs_payoff_price(spec, x[win], vol, PARAMS.T)
    assert np.max(np.abs(sol.p0.values[win, j] - ref)) < 0.05


def test_control_field_is_bang_bang():
    sol = solve_p0p1(BF, PARAMS, SMALL)
    assert set(np.unique(sol.q_star0)) <= {PARAMS.d, PARAMS.u}


def test_no_material_undershoot():
    sol = solve_p0p1(BF, PARAMS, GRID)
    assert sol.p0.values.min() >= -1e-8 * 10.0


def test_widening_band_never_decreases_price():
    narrow = solve_p0p1(BF, PARAMS.replace(d=0.85, u=1.15), SMALL)
    wide = solve_p0p1(BF, PARAMS.replace(d=0.75, u=1.25), SMALL)
    assert np.all(wide.p0.values >= narrow.p0.values - 1e-9)


def test_solution_independent_of_variance_dynamics():
    a = solve_p0p1(BF, PARAMS, SMALL)
    b = solve_p0p1(BF, PARAMS.replace(kappa=25, theta=0.06, delta=0.7), SMALL)
    np.testing.assert_array_equal(a.p0.values, b.p0.values)
    np.testing.assert_array_equal(a.p1.values, b.p1.values)
    np.testing.assert_array_equal(a.q_star0, b.q_star0)


def test_correction_proportional_to_correlation():
    a = solve_p0p1(BF, PARAMS.replace(rho=-0.9), SMALL)
    b = solve_p0p1(BF, PARAMS.replace(rho=0.5), SMALL)
    scale = -0.9 / 0.5
    denom = np.max(np.abs(a.p1.values))
    assert denom > 0
    rel = np.max(np.abs(a.p1.values - scale * b.p1.values)) / denom
    assert rel < 1e-12


def test_correction_vanishes_without_correlation(p1_substeps):
    solve_p0p1(BF, PARAMS.replace(rho=0.0), SMALL)
    assert len(p1_substeps) == SMALL.n_t - 1 + SolverConfig().rannacher_steps
    for level in p1_substeps:
        assert np.all(level == 0.0)


def test_correction_vanishes_on_single_slice_grid(p1_substeps):
    grid = GridSpec(0, 200, 50, PARAMS.z0, PARAMS.z0, 1, 8)
    solve_p0p1(BF, PARAMS, grid)
    assert len(p1_substeps) == grid.n_t - 1 + SolverConfig().rannacher_steps
    for level in p1_substeps:
        assert np.all(level == 0.0)


def test_tiny_maturity_recovers_payoff():
    p = PARAMS.replace(T=1e-6)
    grid = GridSpec(0, 200, 50, 0, 0.12, 16, 1)
    sol = solve_p0p1(BF, p, grid, config=SolverConfig(rannacher_steps=0))
    x = grid.x_nodes()
    assert np.max(np.abs(sol.p0.values - evaluate(BF, x)[:, None])) < 1e-3
    assert np.max(np.abs(sol.p1.values)) < 1e-6


def test_nonzero_rate_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        solve_p0p1(BF, PARAMS.replace(r=0.02), SMALL)


def test_solve_failure_carries_time_level_context():
    from uvbounds.core import SolverError
    cfg = SolverConfig(lin_tol=1e-30)
    with pytest.raises(SolverError, match="time level"):
        solve_p0p1(BF, PARAMS, SMALL, cfg)


def test_p1_step_reuses_the_p0_factor(monkeypatch):
    # one x-system factor per P0 solve; every P1 step reuses the last one
    n_factors, n_solves = [0], [0]
    factor, scheme = solver_pdelta.tridiag_solver, solver_p0p1._scheme_2d

    def counting_factor(*args):
        n_factors[0] += 1
        return factor(*args)

    def counting_scheme(*args, **kwargs):
        select, solve = scheme(*args, **kwargs)

        def counted(*a):
            n_solves[0] += 1
            return solve(*a)
        return select, counted

    monkeypatch.setattr(solver_pdelta, "tridiag_solver", counting_factor)
    monkeypatch.setattr(solver_p0p1, "_scheme_2d", counting_scheme)
    solve_p0p1(BF, PARAMS, SMALL)
    assert n_factors[0] == n_solves[0] >= SMALL.n_t


def test_step_p1_zero_source_keeps_zero():
    params = PARAMS.replace(rho=0.0)
    cfg = SolverConfig()
    term_p0 = terminal_surface(BF, SMALL)
    prov, q, _ = predictor(term_p0, params, SMALL, cfg)
    _, _, solve_p1 = _scheme(params, SMALL, cfg)
    out = solve_p1(np.zeros((SMALL.n_x, SMALL.n_z)), q, prov, term_p0.values,
                   SMALL.dt(params.T), cfg.cn_weight)
    assert np.all(out == 0.0)


# -- independent dense reference for the correction sign ----------------------

def _dense_reference_p1(params, grid, n_t=40):
    """Brute-force fully implicit dense solver, written independently:
    dense matrices per slice, np.linalg.solve, explicit loops."""
    x = grid.x_nodes()
    z = grid.z_nodes()
    nx, nz = grid.n_x, grid.n_z
    dt = params.T / n_t
    u_surf = np.array([[evaluate(BF, xi) for _ in z] for xi in x])
    v_surf = np.zeros((nx, nz))

    def gamma_xx(f):
        g = np.zeros_like(f)
        for i in range(1, nx - 1):
            g[i, :] = (f[i + 1, :] + f[i - 1, :] - 2 * f[i, :]) / grid.dx**2
        return g

    def cross_xz(f):
        # first z then x, one-sided at edges
        fz = np.zeros_like(f)
        for j in range(nz):
            if j == 0:
                fz[:, j] = (f[:, 1] - f[:, 0]) / grid.dz
            elif j == nz - 1:
                fz[:, j] = (f[:, -1] - f[:, -2]) / grid.dz
            else:
                fz[:, j] = (f[:, j + 1] - f[:, j - 1]) / (2 * grid.dz)
        out = np.zeros_like(f)
        for i in range(nx):
            if i == 0:
                out[i, :] = (fz[1, :] - fz[0, :]) / grid.dx
            elif i == nx - 1:
                out[i, :] = (fz[-1, :] - fz[-2, :]) / grid.dx
            else:
                out[i, :] = (fz[i + 1, :] - fz[i - 1, :]) / (2 * grid.dx)
        return out

    for _ in range(n_t):
        gam = gamma_xx(u_surf)
        q = np.where(z[None, :] * x[:, None]**2 * gam > -1e-5, params.u, params.d)
        u_new = np.empty_like(u_surf)
        for j in range(nz):
            mat = np.eye(nx)
            for i in range(1, nx - 1):
                c = 0.5 * q[i, j]**2 * z[j] * x[i]**2 * dt / grid.dx**2
                mat[i, i - 1] -= c
                mat[i, i] += 2 * c
                mat[i, i + 1] -= c
            u_new[:, j] = np.linalg.solve(mat, u_surf[:, j])
        source = params.rho * q * x[:, None] * z[None, :] * cross_xz(u_new)
        source[0, :] = source[-1, :] = 0.0
        v_new = np.empty_like(v_surf)
        for j in range(nz):
            mat = np.eye(nx)
            for i in range(1, nx - 1):
                c = 0.5 * q[i, j]**2 * z[j] * x[i]**2 * dt / grid.dx**2
                mat[i, i - 1] -= c
                mat[i, i] += 2 * c
                mat[i, i + 1] -= c
            v_new[:, j] = np.linalg.solve(mat, v_surf[:, j] + dt * source[:, j])
        u_surf, v_surf = u_new, v_new
    return u_surf, v_surf


def test_correction_sign_matches_dense_reference():
    grid = GridSpec(0, 200, 20, 0, 0.12, 20, 10)
    params = PARAMS.replace(rho=-0.9)
    _, v_ref = _dense_reference_p1(params, grid)
    sol = solve_p0p1(BF, params, grid)
    i, j = grid.ix_nearest(100.0), grid.iz_nearest(0.04)
    ref = v_ref[i, j]
    got = sol.p1.values[i, j]
    assert abs(ref) > 1e-6  # the probe sees a genuine correction
    assert np.sign(ref) == np.sign(got)
