import tracemalloc

import numpy as np
import pytest

from uvbounds import solver_pdelta
from uvbounds.blackscholes import bs_call, bs_payoff_price
from uvbounds.core import GridSpec, SolverConfig, SolverError
from uvbounds.payoff import PayoffSpec, evaluate, terminal_surface
from uvbounds.solver_pdelta import _Scheme, solve_p0p1
from reference import (BF, GRID, PARAMS, heston_call, pdelta_with_controls, slow_scale_p1_call,
                       worst_case_call)

SMALL = GridSpec(0, 200, 50, 0, 0.12, 16, 8)


def predictor(term, params, grid, config=SolverConfig()):
    """The predictor of one trapezoidal step, (w_new, q): the step with no
    corrector pass, a select and a solve."""
    scheme = _Scheme(params.replace(delta=0.0), grid, config)
    q, fields = scheme.select(term.values)
    return scheme.solve(q, fields, grid.dt(params.T), config.cn_weight), q


def window(grid, lo=60.0, hi=140.0):
    x = grid.x_nodes()
    return (x >= lo) & (x <= hi)


def test_affine_payoff_is_invariant():
    # payoff x on [0, 200]: zero curvature, zero-gamma boundaries -> frozen
    affine = PayoffSpec.capped_linear(10_000)
    term = terminal_surface(affine, SMALL)
    prov, q = predictor(term, PARAMS, SMALL)
    assert np.all(q == PARAMS.u)  # deadband tie resolves up
    np.testing.assert_allclose(prov, term.values, atol=1e-9)


def test_predictor_q_all_up_for_convex_payoff():
    term = terminal_surface(PayoffSpec.call(100), GRID)
    _, q = predictor(term, PARAMS, GRID)
    assert np.all(q == PARAMS.u)


def test_first_step_q_from_hand_stencil():
    # strikes on nodes: discrete gamma is +0.5 at 90/110, -1 at 100, 0 elsewhere
    grid = GridSpec(0, 200, 101, 0, 0.12, 4, 20)
    term = terminal_surface(BF, grid)
    _, q = predictor(term, PARAMS, grid)
    x = grid.x_nodes()
    z = grid.z_nodes()
    expected = np.where(
        (x[:, None] == 100.0) & (z[None, :] > 1e-9), PARAMS.d, PARAMS.u)
    np.testing.assert_array_equal(q, expected)


def test_corrector_idempotent_when_control_unchanged():
    term = terminal_surface(PayoffSpec.call(100), SMALL)
    cfg = SolverConfig()
    dt, theta = SMALL.dt(PARAMS.T), cfg.cn_weight
    prov, q_pred = predictor(term, PARAMS, SMALL, cfg)
    working = theta * prov + (1.0 - theta) * term.values
    scheme = _Scheme(PARAMS.replace(delta=0.0), SMALL, cfg)
    q_corr, _ = scheme.select(working)
    np.testing.assert_array_equal(q_pred, q_corr)
    np.testing.assert_array_equal(
        scheme.solve(q_corr, scheme.select(term.values)[1], dt, theta), prov)
    assert cfg.corrector_passes == 1
    corr, q_step = scheme.step(term.values, dt, theta)
    np.testing.assert_array_equal(q_step, q_pred)
    np.testing.assert_array_equal(corr, prov)


def test_call_price_matches_high_vol_bs_curve():
    p0, _ = solve_p0p1(PayoffSpec.call(100), PARAMS, GRID)
    x = GRID.x_nodes()
    win = window(GRID)
    for z_probe in (0.04, 0.08):
        j = GRID.iz_nearest(z_probe)
        vol = PARAMS.u * np.sqrt(GRID.z_nodes()[j])
        err = np.abs(p0.values[win, j] - bs_call(x[win], 100, vol, PARAMS.T))
        assert np.max(err) < 0.05


def test_capped_linear_matches_low_vol_bs_curve():
    spec = PayoffSpec.capped_linear(100)
    p0, _ = solve_p0p1(spec, PARAMS, GRID)
    x = GRID.x_nodes()
    win = window(GRID)
    j = GRID.iz_nearest(PARAMS.z0)
    vol = PARAMS.d * np.sqrt(GRID.z_nodes()[j])
    ref = bs_payoff_price(spec, x[win], vol, PARAMS.T)
    assert np.max(np.abs(p0.values[win, j] - ref)) < 0.05


def test_control_field_is_bang_bang():
    # P0's controls are those of the 2D solve at delta = 0, the same step
    _, q = pdelta_with_controls(BF, PARAMS.replace(delta=0.0), SMALL)
    assert set(np.unique(q)) <= {PARAMS.d, PARAMS.u}


def test_no_material_undershoot():
    p0, _ = solve_p0p1(BF, PARAMS, GRID)
    assert p0.values.min() >= -1e-8 * 10.0


def test_widening_band_never_decreases_price():
    narrow, _ = solve_p0p1(BF, PARAMS.replace(d=0.85, u=1.15), SMALL)
    wide, _ = solve_p0p1(BF, PARAMS.replace(d=0.75, u=1.25), SMALL)
    assert np.all(wide.values >= narrow.values - 1e-9)


def test_solution_independent_of_variance_dynamics():
    a0, a1 = solve_p0p1(BF, PARAMS, SMALL)
    b0, b1 = solve_p0p1(BF, PARAMS.replace(kappa=25, theta=0.06, delta=0.7), SMALL)
    np.testing.assert_array_equal(a0.values, b0.values)
    np.testing.assert_array_equal(a1.values, b1.values)
    qa, qb = (pdelta_with_controls(BF, p.replace(delta=0.0), SMALL)[1]
              for p in (PARAMS, PARAMS.replace(kappa=25, theta=0.06)))
    np.testing.assert_array_equal(qa, qb)


@pytest.mark.parametrize("payoff", [BF, PayoffSpec.call(100)], ids=["butterfly", "call"])
def test_p0_depends_on_slice_and_maturity_only_through_their_product(payoff):
    # a P0 step sees z and dt only through q^2*z*dt, and its control
    # selection compares z*x^2*d_xx with gamma_eps: slice z over maturity T
    # is slice z' over T*z/z' once gamma_eps scales by z'/z. Not bitwise,
    # since z*dt rounds differently; measured at most 2.7e-15 of max |P0|
    # (exact when z'/z is a power of two). P0's controls are read off the
    # 2D solve at delta = 0, the same step.
    z, geps = PARAMS.z0, SolverConfig().resolve_gamma_eps(PARAMS)
    grid, cfg = GridSpec(0, 200, 100, z, z, 1, 20), SolverConfig(gamma_eps=geps)
    base, _ = solve_p0p1(payoff, PARAMS, grid, cfg)
    _, base_q = pdelta_with_controls(payoff, PARAMS.replace(delta=0.0), grid, cfg)
    scale = np.max(np.abs(base.values))
    for z2 in (0.0225, 0.09, 0.5):
        p2 = PARAMS.replace(T=PARAMS.T * z / z2)
        grid2, cfg2 = GridSpec(0, 200, 100, z2, z2, 1, 20), SolverConfig(gamma_eps=geps * z2 / z)
        p0, _ = solve_p0p1(payoff, p2, grid2, cfg2)
        assert np.max(np.abs(p0.values - base.values)) <= 1e-13 * scale
        _, q = pdelta_with_controls(payoff, p2.replace(delta=0.0), grid2, cfg2)
        np.testing.assert_array_equal(q, base_q)


@pytest.mark.parametrize("payoff", [BF, PayoffSpec.call(100)], ids=["butterfly", "call"])
def test_p1_scales_with_the_slice_under_the_time_change(payoff):
    # P1 = R(z*(T - t), x)/z with R free of z: slice z' over maturity
    # T*z/z', scaled by z'/z, is slice z over T. Measured at most 2e-13
    # of max |P1|.
    z, geps = PARAMS.z0, SolverConfig().resolve_gamma_eps(PARAMS)
    _, base = solve_p0p1(payoff, PARAMS, GridSpec(0, 200, 100, z, z, 1, 20),
                         SolverConfig(gamma_eps=geps))
    scale = np.max(np.abs(base.values))
    assert scale > 0.0
    for z2 in (0.0225, 0.09, 0.5):
        _, p1 = solve_p0p1(payoff, PARAMS.replace(T=PARAMS.T * z / z2),
                           GridSpec(0, 200, 100, z2, z2, 1, 20),
                           SolverConfig(gamma_eps=geps * z2 / z))
        assert np.max(np.abs(z2 / z * p1.values - base.values)) <= 1e-12 * scale


def test_correction_proportional_to_correlation():
    _, a = solve_p0p1(BF, PARAMS.replace(rho=-0.9), SMALL)
    _, b = solve_p0p1(BF, PARAMS.replace(rho=0.5), SMALL)
    scale = -0.9 / 0.5
    denom = np.max(np.abs(a.values))
    assert denom > 0
    rel = np.max(np.abs(a.values - scale * b.values)) / denom
    assert rel < 1e-12


def test_correction_vanishes_without_correlation(p1_substeps):
    solve_p0p1(BF, PARAMS.replace(rho=0.0), SMALL)
    assert len(p1_substeps) == SMALL.n_t - 1 + SolverConfig().rannacher_steps
    for level in p1_substeps:
        assert np.all(level == 0.0)


def test_single_slice_correction_equals_its_column_of_the_2d_solve():
    # the P1 source reads only its own slice, so a one-slice grid at z_j
    # reproduces column j of the 2D solve
    j = GRID.iz_nearest(PARAMS.z0)
    z = GRID.z_nodes()[j]
    full_p0, full_p1 = solve_p0p1(BF, PARAMS, GRID)
    one_p0, one_p1 = solve_p0p1(BF, PARAMS, GridSpec(0, 200, 100, z, z, 1, 20))
    assert np.max(np.abs(one_p1.values)) > 0.0
    np.testing.assert_array_equal(one_p1.values[:, 0], full_p1.values[:, j])
    np.testing.assert_array_equal(one_p0.values[:, 0], full_p0.values[:, j])


def test_paper_probe_of_correction_is_near_the_fine_single_slice_probe():
    # the fine one-slice grid costs about 0.1 s; measured gap 2.3e-4
    _, fine = solve_p0p1(BF, PARAMS, GridSpec(0, 200, 1600, PARAMS.z0, PARAMS.z0, 1, 320))
    _, p1 = solve_p0p1(BF, PARAMS, GRID)
    gap = (p1.value_at(PARAMS.x0, PARAMS.z0)
           - fine.value_at(PARAMS.x0, PARAMS.z0))
    assert abs(gap) <= 1e-3


def test_call_converges_at_order_two_to_its_closed_forms():
    # a call is convex, so P0 is Black-Scholes at u*sqrt(z) and P1 has a
    # closed form (reference.slow_scale_p1_call). One slice at z0, x in
    # [0, 400], n_t = n_x/10; sup errors over x in [60, 140] measured
    # P0 1.69e-2, 4.37e-3, 1.09e-3 and P1 4.37e-2, 1.02e-2, 2.47e-3
    call, z = PayoffSpec.call(100), PARAMS.z0
    errors = []
    for n_x in (100, 200, 400):
        grid = GridSpec(0, 400, n_x, z, z, 1, n_x // 10)
        p0, p1 = solve_p0p1(call, PARAMS, grid)
        x = grid.x_nodes()
        win = (x >= 60) & (x <= 140)
        bs = bs_call(x[win], 100.0, PARAMS.u * np.sqrt(z), PARAMS.T)
        closed = slow_scale_p1_call(x[win], 100.0, PARAMS.u, z, PARAMS.T, PARAMS.rho)
        errors.append([np.max(np.abs(p0.values[win, 0] - bs)),
                       np.max(np.abs(p1.values[win, 0] - closed))])
    order = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(order >= 1.8), (errors, order)


def test_heston_reference_is_black_scholes_with_frozen_variance():
    # vol-of-vol 1e-4 and mean reversion 1e-8 freeze the variance at v0, and
    # at rho = 0 what is left of Heston's correction is O(vol-of-vol^2)
    # (measured -9.4e-9 at the money); at rho = -0.9 its first order,
    # sqrt(delta)*P1, would leave -1.4e-5
    v0 = PARAMS.u ** 2 * PARAMS.z0
    for strike in (80.0, 100.0, 120.0):
        heston = heston_call(PARAMS.x0, strike, PARAMS.T, v0, 1e-8, v0, 1e-4, 0.0)
        assert abs(heston - bs_call(PARAMS.x0, strike, np.sqrt(v0), PARAMS.T)) <= 1e-7


def test_expansion_error_is_order_delta_with_no_grid():
    # a call's P^delta under q = u is a Heston price, P0 Black-Scholes at
    # u*sqrt(z0) and P1 closed form: E = P^delta - P0 - sqrt(delta)*P1 at
    # (x0, z0) is the paper's O(delta) claim for a convex payoff, with no
    # grid (slope measured 0.979; E/delta -1.02 to -0.97)
    p, strike = PARAMS, 100.0
    deltas = np.array([0.0025, 0.005, 0.01, 0.02])
    p0 = bs_call(p.x0, strike, p.u * np.sqrt(p.z0), p.T)
    p1 = slow_scale_p1_call(p.x0, strike, p.u, p.z0, p.T, p.rho)
    errors = np.array([worst_case_call(p.replace(delta=delta), strike) - p0 - np.sqrt(delta) * p1
                       for delta in deltas])
    slope = np.polyfit(np.log(deltas), np.log(np.abs(errors)), 1)[0]
    assert 0.9 <= slope <= 1.1, (errors, slope)


def test_correction_improves_the_call_up_to_delta_one_with_no_grid():
    # the paper's claim that the expansion holds in moderately slow regimes:
    # for a call, P0 + sqrt(delta)*P1 is closer to P^delta than P0 alone at
    # every delta up to 1 (relative errors measured 0.55% / 0.20% at 0.01
    # and 6.26% / 2.53% at 1)
    p, strike = PARAMS, 100.0
    p0 = bs_call(p.x0, strike, p.u * np.sqrt(p.z0), p.T)
    p1 = slow_scale_p1_call(p.x0, strike, p.u, p.z0, p.T, p.rho)
    for delta in (0.01, 0.05, 0.1, 0.2, 0.5, 1.0):
        gap = worst_case_call(p.replace(delta=delta), strike) - p0
        assert abs(gap - np.sqrt(delta) * p1) < abs(gap), (delta, gap)


def test_peak_memory_does_not_grow_with_time_steps():
    # P0 + P1 keep no per-level control: 252 more levels must add less than
    # one 40x10 surface (3,200 B) to the traced peak, where a control
    # history adds 252 of them (measured 79,000 B at n_t = 4 and 78,944 B
    # at 256; 91,216 B and 897,552 B with the history)
    grids = [GridSpec(0, 200, 40, 0, 0.12, 10, n_t) for n_t in (4, 256)]

    def peak(grid):
        tracemalloc.start()
        try:
            solve_p0p1(BF, PARAMS, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for grid in grids:
        peak(grid)  # warm-up: imports, and each grid's cached coefficient fields
    small, big = (peak(grid) for grid in grids)
    assert big - small < 40 * 10 * 8, (small, big)


def test_huge_maturity_solves_without_overflow():
    # c = theta*dt near 1e300: the x-stage's scale divides c by 1, not by
    # 2^-54, in its identity rows, so no c*2^54 overflows there (the suite
    # turns every RuntimeWarning into an error)
    p0, p1 = solve_p0p1(BF, PARAMS.replace(T=1e300), GridSpec(0, 200, 40, 0, 0.12, 10, 4))
    assert np.all(np.isfinite(p0.values))
    assert np.all(np.isfinite(p1.values))


def test_maturity_whose_step_rounds_to_zero_is_a_solver_error():
    # T/n_t rounds to 0, so theta*dt = 0 and the x-system is singular: a
    # SolverError, with no 0/0 in the identity rows' scale
    with pytest.raises(SolverError, match="time level"):
        solve_p0p1(BF, PARAMS.replace(T=5e-324), GridSpec(0, 200, 40, 0, 0.12, 10, 4))


def test_tiny_maturity_recovers_payoff():
    p = PARAMS.replace(T=1e-6)
    grid = GridSpec(0, 200, 50, 0, 0.12, 16, 1)
    p0, p1 = solve_p0p1(BF, p, grid, config=SolverConfig(rannacher_steps=0))
    x = grid.x_nodes()
    assert np.max(np.abs(p0.values - evaluate(BF, x)[:, None])) < 1e-3
    assert np.max(np.abs(p1.values)) < 1e-6


def test_nonzero_rate_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        solve_p0p1(BF, PARAMS.replace(r=0.02), SMALL)


def test_solve_failure_carries_time_level_context():
    cfg = SolverConfig(lin_tol=1e-30)
    with pytest.raises(SolverError, match="time level"):
        solve_p0p1(BF, PARAMS, SMALL, cfg)


def test_p1_step_reuses_the_p0_factor(monkeypatch):
    # one x-system factor per P0 solve; every P1 step reuses the last one
    n_factors, n_solves = [0], [0]
    x_solver, solve = solver_pdelta.XSolver, _Scheme.solve

    def counting_x_solver(*args):
        n_factors[0] += 1
        return x_solver(*args)

    def counting_solve(*args):
        n_solves[0] += 1
        return solve(*args)

    monkeypatch.setattr(solver_pdelta, "XSolver", counting_x_solver)
    monkeypatch.setattr(_Scheme, "solve", counting_solve)
    solve_p0p1(BF, PARAMS, SMALL)
    assert n_factors[0] == n_solves[0] >= SMALL.n_t


def test_step_p1_zero_source_keeps_zero():
    # at rho = 0 the source is zero, so P1 stays bitwise zero, +0.0 included,
    # from its zero terminal level through every sub-step
    _, p1 = solve_p0p1(BF, PARAMS.replace(rho=0.0), SMALL)
    assert p1.values.tobytes() == np.zeros((SMALL.n_x, SMALL.n_z)).tobytes()


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
    _, p1 = solve_p0p1(BF, params, grid)
    i, j = grid.ix_nearest(100.0), grid.iz_nearest(0.04)
    ref = v_ref[i, j]
    got = p1.values[i, j]
    assert abs(ref) > 1e-6  # the probe sees a genuine correction
    assert np.sign(ref) == np.sign(got)
