import numpy as np
import pytest

from uvbounds import solver_pdelta, stepping
from uvbounds.blackscholes import bs_call
from uvbounds.core import GridSpec, ModelParams, SolverConfig, SolverError
from uvbounds.payoff import PayoffSpec, terminal_surface
from uvbounds.solver_p0p1 import solve_p0p1
from uvbounds.solver_pdelta import TAG_A, TAG_B, TAG_C, _scheme, _Split, select_q, solve_pdelta
from uvbounds.stencils import deadband, lxx_values, lxz_values
from reference import generator_matrix, lu_solve

PARAMS = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                     kappa=15, theta=0.04, delta=0.05, rho=-0.9)
SMALL = GridSpec(0, 200, 40, 0, 0.12, 12, 6)
BF = PayoffSpec.butterfly(90, 100, 110)
GEPS = SolverConfig().resolve_gamma_eps(PARAMS)


# -- pointwise control selection ----------------------------------------------

def test_select_q_rho_zero_reduces_to_curvature_sign():
    p = PARAMS.replace(rho=0.0)
    assert select_q(2.0, 5.0, p, GEPS) == (p.u, TAG_A)
    assert select_q(-2.0, 5.0, p, GEPS) == (p.d, TAG_B)
    # deadband tie goes up
    assert select_q(0.0, 5.0, p, GEPS) == (p.u, TAG_A)
    assert select_q(-1e-9, 5.0, p, GEPS) == (p.u, TAG_A)
    # delta = 0, where P0 takes its control from this rule: q is the
    # bang-bang rule on the sign of lxx with the deadband, whatever lxz
    p0 = PARAMS.replace(delta=0.0)
    rng = np.random.default_rng(3)
    lxx = np.concatenate([[GEPS, -GEPS, 0.0, -0.0, np.nextafter(-GEPS, 0.0)],
                          rng.standard_normal(200) * 10.0 * GEPS])
    lxz = rng.standard_normal(lxx.size) * 10.0
    bang_bang = np.where(deadband(lxx, GEPS) >= 0.0, p0.u, p0.d)
    q, _ = select_q(lxx, lxz, p0, GEPS)
    np.testing.assert_array_equal(q, bang_bang)


def test_select_q_flat_node_ties_up_whatever_the_cross_term():
    # both fields inside the deadband: the node is flat, so it ties and goes up,
    # with either sign of a rounding-level cross term
    assert PARAMS.rho != 0.0
    for lxz in (0.5 * GEPS, -0.5 * GEPS):
        assert select_q(0.0, lxz, PARAMS, GEPS) == (PARAMS.u, TAG_A)


def test_select_q_positive_curvature_endpoints_only():
    # convex in q: the stationary point is a minimum, never a candidate
    q, tag = select_q(1.0, -80.0, PARAMS, GEPS)
    assert tag in (TAG_A, TAG_B)
    b = PARAMS.rho * np.sqrt(PARAMS.delta) * (-80.0)
    f_u = 0.5 * PARAMS.u**2 + PARAMS.u * b
    f_d = 0.5 * PARAMS.d**2 + PARAMS.d * b
    assert q == (PARAMS.u if f_u >= f_d else PARAMS.d)


def test_select_q_stationary_point_outside_band():
    # gxx=-1, gxz=1, rho=-0.9, delta=0.04: q_hat = -0.18, out of [0.75, 1.25];
    # by hand f(u) = -1.00625 < f(d) = -0.41625, so the lower endpoint wins
    p = PARAMS.replace(delta=0.04)
    q, tag = select_q(-1.0, 1.0, p, GEPS)
    assert (q, tag) == (p.d, TAG_B)


def test_select_q_interior_winner_in_band():
    # arrange q_hat = 1.0: f(q_hat) = 0.5 beats both endpoints (0.46875)
    p = PARAMS.replace(delta=0.04)
    b_coeff = p.rho * np.sqrt(p.delta)
    lxz = 1.0 / b_coeff
    q, tag = select_q(-1.0, lxz, p, GEPS)
    assert tag == TAG_C
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
    q, tag = select_q(lxx, lxz, p, GEPS)

    a = np.where(np.abs(lxx) < GEPS, 0.0, lxx)
    b = c0 * np.where(np.abs(lxz) < GEPS, 0.0, lxz)

    def f(x):
        return 0.5 * x * x * a + x * b

    q_hat = np.clip(-b / np.where(a < 0.0, a, -1.0), p.d, p.u)
    sup = np.maximum(f(p.u), f(p.d))
    sup = np.where(a < 0.0, np.maximum(sup, f(q_hat)), sup)
    np.testing.assert_allclose(f(q), sup, rtol=1e-12, atol=0.0)
    assert np.all((p.d <= q) & (q <= p.u))
    assert np.all(q[tag == TAG_A] == p.u)
    assert np.all(q[tag == TAG_B] == p.d)
    assert np.any(tag == TAG_C) == (c0 != 0.0)


def test_select_q_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    lxx = rng.standard_normal(40) * 2
    lxz = rng.standard_normal(40) * 3
    qv, tv = select_q(lxx, lxz, PARAMS, GEPS)
    for i in range(40):
        qs, ts = select_q(float(lxx[i]), float(lxz[i]), PARAMS, GEPS)
        assert qs == qv[i] and ts == tv[i]


@pytest.mark.parametrize("params", [PARAMS.replace(rho=0.0), PARAMS.replace(delta=0.0)],
                         ids=["rho0", "delta0"])
def test_select_skips_cross_field_where_its_coefficient_is_zero(params):
    # the scheme's select leaves out lxz when rho*sqrt(delta) = 0; the control
    # and tags are those of select_q fed the computed field
    w = np.random.default_rng(29).standard_normal((SMALL.n_x, SMALL.n_z))
    select, _ = _scheme(_Split(params, SMALL), SolverConfig())
    q, tags = select(w)
    geps = SolverConfig().resolve_gamma_eps(params)
    q_ref, tags_ref = select_q(lxx_values(w, SMALL), lxz_values(w, SMALL), params, geps)
    np.testing.assert_array_equal(q, q_ref)
    np.testing.assert_array_equal(tags, tags_ref)
    # with no cross term the stationary point is q_hat = 0, outside the band
    assert not np.any(tags == TAG_C)


# -- full solves ----------------------------------------------------------------

def test_delta_zero_matches_leading_order():
    # with no cross term and no z-stage the 2D step is the P0 step, bit for bit
    base = solve_p0p1(BF, PARAMS, SMALL)
    full = solve_pdelta(BF, PARAMS.replace(delta=0.0), SMALL)
    np.testing.assert_array_equal(full.p_delta.values, base.p0.values)
    np.testing.assert_array_equal(full.q_star_delta, base.q_star0)


def test_call_payoff_control_and_price():
    p = PARAMS.replace(rho=0.0, delta=0.01)
    sol = solve_pdelta(PayoffSpec.call(100), p, SMALL)
    assert np.all(sol.q_star_delta == p.u)
    probe = sol.p_delta.value_at(p.x0, p.z0)
    ref = bs_call(p.x0, 100.0, p.u * np.sqrt(p.z0), p.T)
    assert probe >= ref - 0.05
    assert probe <= ref + 0.5  # z-diffusion adds only a little value at small delta


def test_interior_candidate_never_fires_without_correlation():
    sol = solve_pdelta(BF, PARAMS.replace(rho=0.0), SMALL)
    assert sol.tag_fraction(TAG_C) == 0.0


def test_single_slice_grid_reduces_to_frozen_band_problem():
    grid = GridSpec(0, 200, 40, PARAMS.z0, PARAMS.z0, 1, 6)
    full = solve_pdelta(BF, PARAMS, grid)
    base = solve_p0p1(BF, PARAMS, grid)
    np.testing.assert_array_equal(full.p_delta.values, base.p0.values)
    # so does the LU reference step, built by probing on one z-node
    cfg = SolverConfig()
    select, _ = _scheme(_Split(PARAMS, grid), cfg)
    w_lu = stepping.march(terminal_surface(BF, grid).values, grid, PARAMS.T, cfg, select,
                          lu_solve(PARAMS, grid, cfg.lin_tol))[0]
    np.testing.assert_allclose(w_lu, base.p0.values, rtol=0, atol=1e-12)


def test_control_in_band_and_undershoot_small():
    sol = solve_pdelta(BF, PARAMS, SMALL)
    assert sol.q_star_delta.min() >= PARAMS.d
    assert sol.q_star_delta.max() <= PARAMS.u
    # the central cross/drift stencils are not monotone near z = 0, so a
    # strict nonnegativity floor is unattainable for kinked payoffs; the
    # observed oscillation stays three orders below the payoff scale
    assert sol.p_delta.values.min() >= -1e-3 * 10.0


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
    gen = generator_matrix(_Split(PARAMS, grid), q)
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
    split = _Split(PARAMS, SMALL)
    parts = split.a0(q, w) + split.a1(q, w) + split.a2(w)
    whole = (generator_matrix(split, q) @ w.ravel()).reshape(w.shape)
    assert np.max(np.abs(parts - whole)) <= 1e-12 * np.max(np.abs(whole))
    # the z-stage inverts I - c*A2 with the same A2
    c = 0.01
    y = split.solve_z(w, c, 1.0, 1e-10)
    np.testing.assert_allclose(y - c * split.a2(y), w, rtol=0, atol=1e-12)
    # the x-stage's probed tridiagonal is A1, and the x-stage inverts I - c*A1
    for grid in PROBE_GRIDS.values():
        w = rng.standard_normal((grid.n_x, grid.n_z))
        q = rng.uniform(PARAMS.d, PARAMS.u, size=w.shape)
        split = _Split(PARAMS, grid)
        a1 = split.a1(q, w)
        lower, main, upper = split.lxx_diags  # one row per z-slice
        tri = main * w.T
        tri[:, 1:] += lower * w.T[:, :-1]
        tri[:, :-1] += upper * w.T[:, 1:]
        assert np.max(np.abs(0.5 * q * q * tri.T - a1)) <= 1e-12 * np.max(np.abs(a1))
        y = split.x_solver(q, c, 1e-10)(w)
        np.testing.assert_allclose(y - c * split.a1(q, y), w, rtol=0, atol=1e-12)


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
        select, adi = _scheme(_Split(p, grid), cfg)
        lu = lu_solve(p, grid, cfg.lin_tol)
        term = terminal_surface(BF, grid).values
        w_adi = stepping.march(term, grid, p.T, cfg, select, adi)[0]
        w_lu = stepping.march(term, grid, p.T, cfg, select, lu)[0]
        gaps.append(np.max(np.abs(w_adi - w_lu)))
    assert gaps[0] >= 3.0 * gaps[1], gaps
    assert gaps[1] >= 3.0 * gaps[2], gaps


def test_price_drift_is_linear_in_delta_when_uncorrelated():
    # rho = 0 and theta = z0: the only delta-effect is the z-diffusion term
    p = PARAMS.replace(rho=0.0, theta=PARAMS.z0, kappa=15.0)
    base = solve_p0p1(BF, p, SMALL)
    i, j = SMALL.ix_nearest(p.x0), SMALL.iz_nearest(p.z0)
    gaps = []
    for delta in (0.02, 0.04):
        sol = solve_pdelta(BF, p.replace(delta=delta), SMALL)
        gaps.append(abs(sol.p_delta.values[i, j] - base.p0.values[i, j]))
    assert gaps[0] > 0
    assert 1.2 < gaps[1] / gaps[0] < 3.0  # doubling delta roughly doubles the gap


def test_raw_gap_vanishes_with_root_delta_rate():
    # sup |2D price - leading order| shrinks at least like delta^0.45
    grid = GridSpec(0, 200, 60, 0, 0.12, 20, 8)
    base = solve_p0p1(BF, PARAMS, grid)
    deltas = np.array([0.0125, 0.025, 0.05])
    gaps = np.array([
        np.max(np.abs(solve_pdelta(BF, PARAMS.replace(delta=d), grid)
                      .p_delta.values - base.p0.values))
        for d in deltas
    ])
    assert np.all(np.diff(gaps) > 0)
    slope = np.polyfit(np.log(deltas), np.log(gaps), 1)[0]
    assert slope >= 0.45


def test_correction_improves_slice_approximation():
    # along the initial-variance slice the first-order combination tracks
    # the 2D price far better than the leading order alone
    grid = GridSpec(0, 200, 80, 0, 0.12, 30, 10)
    base = solve_p0p1(BF, PARAMS, grid)
    full = solve_pdelta(BF, PARAMS, grid)
    x = grid.x_nodes()
    win = (x >= 60) & (x <= 140)
    j0 = grid.iz_nearest(PARAMS.z0)
    corr = np.sqrt(PARAMS.delta) * base.p1.values
    e_first_order = np.abs(full.p_delta.values - base.p0.values - corr)[win, j0]
    e_leading = np.abs(full.p_delta.values - base.p0.values)[win, j0]
    assert e_first_order.max() < 0.5 * e_leading.max()


def test_step_matches_single_step_solve():
    cfg = SolverConfig(rannacher_steps=0)
    grid = GridSpec(0, 200, 30, 0, 0.12, 8, 1)
    term = terminal_surface(BF, grid)
    select, solve = _scheme(_Split(PARAMS, grid), cfg)
    stepped, q, tags = stepping.step(term.values, select, solve, grid.dt(PARAMS.T),
                                     cfg.cn_weight, cfg.corrector_passes)
    solved = solve_pdelta(BF, PARAMS, grid, cfg)
    np.testing.assert_array_equal(stepped, solved.p_delta.values)
    np.testing.assert_array_equal(q, solved.q_star_delta[0])
    np.testing.assert_array_equal(tags, solved.candidate_tags[0])


@pytest.mark.parametrize("cfg,n_z_factors", [(SolverConfig(), 1),
                                             (SolverConfig(cn_weight=0.6), 2)])
def test_each_matrix_factored_once(monkeypatch, cfg, n_z_factors):
    # paper.cfg's time grid: the Rannacher 1*dt/2 and the trapezoidal 0.5*dt
    # are one theta*dt, so its z-system is factored once per solve_pdelta;
    # the x-system is factored once per Craig-Sneyd step
    grid = GridSpec(0, 200, 60, 0, 0.12, 30, 20)  # n_x != n_z tells the systems apart
    shapes, n_solves = [], [0]
    factor, scheme = solver_pdelta.tridiag_solver, solver_pdelta._scheme

    def counting_factor(lower, main, upper, lin_tol):
        shapes.append(np.shape(main))
        return factor(lower, main, upper, lin_tol)

    def counting_scheme(*args):
        select, solve = scheme(*args)

        def counted(*a):
            n_solves[0] += 1
            return solve(*a)
        return select, counted

    monkeypatch.setattr(solver_pdelta, "tridiag_solver", counting_factor)
    monkeypatch.setattr(solver_pdelta, "_scheme", counting_scheme)
    solve_pdelta(BF, PARAMS, grid, cfg)
    assert shapes.count((grid.n_x, grid.n_z)) == n_z_factors
    assert shapes.count((grid.n_z, grid.n_x)) == n_solves[0] >= grid.n_t


def test_failure_carries_time_level_context():
    cfg = SolverConfig(lin_tol=1e-30)
    with pytest.raises(SolverError, match="time level"):
        solve_pdelta(BF, PARAMS, SMALL, cfg)


# -- probabilistic cross-checks (independent of every grid/stencil choice) -----

PAPER_GRID = GridSpec(0, 200, 100, 0, 0.12, 100, 20)


@pytest.mark.slow
def test_convex_price_matches_expectation_under_frozen_control():
    # a convex payoff pins the control at u, so the scheme solves a linear
    # problem whose value is a plain expectation over the coupled paths;
    # the simulation knows nothing about stencils or boundaries
    from uvbounds.montecarlo import simulate_coupled_asset

    sol = solve_pdelta(PayoffSpec.call(100), PARAMS, PAPER_GRID)
    pde = sol.p_delta.value_at(PARAMS.x0, PARAMS.z0)
    _, x_T, _ = simulate_coupled_asset(PARAMS, PARAMS.u, 200, 100_000, seed=314)
    payoffs = np.maximum(x_T - 100.0, 0.0)
    mc = payoffs.mean()
    se = payoffs.std(ddof=1) / np.sqrt(len(payoffs))
    assert abs(pde - mc) < max(4 * se, 0.05)


@pytest.mark.slow
def test_worst_case_price_dominates_fixed_control_valuations():
    # the 2D price is a sup over admissible controls: simulating any fixed
    # rule must value the payoff below it
    from uvbounds.montecarlo import simulate_coupled_asset
    from uvbounds.payoff import evaluate

    sol = solve_pdelta(BF, PARAMS, PAPER_GRID)
    pde = sol.p_delta.value_at(PARAMS.x0, PARAMS.z0)
    controls = [PARAMS.d, PARAMS.u,
                lambda t, x, z: np.where(x >= 100.0, PARAMS.d, PARAMS.u)]
    for control in controls:
        _, x_T, _ = simulate_coupled_asset(PARAMS, control, 200, 100_000, seed=271)
        values = evaluate(BF, x_T)
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert values.mean() - 3 * se <= pde + 0.01
