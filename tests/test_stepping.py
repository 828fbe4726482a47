import numpy as np
from hypothesis import assume, given, settings, strategies as hst

from uvbounds.core import GridSpec, SolverConfig
from uvbounds.payoff import PayoffSpec, evaluate
from uvbounds.solver_pdelta import solve_p0p1
from uvbounds.solver_pdelta import solve_pdelta
from reference import BF, PARAMS, pdelta_with_controls

GEPS = SolverConfig().resolve_gamma_eps(PARAMS)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n_x=hst.integers(12, 40), n_z=hst.integers(3, 12), n_t=hst.integers(1, 8),
       c=hst.floats(-50.0, 50.0))
def test_constant_shift_of_payoff_shifts_prices(n_x, n_z, n_t, c):
    # constants lie in the kernel of every operator, so the scheme must carry a shifted payoff to a shifted P0 and P^delta, and leave P1
    grid = GridSpec(0, 200, n_x, 0, 0.12, n_z, n_t)
    x = grid.x_nodes()
    h = evaluate(BF, x)
    base = PayoffSpec.tabulated(x, h)
    shifted = PayoffSpec.tabulated(x, h + c)
    tol = 1e-10 * (1.0 + abs(c))

    (a0, a1), (b0, b1) = solve_p0p1(base, PARAMS, grid), solve_p0p1(shifted, PARAMS, grid)
    assert np.max(np.abs(b0.values - (a0.values + c))) <= tol
    assert np.max(np.abs(b1.values - a1.values)) <= tol

    a, b = solve_pdelta(base, PARAMS, grid), solve_pdelta(shifted, PARAMS, grid)
    assert np.max(np.abs(b.values - (a.values + c))) <= tol


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n_x=hst.integers(12, 40), n_z=hst.integers(3, 12), n_t=hst.integers(1, 8),
       k=hst.integers(-4, 4))
def test_positive_homogeneity_of_prices(n_x, n_z, n_t, k):
    # every operator is linear and the control selection compares fields
    # against a deadband, so scaling the payoff and the deadband by lam
    # scales P0, P1 and P^delta by lam and keeps every control. A power of
    # two scales each rounding step exactly, so the check is bit for bit;
    # at lam = 3 the prices differ by rounding and some controls flip
    grid = GridSpec(0, 200, n_x, 0, 0.12, n_z, n_t)
    lam = 2.0 ** k
    x = grid.x_nodes()
    h = evaluate(BF, x)
    base = PayoffSpec.tabulated(x, h)
    scaled = PayoffSpec.tabulated(x, lam * h)
    cfg, cfg_scaled = SolverConfig(gamma_eps=GEPS), SolverConfig(gamma_eps=lam * GEPS)

    def bitwise(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    (a0, a1), (b0, b1) = (solve_p0p1(base, PARAMS, grid, cfg),
                          solve_p0p1(scaled, PARAMS, grid, cfg_scaled))
    bitwise(b0.values, lam * a0.values)
    bitwise(b1.values, lam * a1.values)

    # P0's controls are those of the 2D solve at delta = 0
    for params in (PARAMS.replace(delta=0.0), PARAMS):
        a, qa = pdelta_with_controls(base, params, grid, cfg)
        b, qb = pdelta_with_controls(scaled, params, grid, cfg_scaled)
        bitwise(b.values, lam * a.values)
        bitwise(qb, qa)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n_x=hst.integers(12, 40), n_z=hst.integers(3, 12), n_t=hst.integers(1, 8),
       k=hst.integers(-2, 2), delta=hst.sampled_from([0.05, 0.25]))
def test_time_change_symmetry(n_x, n_z, n_t, k, delta):
    # z -> lam*z (z0 and the grid's z-range too), theta -> lam*theta,
    # kappa -> kappa/lam, delta -> lam^2*delta and T -> T/lam leave the model
    # as it is, P1 scaled by 1/lam: every term of the generator and both
    # coefficients of the control's quadratic scale by lam, and dt by 1/lam.
    # With gamma_eps scaled by lam and lam a power of two, each rounding
    # step scales exactly, so the check is bit for bit, controls included
    lam = 2.0 ** k
    assume(lam * lam * delta <= 1.0)
    params = PARAMS.replace(delta=delta)
    scaled = params.replace(z0=lam * params.z0, theta=lam * params.theta,
                            kappa=params.kappa / lam, delta=lam * lam * delta,
                            T=params.T / lam)
    grid = GridSpec(0, 200, n_x, 0, 0.12, n_z, n_t)
    grid_scaled = GridSpec(0, 200, n_x, 0, lam * 0.12, n_z, n_t)
    cfg, cfg_scaled = SolverConfig(gamma_eps=GEPS), SolverConfig(gamma_eps=lam * GEPS)

    def bitwise(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    (a0, a1), (b0, b1) = (solve_p0p1(BF, params, grid, cfg),
                          solve_p0p1(BF, scaled, grid_scaled, cfg_scaled))
    bitwise(b0.values, a0.values)
    bitwise(lam * b1.values, a1.values)

    # P0's controls are those of the 2D solve at delta = 0
    for p, p_scaled in ((params.replace(delta=0.0), scaled.replace(delta=0.0)),
                        (params, scaled)):
        a, qa = pdelta_with_controls(BF, p, grid, cfg)
        b, qb = pdelta_with_controls(BF, p_scaled, grid_scaled, cfg_scaled)
        bitwise(b.values, a.values)
        bitwise(qb, qa)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n_x=hst.integers(12, 40), n_z=hst.integers(3, 12), n_t=hst.integers(1, 8),
       seed=hst.integers(0, 2 ** 32 - 1), off=hst.sampled_from(["delta", "rho"]))
def test_seller_price_never_below_buyer_price_without_the_cross_term(n_x, n_z, n_t, seed, off):
    # a worst-case price is sublinear in the payoff, so P(h) + P(-h) >= 0:
    # the seller's price is never below the buyer's. The explicit cross
    # term breaks it on the grid; at delta = 0 or rho = 0 that term is off,
    # and it holds up to rounding, for any payoff
    params = PARAMS.replace(**{off: 0.0})
    grid = GridSpec(0, 200, n_x, 0, 0.12, n_z, n_t)
    x = grid.x_nodes()
    h = np.random.default_rng(seed).uniform(-10.0, 10.0, x.size)
    total = (solve_pdelta(PayoffSpec.tabulated(x, h), params, grid).values
             + solve_pdelta(PayoffSpec.tabulated(x, -h), params, grid).values)
    assert np.min(total) >= -1e-12 * (1.0 + np.max(np.abs(h)))
