import tracemalloc

import numpy as np
import pytest

from uvbounds.core import GridSpec, ModelParams
from uvbounds import stencils as st
from uvbounds.payoff import PayoffSpec
from uvbounds.solver_pdelta import solve_pdelta

GRID = GridSpec(0, 10, 41, 0, 2, 21, 2)


def make_field(fn, grid=GRID):
    x = grid.x_nodes()[:, None]
    z = grid.z_nodes()[None, :]
    return np.broadcast_to(fn(x, z), (grid.n_x, grid.n_z)).copy()


def test_dxx_exact_on_quadratic():
    s = make_field(lambda x, z: x**2 + 0 * z)
    out = st.dxx_values(s, GRID)
    np.testing.assert_allclose(out[1:-1, :], 2.0, atol=1e-10)
    assert np.all(out[0, :] == 0) and np.all(out[-1, :] == 0)  # boundary rule
    # d_zz alike, along z
    out = st.dzz_values(make_field(lambda x, z: 3.0 * z**2 + 0 * x), GRID)
    np.testing.assert_allclose(out[:, 1:-1], 6.0, atol=1e-10)
    assert np.all(out[:, 0] == 0) and np.all(out[:, -1] == 0)


def test_dxz_exact_on_bilinear():
    s = make_field(lambda x, z: x * z)
    out = st.dxz_values(s, GRID)
    np.testing.assert_allclose(out, 1.0, atol=1e-10)  # one-sided rules are exact too


def test_first_derivatives_exact_on_affine():
    s = make_field(lambda x, z: 3.0 * x - 2.0 * z + 1.0)
    np.testing.assert_allclose(st.dx_values(s, GRID), 3.0, atol=1e-10)
    np.testing.assert_allclose(st.dz_values(s, GRID), -2.0, atol=1e-10)


def test_dxx_error_bounded_by_fourth_derivative():
    # central second difference of sin: |error| <= dx^2/12 * max|sin''''| = dx^2/12
    s = make_field(lambda x, z: np.sin(x) + 0 * z)
    out = st.dxx_values(s, GRID)
    x = GRID.x_nodes()[:, None]
    err = np.abs(out[1:-1, :] - (-np.sin(x[1:-1])))
    assert np.max(err) <= GRID.dx**2 / 12 * (1 + 1e-6)


def test_dxx_second_order_convergence():
    def interior_error(n):
        g = GridSpec(0, 10, n, 0, 2, 3, 2)
        x = g.x_nodes()[:, None]
        vals = np.broadcast_to(np.sin(x), (g.n_x, g.n_z)).copy()
        out = st.dxx_values(vals, g)
        return np.max(np.abs(out[1:-1, :] + np.sin(x[1:-1]))), g.dx

    e1, h1 = interior_error(41)
    e2, h2 = interior_error(81)
    assert h1 / h2 == pytest.approx(2.0, rel=1e-10)
    assert e1 / e2 == pytest.approx(4.0, rel=0.10)


@pytest.mark.parametrize("op", [
    pytest.param(st.dx_values, id="d_x"),
    pytest.param(st.dxx_values, id="d_xx"),
    pytest.param(st.dz_values, id="d_z"),
    pytest.param(st.dzz_values, id="d_zz"),
    pytest.param(st.dxz_values, id="d_xz"),
    pytest.param(st.lxx_values, id="l_xx"),
    pytest.param(st.lxz_values, id="l_xz"),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_operators_are_linear(op, seed):
    rng = np.random.default_rng(seed)
    s1 = rng.standard_normal((GRID.n_x, GRID.n_z))
    s2 = rng.standard_normal((GRID.n_x, GRID.n_z))
    a, b = rng.standard_normal(2)
    lhs = op(a * s1 + b * s2, GRID)
    rhs = a * op(s1, GRID) + b * op(s2, GRID)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_composite_coefficients():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((GRID.n_x, GRID.n_z))
    x = GRID.x_nodes()[:, None]
    z = GRID.z_nodes()[None, :]
    # coefficient z vanishes on the z=0 column regardless of the surface
    assert np.all(st.lxx_values(vals, GRID)[:, 0] == 0)
    assert np.all(st.lxz_values(vals, GRID)[:, 0] == 0)
    np.testing.assert_allclose(st.lxx_values(vals, GRID),
                               z * x**2 * st.dxx_values(vals, GRID), atol=1e-12)
    np.testing.assert_allclose(st.lxz_values(vals, GRID),
                               x * z * st.dxz_values(vals, GRID), atol=1e-12)


def test_coefficients_are_shared_across_time_grids():
    # z*x^2 and x*z depend on the (x, z) nodes alone: solves at two n_t on
    # one spatial grid hold one cached pair, not one per n_t
    params = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                         kappa=15, theta=0.04, delta=0.05, rho=-0.9)
    st._coefficients.cache_clear()
    for n_t in (4, 256):
        solve_pdelta(PayoffSpec.butterfly(90, 100, 110), params,
                     GridSpec(0, 200, 40, 0, 0.12, 10, n_t))
    assert st._coefficients.cache_info().currsize == 1


def test_lxx_on_quadratic_at_reference_node():
    # curvature 2, coefficient z*x^2: at x=100, z=0.04 the value is 800
    g = GridSpec(0, 200, 101, 0, 0.12, 4, 2)
    x = g.x_nodes()[:, None]
    out = st.lxx_values(np.broadcast_to(x**2, (g.n_x, g.n_z)).copy(), g)
    i, j = 50, g.iz_nearest(0.04)
    assert g.x_nodes()[i] == 100.0
    assert out[i, j] == pytest.approx(0.04 * 100.0**2 * 2.0, rel=1e-12)


def test_single_slice_z_operators_vanish():
    g = GridSpec(0, 10, 9, 0.5, 0.5, 1, 2)
    s = np.random.default_rng(0).standard_normal((9, 1))
    assert np.all(st.dz_values(s, g) == 0)
    assert np.all(st.dzz_values(s, g) == 0)
    assert np.all(st.dxz_values(s, g) == 0)
    # two slices: no z-interior, so d_zz is zero on both boundary columns
    g = GridSpec(0, 10, 9, 0.5, 1.5, 2, 2)
    s = np.random.default_rng(1).standard_normal((9, 2))
    assert np.all(st.dzz_values(s, g) == 0)


def test_dzz_values_working_set_is_bounded():
    # d_zz takes its interior as shifts of the flat arrays: the output and
    # one 2*v temporary. Traced on a warm 100x100 call, in surfaces: 2.01,
    # where column slices made numpy take 64 KiB copy buffers (3.95)
    g = GridSpec(0, 200, 100, 0, 0.12, 100, 4)
    v = np.random.default_rng(3).standard_normal((g.n_x, g.n_z))
    st.dzz_values(v, g)  # warm-up
    tracemalloc.start()
    try:
        st.dzz_values(v, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    surfaces = peak / v.nbytes
    assert surfaces <= 2.5, surfaces


def test_requires_enough_nodes():
    g = GridSpec(0, 10, 3, 0, 1, 3, 2)
    with pytest.raises(ValueError):
        st.dxx_values(np.zeros((2, 3)), g)


def test_deadband():
    eps = 1e-6
    vals = np.array([-1.0, -2e-6, -1e-6, -5e-7, 0.0, 5e-7, 3.0, np.nan])
    out = st.deadband(vals, eps)
    np.testing.assert_array_equal(out, [-1.0, -2e-6, -1e-6, 0.0, 0.0, 0.0, 3.0, np.nan])
    # the sign tests' nonnegative branch: inside the band, or at least eps
    np.testing.assert_array_equal(out >= 0.0, [0, 0, 0, 1, 1, 1, 1, 0])
