import numpy as np
import pytest

from uvbounds.core import ModelParams
from uvbounds.montecarlo import (
    _terminal_gap_sq, brownian_increments, coupling_rate_study, simulate_cir,
    simulate_coupled_asset,
)

PARAMS = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                     kappa=15, theta=0.04, delta=0.05, rho=-0.9)


def test_frozen_variance_at_delta_zero():
    z = simulate_cir(PARAMS.replace(delta=0.0), 50, 200, seed=1)
    assert np.all(z == PARAMS.z0)


def test_coupled_paths_identical_at_delta_zero():
    b = simulate_coupled_asset(PARAMS.replace(delta=0.0), PARAMS.u, 50, 500, seed=2)
    np.testing.assert_array_equal(b.x_paths_delta, b.x_paths_frozen)
    assert np.all(b.z_paths == PARAMS.z0)


def test_simulators_share_one_path_kernel():
    # same seed: the variance paths and the terminal gap of the rate study
    # are bitwise those of the full coupled simulation
    control = lambda t, x, z: np.where(x >= 100.0, PARAMS.d, PARAMS.u)
    b = simulate_coupled_asset(PARAMS, control, 40, 300, seed=8)
    np.testing.assert_array_equal(simulate_cir(PARAMS, 40, 300, seed=8), b.z_paths)
    np.testing.assert_array_equal(
        _terminal_gap_sq(PARAMS, control, 40, 300, seed=8),
        (b.x_paths_delta[:, -1] - b.x_paths_frozen[:, -1]) ** 2)


def test_bitwise_reproducibility():
    a = simulate_coupled_asset(PARAMS, PARAMS.d, 30, 100, seed=42)
    b = simulate_coupled_asset(PARAMS, PARAMS.d, 30, 100, seed=42)
    np.testing.assert_array_equal(a.z_paths, b.z_paths)
    np.testing.assert_array_equal(a.x_paths_delta, b.x_paths_delta)
    c = simulate_coupled_asset(PARAMS, PARAMS.d, 30, 100, seed=43)
    assert not np.array_equal(a.x_paths_delta, c.x_paths_delta)


def test_increments_pure_in_seed_step_path():
    dw1, dwz1 = brownian_increments(9, 4, 64, -0.9, 0.01)
    dw2, dwz2 = brownian_increments(9, 4, 64, -0.9, 0.01)
    np.testing.assert_array_equal(dw1, dw2)
    np.testing.assert_array_equal(dwz1, dwz2)
    dw3, _ = brownian_increments(9, 5, 64, -0.9, 0.01)
    assert not np.array_equal(dw1, dw3)
    # path p's draw does not depend on the batch size
    dw_small, _ = brownian_increments(9, 4, 16, -0.9, 0.01)
    np.testing.assert_array_equal(dw_small, dw1[:16])


def test_increment_correlation_within_three_se():
    n = 50_000
    dw, dwz = brownian_increments(123, 0, n, PARAMS.rho, 1.0)
    sample = np.corrcoef(dw, dwz)[0, 1]
    se = (1 - PARAMS.rho**2) / np.sqrt(n)
    assert abs(sample - PARAMS.rho) < 3 * se


def test_reported_paths_nonnegative_under_heavy_noise():
    p = PARAMS.replace(z0=0.02, theta=0.04, kappa=25, delta=1.0)
    z = simulate_cir(p, 100, 5_000, seed=3)
    assert z.min() >= 0.0


def test_cir_mean_matches_closed_form():
    # relaxation toward theta: E[Z_T] = z0 + (theta - z0)(1 - exp(-delta*kappa*T))
    p = PARAMS.replace(z0=0.02, theta=0.06, kappa=25)
    n = 100_000
    z = simulate_cir(p, 200, n, seed=7)
    oracle = p.z0 + (p.theta - p.z0) * (1 - np.exp(-p.delta * p.kappa * p.T))
    se = z[:, -1].std(ddof=1) / np.sqrt(n)
    assert abs(z[:, -1].mean() - oracle) < 3 * se


def test_terminal_mean_is_martingale_at_frozen_variance():
    n = 20_000
    b = simulate_coupled_asset(PARAMS.replace(delta=0.0), PARAMS.u, 100, n, seed=11)
    xt = b.x_paths_delta[:, -1]
    se = xt.std(ddof=1) / np.sqrt(n)
    assert abs(xt.mean() - PARAMS.x0) < 3 * se
    assert np.all(b.x_paths_delta > 0)


def test_coupling_gap_small_relative_to_price_scale():
    b = simulate_coupled_asset(PARAMS, PARAMS.u, 100, 20_000, seed=13)
    msq = np.mean((b.x_paths_delta[:, -1] - b.x_paths_frozen[:, -1]) ** 2)
    assert 0.0 < msq < 0.05 * PARAMS.x0**2


def test_rate_study_slopes_near_one():
    study = coupling_rate_study(
        PARAMS, [0.005, 0.01, 0.02, 0.04], n_paths=20_000, seed=20240, n_steps=100,
        controls={
            "const_d": PARAMS.d,
            "const_u": PARAMS.u,
            "switching": lambda t, x, z: np.where(x >= 100.0, PARAMS.d, PARAMS.u),
        },
    )
    assert {f.control for f in study.fits} == {"const_d", "const_u", "switching"}
    for f in study.fits:
        assert f.slope == pytest.approx(1.0, abs=0.15)
        assert np.all(np.diff(f.deltas) < 0)  # sorted descending internally


def test_rate_study_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        coupling_rate_study(PARAMS, [0.0, 0.01], 100, seed=1)
    with pytest.raises(ValueError):
        coupling_rate_study(PARAMS, [0.01], 100, seed=1)


def test_rate_stderr_shrinks_with_path_count():
    kw = dict(n_steps=50, controls={"const_u": PARAMS.u})
    small = coupling_rate_study(PARAMS, [0.01, 0.02, 0.04], 10_000, seed=5, **kw)
    big = coupling_rate_study(PARAMS, [0.01, 0.02, 0.04], 20_000, seed=5, **kw)
    ratio = big.fits[0].slope_stderr / small.fits[0].slope_stderr
    assert ratio == pytest.approx(1 / np.sqrt(2), abs=0.12)


def test_control_outside_band_rejected():
    with pytest.raises(ValueError):
        simulate_coupled_asset(PARAMS, 0.5, 10, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_coupled_asset(PARAMS, lambda t, x, z: np.full_like(x, 2.0), 10, 10, seed=1)


def test_counts_validated():
    with pytest.raises(ValueError):
        simulate_cir(PARAMS, 0, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_cir(PARAMS, 10, 0, seed=1)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        simulate_cir(PARAMS.replace(kappa=1, theta=0.1), 10, 10, seed=1)
