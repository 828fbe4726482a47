import numpy as np
import pytest

from uvbounds import montecarlo
from uvbounds.core import ModelParams
from uvbounds.montecarlo import (
    CHUNK_PATHS, _terminal_gap_sq, coupling_rate_study, simulate_cir,
    simulate_coupled_asset,
)
from reference import brownian_increments

PARAMS = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                     kappa=15, theta=0.04, delta=0.05, rho=-0.9)
SWITCHING = lambda t, x, z: np.where(x >= 100.0, PARAMS.d, PARAMS.u)


def _reference_terminals(params, control, n_steps, n_paths, seed):
    # the unchunked loop: each step's whole block in one draw, the control
    # as an array on every path
    dt = params.T / n_steps
    z = np.full(n_paths, params.z0)
    x_d = np.full(n_paths, params.x0)
    x_f = np.full(n_paths, params.x0)
    for k in range(n_steps):
        zp = np.maximum(z, 0.0)
        dw, dwz = brownian_increments(seed, k, n_paths, params.rho, dt)
        q = control(k * dt, x_d, zp) if callable(control) else control
        q = np.broadcast_to(np.asarray(q, float), x_d.shape)
        x_d = x_d * np.exp(-0.5 * q * q * zp * dt + q * np.sqrt(zp) * dw)
        x_f = x_f * np.exp(-0.5 * q * q * params.z0 * dt + q * np.sqrt(params.z0) * dw)
        z = z + params.delta * params.kappa * (params.theta - zp) * dt \
            + np.sqrt(params.delta) * np.sqrt(zp) * dwz
    return np.maximum(z, 0.0), x_d, x_f


def test_frozen_variance_at_delta_zero():
    z = simulate_cir(PARAMS.replace(delta=0.0), 50, 200, seed=1)
    assert np.all(z == PARAMS.z0)


def test_coupled_paths_identical_at_delta_zero():
    z_T, x_T, x_T_frozen = simulate_coupled_asset(PARAMS.replace(delta=0.0), PARAMS.u,
                                                  50, 500, seed=2)
    np.testing.assert_array_equal(x_T, x_T_frozen)
    assert np.all(z_T == PARAMS.z0)


def test_simulators_share_one_path_kernel():
    # same seed: the terminal variance of the variance paths and the
    # terminal gap of the rate study are bitwise those of the coupled simulation
    z_T, x_T, x_T_frozen = simulate_coupled_asset(PARAMS, SWITCHING, 40, 300, seed=8)
    np.testing.assert_array_equal(simulate_cir(PARAMS, 40, 300, seed=8)[:, -1], z_T)
    np.testing.assert_array_equal(
        _terminal_gap_sq(PARAMS, [PARAMS.delta], [SWITCHING], 40, 300, seed=8),
        [(x_T - x_T_frozen) ** 2])


@pytest.mark.parametrize("n_paths", [CHUNK_PATHS // 3, CHUNK_PATHS + 3,
                                     2 * CHUNK_PATHS + 5])
def test_batched_pairs_bitwise_equal_single_pair_runs(n_paths):
    # every (delta, control) pair of one batched run equals, bit for bit, its
    # own single-pair run and the unchunked loop, whatever the chunk split
    deltas = [0.04, 0.01]
    controls = {"const_d": PARAMS.d, "const_u": PARAMS.u, "switching": SWITCHING}
    n_steps, seed = 6, 31
    gaps = _terminal_gap_sq(PARAMS, deltas, list(controls.values()), n_steps,
                            n_paths, seed)
    study = coupling_rate_study(PARAMS, deltas, n_paths, seed, controls, n_steps)
    for i, dl in enumerate(deltas):
        p = PARAMS.replace(delta=dl)
        for j, control in enumerate(controls.values()):
            terminals = simulate_coupled_asset(p, control, n_steps, n_paths, seed)
            z, x_d, x_f = _reference_terminals(p, control, n_steps, n_paths, seed)
            for got, want in zip(terminals, (z, x_d, x_f)):
                np.testing.assert_array_equal(got, want)
            single = (x_d - x_f) ** 2
            np.testing.assert_array_equal(gaps[i * len(controls) + j], single)
            assert study.fits[j].estimates[i] == float(np.mean(single))
            assert study.fits[j].stderrs[i] == float(
                np.std(single, ddof=1) / np.sqrt(n_paths))


def test_study_draws_each_step_block_once(monkeypatch):
    calls = []
    real = montecarlo._stream

    def counting(seed, step):
        calls.append(step)
        return real(seed, step)

    monkeypatch.setattr(montecarlo, "_stream", counting)
    n_steps = 7
    for deltas, controls in (([0.01, 0.02], {"const_u": PARAMS.u}),
                             ([0.005, 0.01, 0.02], {"const_d": PARAMS.d,
                                                    "const_u": PARAMS.u,
                                                    "switching": SWITCHING})):
        calls.clear()
        coupling_rate_study(PARAMS, deltas, CHUNK_PATHS + 3, seed=4,
                            controls=controls, n_steps=n_steps)
        assert sorted(calls) == list(range(n_steps))


def test_bitwise_reproducibility():
    a = simulate_coupled_asset(PARAMS, PARAMS.d, 30, 100, seed=42)
    b = simulate_coupled_asset(PARAMS, PARAMS.d, 30, 100, seed=42)
    for got, want in zip(a, b):
        np.testing.assert_array_equal(got, want)
    c = simulate_coupled_asset(PARAMS, PARAMS.d, 30, 100, seed=43)
    assert not np.array_equal(a[1], c[1])


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
    _, xt, _ = simulate_coupled_asset(PARAMS.replace(delta=0.0), PARAMS.u, 100, n,
                                      seed=11)
    se = xt.std(ddof=1) / np.sqrt(n)
    assert abs(xt.mean() - PARAMS.x0) < 3 * se
    assert np.all(xt > 0)


def test_coupling_gap_small_relative_to_price_scale():
    _, x_T, x_T_frozen = simulate_coupled_asset(PARAMS, PARAMS.u, 100, 20_000, seed=13)
    msq = np.mean((x_T - x_T_frozen) ** 2)
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


def test_non_finite_controls_rejected():
    with pytest.raises(ValueError, match="finite"):
        simulate_coupled_asset(PARAMS, float("nan"), 10, 10, seed=1)
    with pytest.raises(ValueError, match="finite"):
        simulate_coupled_asset(PARAMS, lambda t, x, z: np.full_like(x, np.nan),
                               10, 10, seed=1)
    # one NaN path among admissible ones
    with pytest.raises(ValueError, match="finite"):
        simulate_coupled_asset(
            PARAMS, lambda t, x, z: np.where(np.arange(len(x)) == 3, np.nan, PARAMS.u),
            10, 10, seed=1)


def test_study_validates_controls_before_stepping(monkeypatch):
    def no_stepping(seed, step):
        raise AssertionError("a step stream was built")

    monkeypatch.setattr(montecarlo, "_stream", no_stepping)
    with pytest.raises(ValueError, match="control"):
        coupling_rate_study(PARAMS, [0.01, 0.02], 100, seed=1, controls={})
    for bad in (0.5, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"\[d, u\]"):
            coupling_rate_study(PARAMS, [0.01, 0.02], 100, seed=1,
                                controls={"ok": PARAMS.u, "bad": bad})


def test_counts_validated():
    with pytest.raises(ValueError):
        simulate_cir(PARAMS, 0, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_cir(PARAMS, 10, 0, seed=1)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        simulate_cir(PARAMS.replace(kappa=1, theta=0.1), 10, 10, seed=1)
