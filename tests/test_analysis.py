import numpy as np
import pytest

from uvbounds import analysis
from uvbounds.analysis import compare_bs, error_sweep, gamma_diagnostics
from uvbounds.core import GridSpec, ModelParams
from uvbounds.payoff import PayoffSpec
from uvbounds.solver_pdelta import solve_p0p1
from uvbounds.solver_pdelta import solve_pdelta

PARAMS = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                     kappa=15, theta=0.04, delta=0.05, rho=-0.9)
SMALL = GridSpec(0, 200, 50, 0, 0.12, 16, 8)
MID = GridSpec(0, 200, 80, 0, 0.12, 30, 10)
BF = PayoffSpec.butterfly(90, 100, 110)


def test_sweep_errors_increase_with_delta():
    report = error_sweep(BF, PARAMS, [0.01, 0.02, 0.03, 0.04], SMALL)
    deltas = report.deltas
    errs = report.errors
    assert np.all(np.diff(deltas) > 0)
    assert np.all(np.diff(errs) > 0)
    assert np.isfinite(report.slope)
    x_nodes = set(SMALL.x_nodes())
    z_nodes = set(SMALL.z_nodes())
    for r in report.records:
        assert r.error >= 0
        assert 60 <= r.sup_x <= 140
        assert r.sup_x in x_nodes and r.sup_z in z_nodes  # location on the grid
        assert r.error <= r.error_full
        assert r.undershoot <= 0


def test_sweep_invariant_to_input_order():
    a = error_sweep(BF, PARAMS, [0.04, 0.01, 0.03, 0.02], SMALL)
    b = error_sweep(BF, PARAMS, [0.01, 0.02, 0.03, 0.04], SMALL)
    assert [r.delta for r in a.records] == [r.delta for r in b.records]
    np.testing.assert_array_equal(a.errors, b.errors)
    assert a.slope == b.slope


def test_sweep_solves_leading_order_once(monkeypatch):
    calls = {"p0": 0, "pd": 0}
    real_p0, real_pd = analysis.solve_p0p1, analysis.solve_pdelta

    def count_p0(*a, **k):
        calls["p0"] += 1
        return real_p0(*a, **k)

    def count_pd(*a, **k):
        calls["pd"] += 1
        return real_pd(*a, **k)

    monkeypatch.setattr(analysis, "solve_p0p1", count_p0)
    monkeypatch.setattr(analysis, "solve_pdelta", count_pd)
    error_sweep(BF, PARAMS, [0.01, 0.02, 0.04], SMALL)
    assert calls == {"p0": 1, "pd": 3}


def test_sweep_without_correlation_measures_raw_gap():
    p = PARAMS.replace(rho=0.0)
    report = error_sweep(BF, p, [0.02, 0.04], SMALL)
    leading = solve_p0p1(BF, p, SMALL)
    assert np.all(leading.p1.values == 0.0)
    assert report.records[0].error < report.records[1].error  # still shrinks
    base = leading.p0.values
    x = SMALL.x_nodes()
    win = (x >= 60) & (x <= 140)
    for rec in report.records:
        sol = solve_pdelta(BF, p.replace(delta=rec.delta), SMALL)
        manual = np.max(np.abs(sol.p_delta.values - base)[win, :])
        assert rec.error == manual


def test_sweep_rejects_bad_delta_lists():
    with pytest.raises(ValueError):
        error_sweep(BF, PARAMS, [0.0, 0.01], SMALL)
    with pytest.raises(ValueError):
        error_sweep(BF, PARAMS, [0.01], SMALL)


def test_sweep_rejects_delta_above_one_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the sweep solved before checking its deltas")

    monkeypatch.setattr(analysis, "solve_p0p1", no_solve)
    with pytest.raises(ValueError, match="delta: require 0 <= delta <= 1"):
        error_sweep(BF, PARAMS, [0.01, 0.02, 0.03, 1.5], SMALL)


def test_window_must_contain_nodes():
    with pytest.raises(ValueError):
        error_sweep(BF, PARAMS, [0.01, 0.02], SMALL, window=(300.0, 400.0))


# -- gamma diagnostics ---------------------------------------------------------

def test_butterfly_has_two_interior_sign_changes():
    base = solve_p0p1(BF, PARAMS, MID)
    full = solve_pdelta(BF, PARAMS, MID)
    diag = gamma_diagnostics(base, full)
    crossings = diag.crossings_at(PARAMS.z0)
    assert len(crossings) == 2
    assert 80 < crossings[0] < 100 < crossings[1] < 120


def test_convex_payoff_has_no_mismatch():
    call = PayoffSpec.call(100)
    base = solve_p0p1(call, PARAMS, SMALL)
    full = solve_pdelta(call, PARAMS, SMALL)
    # above the discrete tail-noise floor both gammas are positive everywhere
    diag = gamma_diagnostics(base, full, gamma_eps=1e-3)
    assert diag.mismatch_mask.sum() == 0
    assert diag.crossings_at(PARAMS.z0) == []
    # at the default deadband any flagged nodes sit where both gamma fields
    # are sub-noise (degenerate low-z band, far tails), never where they
    # carry signal
    from uvbounds.stencils import dxx_values
    default = gamma_diagnostics(base, full)
    g0 = dxx_values(np.asarray(base.p0.values), SMALL)
    gd = dxx_values(np.asarray(full.p_delta.values), SMALL)
    for i, j in np.argwhere(default.mismatch_mask):
        assert min(abs(g0[i, j]), abs(gd[i, j])) < 1e-3


def test_mismatch_width_shrinks_with_delta():
    base = solve_p0p1(BF, PARAMS, MID)
    wide = gamma_diagnostics(base, solve_pdelta(BF, PARAMS.replace(delta=0.05), MID))
    thin = gamma_diagnostics(base, solve_pdelta(BF, PARAMS.replace(delta=0.0125), MID))
    # one-node noise allowed
    assert thin.width_at(PARAMS.z0) <= wide.width_at(PARAMS.z0) + MID.dx


def test_gamma_diag_requires_shared_grid():
    base = solve_p0p1(BF, PARAMS, SMALL)
    full = solve_pdelta(BF, PARAMS, MID)
    with pytest.raises(ValueError):
        gamma_diagnostics(base, full)


# -- comparison table ----------------------------------------------------------

def test_convex_payoff_tracks_upper_curve():
    call = PayoffSpec.call(100)
    sol = solve_p0p1(call, PARAMS, GridSpec(0, 200, 100, 0, 0.12, 16, 20))
    cmp_ = compare_bs(sol)
    win = (cmp_.x >= 60) & (cmp_.x <= 140)
    gap = np.abs(cmp_.p0 - cmp_.bs_high)[win]
    assert np.max(gap) < 1e-3 * PARAMS.x0
    assert cmp_.vol_high == pytest.approx(0.25)
    assert cmp_.vol_low == pytest.approx(0.15)


def test_butterfly_dominates_both_curves():
    sol = solve_p0p1(BF, PARAMS, GridSpec(0, 200, 100, 0, 0.12, 16, 20))
    cmp_ = compare_bs(sol)
    win = (cmp_.x >= 60) & (cmp_.x <= 140)
    assert np.all(cmp_.dominated[win])


def test_wings_are_vacuously_dominated():
    sol = solve_p0p1(BF, PARAMS, SMALL)
    cmp_ = compare_bs(sol)
    edge = (cmp_.x < 20) | (cmp_.x > 180)
    assert np.all(np.abs(cmp_.p0[edge]) < 1e-3)
    assert np.all(np.abs(cmp_.bs_high[edge]) < 1e-3)
    assert np.all(cmp_.dominated[edge])


def test_compare_bs_rejects_tabulated_payoff():
    # a tabulated payoff has no Black-Scholes closed form
    sol = solve_p0p1(PayoffSpec.tabulated([0, 100, 200], [0, 10, 0]), PARAMS, SMALL)
    with pytest.raises(ValueError):
        compare_bs(sol)
