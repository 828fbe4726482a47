import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from uvbounds import analysis, solver_pdelta
from uvbounds.analysis import compare_bs, error_sweep, gamma_diagnostics
from uvbounds.blackscholes import bs_call
from uvbounds.config import load_config
from uvbounds.core import GridSpec, SolverConfig, Surface, loglog_fit
from uvbounds.payoff import PayoffSpec
from uvbounds.solver_pdelta import solve_p0p1
from uvbounds.solver_pdelta import solve_pdelta
from reference import BF, PARAMS, gamma_crossings_loop, slow_scale_p1_call, worst_case_call

SMALL = GridSpec(0, 200, 50, 0, 0.12, 16, 8)
MID = GridSpec(0, 200, 80, 0, 0.12, 30, 10)
GAMMA_EPS = SolverConfig().resolve_gamma_eps(PARAMS)


def test_sweep_errors_increase_with_delta():
    report = error_sweep(BF, PARAMS, [0.01, 0.02, 0.03, 0.04], SMALL)
    deltas = [r.delta for r in report.records]
    errs = [r.error for r in report.records]
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
    np.testing.assert_array_equal([r.error for r in a.records], [r.error for r in b.records])
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


def test_sweep_classifies_no_control(monkeypatch):
    # no sweep output reads a candidate tag, so no solve of the sweep
    # classifies its controls
    calls = [0]
    real = solver_pdelta.candidate_tags

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(solver_pdelta, "candidate_tags", counting)
    error_sweep(BF, PARAMS, [0.01, 0.02], SMALL)
    assert calls[0] == 0


def test_sweep_without_correlation_measures_raw_gap():
    p = PARAMS.replace(rho=0.0)
    report = error_sweep(BF, p, [0.02, 0.04], SMALL)
    p0, p1 = solve_p0p1(BF, p, SMALL)
    assert np.all(p1.values == 0.0)
    assert report.records[0].error < report.records[1].error  # still shrinks
    base = p0.values
    x = SMALL.x_nodes()
    win = (x >= 60) & (x <= 140)
    for rec in report.records:
        p_delta = solve_pdelta(BF, p.replace(delta=rec.delta), SMALL)
        manual = np.max(np.abs(p_delta.values - base)[win, :])
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


def test_error_sweep_working_set_is_bounded():
    # between the 2D solves only P0 and P1 stay live, and each solve keeps
    # only the surfaces it reads again. In 100x100 surfaces, the traced peak
    # of a warm sweep over paper.cfg's ten deltas is measured 20.42 on
    # CPython 3.11 and numpy 2.4 (25.8 while each delta's P^delta, error
    # and window stayed live through the next solve, and a step held its
    # spent surfaces). CPython 3.10 keeps a caller's temporary arguments
    # alive through the call, so there the corrector's blended surface and
    # its two fields stay live in select_q: 23.40 with that emulated
    paper = load_config(str(Path(__file__).resolve().parents[1] / "paper.cfg"))
    grid = GridSpec(0, 200, 100, 0, 0.12, 100, 4)

    def sweep():
        error_sweep(paper.payoff, paper.model, paper.sweep_deltas, grid, paper.solver)

    sweep()  # warm-up: imports, and the grid's cached coefficient fields
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    surfaces = peak / (grid.n_x * grid.n_z * 8)
    assert surfaces <= (21.0 if sys.version_info >= (3, 11) else 24.0), surfaces


# -- the sweep's residual against its closed form, for a call -----------------
# A call's P^delta is Heston's price, P0 Black-Scholes at u*sqrt(z0) and P1
# closed form, so E = Heston - BS - sqrt(delta)*P1 is the sweep's residual
# D = P^delta - P0 - sqrt(delta)*P1 with no grid. On 2n x n x n/5 grids,
# x in [0, 400], at (x0, z0) and delta = 0.005 to 0.025: max|D - E|
# measured 3.50e-3, 7.96e-4 and 1.94e-4 at n = 50, 100 and 200 (orders
# 2.14 and 2.04); D's slope 0.976, 0.972 and 0.971 against E's 0.971.

SWEEP_DELTAS = np.arange(1, 6) * 0.005


def _call_expansion_error():
    p, strike = PARAMS, 100.0
    p0 = bs_call(p.x0, strike, p.u * np.sqrt(p.z0), p.T)
    p1 = slow_scale_p1_call(p.x0, strike, p.u, p.z0, p.T, p.rho)
    return np.array([worst_case_call(p.replace(delta=delta), strike) - p0 - np.sqrt(delta) * p1
                     for delta in SWEEP_DELTAS])


def _call_sweep_residual(n: int) -> np.ndarray:
    """D at (x0, z0) for each sweep delta, P0 and P1 solved once as the sweep does."""
    p, call = PARAMS, PayoffSpec.call(100)
    grid = GridSpec(0, 400, 2 * n, 0, 0.12, n, n // 5)
    p0, p1 = (s.value_at(p.x0, p.z0) for s in solve_p0p1(call, p, grid))
    return np.array([
        solve_pdelta(call, p.replace(delta=delta), grid).value_at(p.x0, p.z0)
        - p0 - np.sqrt(delta) * p1
        for delta in SWEEP_DELTAS])


def _residual_gaps(ns):
    exact = _call_expansion_error()
    residuals = [_call_sweep_residual(n) for n in ns]
    gaps = np.array([np.max(np.abs(d - exact)) for d in residuals])
    return exact, residuals, gaps


def test_call_sweep_residual_converges_to_the_closed_form_error():
    exact, residuals, gaps = _residual_gaps((50, 100))
    assert gaps[0] >= 3.5 * gaps[1], gaps
    exact_slope = loglog_fit(SWEEP_DELTAS, -exact)[0]
    for d in residuals:
        assert abs(loglog_fit(SWEEP_DELTAS, -d)[0] - exact_slope) <= 0.01, (d, exact_slope)


@pytest.mark.slow
def test_call_sweep_residual_converges_at_order_two():
    _, _, gaps = _residual_gaps((50, 100, 200))
    order = np.log2(gaps[:-1] / gaps[1:])
    assert np.all(order >= 1.8), (gaps, order)


def test_window_must_contain_nodes():
    with pytest.raises(ValueError):
        error_sweep(BF, PARAMS, [0.01, 0.02], SMALL, window=(300.0, 400.0))


# -- gamma diagnostics ---------------------------------------------------------

def test_butterfly_has_two_interior_sign_changes():
    p0, _ = solve_p0p1(BF, PARAMS, MID)
    diag = gamma_diagnostics(p0, solve_pdelta(BF, PARAMS, MID), GAMMA_EPS)
    crossings = diag.crossings_at(PARAMS.z0)
    assert len(crossings) == 2
    assert 80 < crossings[0] < 100 < crossings[1] < 120


def test_convex_payoff_has_no_mismatch():
    call = PayoffSpec.call(100)
    p0, _ = solve_p0p1(call, PARAMS, SMALL)
    p_delta = solve_pdelta(call, PARAMS, SMALL)
    # above the discrete tail-noise floor both gammas are positive everywhere
    diag = gamma_diagnostics(p0, p_delta, gamma_eps=1e-3)
    assert diag.mismatch_mask.sum() == 0
    assert diag.crossings_at(PARAMS.z0) == []
    # at the default deadband any flagged nodes sit where both gamma fields
    # are sub-noise (degenerate low-z band, far tails), never where they
    # carry signal
    from uvbounds.stencils import dxx_values
    default = gamma_diagnostics(p0, p_delta, GAMMA_EPS)
    g0 = dxx_values(np.asarray(p0.values), SMALL)
    gd = dxx_values(np.asarray(p_delta.values), SMALL)
    for i, j in np.argwhere(default.mismatch_mask):
        assert min(abs(g0[i, j]), abs(gd[i, j])) < 1e-3


def test_mismatch_width_shrinks_with_delta():
    p0, _ = solve_p0p1(BF, PARAMS, MID)
    wide = gamma_diagnostics(p0, solve_pdelta(BF, PARAMS.replace(delta=0.05), MID), GAMMA_EPS)
    thin = gamma_diagnostics(p0, solve_pdelta(BF, PARAMS.replace(delta=0.0125), MID), GAMMA_EPS)
    # one-node noise allowed
    assert thin.width_at(PARAMS.z0) <= wide.width_at(PARAMS.z0) + MID.dx


def _gamma_fields(rng, grid, eps):
    """Smooth random gamma fields, salted with values at the deadband's edge."""
    x = grid.x_nodes()[:, None] / (grid.x_max - grid.x_min)
    g = np.sin(2 * np.pi * rng.uniform(1, 4, grid.n_z) * x + rng.uniform(0, 2 * np.pi, grid.n_z))
    g *= rng.uniform(0.5, 5, grid.n_z) * eps
    salt = rng.random(g.shape)
    g[salt < 0.1] = eps                 # |g| = eps exactly: outside the band
    g[(0.1 <= salt) & (salt < 0.2)] = -eps
    g[(0.2 <= salt) & (salt < 0.3)] *= 0.05   # inside the band
    return g


def test_crossings_match_per_node_loop(monkeypatch):
    # gamma_diagnostics reads its gamma fields from the surfaces' values
    monkeypatch.setattr(analysis, "dxx_values", lambda v, grid: np.array(v, dtype=float))
    eps = 1e-3
    rng = np.random.default_rng(28)
    grids = [GridSpec(0, 200, n_x, 0, 0.12, n_z, 4)
             for n_x, n_z in [(41, 9), (40, 16), (7, 5), (4, 3), (3, 6)]]
    grids.append(GridSpec(0, 200, 40, PARAMS.z0, PARAMS.z0, 1, 4))
    fields = [(grid, _gamma_fields(rng, grid, eps)) for grid in grids for _ in range(3)]
    # flips at the first and last pairs the search covers, i = 1 and
    # i = n_x - 3, with the outer node of the pair outside the band and
    # inside it; the boundary pairs, i = 0 and i = n_x - 2, flip too and
    # are left out
    edge = np.tile([-1e-3, 2e-3, -3e-3, 1e-3, 1e-3, -1e-3, 5e-4, -1e-3], (4, 1)).T
    edge[1, 1] = 4e-4
    edge[6, 2] = 2e-3
    fields.append((GridSpec(0, 200, 8, 0, 0.12, 4, 4), edge))
    n_flips = 0
    for grid, g in fields:
        surface = Surface(g, grid)
        got = gamma_diagnostics(surface, surface, gamma_eps=eps).crossings
        want = gamma_crossings_loop(g, grid, eps)
        assert [[v.hex() for v in locs] for locs in got] == \
            [[v.hex() for v in locs] for locs in want]
        n_flips += sum(map(len, want))
    assert n_flips > 100


def test_gamma_diag_requires_shared_grid():
    p0, _ = solve_p0p1(BF, PARAMS, SMALL)
    p_delta = solve_pdelta(BF, PARAMS, MID)
    with pytest.raises(ValueError):
        gamma_diagnostics(p0, p_delta, GAMMA_EPS)


# -- comparison table ----------------------------------------------------------

def test_convex_payoff_tracks_upper_curve():
    call = PayoffSpec.call(100)
    p0, _ = solve_p0p1(call, PARAMS, GridSpec(0, 200, 100, 0, 0.12, 16, 20))
    cmp_ = compare_bs(p0, call, PARAMS)
    win = (cmp_.x >= 60) & (cmp_.x <= 140)
    gap = np.abs(cmp_.p0 - cmp_.bs_high)[win]
    assert np.max(gap) < 1e-3 * PARAMS.x0
    assert cmp_.vol_high == pytest.approx(0.25)
    assert cmp_.vol_low == pytest.approx(0.15)


def test_butterfly_dominates_both_curves():
    p0, _ = solve_p0p1(BF, PARAMS, GridSpec(0, 200, 100, 0, 0.12, 16, 20))
    cmp_ = compare_bs(p0, BF, PARAMS)
    win = (cmp_.x >= 60) & (cmp_.x <= 140)
    assert np.all(cmp_.dominated[win])


def test_wings_are_vacuously_dominated():
    p0, _ = solve_p0p1(BF, PARAMS, SMALL)
    cmp_ = compare_bs(p0, BF, PARAMS)
    edge = (cmp_.x < 20) | (cmp_.x > 180)
    assert np.all(np.abs(cmp_.p0[edge]) < 1e-3)
    assert np.all(np.abs(cmp_.bs_high[edge]) < 1e-3)
    assert np.all(cmp_.dominated[edge])


def test_compare_bs_rejects_tabulated_payoff():
    # a tabulated payoff has no Black-Scholes closed form
    tabulated = PayoffSpec.tabulated([0, 100, 200], [0, 10, 0])
    p0, _ = solve_p0p1(tabulated, PARAMS, SMALL)
    with pytest.raises(ValueError):
        compare_bs(p0, tabulated, PARAMS)
