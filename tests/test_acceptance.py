"""End-to-end acceptance gate: one test per criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything runs on the reference configuration: butterfly 90/100/110,
x0 = 100, z0 = 0.04, T = 0.25, band slopes 0.75/1.25, kappa = 15,
theta = 0.04, rho = -0.9, grid 100 x 100, 20 time steps.
"""

import time

import numpy as np
import pytest

from uvbounds.analysis import compare_bs, error_sweep, gamma_diagnostics
from uvbounds.blackscholes import bs_call, bs_payoff_price
from uvbounds.core import GridSpec, ModelParams, SolverConfig
from uvbounds.csvio import write_csv
from uvbounds.montecarlo import coupling_rate_study, simulate_coupled_asset
from uvbounds.payoff import PayoffSpec
from uvbounds.solver_p0p1 import solve_p0p1
from uvbounds.solver_pdelta import solve_pdelta

PARAMS = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                     kappa=15, theta=0.04, delta=0.05, rho=-0.9)
GRID = GridSpec(0, 200, 100, 0, 0.12, 100, 20)
GRID2 = GridSpec(0, 200, 200, 0, 0.12, 200, 40)
BF = PayoffSpec.butterfly(90, 100, 110)
WINDOW = (60.0, 140.0)

pytestmark = pytest.mark.slow


def _check(criterion, ok, detail):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _window_nodes(grid):
    x = grid.x_nodes()
    return x, (x >= WINDOW[0]) & (x <= WINDOW[1])


@pytest.fixture(scope="module")
def butterfly_p0p1():
    return solve_p0p1(BF, PARAMS, GRID)


@pytest.fixture(scope="module")
def pdelta_05():
    return solve_pdelta(BF, PARAMS, GRID)


def test_criterion_1_convex_degeneracy():
    t0 = time.perf_counter()
    x, win = _window_nodes(GRID)
    j0 = GRID.iz_nearest(PARAMS.z0)
    tol = 0.005 * PARAMS.x0

    call = solve_p0p1(PayoffSpec.call(100), PARAMS, GRID)
    err_call = np.max(np.abs(call.p0.values[win, j0]
                             - bs_call(x[win], 100, 0.25, PARAMS.T)))

    capped = PayoffSpec.capped_linear(100)
    low = solve_p0p1(capped, PARAMS, GRID)
    err_cap = np.max(np.abs(low.p0.values[win, j0]
                            - bs_payoff_price(capped, x[win], 0.15, PARAMS.T)))
    elapsed = time.perf_counter() - t0
    _check(1, err_call <= tol and err_cap <= tol,
           f"call sup err {err_call:.4f}, capped sup err {err_cap:.4f} "
           f"(tol {tol}); {elapsed:.1f}s")


def test_criterion_2_dominance(butterfly_p0p1):
    t0 = time.perf_counter()
    cmp_ = compare_bs(butterfly_p0p1, tol=1e-3 * PARAMS.x0)
    win = (cmp_.x >= WINDOW[0]) & (cmp_.x <= WINDOW[1])
    margin = np.min((cmp_.p0 - np.maximum(cmp_.bs_low, cmp_.bs_high))[win])
    ok = bool(np.all(cmp_.dominated[win]))
    _check(2, ok, f"worst margin {margin:+.5f} >= -{1e-3 * PARAMS.x0}; "
                  f"{time.perf_counter() - t0:.1f}s")


def test_criterion_3_correction_structure(p1_substeps):
    t0 = time.perf_counter()
    # every P1 sub-step of the rho = 0 solve, the Rannacher start's included
    solve_p0p1(BF, PARAMS.replace(rho=0.0), GRID)
    n_checked = len(p1_substeps)
    all_zero = (n_checked == GRID.n_t - 1 + SolverConfig().rannacher_steps
                and all(np.all(v == 0.0) for v in p1_substeps))

    a = solve_p0p1(BF, PARAMS.replace(rho=-0.9), GRID)
    b = solve_p0p1(BF, PARAMS.replace(rho=0.5), GRID)
    scale = -0.9 / 0.5
    rel = np.max(np.abs(a.p1.values - scale * b.p1.values)) / np.max(np.abs(a.p1.values))
    _check(3, all_zero and rel <= 1e-12,
           f"rho=0 correction identically zero at all {n_checked} sub-steps: {all_zero}; "
           f"linearity in rho rel err {rel:.2e} <= 1e-12; "
           f"{time.perf_counter() - t0:.1f}s")


def test_criterion_4_delta_zero_consistency(butterfly_p0p1):
    t0 = time.perf_counter()
    frozen = solve_pdelta(BF, PARAMS.replace(delta=0.0), GRID)
    gap = np.max(np.abs(frozen.p_delta.values - butterfly_p0p1.p0.values))
    _check(4, gap <= 1e-8, f"sup |2D at delta=0 - leading order| = {gap:.2e} "
                           f"<= 1e-8; {time.perf_counter() - t0:.1f}s")


def test_criterion_5_error_sweep_slope():
    t0 = time.perf_counter()
    deltas = [0.005 * k for k in range(1, 11)]
    report = error_sweep(BF, PARAMS, deltas, GRID, window=WINDOW)
    errs = report.errors  # ascending delta
    inversions = []
    for i in range(len(errs) - 1):
        if errs[i + 1] <= errs[i]:
            inversions.append((errs[i] - errs[i + 1]) / errs[i])
    monotone_ok = len(inversions) == 0 or (
        len(inversions) == 1 and inversions[0] <= 0.02)
    slope_ok = 0.8 <= report.slope <= 1.2
    assert report.n_fit == 5
    _check(5, monotone_ok and slope_ok,
           f"errors {np.array2string(errs, precision=4)}, "
           f"slope {report.slope:.3f} in [0.8, 1.2], "
           f"{len(inversions)} inversion(s); {time.perf_counter() - t0:.1f}s")


def test_criterion_6_gamma_structure(butterfly_p0p1, pdelta_05):
    t0 = time.perf_counter()
    wide = gamma_diagnostics(butterfly_p0p1, pdelta_05)
    thin = gamma_diagnostics(
        butterfly_p0p1, solve_pdelta(BF, PARAMS.replace(delta=0.0125), GRID))
    crossings = wide.crossings_at(PARAMS.z0)
    w_wide = wide.width_at(PARAMS.z0)
    w_thin = thin.width_at(PARAMS.z0)
    _check(6, len(crossings) == 2 and w_thin <= w_wide,
           f"{len(crossings)} interior sign changes at z0 (at "
           f"{[round(c, 1) for c in crossings]}); mismatch width "
           f"{w_thin:.2f} (delta=0.0125) <= {w_wide:.2f} (delta=0.05); "
           f"{time.perf_counter() - t0:.1f}s")


def test_criterion_7_coupling_rate():
    t0 = time.perf_counter()
    study = coupling_rate_study(
        PARAMS, [0.00125, 0.0025, 0.005, 0.01, 0.02, 0.04],
        n_paths=100_000, seed=20240, n_steps=200,
        controls={"const_d": PARAMS.d, "const_u": PARAMS.u},
    )
    slopes = {f.control: f.slope for f in study.fits}
    ok = all(s >= 0.85 for s in slopes.values())
    _check(7, ok, f"log-log slopes {slopes} all >= 0.85; "
                  f"{time.perf_counter() - t0:.1f}s")


def test_criterion_8_determinism_and_self_convergence(butterfly_p0p1, pdelta_05,
                                                      tmp_path):
    t0 = time.perf_counter()
    tol = 1e-2 * PARAMS.x0 * 0.01  # 0.01 currency units

    fine_base = solve_p0p1(BF, PARAMS, GRID2)
    d_p0 = abs(butterfly_p0p1.p0.value_at(PARAMS.x0, PARAMS.z0)
               - fine_base.p0.value_at(PARAMS.x0, PARAMS.z0))
    fine_full = solve_pdelta(BF, PARAMS, GRID2)
    d_pd = abs(pdelta_05.p_delta.value_at(PARAMS.x0, PARAMS.z0)
               - fine_full.p_delta.value_at(PARAMS.x0, PARAMS.z0))

    # seeded Monte Carlo runs reproduce their CSVs bitwise
    files = []
    for tag in ("a", "b"):
        _, x_T, x_T_frozen = simulate_coupled_asset(PARAMS, PARAMS.u, 50, 2000, seed=77)
        path = tmp_path / f"paths_{tag}.csv"
        write_csv(path, ["path", "x_T_moving", "x_T_frozen"],
                  ((p, x_T[p], x_T_frozen[p]) for p in range(2000)))
        files.append(path.read_bytes())
    bitwise = files[0] == files[1]

    _check(8, d_p0 < tol and d_pd < tol and bitwise,
           f"probe shifts under grid doubling: leading order {d_p0:.4f}, "
           f"2D {d_pd:.4f} (tol {tol}); MC CSV bitwise reproducible: {bitwise}; "
           f"{time.perf_counter() - t0:.1f}s")
