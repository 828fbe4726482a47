"""The experiment layer: error sweep over delta, gamma diagnostics, and
Black-Scholes comparison curves.

The sweep exploits that the leading-order price and its correction do not
depend on delta: they are solved exactly once and reused against every 2D
solve. The per-delta error is

    sup over the window of |P_full - P_lead - sqrt(delta) * P_corr|

at t = 0, taken by default over x in [60, 140] and all z to keep imposed
boundary behavior out of the convergence fit (the full-grid sup is also
recorded). The fitted slope uses the smallest half of the delta list,
where the expansion is in its asymptotic regime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blackscholes import bs_payoff_price
from .core import GridSpec, ModelParams, SolverConfig, SolverError
from .payoff import PayoffSpec
from .solver_p0p1 import P0P1Solution, solve_p0p1
from .solver_pdelta import PdeltaSolution, solve_pdelta
from .stencils import deadband, dxx_values

__all__ = [
    "SweepRecord",
    "SweepReport",
    "GammaDiagnostics",
    "BsComparison",
    "error_sweep",
    "gamma_diagnostics",
    "compare_bs",
    "loglog_fit",
]

DEFAULT_WINDOW = (60.0, 140.0)


@dataclass(frozen=True)
class SweepRecord:
    delta: float
    error: float          # sup over the x-window, all z
    error_full: float     # sup over the whole grid
    sup_x: float
    sup_z: float
    runtime_s: float
    # most negative surface value: the central cross/drift stencils are not
    # monotone, so small oscillations below zero are recorded, not hidden
    undershoot: float = 0.0


@dataclass(frozen=True)
class SweepReport:
    records: list[SweepRecord]   # ascending in delta
    slope: float
    intercept: float
    r2: float
    n_fit: int
    window: tuple[float, float]
    p0p1: P0P1Solution

    @property
    def deltas(self) -> np.ndarray:
        return np.array([r.delta for r in self.records])

    @property
    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.records])


def error_sweep(payoff: PayoffSpec, params: ModelParams,
                delta_list: Sequence[float], grid: GridSpec,
                config: Optional[SolverConfig] = None, *,
                window: tuple[float, float] = DEFAULT_WINDOW) -> SweepReport:
    """Per-delta approximation error and its log-log convergence fit.

    One leading-order/correction solve serves the whole sweep; each delta
    then costs one 2D solve, run in turn in ascending delta order.
    """
    config = config or SolverConfig()
    deltas = sorted(set(float(d) for d in delta_list))
    if len(deltas) < 2:
        raise ValueError("error_sweep needs at least two distinct delta values")
    if deltas[0] <= 0.0:
        raise ValueError("delta values must be strictly positive")
    x = grid.x_nodes()
    z = grid.z_nodes()
    idx = np.where((x >= window[0]) & (x <= window[1]))[0]
    if len(idx) == 0:  # fail before the first solve
        raise ValueError(f"window {window} contains no grid nodes")

    base = solve_p0p1(payoff, params, grid, config)
    p0 = np.asarray(base.p0.values)
    p1 = np.asarray(base.p1.values)

    records = []
    for delta in deltas:
        t0 = time.perf_counter()
        try:
            p_delta = solve_pdelta(payoff, params.replace(delta=delta), grid,
                                   config).p_delta.values
        except SolverError as exc:
            raise SolverError(f"sweep failed at delta={delta}: {exc}") from exc
        elapsed = time.perf_counter() - t0

        err = np.abs(p_delta - p0 - np.sqrt(delta) * p1)
        sub = err[idx, :]
        i_loc, j_loc = np.unravel_index(int(np.argmax(sub)), sub.shape)
        records.append(SweepRecord(
            delta=delta,
            error=float(sub[i_loc, j_loc]),
            error_full=float(np.max(err)),
            sup_x=float(x[idx[i_loc]]),
            sup_z=float(z[j_loc]),
            runtime_s=elapsed,
            undershoot=float(min(np.min(p_delta), 0.0)),
        ))

    n_fit = max(2, len(deltas) // 2)
    slope, intercept, _, r2 = loglog_fit(
        np.array(deltas[:n_fit]),
        np.array([r.error for r in records[:n_fit]]),
    )
    return SweepReport(records=records, slope=slope, intercept=intercept, r2=r2,
                       n_fit=n_fit, window=window, p0p1=base)


def loglog_fit(x: np.ndarray, y: np.ndarray,
               se: Optional[np.ndarray] = None) -> tuple[float, float, float, float]:
    """Weighted least squares of log(y) on log(x).

    Returns (slope, intercept, slope stderr, r2). Weights come from the
    delta-method stderr of the log value, se(log y) = se(y)/y; ``se=None``
    gives unit weights. Values y <= 0 cannot be log-fitted: if any occurs,
    slope, intercept and stderr are NaN and r2 is 0.
    """
    y = np.asarray(y, float)
    if np.any(y <= 0.0):
        return float("nan"), float("nan"), float("nan"), 0.0
    lx = np.log(x)
    ly = np.log(y)
    w = np.ones_like(ly) if se is None else 1.0 / (se / y) ** 2
    wsum = np.sum(w)
    xbar = np.sum(w * lx) / wsum
    ybar = np.sum(w * ly) / wsum
    sxx = np.sum(w * (lx - xbar) ** 2)
    slope = float(np.sum(w * (lx - xbar) * (ly - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(w * resid ** 2))
    ss_tot = float(np.sum(w * (ly - ybar) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, float(np.sqrt(1.0 / sxx)), r2


@dataclass(frozen=True)
class GammaDiagnostics:
    """Sign structure of the discrete second x-derivatives at t = 0."""

    z_values: np.ndarray
    crossings: list[list[float]]     # per z-slice, x-locations of sign changes
    mismatch_mask: np.ndarray        # interior nodes where the two gammas branch apart
    mismatch_width: np.ndarray       # per z-slice, node count * dx
    gamma_eps: float

    def crossings_at(self, z: float) -> list[float]:
        j = int(np.argmin(np.abs(self.z_values - z)))
        return self.crossings[j]

    def width_at(self, z: float) -> float:
        j = int(np.argmin(np.abs(self.z_values - z)))
        return float(self.mismatch_width[j])


def gamma_diagnostics(p0_solution: P0P1Solution, pdelta_solution: PdeltaSolution,
                      gamma_eps: Optional[float] = None) -> GammaDiagnostics:
    """Locate gamma sign changes and the region where the 2D price's gamma
    disagrees with the leading-order one, per z-slice at t = 0.

    Sign tests use the deadband convention, so near-zero curvature counts
    as nonnegative. Boundary rows carry imposed zero curvature and are
    excluded.
    """
    grid = p0_solution.grid
    if pdelta_solution.grid != grid:
        raise ValueError("gamma_diagnostics: solutions live on different grids")
    if gamma_eps is None:
        gamma_eps = p0_solution.config.resolve_gamma_eps(p0_solution.params)

    g0 = dxx_values(np.asarray(p0_solution.p0.values), grid)
    gd = dxx_values(np.asarray(pdelta_solution.p_delta.values), grid)
    b0 = deadband(g0, gamma_eps) >= 0.0
    bd = deadband(gd, gamma_eps) >= 0.0

    x = grid.x_nodes()
    dx = grid.dx
    crossings: list[list[float]] = []
    for j in range(grid.n_z):
        locs: list[float] = []
        for i in range(1, grid.n_x - 2):
            if b0[i, j] != b0[i + 1, j]:
                gi, gi1 = g0[i, j], g0[i + 1, j]
                if abs(gi) >= gamma_eps and abs(gi1) >= gamma_eps:
                    locs.append(float(x[i] + dx * gi / (gi - gi1)))
                else:
                    locs.append(float(x[i] + 0.5 * dx))
        crossings.append(locs)

    mism = np.zeros((grid.n_x, grid.n_z), dtype=bool)
    mism[1:-1, :] = b0[1:-1, :] != bd[1:-1, :]
    widths = mism.sum(axis=0).astype(float) * dx
    return GammaDiagnostics(z_values=grid.z_nodes(), crossings=crossings,
                            mismatch_mask=mism, mismatch_width=widths,
                            gamma_eps=gamma_eps)


@dataclass(frozen=True)
class BsComparison:
    """Leading-order price against the two constant-volatility curves."""

    x: np.ndarray
    p0: np.ndarray
    bs_low: np.ndarray
    bs_high: np.ndarray
    vol_low: float
    vol_high: float
    dominated: np.ndarray    # p0 >= max(curves) - tol, per node
    tol: float


def compare_bs(p0_solution: P0P1Solution, payoff: Optional[PayoffSpec] = None,
               tol: Optional[float] = None) -> BsComparison:
    """Tabulate P0 at the initial variance level against the Black-Scholes
    curves priced at the lower and upper band volatilities."""
    params = p0_solution.params
    grid = p0_solution.grid
    payoff = payoff if payoff is not None else p0_solution.payoff
    if tol is None:
        tol = 1e-3 * params.x0

    vol_low, vol_high = params.vol_bounds(params.z0)
    x = grid.x_nodes()
    j0 = grid.iz_nearest(params.z0)
    row = np.asarray(p0_solution.p0.values)[:, j0]

    # the closed forms need strictly positive maturities/spots; x=0 nodes
    # price to the payoff's x->0 limit by continuity
    bs_low = np.asarray(bs_payoff_price(payoff, np.maximum(x, 1e-12), vol_low,
                                        params.T, params.r))
    bs_high = np.asarray(bs_payoff_price(payoff, np.maximum(x, 1e-12), vol_high,
                                         params.T, params.r))
    dominated = row >= np.maximum(bs_low, bs_high) - tol
    return BsComparison(x=x, p0=row, bs_low=bs_low, bs_high=bs_high,
                        vol_low=vol_low, vol_high=vol_high,
                        dominated=dominated, tol=tol)
