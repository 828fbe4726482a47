"""The experiment layer: error sweep over delta, gamma diagnostics, and
Black-Scholes comparison curves.

Each experiment takes the surfaces and values it reads: ``compare_bs`` P0,
its payoff and the model; ``gamma_diagnostics`` P0, P^delta and the
deadband; ``error_sweep`` runs its own solves.

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

from .core import GridSpec, ModelParams, SolverConfig, SolverError, Surface, loglog_fit
from .payoff import PayoffSpec
from .solver_pdelta import solve_p0p1, solve_pdelta
from .stencils import deadband, dxx_values

__all__ = [
    "SweepRecord",
    "SweepReport",
    "GammaDiagnostics",
    "BsComparison",
    "error_sweep",
    "gamma_diagnostics",
    "compare_bs",
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


def error_sweep(payoff: PayoffSpec, params: ModelParams,
                delta_list: Sequence[float], grid: GridSpec,
                config: Optional[SolverConfig] = None, *,
                window: tuple[float, float] = DEFAULT_WINDOW) -> SweepReport:
    """Per-delta approximation error and its log-log convergence fit.

    One leading-order/correction solve serves the whole sweep; each delta
    then costs one 2D solve, run in turn in ascending delta order. Only P0
    and P1 stay live from one 2D solve to the next: each delta's P^delta,
    error surface and window go once its record is made.
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
    models = [params.replace(delta=delta) for delta in deltas]  # a delta above 1 raises here

    p0, p1 = (np.asarray(s.values) for s in solve_p0p1(payoff, params, grid, config))

    records = []
    for delta, model in zip(deltas, models):
        t0 = time.perf_counter()
        try:
            p_delta = solve_pdelta(payoff, model, grid, config).values
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
        del p_delta, err, sub

    n_fit = max(2, len(deltas) // 2)
    slope, intercept, _, r2 = loglog_fit(
        np.array(deltas[:n_fit]),
        np.array([r.error for r in records[:n_fit]]),
    )
    return SweepReport(records=records, slope=slope, intercept=intercept, r2=r2,
                       n_fit=n_fit, window=window)


@dataclass(frozen=True)
class GammaDiagnostics:
    """Sign structure of the discrete second x-derivatives at t = 0."""

    z_values: np.ndarray
    crossings: list[list[float]]     # per z-slice, x-locations of sign changes
    mismatch_mask: np.ndarray        # interior nodes where the two gammas branch apart
    mismatch_width: np.ndarray       # per z-slice, node count * dx

    def crossings_at(self, z: float) -> list[float]:
        j = int(np.argmin(np.abs(self.z_values - z)))
        return self.crossings[j]

    def width_at(self, z: float) -> float:
        j = int(np.argmin(np.abs(self.z_values - z)))
        return float(self.mismatch_width[j])


def gamma_diagnostics(p0: Surface, p_delta: Surface, gamma_eps: float) -> GammaDiagnostics:
    """Locate gamma sign changes of P0 and the region where the 2D price's
    gamma disagrees with the leading-order one, per z-slice at t = 0.

    Sign tests use the deadband convention with ``gamma_eps``, so near-zero
    curvature counts as nonnegative. Boundary rows carry imposed zero
    curvature and are excluded.
    """
    grid = p0.grid
    if p_delta.grid != grid:
        raise ValueError("gamma_diagnostics: surfaces live on different grids")

    g0 = dxx_values(np.asarray(p0.values), grid)
    gd = dxx_values(np.asarray(p_delta.values), grid)
    b0 = deadband(g0, gamma_eps) >= 0.0
    bd = deadband(gd, gamma_eps) >= 0.0

    # sign flips between x-neighbours i and i + 1, for i in [1, n_x - 3]:
    # interpolated where both gammas clear the deadband, else the midpoint
    n_x, dx = grid.n_x, grid.dx
    x = grid.x_nodes()[1:n_x - 2, None]
    gi, gi1 = g0[1:n_x - 2], g0[2:n_x - 1]
    flips = b0[1:n_x - 2] != b0[2:n_x - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        locs = np.where((np.abs(gi) >= gamma_eps) & (np.abs(gi1) >= gamma_eps),
                        x + dx * gi / (gi - gi1), x + 0.5 * dx)
    j, i = np.nonzero(flips.T)        # by slice, x ascending within one
    crossings = [part.tolist() for part in
                 np.split(locs[i, j], np.searchsorted(j, np.arange(1, grid.n_z)))]

    mism = np.zeros((grid.n_x, grid.n_z), dtype=bool)
    mism[1:-1, :] = b0[1:-1, :] != bd[1:-1, :]
    widths = mism.sum(axis=0).astype(float) * dx
    return GammaDiagnostics(z_values=grid.z_nodes(), crossings=crossings,
                            mismatch_mask=mism, mismatch_width=widths)


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


def compare_bs(p0: Surface, payoff: PayoffSpec, params: ModelParams) -> BsComparison:
    """Tabulate P0 at the initial variance level against the Black-Scholes
    curves of ``payoff`` priced at the lower and upper band volatilities;
    a node is dominated within a tolerance of 1e-3 * x0."""
    # imported here: of the experiments only this one prices Black-Scholes
    from .blackscholes import bs_payoff_price

    grid = p0.grid
    tol = 1e-3 * params.x0

    vol_low, vol_high = params.vol_bounds(params.z0)
    x = grid.x_nodes()
    j0 = grid.iz_nearest(params.z0)
    row = np.asarray(p0.values)[:, j0]

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
