"""Worst-case option pricing under uncertain volatility whose band is
driven by a slowly varying square-root variance process.

The package solves the leading-order worst-case price (a family of 1D
nonlinear problems), its first correction (1D linear problems with a
slice-local source), and the full 2D nonlinear problem, and ships
the Monte Carlo and error-sweep experiments that validate the expansion.
"""

from .core import GridSpec, ModelParams, SolverConfig, Surface
from .payoff import PayoffSpec
from .solver_pdelta import P0P1Solution, PdeltaSolution, solve_p0p1, solve_pdelta
from .montecarlo import coupling_rate_study, simulate_cir
from .analysis import SweepReport, compare_bs, error_sweep, gamma_diagnostics

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "GridSpec", "SolverConfig", "Surface", "PayoffSpec",
    "P0P1Solution", "PdeltaSolution", "SweepReport",
    "solve_p0p1", "solve_pdelta",
    "simulate_cir", "coupling_rate_study",
    "error_sweep", "gamma_diagnostics", "compare_bs",
    "__version__",
]
