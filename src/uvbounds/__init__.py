"""Worst-case option pricing under uncertain volatility whose band is
driven by a slowly varying square-root variance process.

The package solves the leading-order worst-case price (a family of 1D
nonlinear problems), its first correction (1D linear problems with a
slice-local source), and the full 2D nonlinear problem, and ships
the Monte Carlo and error-sweep experiments that validate the expansion.

Only the value types (``core``, ``payoff``) load with the package. The
solver, Monte Carlo and analysis names load their module on first use
(PEP 562), so a process imports only the stack it calls: ``import
uvbounds`` runs neither the PDE solvers nor scipy.
"""

from importlib import import_module

from .core import GridSpec, ModelParams, SolverConfig, Surface
from .payoff import PayoffSpec

__version__ = "0.1.0"

_LAZY = {
    "solve_p0p1": "solver_pdelta", "solve_pdelta": "solver_pdelta",
    "simulate_cir": "montecarlo", "coupling_rate_study": "montecarlo",
    "SweepReport": "analysis", "error_sweep": "analysis",
    "gamma_diagnostics": "analysis", "compare_bs": "analysis",
}

__all__ = ["ModelParams", "GridSpec", "SolverConfig", "Surface", "PayoffSpec",
           *_LAZY, "__version__"]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
