"""Leading-order worst-case price P0 and its first correction P1.

The leading-order price is the frozen-variance limit of the 2D price:
it is the 2D scheme of ``solver_pdelta`` at delta = 0, where a step is
the x-stage alone, one tridiagonal solve per variance slice. Its control
is then bang-bang: the upper band slope wherever the scaled second
difference is nonnegative (deadband ties included), the lower slope
where it is negative.

The correction solves a linear equation with the same x-stage, the
frozen control of each completed P0 sub-step, and an explicit
cross-derivative source built from the two P0 levels of that sub-step;
its terminal condition is zero. The source is proportional to the
correlation, so it vanishes identically when rho = 0.

Both march backward through the shared stepper in ``stepping``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GridSpec, ModelParams, SolverConfig, Surface
from .payoff import PayoffSpec, terminal_surface
from .solver_pdelta import _scheme as _scheme_2d, _Split
from .stencils import lxz_values
from .stepping import march

__all__ = ["P0P1Solution", "solve_p0p1"]


@dataclass(frozen=True)
class P0P1Solution:
    """Output of the backward sweep at t = 0.

    ``q_star0[n]`` is the control field (values in {d, u}) used stepping
    from time level n+1 down to level n.
    """

    p0: Surface
    p1: Surface
    q_star0: np.ndarray
    params: ModelParams
    grid: GridSpec
    config: SolverConfig
    payoff: PayoffSpec


def _scheme(params: ModelParams, grid: GridSpec, config: SolverConfig):
    """The (select, solve) pair of P0, the 2D one at delta = 0, and the P1 step.

    The P1 step follows a P0 sub-step with the same control and theta*dt,
    so it reuses the x-system factor of that sub-step's last solve.
    """
    split = _Split(params.replace(delta=0.0), grid)
    select, solve = _scheme_2d(split, config)

    def solve_p1(v_next, q, u_new, u_next, dt: float, theta: float) -> np.ndarray:
        u_avg = theta * u_new + (1.0 - theta) * u_next
        source = params.rho * q * lxz_values(u_avg, grid)
        source[0, :] = 0.0   # x-boundary rows evolve as identity
        source[-1, :] = 0.0
        rhs = v_next + (1.0 - theta) * dt * split.a1(q, v_next) + dt * source
        return split.x_solver(q, theta * dt, config.lin_tol)(rhs)

    return select, solve, solve_p1


def solve_p0p1(payoff: PayoffSpec, params: ModelParams, grid: GridSpec,
               config: Optional[SolverConfig] = None) -> P0P1Solution:
    """Full backward sweep for the leading-order price and first correction.

    Terminal conditions are the payoff and zero. Every P0 sub-step is
    followed by the P1 sub-step with its control.
    """
    config = config or SolverConfig()
    select, solve, solve_p1 = _scheme(params, grid, config)

    term = terminal_surface(payoff, grid)
    v = np.zeros((grid.n_x, grid.n_z))

    def p1_step(q, u_new, u_next, dt, theta):
        nonlocal v
        v = solve_p1(v, q, u_new, u_next, dt, theta)

    u, q_hist, _ = march(np.asarray(term.values, float), grid, params.T, config,
                         select, solve, source_step=p1_step)
    return P0P1Solution(
        p0=Surface(u, grid),
        p1=Surface(v, grid),
        q_star0=q_hist,
        params=params,
        grid=grid,
        config=config,
        payoff=payoff,
    )
