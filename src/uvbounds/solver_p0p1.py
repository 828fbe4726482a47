"""Leading-order worst-case price P0 and its first correction P1.

The leading-order equation has no z-derivatives, so each variance slice
is an independent 1D problem and one implicit step is a batch of
tridiagonal solves. Its control field is bang-bang: the upper band slope
wherever the scaled second difference is nonnegative (deadband ties
included), the lower slope where it is negative.

The correction solves a linear equation with the same diffusion
operator, the frozen control of each completed P0 sub-step, and an
explicit cross-derivative source built from the two P0 levels of that
sub-step; its terminal condition is zero. The source is proportional to
the correlation, so it vanishes identically when rho = 0.

Both march backward through the shared stepper in ``stepping``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GridSpec, ModelParams, SolverConfig, Surface
from .linsolve import solve_tridiag_batch
from .payoff import PayoffSpec, terminal_surface
from .stencils import lxx_values, lxz_values, sign_with_deadband
from .stepping import check_inputs, march

__all__ = ["P0P1Solution", "solve_p0p1"]


@dataclass(frozen=True)
class P0P1Solution:
    """Output of the backward sweep at t = 0.

    ``q_star0[n]`` is the control field (values in {d, u}) used stepping
    from time level n+1 down to level n. Full surface histories are kept
    only on request; index = time level, so history[0] is t = 0 and
    history[n_t] the terminal condition.
    """

    p0: Surface
    p1: Surface
    q_star0: np.ndarray
    params: ModelParams
    grid: GridSpec
    config: SolverConfig
    payoff: PayoffSpec
    p0_history: Optional[list[Surface]] = None
    p1_history: Optional[list[Surface]] = None


def _solve_slicewise(q: np.ndarray, v_next: np.ndarray, source: Optional[np.ndarray],
                     grid: GridSpec, dt: float, theta: float, lin_tol: float) -> np.ndarray:
    """One weighted implicit step of dv/dt + a*d_xx v + source = 0, per slice.

    Solves (I - theta*dt*A) v_new = (I + (1-theta)*dt*A) v_next + dt*source
    with A = a * d_xx, batched over the z-slices. The coefficient is
    a = 0.5 * q^2 * z * x^2, zeroed on the x-boundary rows (zero-gamma BC).
    The source is added on every row, boundary rows included.
    """
    x = grid.x_nodes()[:, None]
    z = grid.z_nodes()[None, :]
    a = 0.5 * q * q * z * x * x
    a[0, :] = 0.0
    a[-1, :] = 0.0
    a_dxx = np.zeros_like(v_next)
    a_dxx[1:-1] = a[1:-1] * (v_next[2:] + v_next[:-2] - 2.0 * v_next[1:-1]) / grid.dx ** 2
    rhs = v_next + (1.0 - theta) * dt * a_dxx
    if source is not None:
        rhs = rhs + dt * source

    c = theta * dt * a / grid.dx ** 2  # (n_x, n_z)
    # batch axis = slice: transpose to (n_z, n_x)
    main = (1.0 + 2.0 * c).T.copy()
    lower = (-c[1:, :]).T.copy()
    upper = (-c[:-1, :]).T.copy()
    out = solve_tridiag_batch(lower, main, upper, rhs.T.copy(), lin_tol=lin_tol)
    return np.ascontiguousarray(out.T)


def _select_q(working: np.ndarray, params: ModelParams, grid: GridSpec,
              gamma_eps: float) -> tuple[np.ndarray, None]:
    """Bang-bang control on a working surface; it carries no candidate tags."""
    branch = sign_with_deadband(lxx_values(working, grid), gamma_eps)
    return np.where(branch > 0, params.u, params.d), None


def _scheme(params: ModelParams, grid: GridSpec, config: SolverConfig):
    """The (select, solve) pair of P0, and the P1 step that follows each P0 step."""
    geps = config.resolve_gamma_eps(params)

    def select(w: np.ndarray):
        return _select_q(w, params, grid, geps)

    def solve(q: np.ndarray, v_next: np.ndarray, dt: float, theta: float) -> np.ndarray:
        return _solve_slicewise(q, v_next, None, grid, dt, theta, config.lin_tol)

    def solve_p1(v_next, q, u_new, u_next, dt: float, theta: float) -> np.ndarray:
        u_avg = theta * u_new + (1.0 - theta) * u_next
        source = params.rho * q * lxz_values(u_avg, grid)
        source[0, :] = 0.0   # x-boundary rows evolve as identity
        source[-1, :] = 0.0
        return _solve_slicewise(q, v_next, source, grid, dt, theta, config.lin_tol)

    return select, solve, solve_p1


def solve_p0p1(payoff: PayoffSpec, params: ModelParams, grid: GridSpec,
               config: Optional[SolverConfig] = None,
               keep_history: bool = False) -> P0P1Solution:
    """Full backward sweep for the leading-order price and first correction.

    Terminal conditions are the payoff and zero. Every P0 sub-step is
    followed by the P1 sub-step with its control.
    """
    config = config or SolverConfig()
    check_inputs(params, grid)
    select, solve, solve_p1 = _scheme(params, grid, config)

    term = terminal_surface(payoff, grid)
    v = np.zeros((grid.n_x, grid.n_z))
    u_hist = [term] if keep_history else None
    v_hist = [Surface(v, grid, grid.n_t)] if keep_history else None

    def p1_step(q, u_new, u_next, dt, theta):
        nonlocal v
        v = solve_p1(v, q, u_new, u_next, dt, theta)

    def record(n, u):
        u_hist.insert(0, Surface(u, grid, n))
        v_hist.insert(0, Surface(v, grid, n))

    u, q_hist, _ = march(np.asarray(term.values, float), grid, params.T, config,
                         select, solve, source_step=p1_step,
                         on_level=record if keep_history else None)
    return P0P1Solution(
        p0=Surface(u, grid, 0),
        p1=Surface(v, grid, 0),
        q_star0=q_hist,
        params=params,
        grid=grid,
        config=config,
        payoff=payoff,
        p0_history=u_hist,
        p1_history=v_hist,
    )
