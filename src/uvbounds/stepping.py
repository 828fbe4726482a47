"""The backward stepper shared by the P0, P1 and P^delta solvers.

Every price steps backward from the terminal level by the weighted step
(I - theta*dt*A(q)) w_new = (I + (1-theta)*dt*A(q)) w_next, with the
control field q frozen for the step. A solver supplies only what differs:
``select(w) -> (q, fields)``, the optimal control on a working surface
and the fields of w it read, and ``solve(q, fields, dt, theta)``, one
implicit step from the surface w_next those fields are of. P0 and
P^delta supply the same pair, P0's at delta = 0. An optional
``after_substep(n, q, w_new, w_next, dt, theta)`` follows every sub-step
into time level n: P1 steps there on P0's two levels, and the CLI's
``solve-pdelta`` counts and exports the controls there. ``march`` keeps
only the current level.

Each (sub-)step is a predictor-corrector pair. The predictor selects the
control on the known level w_next and solves. Each corrector pass
re-selects on theta*w_new + (1-theta)*w_next and re-solves from w_next's
fields, stopping once the control repeats. A pass keeps only the control
it selects: the blended surface and its fields go before the re-solve, and
so does the last solution, so at most one solution is live. The first
backward step is split into ``rannacher_steps`` fully implicit sub-steps
(Rannacher start), damping the oscillation that kinked payoffs excite in
the trapezoidal scheme; later steps use the weight ``cn_weight``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .core import GridSpec, SolverConfig, SolverError
from .linsolve import LinearSolveError

__all__ = ["step", "march"]


def step(w_next: np.ndarray, select: Callable, solve: Callable, dt: float,
         theta: float, corrector_passes: int):
    """One predictor-corrector (sub-)step; returns (w_new, q). Each solve is from w_next."""
    q, fields = select(w_next)
    w_new = solve(q, fields, dt, theta)
    for _ in range(corrector_passes):
        q_new = select(theta * w_new + (1.0 - theta) * w_next)[0]
        if np.array_equal(q_new, q):
            break  # same control, same linear system: solution already exact
        q, w_new = q_new, None  # the last solution goes before the next is made
        w_new = solve(q, fields, dt, theta)
    return w_new, q


def march(w: np.ndarray, grid: GridSpec, T: float, config: SolverConfig,
          select: Callable, solve: Callable, *,
          after_substep: Optional[Callable] = None) -> np.ndarray:
    """Step ``w`` from the terminal level back to t = 0; returns w at t = 0."""
    dt = grid.dt(T)
    for n in range(grid.n_t - 1, -1, -1):
        if n == grid.n_t - 1 and config.rannacher_steps > 0:
            substeps, theta = config.rannacher_steps, 1.0
        else:
            substeps, theta = 1, config.cn_weight
        dt_sub = dt / substeps
        try:
            for _ in range(substeps):
                w_new, q = step(w, select, solve, dt_sub, theta, config.corrector_passes)
                if after_substep is not None:
                    after_substep(n, q, w_new, w, dt_sub, theta)
                w, q = w_new, None  # the control goes before the next step selects one
        except LinearSolveError as exc:
            raise SolverError(f"backward step into time level {n} failed: {exc}") from exc
    return w
