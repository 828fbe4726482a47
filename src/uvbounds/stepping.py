"""The backward stepper shared by the P0, P1 and P^delta solvers.

Every price steps backward from the terminal level by the weighted step
(I - theta*dt*A(q)) w_new = (I + (1-theta)*dt*A(q)) w_next, with the
control field q frozen for the step. A solver supplies only what differs:
``select(w) -> (q, tags)``, the optimal control on a working surface and
its winning-candidate tags, and ``solve(q, w_next, dt, theta) -> w_new``,
one implicit step. P0 and P^delta supply the same pair, P0's at
delta = 0. P1 adds a ``source_step(q, w_new, w_next, dt, theta)`` that
follows every P0 sub-step.

Each (sub-)step is a predictor-corrector pair. The predictor selects the
control on the known level w_next and solves. Each corrector pass
re-selects on theta*w_new + (1-theta)*w_next and re-solves, stopping once
the control repeats; the tags are those of the last selection. The first
backward step is split into ``rannacher_steps`` fully implicit sub-steps
(Rannacher start), damping the oscillation that kinked payoffs excite in
the trapezoidal scheme; later steps use the weight ``cn_weight``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .core import GridSpec, ModelParams, SolverConfig, SolverError, validate_params
from .linsolve import LinearSolveError

__all__ = ["check_inputs", "step", "march"]


def check_inputs(params: ModelParams, grid: Optional[GridSpec] = None) -> None:
    """Raise ValueError on invalid parameters or a grid too small to solve on."""
    violations = validate_params(params)
    if violations:
        raise ValueError("invalid model parameters: " + "; ".join(violations))
    if grid is not None and grid.n_x < 3:
        raise ValueError("solver grids need n_x >= 3")


def step(w_next: np.ndarray, select: Callable, solve: Callable, dt: float,
         theta: float, corrector_passes: int):
    """One predictor-corrector (sub-)step; returns (w_new, q, tags)."""
    q, tags = select(w_next)
    w_new = solve(q, w_next, dt, theta)
    for _ in range(corrector_passes):
        q_new, tags = select(theta * w_new + (1.0 - theta) * w_next)
        if np.array_equal(q_new, q):
            break  # same control, same linear system: solution already exact
        q = q_new
        w_new = solve(q, w_next, dt, theta)
    return w_new, q, tags


def march(w: np.ndarray, grid: GridSpec, T: float, config: SolverConfig,
          select: Callable, solve: Callable, *,
          source_step: Optional[Callable] = None):
    """Step ``w`` from the terminal level back to t = 0.

    Returns (w at t = 0, controls, tags): ``controls[n]`` and ``tags[n]``
    come from the last sub-step into time level n.
    """
    dt = grid.dt(T)
    q_hist = np.empty((grid.n_t, grid.n_x, grid.n_z))
    tag_hist = np.empty(q_hist.shape, dtype=np.int8)
    for n in range(grid.n_t - 1, -1, -1):
        if n == grid.n_t - 1 and config.rannacher_steps > 0:
            substeps, theta = config.rannacher_steps, 1.0
        else:
            substeps, theta = 1, config.cn_weight
        dt_sub = dt / substeps
        try:
            for _ in range(substeps):
                w_new, q, tags = step(w, select, solve, dt_sub, theta,
                                      config.corrector_passes)
                if source_step is not None:
                    source_step(q, w_new, w, dt_sub, theta)
                w = w_new
        except LinearSolveError as exc:
            raise SolverError(f"backward step into time level {n} failed: {exc}") from exc
        q_hist[n] = q
        tag_hist[n] = tags

    q_hist.setflags(write=False)
    tag_hist.setflags(write=False)
    return w, q_hist, tag_hist
