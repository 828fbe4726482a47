"""The full 2D worst-case price P^delta.

It marches backward through the shared stepper in ``stepping``. Its step
is the Craig-Sneyd operator splitting (Craig & Sneyd 1988; in the form of
In 't Hout & Foulon 2010 for a mixed-derivative term) of the weighted
step at the stepper's weight theta. The generator splits into the cross
term A0 (explicit), the x-diffusion A1 and the variance part A2:

    Y0 = U + dt*(A0 + A1 + A2) U
    Yj = Y(j-1) + theta*dt*Aj (Yj - U),              j = 1, 2
    Z0 = Y0 + theta*dt*A0 (Y2 - U)
    Zj = Z(j-1) + theta*dt*Aj (Zj - U),              j = 1, 2

and the new level is Z2. Each implicit stage is a batch of tridiagonal
solves by LAPACK ``dgttrf``/``dgttrs``, per z-slice in x and per x-row in
z, with diagonals probed from the values-form operators. Each matrix is
factored once: the x-system once per step, for both stages, and the
constant z-system once per theta*dt. The correction weight theta is
Craig-Sneyd's 1/2 in the trapezoidal steps and 1 in the fully implicit
Rannacher start.
At delta = 0 both A0 and A2 vanish and the step is the x-stage alone:
P0's step, as ``solver_p0p1`` uses this scheme there. The splitting
error against the unsplit weighted system is O(dt^2); the tests measure
it against a reference step (``tests/reference.py``) that probes that
system's matrix (a 9-point footprint) from the same operators and solves
it by sparse LU.

Control selection at a node compares three candidate values of the
quadratic q -> 0.5*q^2*Gxx + q*rho*sqrt(delta)*Gxz, where Gxx and Gxz are
the scaled second-difference fields of the working surface:

* the upper endpoint u,
* the lower endpoint d,
* the interior stationary point q_hat = -rho*sqrt(delta)*Gxz/Gxx.

The interior candidate competes only where it is the supremum over [d, u]:
Gxx strictly negative (beyond the deadband) and q_hat inside the band.
That one rule is exact. Where the quadratic is concave, its maximum over
the band is q_hat clamped into [d, u], and a clamped q_hat is an endpoint;
where it is convex or flat, q_hat is no maximum and an endpoint wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GridSpec, ModelParams, SolverConfig, Surface
from .linsolve import tridiag_solver
from .payoff import PayoffSpec, terminal_surface
from .stencils import deadband, dz_values, dzz_values, lxx_values, lxz_values
from .stepping import check_inputs, march

__all__ = [
    "PdeltaSolution",
    "TAG_A", "TAG_B", "TAG_C", "TAG_NAMES",
    "select_q",
    "solve_pdelta",
]

# candidate tags: A = upper endpoint, B = lower endpoint, C = interior point
TAG_A, TAG_B, TAG_C = 0, 1, 2
TAG_NAMES = ("A", "B", "C")


@dataclass(frozen=True)
class PdeltaSolution:
    """Backward-sweep output for the 2D worst-case price.

    ``q_star_delta[n]`` and ``candidate_tags[n]`` are the control field
    and winning-candidate tags used stepping into time level n.
    """

    p_delta: Surface
    q_star_delta: np.ndarray
    candidate_tags: np.ndarray
    params: ModelParams
    grid: GridSpec
    config: SolverConfig
    payoff: PayoffSpec

    def tag_fraction(self, tag: int) -> float:
        """Fraction of (level, node) entries whose winner carries ``tag``."""
        return float(np.mean(self.candidate_tags == tag))


def select_q(lxx, lxz, params: ModelParams, gamma_eps: float):
    """Pointwise optimal control from the two stencil fields.

    Vectorized; returns (q, tag) with tags in {TAG_A, TAG_B, TAG_C}. Exact
    ties prefer the upper endpoint, then the lower one, so the selection
    is deterministic. Both fields count as zero below the deadband
    ``gamma_eps``. The interior candidate q_hat competes only where
    Gxx <= -gamma_eps and q_hat lies inside [d, u].
    """
    # fields below the deadband count as zero, so a flat node, where both
    # are rounding noise, ties and resolves to the upper endpoint
    a = deadband(lxx, gamma_eps)
    b = params.rho * np.sqrt(params.delta) * deadband(lxz, gamma_eps)
    d, u = params.d, params.u

    f_u = 0.5 * u * u * a + u * b
    f_d = 0.5 * d * d * a + d * b

    concave = a <= -gamma_eps
    a_c = np.where(concave, a, -1.0)  # a stand-in elsewhere keeps q_hat finite
    q_hat = -b / a_c
    f_c = np.where(concave & (q_hat >= d) & (q_hat <= u), -b * b / (2.0 * a_c), -np.inf)

    endpoint_up = f_u >= f_d
    q = np.where(endpoint_up, u, d)
    tag = np.where(endpoint_up, TAG_A, TAG_B).astype(np.int8)
    f_best = np.maximum(f_u, f_d)

    take_c = f_c > f_best
    q = np.where(take_c, q_hat, q)
    tag = np.where(take_c, TAG_C, tag).astype(np.int8)
    return q, tag


def _diagonals(op, shape: tuple, axis: int) -> tuple:
    """The (lower, main, upper) diagonals of a 3-point operator along ``axis``.

    Probed by three combs: comb c is 1 where the index along ``axis`` is
    c (mod 3), so each node's 3-point footprint holds one node of each comb.
    """
    k = np.arange(shape[axis])
    index = k.reshape([-1 if a == axis else 1 for a in range(len(shape))])
    y = np.stack([op(np.broadcast_to(index % 3 == c, shape).astype(float))
                  for c in range(3)])
    y = np.moveaxis(y, axis + 1, 1)  # (colour, node along axis, ...)
    diags = (y[(k[1:] - 1) % 3, k[1:]], y[k % 3, k], y[(k[:-1] + 1) % 3, k[:-1]])
    return tuple(np.moveaxis(d, 0, axis) for d in diags)


class _Split:
    """The 2D generator A(q) = A0 + A1 + A2, by parts, for the Craig-Sneyd step.

    * A0 = rho*sqrt(delta)*q*x*z*d_xz, the cross term, always explicit;
      absent when its coefficient is zero or the grid has one z-node.
    * A1 = 0.5*q^2*z*x^2*d_xx, implicit in x with one tridiagonal system
      per z-slice.
    * A2 = delta*(0.5*z*d_zz + kappa*(theta - z)*d_z), implicit in z with
      one tridiagonal system per x-row; absent when delta = 0 or n_z = 1.
    """

    def __init__(self, params: ModelParams, grid: GridSpec):
        self.params = params
        self.grid = grid
        self.c0 = params.rho * np.sqrt(params.delta)
        self.has_a0 = self.c0 != 0.0 and grid.n_z > 1
        self.has_a2 = params.delta > 0.0 and grid.n_z > 1
        self.z = grid.z_nodes()[None, :]
        # A1(q) only scales the rows of z*x^2*d_xx: its x-diagonals, one row
        # per z-slice; A2 has the same coefficients along every x-row
        self.lxx_diags = tuple(d.T.copy() for d in _diagonals(
            lambda w: lxx_values(w, grid), (grid.n_x, grid.n_z), 0))
        self.a2_diags = _diagonals(self.a2, (1, grid.n_z), 1)
        self._x = None  # (q, c, solve) of the last x-system factored
        self._z = {}    # theta*dt -> solve of I - theta*dt*A2

    def a0(self, q: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.c0 * q * lxz_values(w, self.grid)

    def a1(self, q: np.ndarray, w: np.ndarray) -> np.ndarray:
        return 0.5 * q * q * lxx_values(w, self.grid)

    def a2(self, w: np.ndarray) -> np.ndarray:
        p = self.params
        return p.delta * (0.5 * self.z * dzz_values(w, self.grid)
                          + p.kappa * (p.theta - self.z) * dz_values(w, self.grid))

    def x_solver(self, q: np.ndarray, c: float, lin_tol: float):
        """rhs -> (I - c*A1(q))^-1 rhs, batched over the z-slices.

        Factored once per (q, c): a repeat call with the same control array
        (by identity: control fields are never changed in place) and the
        same c returns the last factor.
        """
        if self._x is None or self._x[0] is not q or self._x[1] != c:
            s = 0.5 * (q * q).T
            lo, mid, up = self.lxx_diags
            solve = tridiag_solver(-c * (s[:, 1:] * lo), 1.0 - c * (s * mid),
                                   -c * (s[:, :-1] * up), lin_tol)
            self._x = (q, c, lambda rhs: np.ascontiguousarray(solve(rhs.T).T))
        return self._x[2]

    def solve_z(self, rhs: np.ndarray, dt: float, theta: float, lin_tol: float) -> np.ndarray:
        """(I - theta*dt*A2)^-1 rhs, batched over the x-rows; factored once per theta*dt."""
        c = theta * dt
        if c not in self._z:
            shape = rhs.shape
            lower, main, upper = self.a2_diags
            self._z[c] = tridiag_solver(
                np.broadcast_to(-c * lower, (shape[0], shape[1] - 1)),
                np.broadcast_to(1.0 - c * main, shape),
                np.broadcast_to(-c * upper, (shape[0], shape[1] - 1)), lin_tol)
        return self._z[c](rhs)


def _scheme(split: _Split, config: SolverConfig):
    """The (select, solve) pair of the 2D equation; ``solve`` is one Craig-Sneyd step."""
    params, grid = split.params, split.grid
    geps = config.resolve_gamma_eps(params)
    tol = config.lin_tol

    def select(w: np.ndarray):
        # at rho*sqrt(delta) = 0 the cross field is multiplied by zero
        lxz = lxz_values(w, grid) if split.c0 != 0.0 else 0.0
        return select_q(lxx_values(w, grid), lxz, params, geps)

    def solve(q: np.ndarray, w_next: np.ndarray, dt: float, theta: float) -> np.ndarray:
        a0_next = split.a0(q, w_next) if split.has_a0 else None
        a2_next = split.a2(w_next) if split.has_a2 else None
        # one factor of the x-system and U + (1-theta)*dt*A1 U serve both
        # Craig-Sneyd stages
        solve_x = split.x_solver(q, theta * dt, tol)
        rhs_x = w_next + (1.0 - theta) * dt * split.a1(q, w_next)

        def stages(explicit):
            y = solve_x(rhs_x if explicit is None else rhs_x + dt * explicit)
            if a2_next is None:
                return y
            return split.solve_z(y - theta * dt * a2_next, dt, theta, tol)

        if a0_next is None:
            return stages(a2_next)
        explicit = a0_next if a2_next is None else a0_next + a2_next
        y = stages(explicit)
        # correction: the cross term re-evaluated at the predicted level, with
        # weight theta (1/2, Craig-Sneyd's own, after the Rannacher start)
        return stages(explicit + theta * (split.a0(q, y) - a0_next))

    return select, solve


def solve_pdelta(payoff: PayoffSpec, params: ModelParams, grid: GridSpec,
                 config: Optional[SolverConfig] = None) -> PdeltaSolution:
    """Full backward sweep of the 2D worst-case pricing scheme."""
    config = config or SolverConfig()
    check_inputs(params, grid)
    select, solve = _scheme(_Split(params, grid), config)

    term = terminal_surface(payoff, grid)
    w, q_hist, tag_hist = march(np.asarray(term.values, float), grid, params.T, config,
                                select, solve)
    return PdeltaSolution(
        p_delta=Surface(w, grid, 0),
        q_star_delta=q_hist,
        candidate_tags=tag_hist,
        params=params,
        grid=grid,
        config=config,
        payoff=payoff,
    )
