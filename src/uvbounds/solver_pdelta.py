"""The full 2D worst-case price P^delta, and its expansion P0 + sqrt(delta)*P1.

All three prices march backward by one scheme, ``_Scheme``. Its step is
the Craig-Sneyd operator splitting (Craig & Sneyd 1988; in the form of
In 't Hout & Foulon 2010 for a mixed-derivative term) of the weighted
step at the weight theta. The generator splits into the cross term A0
(explicit), the x-diffusion A1 and the variance part A2:

    Y0 = U + dt*(A0 + A1 + A2) U
    Yj = Y(j-1) + theta*dt*Aj (Yj - U),              j = 1, 2
    Z0 = Y0 + theta*dt*A0 (Y2 - U)
    Zj = Z(j-1) + theta*dt*Aj (Zj - U),              j = 1, 2

and the new level is Z2. Both implicit stages take their matrices by
probing the values-form operators. The x-stage's systems, one per
z-slice, are factored once per step for both stages (``linsolve.XSolver``).
The z-system M = I - theta*dt*A2 is one matrix for every x-row, so one
solver per theta*dt (``linsolve.ZSolver``) makes its dense inverse by
LAPACK's tridiagonal LU ``dgtsv`` on the identity, and each z-stage is one
matrix product with it, at 2*n_z flops per node; the inverse and every
product are checked by M's tridiagonal product, as every solve is. The
product beats the latency-bound chained tridiagonal solve up to a few
hundred z-nodes: with it, in-process ``solve_pdelta`` on ``paper.cfg``
took a median 0.77 s against 0.86 s at 200x200x40, and 7.24 s against
7.32 s at 400x400x80 (10 alternating runs each, 2-core x86-64 host, one
BLAS thread). Likewise, each stencil field of a surface (z*x^2*d_xx,
x*z*d_xz and A2 of it) is computed once, at the head of the control
selection, which hands them to the solves from that surface. The
correction weight theta is Craig-Sneyd's 1/2 in the trapezoidal steps
and 1 in the fully implicit Rannacher start. At delta = 0 both A0 and A2
vanish and the step is the x-stage alone.
The splitting error against the unsplit weighted system is O(dt^2); the
tests measure it against a reference step (``tests/reference.py``) that
probes that system's matrix (a 9-point footprint) from the same operators
and solves it by sparse LU.

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

P0 is this scheme at delta = 0: a bang-bang control, one 1D problem per
slice. Both march from the payoff by ``_Scheme.march``. P1 is
linear, with P0's x-stage and controls, zero terminal data and the source
rho*q*x*z*d_xz P0, which is local to the slice: P0 is Q(z*(T - t), x), so
z*d_z P0 = (T - t)*z*d_tau Q, and a P0 sub-step gives z*d_tau Q as
(u_new - u_next)/dt. So the source is rho*q*x*(tau/dt)*d_x(u_new - u_next),
with tau the time to maturity at the sub-step's theta-average; d_x is zero
on the x-boundary rows (the ``stencils`` rule), so P1 stays 0 there. Each
P1 sub-step runs in ``solve_p0p1``'s hook after the P0 sub-step it reads,
on the same scheme, so it reuses that sub-step's x-system factor.

Both solvers return surfaces at t = 0: ``solve_pdelta`` P^delta, and
``solve_p0p1`` the pair (P0, P1). Neither keeps a control history.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import GridSpec, ModelParams, SolverConfig, SolverError, Surface
from .linsolve import LinearSolveError, XSolver, ZSolver, x_layout
from .payoff import PayoffSpec, terminal_surface
from .stencils import deadband, dx_values, dz_values, dzz_values, lxx_values, lxz_values

__all__ = [
    "TAG_A", "TAG_B", "TAG_C", "TAG_NAMES",
    "candidate_tags",
    "select_q",
    "solve_p0p1",
    "solve_pdelta",
]

# candidate tags: A = upper endpoint, B = lower endpoint, C = interior point
TAG_A, TAG_B, TAG_C = 0, 1, 2
TAG_NAMES = ("A", "B", "C")


def candidate_tags(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """TAG_A where q == u, TAG_B where q == d, TAG_C strictly inside (d, u).

    Read off the control, so an interior winner that rounds exactly onto
    an endpoint reads as that endpoint. The tags are 0, 1, 2 in that order,
    so they are (q != u) + (q != u and q != d), in int8.
    """
    not_u = q != params.u
    return not_u.astype(np.int8) + (not_u & (q != params.d))


def select_q(lxx, lxz, params: ModelParams, gamma_eps: float):
    """Pointwise optimal control from the two stencil fields.

    Vectorized; returns the control q. Exact ties prefer the upper
    endpoint, then the lower one, so the selection is deterministic. The
    two coefficients of the quadratic, Gxx = lxx and rho*sqrt(delta)*lxz,
    count as zero below the deadband ``gamma_eps``. The interior
    candidate q_hat competes only where Gxx <= -gamma_eps and q_hat lies
    inside [d, u]. Which candidate won is read off q, as an endpoint or
    as q_hat where d < q < u; a q_hat that rounds exactly onto an
    endpoint reads as that endpoint (``candidate_tags``).

    The deadband acts on the coefficients, not on lxz, so that it keeps
    the model's time-change symmetry: z -> lam*z (z0 and the grid's
    z-range too), theta -> lam*theta, kappa -> kappa/lam,
    delta -> lam^2*delta and T -> T/lam scale both coefficients by lam,
    while lxz = x*z*d_xz w does not scale. With ``gamma_eps`` scaled by lam
    as well, the control is unchanged; for lam a power of two every
    product of the scheme scales exactly, so P0, lam*P1 and P^delta are
    unchanged bit for bit.
    """
    # coefficients below the deadband count as zero, so a flat node, where
    # both are rounding noise, ties and resolves to the upper endpoint
    # a has the shape of the control: the scheme passes lxz = 0.0 where it
    # has no cross term (``has_a0``). Each field goes once it is read: that
    # frees the caller's temporary, when it keeps no reference of its own
    a = deadband(np.broadcast_to(lxx, np.broadcast_shapes(np.shape(lxx), np.shape(lxz))),
                 gamma_eps)
    del lxx
    b = params.rho * np.sqrt(params.delta) * lxz
    del lxz
    b = deadband(b, gamma_eps)
    d, u = params.d, params.u

    # f(q) = 0.5*q*q*a + q*b at u and at d, each rounded as written, in two
    # buffers that go on to hold the control and q_hat; each later value is
    # made in a buffer whose contents are spent, so that few surfaces are
    # live at once
    best, other = np.empty_like(a), np.empty_like(a)
    np.add(np.multiply(0.5 * u * u, a, out=best), np.multiply(u, b, out=other), out=best)
    np.multiply(d, b, out=other)
    other += 0.5 * d * d * a
    up = best >= other
    np.maximum(best, other, out=best)
    concave = a <= -gamma_eps
    # the interior candidate q_hat = -b/a and its value -b*b/(2a) on every
    # node; nodes that are not concave may divide by zero or overflow, and
    # are masked out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q_hat = np.divide(np.negative(b, out=other), a, out=other)
        np.negative(np.multiply(b, b, out=b), out=b)
        value = np.divide(b, np.multiply(2.0, a, out=a), out=a)
        interior = concave & (q_hat >= d) & (q_hat <= u) & (value > best)
    q = best  # spent: the control goes in its buffer
    np.copyto(q, d)
    np.copyto(q, u, where=up)
    np.copyto(q, q_hat, where=interior)
    return q


class _Scheme:
    """The 2D scheme: the generator A(q) = A0 + A1 + A2 by parts, and the
    Craig-Sneyd step and backward march on it.

    * A0 = rho*sqrt(delta)*q*x*z*d_xz, the cross term, always explicit;
      absent when its coefficient is zero or the grid has one z-node. Zero
      on the x-boundary rows, as d_xz is: no implicit stage there damps it.
    * A1 = 0.5*q^2*z*x^2*d_xx, implicit in x with one tridiagonal system
      per z-slice, solved by a ``linsolve.XSolver`` per (q, theta*dt). Its
      k = z*x^2/dx^2 is held once (``k``), probed as -1/2 of z*x^2*d_xx's
      main diagonal, and its rows are laid out once (``linsolve.x_layout``).
    * A2 = delta*(0.5*z*d_zz + kappa*(theta - z)*d_z), implicit in z with
      one tridiagonal matrix for every x-row, held once, dense and
      transposed, as the stencil form applied to the identity (``a2_t``,
      made on first read, so never where A2 is absent). Each z-stage is
      one product with the inverse of I - theta*dt*A2 (2*n_z flops per
      node, plus 5 for the residual check), by the ``linsolve.ZSolver``
      built from ``a2_t`` once per theta*dt, which alone reads that
      matrix's diagonals; absent when delta = 0 or n_z = 1.

    The march steps back from the terminal level by the weighted step
    (I - theta*dt*A(q)) w_new = (I + (1-theta)*dt*A(q)) w_next, with the
    control field q frozen for the step, and keeps only the current level.
    Each (sub-)step is a predictor-corrector pair (``step``). The predictor
    selects the control on the known level w_next and solves. Each
    corrector pass re-selects on theta*w_new + (1-theta)*w_next and
    re-solves from w_next's fields, stopping once the control repeats. The
    first backward step is split into ``rannacher_steps`` fully implicit
    sub-steps (Rannacher start), damping the oscillation that kinked
    payoffs excite in the trapezoidal scheme; later steps use the weight
    ``cn_weight``. Each level's solves may be backward-stable while the step
    amplifies (the central z-drift at kappa = 1e6 does), so after each level
    the march raises ``SolverError`` where a value is not finite or lies
    outside the payoff's range by more than the range and its largest
    magnitude together.

    Besides the scheme's k, and ``a2_t`` and the z-inverses where A2 is
    present, a sub-step holds only what it reads again: the control and its
    x-factor (four flat surfaces); w_next and its three fields, which every
    solve from it reads; the predicted w_new while the corrector selects;
    and, within a solve, U + (1-theta)*dt*A1 U and the explicit part.
    Everything else goes once read. A solve makes A0 of w_next again at the
    correction rather than hold it through the first stages. A corrector
    pass keeps only the control it selects: the blended surface goes once
    its two fields are made, each field once select_q has its deadbanded
    copy, and the last solution before the re-solve, so at most one
    solution is live. The march drops the control and its x-factor after
    each sub-step's hook. In n x n surfaces, the traced peak of a warm
    ``paper.cfg`` solve is 18.3 at n = 100 and 18.2 at 200, in a z-stage
    residual check. CPython 3.10 keeps a caller's temporary arguments alive
    through the call, so there the blended surface and its fields stay live
    through select_q, and the x-stage's right-hand side through its solve.
    """

    def __init__(self, params: ModelParams, grid: GridSpec,
                 config: Optional[SolverConfig] = None):
        self.params = params
        self.grid = grid
        self.config = config or SolverConfig()
        self.lin_tol = self.config.lin_tol
        self.gamma_eps = self.config.resolve_gamma_eps(params)
        self.c0 = params.rho * np.sqrt(params.delta)
        self.has_a0 = self.c0 != 0.0 and grid.n_z > 1
        self.has_a2 = params.delta > 0.0 and grid.n_z > 1
        # A1(q) only scales the rows of z*x^2*d_xx, whose main diagonal is -2*k,
        # k = z*x^2/dx^2. Comb c is 1 where the x-index is c mod 3, so of a
        # node's 3-point footprint only the node itself is on its own comb;
        # -0.5 in each term, summed in turn, keeps the signed zeros of -0.5
        # times the diagonal. k is flat, slice after slice
        index = np.arange(grid.n_x)[:, None] % 3
        terms = [-0.5 * comb * lxx_values(comb, grid) for comb in
                 (np.broadcast_to(index == c, (grid.n_x, grid.n_z)).astype(float)
                  for c in range(3))]
        self.k = (terms[0] + terms[1] + terms[2]).T.ravel()
        self._x_layout = x_layout(self.k)
        self._x = None  # (q, c, XSolver) of the last x-system factored
        self._z = {}  # theta*dt -> the ZSolver of I - theta*dt*A2

    def a0(self, q: np.ndarray, w: np.ndarray) -> np.ndarray:
        # (c0*q)*lxz, made in lxz's buffer
        out = lxz_values(w, self.grid)
        out *= self.c0 * q
        return out

    def a1(self, q: np.ndarray, w: np.ndarray) -> np.ndarray:
        return 0.5 * q * q * lxx_values(w, self.grid)

    @cached_property
    def a2_t(self) -> np.ndarray:
        # A2 has the same coefficients along every x-row. Row i of the stencil
        # form applied to the identity is A2 e_i, so that is A2 transposed, and
        # A2 of a surface w is w @ a2_t
        return self.a2_stencil(np.eye(self.grid.n_z))

    def a2(self, w: np.ndarray) -> np.ndarray:
        return w @ self.a2_t

    def a2_stencil(self, w: np.ndarray) -> np.ndarray:
        """A2 of ``w`` from the stencils: the definition ``a2_t`` is probed from."""
        p, z = self.params, self.grid.z_nodes()[None, :]
        return p.delta * (0.5 * z * dzz_values(w, self.grid)
                          + p.kappa * (p.theta - z) * dz_values(w, self.grid))

    def x_solver(self, q: np.ndarray, c: float) -> XSolver:
        """The ``XSolver`` of I - c*A1(q), for c > 0.

        Factored once per (q, c): a repeat call with the same control array
        (by identity: control fields are never changed in place) and the
        same c returns the last factor, until the march drops it after the
        sub-step's hook.
        """
        if self._x is None or self._x[0] is not q or self._x[1] != c:
            self._x = None  # the old factor's buffers go before the new one's
            self._x = (q, c, XSolver(self._x_layout, q, c, self.lin_tol))
        return self._x[2]

    def solve_z(self, rhs: np.ndarray, dt: float, theta: float) -> np.ndarray:
        """(I - theta*dt*A2)^-1 rhs along every x-row, by the one ``ZSolver``
        of theta*dt: its inverse is made and checked once, and each call is
        one checked product with it."""
        c = theta * dt
        if c not in self._z:
            self._z[c] = ZSolver(self.a2_t, c, self.lin_tol)
        return self._z[c](rhs)

    def select(self, w: np.ndarray, spent: bool = False):
        """(q, fields): the optimal control on the surface ``w``, and w's
        ``_Fields`` (lxx, lxz and a2), each made here once.

        A caller that reads neither w nor its fields again, and keeps no
        reference to w, passes ``spent`` and gets (q, None): w goes once its
        fields are made, and each field once select_q has its deadbanded copy.
        """
        fields = [lxx_values(w, self.grid), lxz_values(w, self.grid) if self.has_a0 else 0.0]
        if spent:
            del w
            # popped, the fields reach select_q as temporaries that it alone holds
            return select_q(fields.pop(0), fields.pop(), self.params, self.gamma_eps), None
        f = _Fields(w, *fields, self.a2(w) if self.has_a2 else None)
        return select_q(f.lxx, f.lxz, self.params, self.gamma_eps), f

    def solve(self, q: np.ndarray, f: _Fields, dt: float, theta: float) -> np.ndarray:
        """One Craig-Sneyd step with the control q from the surface w_next = f.w."""
        # one factor of the x-system and U + (1-theta)*dt*A1 U serve both
        # Craig-Sneyd stages. A bound method, unlike the instance, frees a
        # stage's temporary right-hand side once the solver has copied it
        solve_x = self.x_solver(q, theta * dt).__call__
        rhs_x = f.w + (1.0 - theta) * dt * (0.5 * q * q * f.lxx)

        def stages(explicit):
            y = solve_x(rhs_x if explicit is None else rhs_x + dt * explicit)
            if f.a2 is None:
                return y
            y -= theta * dt * f.a2
            return self.solve_z(y, dt, theta)

        if not self.has_a0:
            return stages(f.a2)
        # A0 of w_next, c0*q*f.lxz, is made again at the correction rather
        # than held through the first stages
        explicit = self.c0 * q * f.lxz
        if f.a2 is not None:
            explicit += f.a2
        y = stages(explicit)
        # correction: the cross term re-evaluated at the predicted level, with
        # weight theta (1/2, Craig-Sneyd's own, after the Rannacher start),
        # as explicit + theta*(A0 y - A0 w_next) rounded term by term
        correction = self.a0(q, y)
        del y
        correction -= self.c0 * q * f.lxz
        correction *= theta
        explicit += correction
        del correction
        return stages(explicit)

    def step(self, w_next: np.ndarray, dt: float, theta: float):
        """One predictor-corrector (sub-)step; returns (w_new, q). Each solve is from w_next."""
        q, fields = self.select(w_next)
        w_new = self.solve(q, fields, dt, theta)
        for _ in range(self.config.corrector_passes):
            # spent: nothing reads the blended surface or its fields again
            q_new = self.select(theta * w_new + (1.0 - theta) * w_next, True)[0]
            if np.array_equal(q_new, q):
                break  # same control, same linear system: solution already exact
            q, w_new = q_new, None  # the last solution goes before the next is made
            w_new = self.solve(q, fields, dt, theta)
        return w_new, q

    def march(self, payoff: PayoffSpec,
              after_substep: Optional[Callable] = None) -> Surface:
        """The payoff's terminal surface stepped back to t = 0; ``after_substep``
        as in ``solve_pdelta``."""
        grid, config = self.grid, self.config
        # w holds the only reference to the terminal values, and drops it
        # after the first step
        w = terminal_surface(payoff, grid).values
        # a worst-case price is an expectation of the payoff, so it lies in the
        # payoff's range [lo, hi] on the grid. The scheme is not monotone and
        # may overshoot it, but not by the range plus the payoff's largest
        # magnitude: a level past that has diverged
        lo, hi = float(w.min()), float(w.max())
        slack = hi - lo + max(abs(lo), abs(hi))
        dt = grid.dt(self.params.T)
        for n in range(grid.n_t - 1, -1, -1):
            if n == grid.n_t - 1 and config.rannacher_steps > 0:
                substeps, theta = config.rannacher_steps, 1.0
            else:
                substeps, theta = 1, config.cn_weight
            dt_sub = dt / substeps
            try:
                for _ in range(substeps):
                    w_new, q = self.step(w, dt_sub, theta)
                    if after_substep is not None:
                        after_substep(n, q, w_new, w, dt_sub, theta)
                    # the control and its x-factor go before the next step
                    # selects one: no later step can reuse them
                    w, q, self._x = w_new, None, None
            except LinearSolveError as exc:
                raise SolverError(f"backward step into time level {n} failed: {exc}") from exc
            low, high = float(w.min()), float(w.max())
            # NaN compares false, and inf is past any finite bound
            if not (lo - slack <= low and high <= hi + slack):
                raise SolverError(f"backward march diverged at time level {n}: values in "
                                  f"[{low:.3e}, {high:.3e}], past the payoff's range "
                                  f"[{lo:.3e}, {hi:.3e}] by more than {slack:.3e}")
        return Surface(w, grid)


class _Fields(NamedTuple):
    """The stencil fields of one surface w, made once by ``select`` for the
    solves from w: lxx = z*x^2*d_xx w, lxz = x*z*d_xz w (0.0 where
    ``has_a0`` is false) and a2 = A2 w (None where ``has_a2`` is false)."""

    w: np.ndarray
    lxx: np.ndarray
    lxz: np.ndarray | float
    a2: Optional[np.ndarray]


def solve_pdelta(payoff: PayoffSpec, params: ModelParams, grid: GridSpec,
                 config: Optional[SolverConfig] = None, *,
                 after_substep: Optional[Callable] = None) -> Surface:
    """The 2D worst-case price at t = 0, by a full backward sweep.

    A caller that needs the controls records them through
    ``after_substep(n, q, w_new, w_next, dt, theta)``, which follows every
    sub-step into time level n; the CLI counts the control's interior
    nodes there, and its control export records q.
    """
    return _Scheme(params, grid, config).march(payoff, after_substep)


def solve_p0p1(payoff: PayoffSpec, params: ModelParams, grid: GridSpec,
               config: Optional[SolverConfig] = None) -> tuple[Surface, Surface]:
    """(P0, P1), the leading-order price and first correction at t = 0, by
    one full backward sweep.

    P0 is the 2D scheme at delta = 0, from the payoff, so its controls are
    those of ``solve_pdelta`` at delta = 0; P1 starts from zero, and each
    of its sub-steps follows the P0 sub-step it takes its control and
    x-system factor from.
    """
    scheme = _Scheme(params.replace(delta=0.0), grid, config)
    x = grid.x_nodes()[:, None]
    v = np.zeros((grid.n_x, grid.n_z))
    elapsed = 0.0  # T - t at the known level of the next sub-step

    def p1_step(n, q, u_new, u_next, dt, theta):
        # one P1 sub-step after the P0 sub-step from u_next to u_new, with its
        # control q, so on that sub-step's x-system factor (same q, theta*dt);
        # dt * rho*q*x*z*d_xz P0, with z*d_z P0 = tau*(u_new - u_next)/dt and
        # tau the time to maturity at the sub-step's theta-average
        nonlocal v, elapsed
        tau = elapsed + theta * dt
        source = params.rho * tau * q * x * dx_values(u_new - u_next, grid)
        rhs = v + (1.0 - theta) * dt * scheme.a1(q, v) + source
        v = source = None  # spent: of P1's surfaces only rhs is live through the solve
        v = scheme.x_solver(q, theta * dt)(rhs)
        elapsed += dt

    p0 = scheme.march(payoff, p1_step)  # steps v to t = 0 along the way
    return p0, Surface(v, grid)
