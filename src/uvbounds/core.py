"""Shared value types: model parameters, grids, surfaces, solver knobs;
and the one log-log fit, with the one rule for the delta list it runs
over, which the error sweep and the Monte Carlo rate study both read, kept
here so that neither imports the other's stack.

Every type here is an immutable value object. Solvers never mutate a
``Surface``: the backward march steps on plain arrays and makes one only
at t = 0, so a surface can be held and reused across solves without copying.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "GridSpec",
    "SolverConfig",
    "Surface",
    "SolverError",
    "distinct_deltas",
    "loglog_fit",
]


class SolverError(RuntimeError):
    """A backward-stepping solver failed; the message carries the context."""


def _count(name: str, value) -> int:
    """``value`` as an int: 40.0 and numpy integers pass; 40.7, nan and inf raise."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer (got {value!r})")


@dataclass(frozen=True)
class ModelParams:
    """Market and variance-process parameters.

    Construction (including ``replace``) raises ValueError listing every
    violated rule, so a model that exists is valid.

    Attributes:
        x0: initial asset price (currency units), x0 > 0
        z0: initial variance level of the bound-driving process, z0 > 0
        T: maturity in years, T > 0
        r: risk-free rate; only r = 0 is supported by the solvers
        d: lower slope of the volatility band (0 < d < 1)
        u: upper slope of the volatility band (u > 1)
        kappa: mean-reversion speed of the variance process (1/years)
        theta: long-run variance mean; kappa*theta >= 1/2 (Feller)
        delta: slow-scale parameter in [0, 1]
        rho: correlation between asset and variance shocks, |rho| < 1
    """

    x0: float
    z0: float
    T: float
    r: float
    d: float
    u: float
    kappa: float
    theta: float
    delta: float
    rho: float

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        violations = self._violations()
        if violations:
            raise ValueError("invalid model parameters: " + "; ".join(violations))

    def _violations(self) -> list[str]:
        """Every violated rule, each naming the offending field(s), e.g.
        ``"theta*kappa: Feller condition theta*kappa >= 1/2 violated (got 0.1)"``."""
        v = [f"{f.name}: must be finite (got {getattr(self, f.name)!r})"
             for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if v:
            return v

        if not (0.0 < self.d < 1.0):
            v.append(f"d: require 0 < d < 1 (got {self.d})")
        if not (self.u > 1.0):
            v.append(f"u: require u > 1 (got {self.u})")
        elif not np.isfinite(self.u * self.u):  # the control selection weighs u**2 * gamma
            v.append(f"u: u**2 overflows (got {self.u})")
        if self.d >= self.u:
            v.append(f"d,u: require d < u (got d={self.d}, u={self.u})")
        if self.kappa <= 0.0:
            v.append(f"kappa: require kappa > 0 (got {self.kappa})")
        if self.theta <= 0.0:
            v.append(f"theta: require theta > 0 (got {self.theta})")
        if self.theta * self.kappa < 0.5:
            v.append(
                f"theta*kappa: Feller condition theta*kappa >= 1/2 violated "
                f"(got {self.theta * self.kappa})"
            )
        if not (abs(self.rho) < 1.0):
            v.append(f"rho: require |rho| < 1 (got {self.rho})")
        if not (0.0 <= self.delta <= 1.0):
            v.append(f"delta: require 0 <= delta <= 1 (got {self.delta})")
        if self.T <= 0.0:
            v.append(f"T: require T > 0 (got {self.T})")
        if self.x0 <= 0.0:
            v.append(f"x0: require x0 > 0 (got {self.x0})")
        elif not np.isfinite(self.x0 * self.x0):  # the automatic gamma_eps scales with x0**2
            v.append(f"x0: x0**2 overflows (got {self.x0})")
        if self.z0 <= 0.0:
            v.append(f"z0: require z0 > 0 (got {self.z0})")
        if self.r != 0.0:
            v.append(f"r: unsupported — solvers implement r = 0 only (got {self.r})")
        return v

    def replace(self, **changes) -> "ModelParams":
        return dataclasses.replace(self, **changes)

    def vol_bounds(self, z: float) -> tuple[float, float]:
        """Volatility band [d*sqrt(z), u*sqrt(z)] at variance level z."""
        s = float(np.sqrt(z))
        return self.d * s, self.u * s


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of the (x, z) rectangle and of [0, T].

    ``n_x`` and ``n_z`` count grid nodes including the boundary nodes, so
    the spacings are dx = (x_max - x_min)/(n_x - 1) and likewise for dz.
    ``n_t`` counts time steps; there are n_t + 1 time levels. The solvers'
    second differences need an interior, so ``n_x >= 3``.

    The degenerate case ``n_z == 1`` (with z_min == z_max) is allowed and
    collapses the problem to a single variance slice; all z-derivatives
    are then identically zero.
    """

    x_min: float
    x_max: float
    n_x: int
    z_min: float
    z_max: float
    n_z: int
    n_t: int

    def __post_init__(self) -> None:
        for name in ("x_min", "x_max", "z_min", "z_max"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"GridSpec.{name} must be finite")
        for name in ("n_x", "n_z", "n_t"):
            object.__setattr__(self, name, _count(f"GridSpec.{name}", getattr(self, name)))
        if self.x_min < 0.0 or self.z_min < 0.0:
            raise ValueError("GridSpec: x_min and z_min must be >= 0")
        if self.x_min >= self.x_max:
            raise ValueError("GridSpec: require x_min < x_max")
        if self.n_z == 1:
            if self.z_min != self.z_max:
                raise ValueError("GridSpec: n_z == 1 requires z_min == z_max")
        elif self.z_min >= self.z_max:
            raise ValueError("GridSpec: require z_min < z_max")
        if self.n_x < 3:
            raise ValueError("GridSpec: require n_x >= 3")
        if self.n_z < 1:
            raise ValueError("GridSpec: require n_z >= 1")
        if self.n_t < 1:
            raise ValueError("GridSpec: require n_t >= 1")
        for name in ("dx", "dz"):
            # the second-difference stencils divide by the squared spacing
            h = getattr(self, name)
            if not np.isfinite(h * h):
                raise ValueError(f"GridSpec: {name}**2 overflows; the span is too large")
            if h * h == 0.0 and (name == "dx" or self.n_z > 1):
                raise ValueError(f"GridSpec: {name}**2 underflows to 0; the span is too small")
        # the x-diffusion coefficient z*x^2 peaks at the far corner
        if not np.isfinite(self.z_max * (self.x_max * self.x_max)):
            raise ValueError("GridSpec: z_max * x_max**2 overflows; the span is too large")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dz(self) -> float:
        if self.n_z == 1:
            return 0.0
        return (self.z_max - self.z_min) / (self.n_z - 1)

    def dt(self, T: float) -> float:
        return T / self.n_t

    def x_nodes(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_x) * self.dx

    def z_nodes(self) -> np.ndarray:
        if self.n_z == 1:
            return np.array([self.z_min])
        return self.z_min + np.arange(self.n_z) * self.dz

    def ix_nearest(self, x: float) -> int:
        return int(np.argmin(np.abs(self.x_nodes() - x)))

    def iz_nearest(self, z: float) -> int:
        return int(np.argmin(np.abs(self.z_nodes() - z)))


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by the backward-stepping solvers.

    Attributes:
        cn_weight: weight on the unknown (earlier-time) level in the
            weighted time discretization, in [0.5, 1] where the step is
            unconditionally stable; 0.5 is the trapezoidal scheme, 1.0 is
            fully implicit.
        corrector_passes: maximum corrector re-solves per step (>= 1);
            passes stop early once the control field stops changing.
        gamma_eps: deadband below which a discrete second derivative is
            treated as zero for sign tests; None means the default
            1e-9 * x0**2 resolved against the model parameters.
        lin_tol: residual tolerance for the linear solvers.
        rannacher_steps: number of fully implicit sub-steps replacing the
            first backward step, damping oscillation from payoff kinks.
    """

    cn_weight: float = 0.5
    corrector_passes: int = 1
    gamma_eps: Optional[float] = None
    lin_tol: float = 1e-10
    rannacher_steps: int = 2

    def __post_init__(self) -> None:
        for name in ("corrector_passes", "rannacher_steps"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if not (0.5 <= self.cn_weight <= 1.0):
            raise ValueError(f"cn_weight must be in [0.5, 1] (got {self.cn_weight})")
        if self.corrector_passes < 1:
            raise ValueError("corrector_passes must be >= 1")
        if self.gamma_eps is not None and not (0.0 < self.gamma_eps < np.inf):
            raise ValueError(f"gamma_eps must be finite and positive (got {self.gamma_eps})")
        if not (0.0 < self.lin_tol < np.inf):
            raise ValueError(f"lin_tol must be finite and positive (got {self.lin_tol})")
        if self.rannacher_steps < 0:
            raise ValueError("rannacher_steps must be >= 0")

    def resolve_gamma_eps(self, params: ModelParams) -> float:
        if self.gamma_eps is not None:
            return self.gamma_eps
        geps = 1e-9 * params.x0 ** 2
        if not geps > 0.0:
            raise ValueError(f"automatic gamma_eps = 1e-9 * x0**2 underflows to {geps} "
                             f"(x0 = {params.x0}); set solver.gamma_eps")
        return geps


@dataclass(frozen=True)
class Surface:
    """Real-valued field over the (x, z) grid at one time level.

    ``values`` is indexed (i, j) = (x-index, z-index) and is made
    read-only on construction.
    """

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.shape != (self.grid.n_x, self.grid.n_z):
            raise ValueError(
                f"Surface shape {arr.shape} does not match grid "
                f"({self.grid.n_x}, {self.grid.n_z})"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("Surface contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def value_at(self, x: float, z: float) -> float:
        """Interpolate the surface at an off-grid point.

        Separable cubic Lagrange interpolation on the 4 nearest nodes per
        axis (fewer on an axis with fewer nodes), the stencil clamped at the
        boundaries. Points outside the grid rectangle are clamped to it.
        """
        col = _lagrange_1d(self.grid.x_nodes(), self.values, x)
        return float(_lagrange_1d(self.grid.z_nodes(), col[:, None], z)[0])


def _lagrange_1d(nodes: np.ndarray, values: np.ndarray, target: float) -> np.ndarray:
    """Interpolate ``values`` along axis 0 at ``target`` over ``nodes``.

    Returns the remaining axis as an array (so 2D in, 1D out).
    """
    n = len(nodes)
    if n == 1:
        return np.asarray(values[0], dtype=float).reshape(-1)
    k = min(3, n - 1)
    target = float(min(max(target, nodes[0]), nodes[-1]))
    # leftmost node of the (k+1)-point stencil, centered on the target cell
    i0 = int(np.searchsorted(nodes, target) - 1)
    i0 = max(0, min(i0 - (k - 1) // 2, n - 1 - k))
    xs = nodes[i0:i0 + k + 1]
    out = np.zeros_like(np.asarray(values[0], dtype=float).reshape(-1))
    for m in range(k + 1):
        w = 1.0
        for l in range(k + 1):
            if l != m:
                w *= (target - xs[l]) / (xs[m] - xs[l])
        out = out + w * np.asarray(values[i0 + m], dtype=float).reshape(-1)
    return out


def distinct_deltas(params: ModelParams, deltas: Sequence[float]) -> list[float]:
    """The distinct values of ``deltas``, ascending, for a fit against
    log(delta); ValueError, before any work is done, unless there are two or
    more, all > 0 and each a valid ``params`` delta (at most 1)."""
    values = sorted({float(d) for d in deltas})
    if len(values) < 2 or any(d <= 0.0 for d in values):
        raise ValueError(f"a fit against log(delta) needs at least two distinct delta "
                         f"values, all > 0 (got {values})")
    for delta in values:
        params.replace(delta=delta)  # a delta above 1 raises here
    return values


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
