"""Path simulation for the variance process and the coupled asset.

Randomness comes from counter-based Philox streams: the pair of shocks
for step k of a run with a given seed lives in its own counter block
(``Philox(key=seed, counter=k << 128)``), so the draw feeding path p at
step k is a pure function of (seed, p, k). Runs are bitwise reproducible
and order-independent; any step's block can be regenerated without
touching the others.

The variance process uses the full-truncation Euler scheme: the state may
go negative, but drift and diffusion see its positive part and the
reported path is the positive part. The asset uses a log-Euler scheme,
which keeps each increment exactly mean-one, and the frozen-variance
companion process is driven by the *same* Brownian increments
(synchronous coupling), so their squared terminal gap isolates the effect
of the moving variance level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .analysis import loglog_fit
from .core import ModelParams
from .stepping import check_inputs

__all__ = [
    "PathBundle",
    "RateFit",
    "RateStudy",
    "brownian_increments",
    "simulate_cir",
    "simulate_coupled_asset",
    "coupling_rate_study",
]

Control = Union[float, Callable[[float, np.ndarray, np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class PathBundle:
    """Simulated paths on a uniform time grid, one row per path."""

    times: np.ndarray
    z_paths: np.ndarray
    x_paths_delta: np.ndarray
    x_paths_frozen: np.ndarray
    seed: int


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of the squared coupling gap against delta for one control."""

    control: str
    deltas: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    slope: float
    slope_stderr: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class RateStudy:
    fits: list[RateFit]
    n_paths: int
    n_steps: int
    seed: int


def _stream(seed: int, step: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=step << 128))


def brownian_increments(seed: int, step: int, n_paths: int, rho: float,
                        dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Correlated increment pair (dW, dW_z) for one time step.

    dW drives the asset, dW_z the variance process; corr(dW, dW_z) = rho.
    Path p consumes the step-block's draws 2p and 2p+1, so its increments
    do not depend on how many paths the run asked for.
    """
    g = _stream(seed, step).standard_normal((n_paths, 2))
    sq = np.sqrt(dt)
    dw = sq * g[:, 0]
    dwz = sq * (rho * g[:, 0] + np.sqrt(1.0 - rho * rho) * g[:, 1])
    return dw, dwz


def _control_values(control: Control, t: float, x: np.ndarray, z: np.ndarray,
                    params: ModelParams) -> np.ndarray:
    if callable(control):
        q = np.broadcast_to(np.asarray(control(t, x, z), float), x.shape)
    else:
        q = np.full_like(x, float(control))
    if np.any(q < params.d - 1e-12) or np.any(q > params.u + 1e-12):
        raise ValueError("control values must lie in [d, u]")
    return q


def _advance_paths(params: ModelParams, control: Control, n_steps: int,
                   n_paths: int, seed: int,
                   record: Callable = lambda k, z, x_d, x_f: None):
    """Step the variance state and both coupled assets from 0 to T.

    The one path kernel behind every simulation here. ``record(k, z, x_d,
    x_f)`` sees the raw (untruncated) variance state and the two assets at
    every time level k = 0..n_steps. Returns the terminal (z, x_d, x_f).
    """
    check_inputs(params)
    if n_steps < 1 or n_paths < 1:
        raise ValueError(f"need n_steps >= 1 and n_paths >= 1 "
                         f"(got {n_steps}, {n_paths})")
    dt = params.T / n_steps
    z_state = np.full(n_paths, params.z0, dtype=float)
    x_d = np.full(n_paths, params.x0, dtype=float)
    x_f = np.full(n_paths, params.x0, dtype=float)
    record(0, z_state, x_d, x_f)
    for k in range(n_steps):
        zp = np.maximum(z_state, 0.0)
        dw, dwz = brownian_increments(seed, k, n_paths, params.rho, dt)
        q = _control_values(control, k * dt, x_d, zp, params)
        x_d = x_d * np.exp(-0.5 * q * q * zp * dt + q * np.sqrt(zp) * dw)
        x_f = x_f * np.exp(-0.5 * q * q * params.z0 * dt + q * np.sqrt(params.z0) * dw)
        z_state = z_state + params.delta * params.kappa * (params.theta - zp) * dt \
            + np.sqrt(params.delta) * np.sqrt(zp) * dwz
        record(k + 1, z_state, x_d, x_f)
    return z_state, x_d, x_f


def simulate_coupled_asset(params: ModelParams, control: Control, n_steps: int,
                           n_paths: int, seed: int) -> PathBundle:
    """Coupled asset paths under moving and frozen variance.

    Both assets see the same Brownian increments and the same control
    path; the control is evaluated on the moving-variance state
    (t_k, X_k, Z_k). Keeps full paths; for large path counts where only
    terminals matter, see ``coupling_rate_study``.
    """
    z_out = np.empty((n_paths, n_steps + 1))
    x_d = np.empty_like(z_out)
    x_f = np.empty_like(z_out)

    def record(k, z, xd, xf):
        z_out[:, k] = np.maximum(z, 0.0)
        x_d[:, k] = xd
        x_f[:, k] = xf

    _advance_paths(params, control, n_steps, n_paths, seed, record)
    times = np.arange(n_steps + 1) * (params.T / n_steps)
    return PathBundle(times=times, z_paths=z_out, x_paths_delta=x_d,
                      x_paths_frozen=x_f, seed=seed)


def simulate_cir(params: ModelParams, n_steps: int, n_paths: int,
                 seed: int) -> np.ndarray:
    """Full-truncation Euler paths of the variance process.

    Returns the reported (truncated, nonnegative) paths with shape
    (n_paths, n_steps + 1). At delta = 0 every path is frozen at z0.
    """
    out = np.empty((n_paths, n_steps + 1))

    def record(k, z, x_d, x_f):
        out[:, k] = np.maximum(z, 0.0)

    # the variance path does not depend on the control the assets follow
    _advance_paths(params, params.u, n_steps, n_paths, seed, record)
    return out


def _terminal_gap_sq(params: ModelParams, control: Control, n_steps: int,
                     n_paths: int, seed: int) -> np.ndarray:
    """(X_T^moving - X_T^frozen)^2 without materializing full paths."""
    _, x_d, x_f = _advance_paths(params, control, n_steps, n_paths, seed)
    return (x_d - x_f) ** 2


def coupling_rate_study(params: ModelParams, delta_list: Sequence[float],
                        n_paths: int, seed: int,
                        controls: dict[str, Control] | None = None,
                        n_steps: int = 200) -> RateStudy:
    """Squared terminal coupling gap against delta, with a log-log fit.

    Runs every delta with the same seed (common random numbers), so the
    per-delta estimates move together and the fitted slope is steadier
    than with independent streams. Controls default to the two constant
    band endpoints.
    """
    deltas = np.asarray(sorted(set(float(d) for d in delta_list), reverse=True))
    if len(deltas) < 2:
        raise ValueError("rate study needs at least two distinct delta values")
    if np.any(deltas <= 0.0):
        raise ValueError("delta values must be strictly positive (log scale)")
    if n_paths < 2:
        raise ValueError(f"rate study needs n_paths >= 2 for its standard errors "
                         f"(got {n_paths})")
    if controls is None:
        controls = {"const_d": params.d, "const_u": params.u}

    fits = []
    for name, control in controls.items():
        est = np.empty(len(deltas))
        se = np.empty(len(deltas))
        for i, dl in enumerate(deltas):
            sq = _terminal_gap_sq(params.replace(delta=dl), control, n_steps,
                                  n_paths, seed)
            est[i] = float(np.mean(sq))
            se[i] = float(np.std(sq, ddof=1) / np.sqrt(n_paths))
        slope, intercept, slope_se, r2 = loglog_fit(deltas, est, se)
        fits.append(RateFit(control=name, deltas=deltas, estimates=est, stderrs=se,
                            slope=slope, slope_stderr=slope_se, intercept=intercept,
                            r2=r2))
    return RateStudy(fits=fits, n_paths=n_paths, n_steps=n_steps, seed=seed)
