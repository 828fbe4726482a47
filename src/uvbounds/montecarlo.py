"""Path simulation for the variance process and the coupled asset.

Only the variance process is returned as full paths (``simulate_cir``);
the coupled asset is returned at maturity only, which is all its checks
and the rate study read.

Randomness comes from counter-based Philox streams: the pair of shocks
for step k of a run with a given seed lives in its own counter block
(``Philox(key=seed, counter=k << 128)``), so the draw feeding path p at
step k is a pure function of (seed, p, k). Paths are advanced in chunks
of ``CHUNK_PATHS``; each chunk takes its next ``(m, 2)`` draws from every
step's stream, and the chunks run in path order, so together they consume
exactly the block a single draw of all paths would. Runs are bitwise
reproducible and do not depend on the chunk size, and one draw per step
and chunk serves every (delta, control) pair advanced together.

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
    "RateFit",
    "RateStudy",
    "simulate_cir",
    "simulate_coupled_asset",
    "coupling_rate_study",
]

Control = Union[float, Callable[[float, np.ndarray, np.ndarray], np.ndarray]]


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


# Paths advanced together. On coupling-rate (paper.cfg), larger chunks cut
# numpy call overhead but grow the live state of all pairs; see CHANGES.md
# for the wall-time and peak-RSS measurements behind this value.
CHUNK_PATHS = 8192


def _correlate(g: np.ndarray, rho: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    sq = np.sqrt(dt)
    dw = sq * g[:, 0]
    dwz = sq * (rho * g[:, 0] + np.sqrt(1.0 - rho * rho) * g[:, 1])
    return dw, dwz


def _check_band(q, params: ModelParams) -> None:
    # NaN fails both comparisons, so non-finite values are rejected too
    if not np.all((q >= params.d - 1e-12) & (q <= params.u + 1e-12)):
        raise ValueError("control values must be finite and lie in [d, u]")


def _advance_paths(params: ModelParams, deltas: Sequence[float],
                   controls: Sequence[Control], n_steps: int, n_paths: int,
                   seed: int, record: Callable) -> None:
    """Step every delta's variance state and every (delta, control) pair's
    two coupled assets from 0 to T, ``CHUNK_PATHS`` paths at a time.

    The one path kernel behind every simulation here; ``params`` gives
    everything but delta. Pair p = i * len(controls) + j runs delta i under
    control j; with no controls only the variance is stepped. At every time
    level k = 0..n_steps, ``record(rows, k, z, x_d, x_f)`` sees the chunk's
    paths ``rows`` (a slice), the raw (untruncated) variance state ``z[i]``
    of each delta and the assets ``x_d[p]``, ``x_f[p]`` of each pair.

    A constant control is range-checked once and applied as a scalar; its
    frozen asset does not depend on delta, so all deltas share it. A
    callable control is evaluated per step on each pair's moving state
    (t_k, X_k, Z_k), one chunk of paths at a time, so it must act path by
    path.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError(f"need n_steps >= 1 and n_paths >= 1 "
                         f"(got {n_steps}, {n_paths})")
    for dl in deltas:
        check_inputs(params.replace(delta=dl))
    controls = [c if callable(c) else float(c) for c in controls]
    for c in controls:
        if not callable(c):
            _check_band(c, params)
    n_c = len(controls)
    dt = params.T / n_steps
    sqrt_z0 = np.sqrt(params.z0)
    streams = [_stream(seed, k) for k in range(n_steps)]
    for start in range(0, n_paths, CHUNK_PATHS):
        rows = slice(start, min(start + CHUNK_PATHS, n_paths))
        m = rows.stop - rows.start
        z = [np.full(m, params.z0) for _ in deltas]
        x_d = [np.full(m, params.x0) for _ in range(len(deltas) * n_c)]
        # one frozen asset per control, shared by every delta until a
        # callable control gives each pair its own (updates never act in place)
        x_f = [np.full(m, params.x0) for _ in range(n_c)] * len(deltas)
        record(rows, 0, z, x_d, x_f)
        for k in range(n_steps):
            dw, dwz = _correlate(streams[k].standard_normal((m, 2)), params.rho, dt)
            zp = [np.maximum(zi, 0.0) for zi in z]
            sqrt_zp = [np.sqrt(v) for v in zp]
            for j, q in enumerate(controls):
                if not callable(q):
                    x_f[j::n_c] = [x_f[j] * np.exp(-0.5 * q * q * params.z0 * dt
                                                   + q * sqrt_z0 * dw)] * len(deltas)
            for i in range(len(deltas)):
                for j, c in enumerate(controls):
                    p = i * n_c + j
                    q = c
                    if callable(c):
                        q = np.broadcast_to(np.asarray(c(k * dt, x_d[p], zp[i]), float),
                                            (m,))
                        _check_band(q, params)
                        x_f[p] = x_f[p] * np.exp(-0.5 * q * q * params.z0 * dt
                                                 + q * sqrt_z0 * dw)
                    x_d[p] = x_d[p] * np.exp(-0.5 * q * q * zp[i] * dt
                                             + q * sqrt_zp[i] * dw)
            for i, dl in enumerate(deltas):
                z[i] = z[i] + dl * params.kappa * (params.theta - zp[i]) * dt \
                    + np.sqrt(dl) * sqrt_zp[i] * dwz
            record(rows, k + 1, z, x_d, x_f)


def simulate_coupled_asset(params: ModelParams, control: Control, n_steps: int,
                           n_paths: int, seed: int
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terminal states ``(z_T, x_T_moving, x_T_frozen)`` of the coupled
    asset under moving and frozen variance, each of shape (n_paths,).

    Both assets see the same Brownian increments and the same control
    path; the control is evaluated on the moving-variance state
    (t_k, X_k, Z_k). ``z_T`` is the reported (truncated, nonnegative)
    variance level.
    """
    z_T = np.empty(n_paths)
    x_d = np.empty(n_paths)
    x_f = np.empty(n_paths)

    def record(rows, k, z, xd, xf):
        if k == n_steps:
            z_T[rows] = np.maximum(z[0], 0.0)
            x_d[rows] = xd[0]
            x_f[rows] = xf[0]

    _advance_paths(params, [params.delta], [control], n_steps, n_paths, seed, record)
    return z_T, x_d, x_f


def simulate_cir(params: ModelParams, n_steps: int, n_paths: int,
                 seed: int) -> np.ndarray:
    """Full-truncation Euler paths of the variance process.

    Returns the reported (truncated, nonnegative) paths with shape
    (n_paths, n_steps + 1). At delta = 0 every path is frozen at z0.
    """
    out = np.empty((n_paths, n_steps + 1))

    def record(rows, k, z, x_d, x_f):
        out[rows, k] = np.maximum(z[0], 0.0)

    _advance_paths(params, [params.delta], [], n_steps, n_paths, seed, record)
    return out


def _terminal_gap_sq(params: ModelParams, deltas: Sequence[float],
                     controls: Sequence[Control], n_steps: int, n_paths: int,
                     seed: int) -> np.ndarray:
    """(X_T^moving - X_T^frozen)^2 of every (delta, control) pair, one row
    per pair (delta-major, as in ``_advance_paths``), without
    materializing full paths."""
    out = np.empty((len(deltas) * len(controls), n_paths))

    def record(rows, k, z, x_d, x_f):
        if k == n_steps:
            for p, (xd, xf) in enumerate(zip(x_d, x_f)):
                out[p, rows] = (xd - xf) ** 2

    _advance_paths(params, deltas, controls, n_steps, n_paths, seed, record)
    return out


def coupling_rate_study(params: ModelParams, delta_list: Sequence[float],
                        n_paths: int, seed: int,
                        controls: dict[str, Control] | None = None,
                        n_steps: int = 200) -> RateStudy:
    """Squared terminal coupling gap against delta, with a log-log fit.

    Runs every delta with the same seed (common random numbers), so the
    per-delta estimates move together and the fitted slope is steadier
    than with independent streams; all (delta, control) pairs advance
    together, each step's shocks drawn once. Controls default to the two
    constant band endpoints.
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
    if not controls:
        raise ValueError("rate study needs at least one control")

    sq = _terminal_gap_sq(params, deltas, list(controls.values()), n_steps,
                          n_paths, seed)
    fits = []
    for j, name in enumerate(controls):
        rows = sq[j::len(controls)]  # control j's row for each delta
        est = np.array([float(np.mean(r)) for r in rows])
        se = np.array([float(np.std(r, ddof=1) / np.sqrt(n_paths)) for r in rows])
        slope, intercept, slope_se, r2 = loglog_fit(deltas, est, se)
        fits.append(RateFit(control=name, deltas=deltas, estimates=est, stderrs=se,
                            slope=slope, slope_stderr=slope_se, intercept=intercept,
                            r2=r2))
    return RateStudy(fits=fits, n_paths=n_paths, n_steps=n_steps, seed=seed)
