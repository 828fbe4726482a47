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

Under a constant control q the log-Euler asset at maturity is
x0 * exp(q*S_a - q^2*S_b/2), with S_a = sum sqrt(Z+) dW and
S_b = sum Z+ dt over the steps. So the kernel steps variance *lanes*, not
assets: lane 0 is the frozen level (delta = 0, which keeps it at z0
exactly) and lane 1 + i the level of delta i, each carrying its two sums,
and every control's moving and frozen assets come from one ``exp`` at
maturity. Controls are therefore constants in [d, u]: the coupling rate
needs only the two band endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import loglog_fit
from .core import ModelParams

__all__ = [
    "RateFit",
    "RateStudy",
    "simulate_cir",
    "simulate_coupled_asset",
    "coupling_rate_study",
]

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


# Paths advanced together. A chunk's state is six stacked (1 + n_delta, m)
# arrays: on coupling-rate (paper.cfg), 8192 paths run about 6% faster but
# peak 2.5 MiB higher, 2048 save 0.6 MiB at no gain in time. See CHANGES.md
# for the measurements behind this value.
CHUNK_PATHS = 4096


def _correlate(g: np.ndarray, rho: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    sq = np.sqrt(dt)
    dw = sq * g[:, 0]
    dwz = sq * (rho * g[:, 0] + np.sqrt(1.0 - rho * rho) * g[:, 1])
    return dw, dwz


def _check_band(q: float, params: ModelParams) -> None:
    # NaN fails both comparisons, so non-finite values are rejected too
    if not params.d - 1e-12 <= q <= params.u + 1e-12:
        raise ValueError("control values must be finite and lie in [d, u]")


def _log_growth(q, s_a, s_b):
    """The log-Euler exponent q*S_a - q^2*S_b/2 of an asset under control q,
    from S_a, the sum of sqrt(Z+)*dW, and S_b, the sum of Z+*dt."""
    return q * s_a - 0.5 * q * q * s_b


def _advance_paths(params: ModelParams, deltas: Sequence[float],
                   controls: Sequence[float], n_steps: int, n_paths: int,
                   seed: int, record: Callable | None = None,
                   terminal: Callable | None = None) -> None:
    """Step every delta's variance lane from 0 to T, ``CHUNK_PATHS`` paths
    at a time, and settle the two coupled assets of every (delta, control)
    pair at maturity.

    The one path kernel behind every simulation here; ``params`` gives
    everything but delta. A chunk's variance state is one stacked
    ``(1 + len(deltas), m)`` array: lane 0 is the frozen level (delta = 0,
    so it stays z0 exactly) and lane 1 + i runs delta i. Each lane sums
    the two parts of the asset's log-Euler exponent, S_a = sum sqrt(Z+) dW
    and S_b = sum Z+ dt (scaled by dt once, at maturity). Each control is
    a constant q, range-checked once before any stream is built and never
    stepped: it gives the assets of its pairs by one ``exp`` each,
    x0 * exp(q*S_a - q^2*S_b/2), read from the delta's lane (moving) and
    from lane 0 (frozen, settled once per control and chunk). With no
    controls, only the delta lanes step.

    At every time level k = 0..n_steps, ``record(rows, k, z)`` sees the
    chunk's paths ``rows`` (a slice) and the raw (untruncated) lanes of
    the deltas, ``z[i]`` for delta i. At maturity, ``terminal(rows, p,
    x_d, x_f)`` gets the moving and frozen assets of pair
    p = i * len(controls) + j (delta i under control j), one pair at a time.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError(f"need n_steps >= 1 and n_paths >= 1 "
                         f"(got {n_steps}, {n_paths})")
    controls = [float(c) for c in controls]
    for c in controls:
        _check_band(c, params)
    dt = params.T / n_steps
    frozen = [0.0] if controls else []  # lane 0 only settles the frozen assets
    lane_delta = np.array([*frozen, *deltas])[:, None]
    drift = lane_delta * params.kappa
    vol = np.sqrt(lane_delta)
    streams = [_stream(seed, k) for k in range(n_steps)]
    for start in range(0, n_paths, CHUNK_PATHS):
        rows = slice(start, min(start + CHUNK_PATHS, n_paths))
        m = rows.stop - rows.start
        z = np.full((len(lane_delta), m), params.z0)
        zp, sqrt_zp, tmp = np.empty_like(z), np.empty_like(z), np.empty_like(z)
        s_a, s_b = np.zeros_like(z), np.zeros_like(z)
        if record is not None:
            record(rows, 0, z[len(frozen):])
        for k in range(n_steps):
            dw, dwz = _correlate(streams[k].standard_normal((m, 2)), params.rho, dt)
            np.maximum(z, 0.0, out=zp)
            np.sqrt(zp, out=sqrt_zp)
            if controls:  # the sums only settle the controls' assets
                np.multiply(sqrt_zp, dw, out=tmp)  # each lane's step of S_a
                s_a += tmp
                s_b += zp
            # z + delta*kappa*(theta - zp)*dt + sqrt(delta)*sqrt_zp*dwz, term
            # by term in that order, so each lane rounds as the scalar formula
            np.subtract(params.theta, zp, out=tmp)
            tmp *= drift
            tmp *= dt
            z += tmp
            np.multiply(vol, sqrt_zp, out=tmp)
            tmp *= dwz
            z += tmp
            if record is not None:
                record(rows, k + 1, z[len(frozen):])
        s_b *= dt
        x_f = [params.x0 * np.exp(_log_growth(c, s_a[0], s_b[0])) for c in controls]
        for i in range(len(deltas)):
            for j, c in enumerate(controls):
                x_d = params.x0 * np.exp(_log_growth(c, s_a[1 + i], s_b[1 + i]))
                terminal(rows, i * len(controls) + j, x_d, x_f[j])


def simulate_coupled_asset(params: ModelParams, control: float, n_steps: int,
                           n_paths: int, seed: int
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terminal states ``(z_T, x_T_moving, x_T_frozen)`` of the coupled
    asset under moving and frozen variance, each of shape (n_paths,).

    Both assets see the same Brownian increments under the same constant
    control, which must lie in [d, u]. ``z_T`` is the reported (truncated,
    nonnegative) variance level.
    """
    z_T = np.empty(n_paths)
    x_d = np.empty(n_paths)
    x_f = np.empty(n_paths)

    def record(rows, k, z):
        if k == n_steps:
            z_T[rows] = np.maximum(z[0], 0.0)

    def terminal(rows, p, xd, xf):
        x_d[rows] = xd
        x_f[rows] = xf

    _advance_paths(params, [params.delta], [control], n_steps, n_paths, seed,
                   record, terminal)
    return z_T, x_d, x_f


def simulate_cir(params: ModelParams, n_steps: int, n_paths: int,
                 seed: int) -> np.ndarray:
    """Full-truncation Euler paths of the variance process.

    Returns the reported (truncated, nonnegative) paths with shape
    (n_paths, n_steps + 1). At delta = 0 every path is frozen at z0.
    """
    out = np.empty((n_paths, n_steps + 1))

    def record(rows, k, z):
        out[rows, k] = np.maximum(z[0], 0.0)

    _advance_paths(params, [params.delta], [], n_steps, n_paths, seed, record)
    return out


def _terminal_gap_sq(params: ModelParams, deltas: Sequence[float],
                     controls: Sequence[float], n_steps: int, n_paths: int,
                     seed: int) -> np.ndarray:
    """(X_T^moving - X_T^frozen)^2 of every (delta, control) pair, one row
    per pair (delta-major, as in ``_advance_paths``), without
    materializing full paths."""
    out = np.empty((len(deltas) * len(controls), n_paths))

    def terminal(rows, p, x_d, x_f):
        out[p, rows] = (x_d - x_f) ** 2

    _advance_paths(params, deltas, controls, n_steps, n_paths, seed,
                   terminal=terminal)
    return out


def coupling_rate_study(params: ModelParams, delta_list: Sequence[float],
                        n_paths: int, seed: int, n_steps: int = 200) -> RateStudy:
    """Squared terminal coupling gap against delta, with a log-log fit.

    Runs every delta with the same seed (common random numbers), so the
    per-delta estimates move together and the fitted slope is steadier
    than with independent streams; all (delta, control) pairs advance
    together, each step's shocks drawn once. The controls are the two
    constant band endpoints, fitted as ``const_d`` and ``const_u``.
    """
    deltas = np.asarray(sorted(set(float(d) for d in delta_list), reverse=True))
    if len(deltas) < 2:
        raise ValueError("rate study needs at least two distinct delta values")
    if np.any(deltas <= 0.0):
        raise ValueError("delta values must be strictly positive (log scale)")
    if n_paths < 2:
        raise ValueError(f"rate study needs n_paths >= 2 for its standard errors "
                         f"(got {n_paths})")
    for delta in deltas:
        params.replace(delta=delta)  # a delta above 1 raises here

    controls = {"const_d": params.d, "const_u": params.u}
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
