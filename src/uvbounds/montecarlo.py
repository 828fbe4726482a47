"""Path simulation for the variance process and the coupled asset.

Only the variance process is returned as full paths (``simulate_cir``);
the coupled asset is returned at maturity only, which is all its checks
and the rate study read.

Randomness comes from one stream per step: the shocks of step k of a run
with seed s (an integer in [0, 2**64)) are drawn from an SFC64 generator
seeded by the k-th ``SeedSequence`` child of s,
``SeedSequence(s).spawn(k + 1)[k]``. Paths are advanced in chunks of
``CHUNK_PATHS``; each chunk takes its next ``(m, 2)`` normals from every
step's stream, and the chunks run in path order, so path p always reads
the p-th pair of step k's stream, exactly as a single draw of all paths
would. The draw feeding path p at step k is therefore a pure function of
(seed, p, k): runs are bitwise reproducible, the paths do not depend on
the chunk size, and one draw per step and chunk serves every
(delta, control) pair advanced together.

The streams are built from three classes, ``Generator``, ``SFC64`` and
``SeedSequence``, imported once per process (``_numpy_random``) without
the rest of ``numpy.random`` and without OpenSSL. The package init of
``numpy.random`` also loads ``mtrand``, ``_mt19937``, ``_philox`` and
``_pickle``, which no stream uses, and its ``bit_generator`` imports
``secrets`` only to bind ``randbits`` for an unseeded ``SeedSequence()``,
which no run makes: every seed is given and checked. ``secrets`` imports
``hmac``, ``hashlib`` and ``_hashlib``, which maps OpenSSL's libcrypto. In
a ``coupling-rate`` process, the ``secrets`` chain added 3.6 MiB RSS and
the four unused modules about 0.7 MiB (2-core x86-64 host, Python 3.11.7,
numpy 2.4.6). So the loader imports only ``numpy.random._generator``,
``_sfc64`` and ``bit_generator``, and the ``_common``, ``_bounded_integers``
and ``_pcg64`` they import, under two stand-ins in ``sys.modules``: a
``numpy.random`` package module made from the package's spec and never
executed, and a ``secrets`` holding only the stdlib's own
``randbits = random.SystemRandom().getrandbits``. Once that import returns
or raises, each stand-in is removed if it is still the entry, and so are
the submodules' entries. A later ``import numpy.random`` then runs the real
package init, which finds the same (Cython) module objects again, binds
each as its attribute and exports the classes the streams used; an unseeded
``SeedSequence()`` still reads OS entropy, and a later ``import secrets``
loads the real module. Where ``secrets`` or ``numpy.random`` is loaded
already (numpy 1.x loads ``numpy.random`` with numpy), the import is plain.

A run allocates its working set once, sized to one chunk, and every
chunk steps on views of it: one block holding one lane of scratch, the
variance lanes and their two sums. Each step draws once for the chunk,
then advances the lanes one at a time, each a contiguous row, so no
operation has a broadcast operand and the scratch holds one lane, not all
of them. The rate study keeps no
per-path array: each chunk's squared gaps are reduced to their count, mean
and centred sum of squares, merged in path order by the pairwise update of
Chan, Golub & LeVeque (1983). Its memory is therefore independent of the path count.
The merged moments depend on ``CHUNK_PATHS`` at round-off only (below
1e-15 relative); a run of one chunk gives bitwise ``np.mean`` and
``np.std(ddof=1)``.

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
assets: lane i is the level of delta i, carrying its two sums. The frozen
level stays at z0 exactly and is not stepped: its S_a sums sqrt(z0) dW
per path, and its S_b, z0 dt at every step, is one scalar. Every control's
moving and frozen assets come from one ``exp`` at maturity. Controls are
therefore constants in [d, u]: the coupling rate needs only the two band
endpoints.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import random
import sys
import types
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ModelParams, distinct_deltas, loglog_fit

__all__ = [
    "RateFit",
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


@functools.cache
def _numpy_random() -> tuple[type, type, type]:
    """(``Generator``, ``SFC64``, ``SeedSequence``), imported without the rest
    of ``numpy.random`` and without ``secrets`` (see the module docstring)."""
    if "numpy.random" in sys.modules or "secrets" in sys.modules:
        rnd = importlib.import_module("numpy.random")
        return rnd.Generator, rnd.SFC64, rnd.SeedSequence
    stand_ins = {"numpy.random": importlib.util.module_from_spec(
                     importlib.util.find_spec("numpy.random")),
                 "secrets": types.ModuleType("secrets")}
    stand_ins["secrets"].randbits = random.SystemRandom().getrandbits
    before = set(sys.modules)
    sys.modules.update(stand_ins)
    try:
        return (importlib.import_module("numpy.random._generator").Generator,
                importlib.import_module("numpy.random._sfc64").SFC64,
                importlib.import_module("numpy.random.bit_generator").SeedSequence)
    finally:
        # a later import finds no submodule entry, so the real package init
        # imports each again, gets the same module object and binds it
        for name in set(sys.modules) - before:
            if name.startswith("numpy.random."):
                del sys.modules[name]
        for name, stand_in in stand_ins.items():
            if sys.modules.get(name) is stand_in:
                del sys.modules[name]


def _stream(seed: int, step: int) -> np.random.Generator:
    """The shocks of step ``step``: an SFC64 generator seeded by the step-th
    ``SeedSequence`` child of ``seed``, ``SeedSequence(seed).spawn(step + 1)[step]``.

    Every chunk reads the next ``(m, 2)`` normals of each step's stream, and
    the chunks run in path order, so path p always gets the p-th pair: the
    draw is a pure function of (seed, p, step), whatever the chunk size.
    """
    generator, sfc64, seed_sequence = _numpy_random()
    return generator(sfc64(seed_sequence(seed, spawn_key=(step,))))


# Paths advanced together. A run's working set, allocated once, is one
# block of CHUNK_PATHS-wide rows: two of scratch, the n_delta lanes and
# their 2 * n_delta sums. It does not grow with the path count. On the
# benchmark's mc workload (BENCH_24.json; 2-core x86-64 host, one thread),
# 8192 paths moved wall_s by -2.2% and +1.8% over two sets of alternating
# pairs, inside host noise, for 5-6% more peak_rss_mb in every pair; 2048
# saved 1.2 MiB and ran 8% slower in-process.
CHUNK_PATHS = 4096


def _correlate(g: np.ndarray, rho: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    sq = np.sqrt(dt)
    dw = sq * g[:, 0]
    dwz = sq * (rho * g[:, 0] + np.sqrt(1.0 - rho * rho) * g[:, 1])
    return dw, dwz


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
    ``(len(deltas), m)`` array, lane i running delta i. Each lane sums the
    two parts of the asset's log-Euler exponent, S_a = sum sqrt(Z+) dW and
    S_b = sum Z+ dt (scaled by dt once, at maturity). The frozen level is
    z0 at every step, so it is not stepped: its S_a is an ``(m,)`` array
    summing sqrt(z0) dW and its S_b a scalar summing z0. Each control is a
    constant q, range-checked once before any stream is built and never
    stepped: it gives the assets of its pairs by one ``exp`` each,
    x0 * exp(q*S_a - q^2*S_b/2), read from the delta's lane (moving) and
    from the frozen sums (settled once per control and chunk).

    The run allocates its working set once, sized to the first chunk: one
    block of rows, two of scratch (``zp`` and ``sq``, one lane each), the
    lanes and their two sums; then the ``(m, 2)`` draw buffer the streams
    fill and the frozen S_a. Each chunk steps on their first m columns,
    refilled with z0 and zeros, so memory does not grow with ``n_paths``
    and no chunk allocates a lane. After
    each step's one draw, the lanes advance one at a time on their rows
    ``z[i]``, ``s_a[i]`` and ``s_b[i]``, with the lane's drift and
    volatility as scalars: no operand is broadcast, and each lane rounds as
    it did when the whole block stepped at once.

    At every time level k = 0..n_steps, ``record(rows, k, z)`` sees the
    chunk's paths ``rows`` (a slice) and the raw (untruncated) lanes,
    ``z[i]`` for delta i: a view of the working set that the next step
    overwrites, so ``record`` copies what it keeps. At maturity,
    ``terminal(rows, p, x_d, x_f)`` gets the moving and frozen assets of
    pair p = i * len(controls) + j (delta i under control j), one pair at
    a time; the chunks run in path order.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError(f"need n_steps >= 1 and n_paths >= 1 "
                         f"(got {n_steps}, {n_paths})")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64) (got {seed})")
    controls = [float(c) for c in controls]
    # NaN fails both comparisons, so non-finite values are rejected too
    if not all(params.d - 1e-12 <= c <= params.u + 1e-12 for c in controls):
        raise ValueError("control values must be finite and lie in [d, u]")
    dt = params.T / n_steps
    lane_delta = np.array(deltas, dtype=float)
    drift, vol = lane_delta * params.kappa, np.sqrt(lane_delta)
    sqrt_z0 = np.sqrt(params.z0)
    streams = [_stream(seed, k) for k in range(n_steps)]
    # the run's one working set, one block: one lane of scratch (zp, sq),
    # the lanes and their two sums. Every chunk steps on [..., :m] views of it
    n, width = len(lane_delta), min(CHUNK_PATHS, n_paths)
    work = np.empty((2 + 3 * n, width))
    g_all = np.empty((width, 2))
    s_a0_all = np.empty(width)
    for start in range(0, n_paths, CHUNK_PATHS):
        rows = slice(start, min(start + CHUNK_PATHS, n_paths))
        m = rows.stop - rows.start
        zp, sq, z, s_a, s_b = np.split(work[:, :m], [1, 2, 2 + n, 2 + 2 * n])
        zp, sq, s_a0, g = zp[0], sq[0], s_a0_all[:m], g_all[:m]
        z.fill(params.z0)
        s_a.fill(0.0)
        s_b.fill(0.0)
        s_a0.fill(0.0)
        s_b0 = 0.0  # the frozen level's sums: s_a0 and this scalar
        if record is not None:
            record(rows, 0, z)
        for k in range(n_steps):
            streams[k].standard_normal(out=g)
            dw, dwz = _correlate(g, params.rho, dt)
            for i, z_i in enumerate(z):  # lane by lane, no operand broadcast
                np.maximum(z_i, 0.0, out=zp)
                np.sqrt(zp, out=sq)
                s_b[i] += zp
                # z + delta*kappa*(theta - zp)*dt + sqrt(delta)*sqrt(zp)*dwz,
                # term by term in that order, as the scalar formula rounds
                np.subtract(params.theta, zp, out=zp)
                zp *= drift[i]
                zp *= dt
                z_i += zp
                np.multiply(sq, dw, out=zp)  # the lane's step of S_a
                s_a[i] += zp
                np.multiply(vol[i], sq, out=sq)
                sq *= dwz
                z_i += sq
            s_a0 += sqrt_z0 * dw
            s_b0 += params.z0
            if record is not None:
                record(rows, k + 1, z)
        s_b *= dt
        s_b0 *= dt
        x_f = [params.x0 * np.exp(_log_growth(c, s_a0, s_b0)) for c in controls]
        for i in range(n):
            for j, c in enumerate(controls):
                x_d = params.x0 * np.exp(_log_growth(c, s_a[i], s_b[i]))
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
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of (X_T^moving - X_T^frozen)^2 for every
    (delta, control) pair, one entry per pair (delta-major, as in
    ``_advance_paths``), in memory independent of ``n_paths``.

    Each chunk's gaps give their mean and centred sum of squares, and the
    chunks merge in path order: the first is assigned, each later one
    joins by Chan's update, M2 = M2_a + M2_b + d^2 n_a n_b / n with d the
    difference of the means.
    """
    mean = np.empty(len(deltas) * len(controls))
    m2 = np.empty_like(mean)

    def terminal(rows, p, x_d, x_f):
        gap = (x_d - x_f) ** 2
        mean_b = np.mean(gap)
        m2_b = np.sum((gap - mean_b) ** 2)
        n_a, n_b = rows.start, rows.stop - rows.start  # n_a paths merged so far
        if n_a == 0:
            mean[p], m2[p] = mean_b, m2_b
        else:
            n = n_a + n_b
            d = mean_b - mean[p]
            mean[p] = mean[p] + d * n_b / n
            m2[p] = m2[p] + m2_b + d * d * n_a * n_b / n

    _advance_paths(params, deltas, controls, n_steps, n_paths, seed,
                   terminal=terminal)
    return mean, np.sqrt(m2 / (n_paths - 1)) / np.sqrt(n_paths)


def coupling_rate_study(params: ModelParams, delta_list: Sequence[float],
                        n_paths: int, seed: int, n_steps: int = 200) -> list[RateFit]:
    """Squared terminal coupling gap against delta, with a log-log fit.

    Runs every delta with the same seed (common random numbers), so the
    per-delta estimates move together and the fitted slope is steadier
    than with independent streams; all (delta, control) pairs advance
    together, each step's shocks drawn once. The controls are the two
    constant band endpoints: returns their fits, ``const_d`` then ``const_u``.
    """
    deltas = np.asarray(distinct_deltas(params, delta_list)[::-1])  # largest first
    if n_paths < 2:
        raise ValueError(f"rate study needs n_paths >= 2 for its standard errors "
                         f"(got {n_paths})")

    controls = {"const_d": params.d, "const_u": params.u}
    mean, stderr = _terminal_gap_sq(params, deltas, list(controls.values()),
                                    n_steps, n_paths, seed)
    fits = []
    for j, name in enumerate(controls):
        est = mean[j::len(controls)]  # control j's entry for each delta
        se = stderr[j::len(controls)]
        slope, intercept, slope_se, r2 = loglog_fit(deltas, est, se)
        fits.append(RateFit(control=name, deltas=deltas, estimates=est, stderrs=se,
                            slope=slope, slope_stderr=slope_se, intercept=intercept,
                            r2=r2))
    return fits
