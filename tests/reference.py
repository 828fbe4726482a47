"""Reference implementations the tests compare the package against.

Not collected by pytest (no ``test_`` prefix); test modules import it as
``reference``.

* ``generator_matrix`` and ``lu_solve``: the unsplit weighted step of the
  2D equation, its 9-point matrix probed from the same values-form
  operators as the Craig-Sneyd step and solved by sparse LU. The split
  step differs from it by O(dt^2).
* ``lu_x_solver``: the x-stage's systems I - c*A1(q), one per variance
  slice, unscaled and solved by banded LU (``scipy.linalg.solve_banded``)
  from the scheme's ``k``; the package solves them in their symmetric
  scaled form.
* ``lu_z_solve``: the z-stage's system I - c*A2 on every x-row, its band
  read off the scheme's ``a2_t`` and solved by banded LU; the package
  multiplies by a dense inverse.
* ``brownian_increments``: one step's correlated shocks for all paths in
  a single draw, the unchunked form of what the Monte Carlo path kernel
  draws chunk by chunk.
* ``exponent_sum_terminals``: one (delta, control) pair's terminal states
  by the unchunked loop in the kernel's own form (log-Euler exponent
  sums, one ``exp`` at maturity), bit for bit what the kernel returns.
  ``product_terminals`` is the same scheme as a product of per-step
  ``exp`` factors; it differs from the kernel by rounding only.
* ``chunk_moments``: mean and standard error of a full row of squared
  gaps, merged block by block with the rule the rate study streams its
  chunks by, so bit for bit what the study returns.
* ``pdelta_with_controls``: a 2D solve's price at t = 0 and its per-level
  control history, recorded through ``solve_pdelta``'s ``after_substep``;
  the solver returns only the price.
* ``sqrt_delta_derivative``: D1 = (P^delta - P0)/sqrt(delta), from two 2D
  solves; P1 is the limit the paper's expansion gives it as delta -> 0.
* ``nearest_node_control``: a 2D solve's control field as the reference
  simulator's ``(t, x, z) -> q`` callable, read at the nearest grid node.
  The package's path kernel takes constant controls only.
* ``slow_scale_p1_call``: the closed-form first correction P1 of a call
  on one variance slice, at t = 0. A call is convex, so P0's control is u
  everywhere and P0 is Black-Scholes at volatility u*sqrt(z); x*d_x and
  x^2*d_xx commute with the Black-Scholes generator, so
  P1 = 1/4*rho*u^3*z*T^2 * x*d_x(x^2*d_xx C), the slow-scale correction
  of Fouque, Papanicolaou, Sircar & Solna (2011), "Multiscale Stochastic
  Volatility for Equity, Interest Rate, and Credit Derivatives", CUP.
* ``heston_call``: Heston's (1993) price of a call at zero rate, one
  ``scipy.integrate.quad`` over the characteristic function in the form of
  Albrecher, Mayer, Schoutens & Tistaert (2007), "The little Heston trap",
  Wilmott Magazine, which keeps its logarithm on the principal branch. A
  call under the worst-case control q = u is a Heston price: variance
  u^2*z, mean reversion delta*kappa to u^2*theta, vol-of-vol
  u*sqrt(delta), correlation rho. So P^delta of a call, and the order of
  P0 + sqrt(delta)*P1 in delta, have a reference with no grid.
* ``select_q_node``: the control rule at one node in scalar Python, the
  interior candidate computed on concave nodes only; the package computes
  it on every node and masks.
* ``gamma_crossings_loop``: the gamma sign crossings of a field, found by
  a per-node loop over each slice; the package finds them with one
  array comparison.
* ``write_rows_csv``: the CSV dialect written one row at a time, each cell
  through ``csvio.fmt``; the package's column writer must match its bytes.
  ``read_csv`` reads a file back as raw strings.
* ``fresh_python``: the stdout of a snippet run in a new Python process
  that imports this package (``fresh_env``), for checks of what a process
  loads, which a test session that has imported everything cannot make.
  ``RANDOM_UNUSED`` names the ``numpy.random`` modules such a process must
  not load for its Monte Carlo streams.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad

import uvbounds
from uvbounds.core import GridSpec, ModelParams, SolverConfig, Surface
from uvbounds.csvio import fmt
from uvbounds.linsolve import LinearSolveError, check_residual
from uvbounds.montecarlo import _correlate, _stream
from uvbounds.payoff import PayoffSpec
from uvbounds.solver_pdelta import _Scheme, solve_pdelta
from uvbounds.stencils import deadband


# the paper's experiment, as the built-in preset and paper.cfg give it: the
# model, the butterfly 90/100/110 and the 100 x 100 x 20 grid
PAPER_CFG = Path(__file__).resolve().parents[1] / "paper.cfg"
PARAMS = ModelParams(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                     kappa=15, theta=0.04, delta=0.05, rho=-0.9)
BF = PayoffSpec.butterfly(90, 100, 110)
GRID = GridSpec(0, 200, 100, 0, 0.12, 100, 20)


def generator_matrix(scheme: _Scheme, q: np.ndarray):
    """A(q) = A0 + A1 + A2 as a sparse matrix on the row-major flattened grid.

    Probed from the values-form operators with nine colours (i mod 3,
    j mod 3): each output node's 3x3 footprint meets exactly one node of
    each colour, so every probe yields one matrix column per node.
    """
    grid = scheme.grid
    n = grid.n_x * grid.n_z
    i = np.arange(grid.n_x)[:, None]
    j = np.arange(grid.n_z)[None, :]
    row = np.arange(n).reshape(grid.n_x, grid.n_z)
    rows, cols, vals = [], [], []
    for ci in range(3):
        for cj in range(3):
            probe = np.zeros((grid.n_x, grid.n_z))
            probe[ci::3, cj::3] = 1.0
            y = scheme.a0(q, probe) + scheme.a1(q, probe) + scheme.a2(probe)
            # the node of this colour in {i-1, i, i+1} x {j-1, j, j+1}
            col = (i + (ci - i + 1) % 3 - 1) * grid.n_z + (j + (cj - j + 1) % 3 - 1)
            hit = y != 0.0
            rows.append(row[hit])
            cols.append(col[hit])
            vals.append(y[hit])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def lu_solve(scheme: _Scheme):
    """Reference implicit step: the unsplit weighted system of ``scheme``'s
    generator, by sparse LU, with its ``lin_tol``.

    A drop-in for ``_Scheme.solve``: assigned as ``scheme.solve``, it makes
    the scheme march by it, so tests can march both and bound the splitting
    error. Of the fields ``select`` hands it, it reads only the surface
    w_next, ``fields.w``.
    """
    lin_tol = scheme.lin_tol

    def solve(q: np.ndarray, fields, dt: float, theta: float) -> np.ndarray:
        gen = generator_matrix(scheme, q)
        w_next = fields.w
        flat = w_next.ravel()
        rhs = flat + (1.0 - theta) * dt * (gen @ flat)
        a = sp.csc_matrix(sp.identity(len(flat)) - theta * dt * gen)
        try:
            x = spla.splu(a).solve(rhs)
        except RuntimeError as exc:  # exactly singular factor
            raise LinearSolveError(f"sparse LU failed: {exc}") from exc
        check_residual(a @ x - rhs, rhs, lin_tol, "sparse LU", x, spla.norm(a, np.inf))
        return x.reshape(w_next.shape)

    return solve


def lu_x_solver(scheme: _Scheme, q: np.ndarray, c: float):
    """A drop-in for ``_Scheme.x_solver``: rhs -> (I - c*A1(q))^-1 rhs by banded LU.

    Row i of I - c*A1(q) is (-c*a, 1 + 2*c*a, -c*a) with a = 0.5*q^2*k, on
    the flat grid slice after slice; k is zero at the ends of every slice,
    so no row couples two slices.
    """
    n_x, n_z, lin_tol = scheme.grid.n_x, scheme.grid.n_z, scheme.lin_tol
    nca = -c * 0.5 * (q * q).T.ravel() * scheme.k
    ab = np.zeros((3, nca.size))
    ab[0, 1:] = nca[:-1]  # row i's coupling to i + 1, by the column it sits in
    ab[1] = 1.0 - 2.0 * nca
    ab[2, :-1] = nca[1:]  # row i + 1's coupling to i
    a_norm = 1.0 - 4.0 * nca.min()  # row i is (nca, 1 - 2*nca, nca), nca <= 0

    def solve(rhs: np.ndarray) -> np.ndarray:
        b = rhs.T.ravel()
        x = sla.solve_banded((1, 1), ab, b)
        resid = ab[1] * x - b
        resid[:-1] += ab[0, 1:] * x[1:]
        resid[1:] += ab[2, :-1] * x[:-1]
        check_residual(resid, b, lin_tol, "banded LU x-stage", x, a_norm)
        return x.reshape(n_z, n_x).T.copy()

    return solve


def lu_z_solve(scheme: _Scheme, c: float, rhs: np.ndarray) -> np.ndarray:
    """(I - c*A2)^-1 along every x-row of rhs, by banded LU; A2 = a2_t^T."""
    a2 = scheme.a2_t.T
    ab = np.zeros((3, scheme.grid.n_z))
    ab[0, 1:] = -c * np.diagonal(a2, 1)  # row i's coupling to i + 1, by the column it sits in
    ab[1] = 1.0 - c * np.diagonal(a2)
    ab[2, :-1] = -c * np.diagonal(a2, -1)  # row i + 1's coupling to i
    return sla.solve_banded((1, 1), ab, rhs.T).T


def brownian_increments(seed: int, step: int, n_paths: int, rho: float,
                        dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Correlated increment pair (dW, dW_z) for one time step.

    dW drives the asset, dW_z the variance process; corr(dW, dW_z) = rho.
    Path p consumes the step-block's draws 2p and 2p+1, so its increments
    do not depend on how many paths the run asked for.
    """
    return _correlate(_stream(seed, step).standard_normal((n_paths, 2)), rho, dt)


def exponent_sum_terminals(params: ModelParams, control, n_steps: int,
                           n_paths: int, seed: int):
    """(z_T, x_T_moving, x_T_frozen) of one pair, all paths in one block.

    S_a = sum sqrt(Z+) dW and S_b = sum Z+ of each variance level give a
    constant control's asset as x0 * exp(q*S_a - q^2*S_b*dt/2); a callable
    control's exponent is summed step by step, and the callable sees
    x0 * exp(exponent).
    """
    dt = params.T / n_steps
    z = np.full(n_paths, params.z0)
    s_a, s_b = np.zeros(n_paths), np.zeros(n_paths)
    s_a_f, s_b_f = np.zeros(n_paths), np.zeros(n_paths)
    e_d, e_f = np.zeros(n_paths), np.zeros(n_paths)
    for k in range(n_steps):
        zp = np.maximum(z, 0.0)
        dw, dwz = brownian_increments(seed, k, n_paths, params.rho, dt)
        a, a_f = np.sqrt(zp) * dw, np.sqrt(params.z0) * dw
        if callable(control):
            q = np.broadcast_to(np.asarray(
                control(k * dt, params.x0 * np.exp(e_d), zp), float), z.shape)
            e_d = e_d + (q * a - 0.5 * q * q * (zp * dt))
            e_f = e_f + (q * a_f - 0.5 * q * q * (params.z0 * dt))
        s_a, s_b = s_a + a, s_b + zp
        s_a_f, s_b_f = s_a_f + a_f, s_b_f + params.z0
        z = z + params.delta * params.kappa * (params.theta - zp) * dt \
            + np.sqrt(params.delta) * np.sqrt(zp) * dwz
    if not callable(control):
        q = float(control)
        e_d = q * s_a - 0.5 * q * q * (s_b * dt)
        e_f = q * s_a_f - 0.5 * q * q * (s_b_f * dt)
    return np.maximum(z, 0.0), params.x0 * np.exp(e_d), params.x0 * np.exp(e_f)


def product_terminals(params: ModelParams, control, n_steps: int, n_paths: int,
                      seed: int):
    """The same terminal states as a product of one ``exp`` factor per step."""
    dt = params.T / n_steps
    z = np.full(n_paths, params.z0)
    x_d = np.full(n_paths, params.x0)
    x_f = np.full(n_paths, params.x0)
    for k in range(n_steps):
        zp = np.maximum(z, 0.0)
        dw, dwz = brownian_increments(seed, k, n_paths, params.rho, dt)
        q = control(k * dt, x_d, zp) if callable(control) else control
        q = np.broadcast_to(np.asarray(q, float), x_d.shape)
        x_d = x_d * np.exp(-0.5 * q * q * zp * dt + q * np.sqrt(zp) * dw)
        x_f = x_f * np.exp(-0.5 * q * q * params.z0 * dt + q * np.sqrt(params.z0) * dw)
        z = z + params.delta * params.kappa * (params.theta - zp) * dt \
            + np.sqrt(params.delta) * np.sqrt(zp) * dwz
    return np.maximum(z, 0.0), x_d, x_f


def chunk_moments(gaps: np.ndarray, chunk: int) -> tuple[float, float]:
    """(mean, stderr) of ``gaps`` from its blocks of ``chunk`` entries: each
    block's mean and centred sum of squares, the first block taken as is
    and each later one merged by Chan's pairwise update."""
    n_a, mean, m2 = 0, 0.0, 0.0
    for start in range(0, len(gaps), chunk):
        block = gaps[start:start + chunk]
        n_b = len(block)
        mean_b = np.mean(block)
        m2_b = np.sum((block - mean_b) ** 2)
        if n_a == 0:
            mean, m2 = mean_b, m2_b
        else:
            n = n_a + n_b
            d = mean_b - mean
            mean = mean + d * n_b / n
            m2 = m2 + m2_b + d * d * n_a * n_b / n
        n_a += n_b
    return float(mean), float(np.sqrt(m2 / (n_a - 1)) / np.sqrt(n_a))


def pdelta_with_controls(payoff: PayoffSpec, params: ModelParams, grid: GridSpec,
                         config: SolverConfig | None = None) -> tuple[Surface, np.ndarray]:
    """``solve_pdelta``'s price and its read-only (n_t, n_x, n_z) control history:
    ``q_hist[n]`` is the control stepping into time level n, the last
    sub-step into a level winning."""
    q_hist = np.empty((grid.n_t, grid.n_x, grid.n_z))

    def record(n, q, w_new, w_next, dt, theta):
        q_hist[n] = q

    p_delta = solve_pdelta(payoff, params, grid, config, after_substep=record)
    q_hist.setflags(write=False)
    return p_delta, q_hist


def sqrt_delta_derivative(payoff: PayoffSpec, params: ModelParams, grid: GridSpec,
                          config: SolverConfig | None, delta: float) -> np.ndarray:
    """D1 = (P^delta - P0)/sqrt(delta) at t = 0, both by ``solve_pdelta``,
    P0 at delta = 0: the difference quotient of the 2D price in sqrt(delta)
    at 0, which tends to the scheme's first-order term as delta -> 0."""
    p0 = solve_pdelta(payoff, params.replace(delta=0.0), grid, config).values
    p_delta = solve_pdelta(payoff, params.replace(delta=delta), grid, config).values
    return (p_delta - p0) / np.sqrt(delta)


def nearest_node_control(q_hist: np.ndarray, grid: GridSpec, T: float):
    """The control ``q_hist[n]`` of time step [t_n, t_n+1), read at the
    grid node nearest to each path's (x, z); off-grid states are clamped.
    The callable is the reference simulator's (``exponent_sum_terminals``,
    ``product_terminals``), not the package kernel's."""
    dt = grid.dt(T)
    dz = grid.dz or 1.0  # one slice: every z rounds to node 0

    def control(t: float, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        n = min(int(t / dt), grid.n_t - 1)
        i = np.clip(np.rint((x - grid.x_min) / grid.dx), 0, grid.n_x - 1).astype(int)
        j = np.clip(np.rint((z - grid.z_min) / dz), 0, grid.n_z - 1).astype(int)
        return q_hist[n][i, j]

    return control


def select_q_node(lxx: float, lxz: float, params: ModelParams, gamma_eps: float) -> float:
    """The control at one node, by branches: the better endpoint, ties to u,
    unless the quadratic is concave and its stationary point in [d, u]
    is strictly better than both endpoints. Both coefficients,
    a = lxx and b = rho*sqrt(delta)*lxz, are zero below the deadband."""
    a = 0.0 if abs(lxx) < gamma_eps else lxx
    b = params.rho * math.sqrt(params.delta) * lxz
    b = 0.0 if abs(b) < gamma_eps else b
    d, u = params.d, params.u
    f_u = 0.5 * u * u * a + u * b
    f_d = 0.5 * d * d * a + d * b
    q = u if f_u >= f_d else d
    if a <= -gamma_eps:
        q_hat = -b / a
        if d <= q_hat <= u and -b * b / (2.0 * a) > max(f_u, f_d):
            q = q_hat
    return q


def gamma_crossings_loop(g0: np.ndarray, grid: GridSpec, gamma_eps: float) -> list[list[float]]:
    """Sign crossings of the gamma field ``g0`` per z-slice: between x-nodes
    i and i + 1, for i in [1, n_x - 3], interpolated where both values
    clear the deadband, else at the cell midpoint."""
    b0 = deadband(g0, gamma_eps) >= 0.0
    x = grid.x_nodes()
    dx = grid.dx
    crossings: list[list[float]] = []
    for j in range(grid.n_z):
        locs: list[float] = []
        for i in range(1, grid.n_x - 2):
            if b0[i, j] != b0[i + 1, j]:
                gi, gi1 = g0[i, j], g0[i + 1, j]
                if abs(gi) >= gamma_eps and abs(gi1) >= gamma_eps:
                    locs.append(float(x[i] + dx * gi / (gi - gi1)))
                else:
                    locs.append(float(x[i] + 0.5 * dx))
        crossings.append(locs)
    return crossings


def slow_scale_p1_call(spot, strike: float, u: float, z: float, T: float, rho: float):
    """P1 at t = 0 of a call on slice z, zero rate: with v = u^2*z*T,
    1/4*rho*u^3*z*T^2 * x*phi(d1)/sqrt(v) * (1 - d1/sqrt(v))."""
    x = np.asarray(spot, dtype=float)
    sv = np.sqrt(u * u * z * T)
    d1 = (np.log(x / strike) + 0.5 * sv * sv) / sv
    phi = np.exp(-0.5 * d1 * d1) / np.sqrt(2.0 * np.pi)
    return 0.25 * rho * u ** 3 * z * T * T * x * phi / sv * (1.0 - d1 / sv)


def heston_call(spot: float, strike: float, T: float, v0: float, kappa: float,
                theta: float, sigma: float, rho: float) -> float:
    """Heston's call price at zero rate: variance v0 at t = 0, mean reversion
    kappa to theta, vol-of-vol sigma, correlation rho with the asset.

    With f the characteristic function of log S_T,
    C = (S - K)/2 + 1/pi * int_0^inf Re[K^-iw (f(w - i) - K f(w)) / (iw)] dw.
    """
    log_spot, log_strike = math.log(spot), math.log(strike)

    def char_fn(w):
        a = kappa - rho * sigma * 1j * w
        d = np.sqrt(a * a + sigma * sigma * (1j * w + w * w))
        # the little Heston trap: a - d, not a + d, in g and in the exponent
        g = (a - d) / (a + d)
        decay = np.exp(-d * T)
        c = kappa * theta / sigma ** 2 * ((a - d) * T
                                          - 2.0 * np.log((1.0 - g * decay) / (1.0 - g)))
        dv = (a - d) / sigma ** 2 * (1.0 - decay) / (1.0 - g * decay)
        return np.exp(1j * w * log_spot + c + dv * v0)

    def integrand(w):
        return (np.exp(-1j * w * log_strike) * (char_fn(w - 1j) - strike * char_fn(w))
                / (1j * w)).real

    value, _ = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=500)
    return 0.5 * (spot - strike) + value / math.pi


def worst_case_call(params, strike: float) -> float:
    """P^delta at (x0, z0) of a call, with no grid: the call is convex, so
    q = u and the price is Heston's with v0 = u^2*z0, mean reversion
    delta*kappa, level u^2*theta and vol-of-vol u*sqrt(delta)."""
    p = params
    return heston_call(p.x0, strike, p.T, p.u ** 2 * p.z0, p.delta * p.kappa,
                       p.u ** 2 * p.theta, p.u * math.sqrt(p.delta), p.rho)


def write_rows_csv(path, header, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a CSV file, every cell a raw string."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


# numpy.random's package and the modules of it that no Monte Carlo stream
# draws from: the streams' loader leaves none of them loaded
RANDOM_UNUSED = ("numpy.random", "numpy.random.mtrand", "numpy.random._mt19937",
                 "numpy.random._philox", "numpy.random._pickle")


def fresh_env() -> dict:
    """The environment of a new process that imports this package."""
    src = str(Path(uvbounds.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def fresh_python(code: str, *args: str) -> str:
    """The stdout of ``python -c code args`` in a new process that imports this package."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
