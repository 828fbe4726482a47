"""Command-line entry point.

One subcommand per process; every run writes its CSV outputs plus a
``manifest.json`` holding the fully resolved configuration, versions,
seed and timings, so any run can be reproduced from its manifest alone.

Parsing, configuration and dispatch load only the value types; each
subcommand imports the stack it runs when it runs. So the Monte Carlo
commands never load the PDE solvers, nor the PDE commands the path
simulation, and no command runs scipy's package init.

Exit codes: 0 success, 2 configuration problems (including bad arguments),
3 solver failures, 4 I/O failures. Failures leave a machine-readable
``error.json`` in the output directory when it is writable.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import SCHEMA, RunSettings, load_config, settings_to_flat_dict
from .core import SolverError
from .csvio import surface_to_csv, write_csv
from .linsolve import lapack_name, scipy_version
from .payoff import KINDS

__all__ = ["run", "main"]

_CONFIG_HELP = (
    "configuration keys (INI sections; see also paper.cfg):\n"
    + "".join(f"  [{sec}] {' '.join(keys)}\n" for sec, keys in SCHEMA.items())
    + "payoff kinds (payoff.kind) and the [payoff] keys each reads:\n"
    + "".join(f"  {kind}: {' '.join(keys)}\n" for kind, (keys, _) in KINDS.items()))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uvbounds",
        description="Worst-case option pricing under uncertain volatility "
                    "with slowly varying stochastic bounds.",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="configuration file (defaults to the built-in preset)")
        p.add_argument("--out", default="out", metavar="DIR",
                       help="output directory for CSVs and the manifest")
        p.add_argument("--seed", type=int, default=20240, metavar="U64",
                       help="seed for Monte Carlo subcommands")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="accepted and recorded in the manifest; has no effect")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override a config key (repeatable)")
        if name == "solve-pdelta":
            p.add_argument("--export-controls", action="store_true",
                           help="also write the per-level control field CSV")
    return parser


def run(argv) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    out_dir = Path(args.out)
    try:
        settings = load_config(args.config, args.overrides)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        results, outputs = _DISPATCH[args.command](settings, out_dir, args)
        elapsed = time.perf_counter() - started
        manifest = {
            "subcommand": args.command,
            "argv": list(argv),
            "seed": args.seed,
            "threads": args.threads,
            "config": settings_to_flat_dict(settings),
            "versions": {
                "uvbounds": __version__,
                "numpy": np.__version__,
                "scipy": scipy_version(),
                "lapack": lapack_name(),
                "python": platform.python_version(),
            },
            "timings_s": {"total": elapsed},
            "outputs": outputs,
            "results": _finite_or_null(results),
        }
        with (out_dir / "manifest.json").open("w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    # the exit-code contract, stated once (see the module docstring)
    except SolverError as exc:  # a linear solve's failure included
        return _fail(out_dir, 3, exc)
    except ValueError as exc:  # ConfigError, invalid parameters or preconditions
        return _fail(out_dir, 2, exc)
    except OSError as exc:  # an output directory that cannot be made included
        return _fail(out_dir, 4, exc)
    return 0


def _finite_or_null(results: dict) -> dict:
    """Map non-finite float results to None, so the manifest stays strict JSON."""
    out = dict(results)
    for key, value in results.items():
        if isinstance(value, float) and not math.isfinite(value):
            print(f"warning: result {key} is {value}; written as null", file=sys.stderr)
            out[key] = None
    return out


def _fail(out_dir: Path, code: int, exc: Exception) -> int:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(f"error: {exc}", file=sys.stderr)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "error.json").open("w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    except OSError:
        pass  # error reporting must not mask the original failure
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


# -- subcommand bodies --------------------------------------------------------
# Each body imports the stack it runs (see the module docstring).

def _solve_p0(settings: RunSettings):
    """P0 alone: the 2D price at delta = 0, bitwise the P0 of ``solve_p0p1``
    without the P1 sub-steps that would be discarded."""
    from .solver_pdelta import solve_pdelta

    return solve_pdelta(settings.payoff, settings.model.replace(delta=0.0),
                        settings.grid, settings.solver)


def _cmd_solve_p0(settings: RunSettings, out: Path, args):
    p0 = _solve_p0(settings)
    surface_to_csv(p0, out / "p0_surface.csv")
    probe = p0.value_at(settings.model.x0, settings.model.z0)
    return {"p0_at_x0_z0": probe}, ["p0_surface.csv"]


def _cmd_solve_p1(settings: RunSettings, out: Path, args):
    from .solver_pdelta import solve_p0p1

    p0, p1 = solve_p0p1(settings.payoff, settings.model, settings.grid, settings.solver)
    surface_to_csv(p0, out / "p0_surface.csv")
    surface_to_csv(p1, out / "p1_surface.csv")
    probe = p1.value_at(settings.model.x0, settings.model.z0)
    return {"p1_at_x0_z0": probe}, ["p0_surface.csv", "p1_surface.csv"]


def _cmd_solve_pdelta(settings: RunSettings, out: Path, args):
    from .solver_pdelta import TAG_C, TAG_NAMES, candidate_tags, solve_pdelta

    grid = settings.grid
    export = getattr(args, "export_controls", False)
    q_hist = np.empty((grid.n_t, grid.n_x, grid.n_z)) if export else None
    interior = np.zeros(grid.n_t, dtype=np.int64)

    def record(n, q, w_new, w_next, dt, theta):
        # the last sub-step into level n wins
        interior[n] = np.count_nonzero(candidate_tags(q, settings.model) == TAG_C)
        if export:
            q_hist[n] = q

    p_delta = solve_pdelta(settings.payoff, settings.model, grid, settings.solver,
                           after_substep=record)
    surface_to_csv(p_delta, out / "pdelta_surface.csv")
    outputs = ["pdelta_surface.csv"]
    if export:
        level, i, j = np.indices(q_hist.shape).reshape(3, -1)
        write_csv(out / "pdelta_controls.csv", ["level", "x", "z", "q", "tag"],
                  [level, grid.x_nodes()[i], grid.z_nodes()[j], q_hist.ravel(),
                   np.asarray(TAG_NAMES)[candidate_tags(q_hist, settings.model).ravel()]])
        outputs.append("pdelta_controls.csv")
    probe = p_delta.value_at(settings.model.x0, settings.model.z0)
    fraction = float(interior.sum() / (grid.n_t * grid.n_x * grid.n_z))
    return {"pdelta_at_x0_z0": probe, "interior_tag_fraction": fraction}, outputs


def _cmd_compare_bs(settings: RunSettings, out: Path, args):
    from .analysis import compare_bs

    settings.payoff.decomposition()  # a payoff with no Black-Scholes price fails before the solve
    p0 = _solve_p0(settings)
    cmp_ = compare_bs(p0, settings.payoff, settings.model)
    write_csv(out / "compare_bs.csv", ["x", "p0", "bs_low", "bs_high", "dominated"],
              [cmp_.x, cmp_.p0, cmp_.bs_low, cmp_.bs_high, cmp_.dominated.astype(int)])
    return {"vol_low": cmp_.vol_low, "vol_high": cmp_.vol_high,
            "all_dominated": bool(np.all(cmp_.dominated))}, ["compare_bs.csv"]


def _cmd_sweep_error(settings: RunSettings, out: Path, args):
    from .analysis import error_sweep

    report = error_sweep(settings.payoff, settings.model, settings.sweep_deltas,
                         settings.grid, settings.solver, window=settings.window)
    fields = ["delta", "error", "error_full", "sup_x", "sup_z", "runtime_s", "undershoot"]
    write_csv(out / "sweep.csv", fields,
              [[getattr(r, name) for r in report.records] for name in fields])
    write_csv(out / "sweep_fit.csv",
              ["slope", "intercept", "r2", "n_fit", "window_x_min", "window_x_max"],
              [[report.slope], [report.intercept], [report.r2], [report.n_fit],
               [report.window[0]], [report.window[1]]])
    return {"slope": report.slope, "r2": report.r2,
            "n_fit": report.n_fit}, ["sweep.csv", "sweep_fit.csv"]


def _cmd_simulate_bounds(settings: RunSettings, out: Path, args):
    from .montecarlo import simulate_cir

    m = settings.model
    z = simulate_cir(m, settings.mc_n_steps, settings.mc_n_bound_paths, args.seed)
    times = np.arange(settings.mc_n_steps + 1) * (m.T / settings.mc_n_steps)
    path_id, k = np.indices(z.shape).reshape(2, -1)
    vol = np.sqrt(z.ravel())
    write_csv(out / "bounds_paths.csv",
              ["time", "path_id", "z", "lower_bound", "upper_bound"],
              [times[k], path_id, z.ravel(), m.d * vol, m.u * vol])
    return {"n_paths": int(z.shape[0])}, ["bounds_paths.csv"]


def _cmd_coupling_rate(settings: RunSettings, out: Path, args):
    from .montecarlo import coupling_rate_study

    fits = coupling_rate_study(settings.model, settings.mc_rate_deltas,
                               settings.mc_n_paths, args.seed,
                               n_steps=settings.mc_n_steps)
    write_csv(out / "rate.csv", ["control", "delta", "estimate", "stderr"],
              [np.repeat([f.control for f in fits], [len(f.deltas) for f in fits]),
               np.concatenate([f.deltas for f in fits]),
               np.concatenate([f.estimates for f in fits]),
               np.concatenate([f.stderrs for f in fits])])
    fields = ["control", "slope", "slope_stderr", "intercept", "r2"]
    write_csv(out / "rate_fit.csv", fields,
              [[getattr(f, name) for f in fits] for name in fields])
    return {f.control: f.slope for f in fits}, ["rate.csv", "rate_fit.csv"]


def _cmd_gamma_diag(settings: RunSettings, out: Path, args):
    from .analysis import gamma_diagnostics
    from .solver_pdelta import solve_pdelta

    p0 = _solve_p0(settings)
    p_delta = solve_pdelta(settings.payoff, settings.model, settings.grid, settings.solver)
    diag = gamma_diagnostics(p0, p_delta, settings.solver.resolve_gamma_eps(settings.model))
    write_csv(out / "gamma_crossings.csv", ["z", "crossing_x"],
              [np.repeat(diag.z_values, [len(locs) for locs in diag.crossings]),
               [loc for locs in diag.crossings for loc in locs]])
    write_csv(out / "gamma_mismatch.csv", ["z", "mismatch_width", "n_nodes"],
              [diag.z_values, diag.mismatch_width, diag.mismatch_mask.sum(axis=0)])
    z0_cross = diag.crossings_at(settings.model.z0)
    return {"n_crossings_at_z0": len(z0_cross),
            "mismatch_width_at_z0": diag.width_at(settings.model.z0)}, \
        ["gamma_crossings.csv", "gamma_mismatch.csv"]


_DISPATCH = {
    "solve-p0": _cmd_solve_p0,
    "solve-p1": _cmd_solve_p1,
    "solve-pdelta": _cmd_solve_pdelta,
    "sweep-error": _cmd_sweep_error,
    "simulate-bounds": _cmd_simulate_bounds,
    "coupling-rate": _cmd_coupling_rate,
    "compare-bs": _cmd_compare_bs,
    "gamma-diag": _cmd_gamma_diag,
}


if __name__ == "__main__":
    main()
