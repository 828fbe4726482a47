import dataclasses
import json
import re
import subprocess
import sys
import warnings
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as hst

# analysis is imported here, before any test patches a solve it binds by name
from uvbounds import analysis, cli, linsolve, montecarlo, solver_pdelta
from uvbounds.cli import run
from uvbounds.config import SCHEMA
from uvbounds.core import SolverError
from uvbounds.payoff import KINDS
from reference import (PAPER_CFG, RANDOM_UNUSED, fresh_env, fresh_python, lu_x_solver,
                       read_csv)

# paper.cfg on a 40 x 10 x 4 grid, with a 5-step, 200-path Monte Carlo
SMALL_ARGS = ["--config", str(PAPER_CFG), *(
    "--set grid.n_x=40 --set grid.n_z=10 --set grid.n_t=4 "
    "--set mc.n_steps=5 --set mc.n_paths=200 --set mc.n_bound_paths=3").split()]

SMALL_CFG = """
[grid]
n_x = 40
n_z = 10
n_t = 4

[sweep]
deltas = 0.02,0.04

[mc]
n_paths = 2000
n_steps = 50
rate_deltas = 0.01,0.02,0.04
n_bound_paths = 3
"""

# one call's P0 on a 3000 x 5 grid, where the x-stage's ‖I - c*A1‖∞ is 1.7e6
STIFF_X = ["model.T=1", "grid.n_t=1", "grid.n_x=3000", "grid.x_max=300", "grid.n_z=5",
           "payoff.kind=call", "payoff.strike=100"]


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def strict_json(path):
    """Load a JSON file, rejecting the non-standard NaN and Infinity constants."""
    def reject(name):
        raise ValueError(f"{path.name} holds non-JSON constant {name}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def sets(*kvs):
    """The ``--set`` arguments of the overrides ``kvs``."""
    return [arg for kv in kvs for arg in ("--set", kv)]


def test_solve_p0_writes_surface_and_manifest(tmp_path, cfg):
    out = tmp_path / "run"
    assert run(["solve-p0", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "p0_surface.csv")
    assert header[0] == "x" and len(header) == 1 + 10
    assert len(rows) == 40
    m = manifest(out)
    assert m["subcommand"] == "solve-p0"
    assert m["config"]["grid.n_x"] == "40"
    assert "p0_at_x0_z0" in m["results"]


def test_solve_p1_writes_both_surfaces(tmp_path, cfg):
    out = tmp_path / "run"
    assert run(["solve-p1", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "p0_surface.csv").exists()
    assert (out / "p1_surface.csv").exists()
    # solve-p0 takes P0 from the 2D solve at delta = 0, solve-p1 from its
    # own march: the same bytes
    assert run(["solve-p0", "--config", cfg, "--out", str(tmp_path / "p0")]) == 0
    assert (tmp_path / "p0" / "p0_surface.csv").read_bytes() == \
        (out / "p0_surface.csv").read_bytes()
    # on one variance slice the correction is still there
    one = tmp_path / "one_slice"
    assert run(["solve-p1", "--config", cfg, "--out", str(one), "--set", "grid.n_z=1",
                "--set", "grid.z_min=0.04", "--set", "grid.z_max=0.04"]) == 0
    assert manifest(one)["results"]["p1_at_x0_z0"] != 0.0


def test_solve_pdelta_with_control_export(tmp_path, cfg):
    out = tmp_path / "run"
    code = run(["solve-pdelta", "--config", cfg, "--out", str(out),
                "--export-controls"])
    assert code == 0
    header, rows = read_csv(out / "pdelta_controls.csv")
    assert header == ["level", "x", "z", "q", "tag"]
    assert len(rows) == 4 * 40 * 10
    assert {r[4] for r in rows} <= {"A", "B", "C"}


def test_exported_tags_are_read_off_the_exported_control(tmp_path, cfg):
    # rho != 0, so some nodes take the interior candidate: each row's tag is
    # A iff q == u, B iff q == d and C iff d < q < u, and the manifest's
    # interior fraction is the share of C rows
    out = tmp_path / "run"
    assert run(["solve-pdelta", "--config", cfg, "--out", str(out), "--export-controls",
                "--set", "model.rho=-0.9"]) == 0
    _, rows = read_csv(out / "pdelta_controls.csv")
    m = manifest(out)
    d, u = float(m["config"]["model.d"]), float(m["config"]["model.u"])
    q = np.array([float(r[3]) for r in rows])
    tag = np.array([r[4] for r in rows])
    np.testing.assert_array_equal(tag == "A", q == u)
    np.testing.assert_array_equal(tag == "B", q == d)
    np.testing.assert_array_equal(tag == "C", (d < q) & (q < u))
    assert np.any(tag == "C")
    assert m["results"]["interior_tag_fraction"] == np.mean(tag == "C")


def test_interior_tag_fraction_does_not_depend_on_the_export(tmp_path, cfg):
    # the CLI counts each level's interior nodes on the solver's hook whether
    # or not it also records the controls for the export
    fractions = []
    for export in ([], ["--export-controls"]):
        out = tmp_path / f"run{len(export)}"
        assert run(["solve-pdelta", "--config", cfg, "--out", str(out),
                    "--set", "model.rho=-0.9", *export]) == 0
        fractions.append(manifest(out)["results"]["interior_tag_fraction"])
    assert fractions[0] > 0.0
    assert fractions[0].hex() == fractions[1].hex()


def test_time_change_z_to_4z_leaves_pdelta_bit_for_bit(tmp_path):
    # z0, theta and z_max times 4, kappa and T over 4, delta and gamma_eps
    # times 16 and 4: the same model, and on the paper grid the same bytes,
    # the controls included but for their z column
    sides = {"z1": ["solver.gamma_eps=1e-5"],
             "z4": ["solver.gamma_eps=4e-5", "model.z0=0.16", "model.theta=0.16",
                    "model.kappa=3.75", "model.delta=0.8", "model.T=0.0625",
                    "grid.z_max=0.48"]}
    for side, overrides in sides.items():
        assert run(["solve-pdelta", "--config", str(PAPER_CFG), "--export-controls",
                    "--out", str(tmp_path / side), *sets(*overrides)]) == 0

    def text(side, name):
        return (tmp_path / side / name).read_text()

    # compared as lists of rows, whose mismatch pytest reports at once
    z1, z4 = (text(side, "pdelta_surface.csv").splitlines()[1:] for side in sides)
    assert z1 == z4
    # each row is level,x,z,q,tag
    z1, z4 = (re.sub(r"^([^,]*,[^,]*),[^,]*", r"\1", text(side, "pdelta_controls.csv"),
                     flags=re.M).splitlines() for side in sides)
    assert z1 == z4


def test_sweep_error_row_count_and_fit(tmp_path, cfg):
    out = tmp_path / "run"
    assert run(["sweep-error", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2
    _, fit = read_csv(out / "sweep_fit.csv")
    assert len(fit) == 1
    assert "slope" in manifest(out)["results"]


def test_sweep_error_threads_flag_is_accepted_and_has_no_effect(tmp_path, cfg):
    outs = {n: tmp_path / f"threads{n}" for n in (1, 3)}
    for n, out in outs.items():
        assert run(["sweep-error", "--config", cfg, "--threads", str(n),
                    "--out", str(out)]) == 0
        assert manifest(out)["threads"] == n
    header, rows1 = read_csv(outs[1] / "sweep.csv")
    _, rows3 = read_csv(outs[3] / "sweep.csv")
    keep = [k for k, name in enumerate(header) if name != "runtime_s"]
    assert len(keep) == len(header) - 1
    assert [[r[k] for k in keep] for r in rows1] == [[r[k] for k in keep] for r in rows3]
    assert (outs[1] / "sweep_fit.csv").read_bytes() == (outs[3] / "sweep_fit.csv").read_bytes()


def test_compare_bs_reproducible_from_config(tmp_path, cfg):
    payoffs = {"butterfly": [], "put": ["payoff.kind=put", "payoff.strike=100"],
               "capped_linear": ["payoff.kind=capped_linear", "payoff.cap=100"]}
    for name, kvs in payoffs.items():
        overrides = sets(*kvs)
        out1, out2 = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert run(["compare-bs", "--config", cfg, "--out", str(out1), *overrides]) == 0
        assert run(["compare-bs", "--config", cfg, "--out", str(out2), *overrides]) == 0
        assert (out1 / "compare_bs.csv").read_bytes() == (out2 / "compare_bs.csv").read_bytes()


def test_coupling_rate_seeded_csv_bitwise(tmp_path, cfg):
    # one chunk of paths, and three chunks, the last one short
    for n_paths in (2000, 2 * montecarlo.CHUNK_PATHS + 5):
        out1, out2 = tmp_path / f"a{n_paths}", tmp_path / f"b{n_paths}"
        for out in (out1, out2):
            assert run(["coupling-rate", "--config", cfg, "--out", str(out),
                        "--seed", "99", "--set", f"mc.n_paths={n_paths}"]) == 0
        assert (out1 / "rate.csv").read_bytes() == (out2 / "rate.csv").read_bytes()
        assert (out1 / "rate_fit.csv").read_bytes() == (out2 / "rate_fit.csv").read_bytes()
    # a different seed must change the estimates
    out1, out3 = tmp_path / "a2000", tmp_path / "c"
    assert run(["coupling-rate", "--config", cfg, "--out", str(out3),
                "--seed", "100"]) == 0
    assert (out1 / "rate.csv").read_bytes() != (out3 / "rate.csv").read_bytes()


def test_simulate_bounds_long_format(tmp_path, cfg):
    out = tmp_path / "run"
    assert run(["simulate-bounds", "--config", cfg, "--out", str(out),
                "--seed", "7"]) == 0
    header, rows = read_csv(out / "bounds_paths.csv")
    assert header == ["time", "path_id", "z", "lower_bound", "upper_bound"]
    assert len(rows) == 3 * 51
    for r in rows[:5]:
        z, lo, hi = float(r[2]), float(r[3]), float(r[4])
        assert lo == pytest.approx(0.75 * z**0.5)
        assert hi == pytest.approx(1.25 * z**0.5)
    # the same seed gives the same bytes
    again = tmp_path / "again"
    assert run(["simulate-bounds", "--config", cfg, "--out", str(again),
                "--seed", "7"]) == 0
    assert (again / "bounds_paths.csv").read_bytes() == (out / "bounds_paths.csv").read_bytes()


def test_gamma_diag_outputs(tmp_path, cfg):
    out = tmp_path / "run"
    assert run(["gamma-diag", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "gamma_crossings.csv").exists()
    header, rows = read_csv(out / "gamma_mismatch.csv")
    assert header == ["z", "mismatch_width", "n_nodes"]
    assert len(rows) == 10


def test_gamma_diag_without_crossings_writes_header_only(tmp_path, cfg):
    # a call's gamma keeps one sign, so no slice has a crossing
    out = tmp_path / "run"
    assert run(["gamma-diag", "--config", cfg, "--out", str(out),
                "--set", "payoff.kind=call", "--set", "payoff.strike=100"]) == 0
    assert (out / "gamma_crossings.csv").read_text() == "z,crossing_x\n"
    assert manifest(out)["results"]["n_crossings_at_z0"] == 0


def test_override_recorded_in_manifest(tmp_path, cfg):
    out = tmp_path / "run"
    assert run(["solve-p0", "--config", cfg, "--out", str(out),
                "--set", "model.delta=0.1"]) == 0
    assert manifest(out)["config"]["model.delta"] == "0.1"


def test_manifest_config_reproduces_run(tmp_path, cfg):
    out1 = tmp_path / "a"
    assert run(["solve-p0", "--config", cfg, "--out", str(out1),
                "--set", "grid.n_t=3"]) == 0
    # rebuild a config file from the manifest alone and rerun
    m = manifest(out1)
    sections: dict[str, list[str]] = {}
    for dotted, value in m["config"].items():
        sec, key = dotted.split(".", 1)
        sections.setdefault(sec, []).append(f"{key} = {value}")
    text = "\n".join(f"[{sec}]\n" + "\n".join(lines) + "\n"
                     for sec, lines in sections.items())
    cfg2 = tmp_path / "from_manifest.cfg"
    cfg2.write_text(text)
    out2 = tmp_path / "b"
    assert run(["solve-p0", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out1 / "p0_surface.csv").read_bytes() == (out2 / "p0_surface.csv").read_bytes()


def test_help_lists_every_config_key(capsys):
    assert run(["--help"]) == 0
    text = capsys.readouterr().out
    for sec, keys in SCHEMA.items():
        assert f"[{sec}] {' '.join(keys)}" in text
    for kind, (keys, _) in KINDS.items():
        assert f"  {kind}: {' '.join(keys)}\n" in text


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_compare_bs_on_a_tabulated_payoff_exits_2_before_the_solve(tmp_path, cfg, monkeypatch):
    # a tabulated payoff has no Black-Scholes curves, which the command
    # finds out before it runs the solve
    def no_solve(*args, **kwargs):
        raise AssertionError("compare-bs solved before checking its payoff")

    monkeypatch.setattr(solver_pdelta, "solve_pdelta", no_solve)
    table = tmp_path / "payoff.csv"
    table.write_text("x,h\n0,0\n100,10\n200,0\n")
    out = tmp_path / "o"
    assert run(["compare-bs", "--config", cfg, "--out", str(out), "--set",
                "payoff.kind=tabulated", "--set", f"payoff.csv={table}"]) == 2
    record = strict_json(out / "error.json")
    assert record["exit_code"] == 2
    assert "payoff kind 'tabulated' has no call decomposition" in record["message"]


def test_failed_ldlt_factor_exits_3_with_error_record(tmp_path, cfg, monkeypatch):
    # dpttrf faked to report a non-positive pivot, as LAPACK's info > 0 does
    real = linsolve._lapack()

    def dpttrf(d, e, **kw):
        d, e, _ = real.dpttrf(d, e, **kw)
        return d, e, 3

    monkeypatch.setattr(linsolve, "_lapack",
                        lambda: SimpleNamespace(dpttrf=dpttrf, dpttrs=real.dpttrs))
    out = tmp_path / "o"
    assert run(["solve-pdelta", "--config", cfg, "--out", str(out)]) == 3
    record = strict_json(out / "error.json")
    assert record["exit_code"] == 3
    assert "at row 2 is not positive" in record["message"]


def test_failed_z_inverse_exits_3_with_error_record(tmp_path, cfg, monkeypatch):
    # dgtsv faked to report an exactly zero pivot, as LAPACK's info > 0 does
    real = linsolve._lapack()

    def dgtsv(*args, **kw):
        return (*real.dgtsv(*args, **kw)[:-1], 2)

    monkeypatch.setattr(linsolve, "_lapack", lambda: SimpleNamespace(
        dgtsv=dgtsv, dpttrf=real.dpttrf, dpttrs=real.dpttrs))
    out = tmp_path / "o"
    assert run(["solve-pdelta", "--config", cfg, "--out", str(out)]) == 3
    record = strict_json(out / "error.json")
    assert record["exit_code"] == 3
    assert "z-stage inverse: pivot at row 1 is exactly zero" in record["message"]


def test_z_inverse_needs_no_numpy_linalg(tmp_path, cfg, monkeypatch):
    # the z-inverse comes from LAPACK dgtsv, so the sweep runs with numpy's
    # dense inverse unavailable
    monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("np.linalg.inv called"))
    assert run(["sweep-error", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_p0_commands_run_no_p1(tmp_path, cfg, monkeypatch):
    # solve-p0, compare-bs and gamma-diag write P0 but no P1, so they take P0
    # from the 2D solve at delta = 0 and never step P1
    monkeypatch.setattr(solver_pdelta, "solve_p0p1",
                        lambda *args, **kw: pytest.fail("solve_p0p1 called"))
    for command in ("solve-p0", "compare-bs", "gamma-diag"):
        assert run([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0


@pytest.mark.parametrize("resolver", ["as installed", "finds no names"])
def test_manifest_names_the_lapack_a_solve_took(tmp_path, cfg, monkeypatch, resolver):
    # versions.lapack names the library whose routines the solve was handed
    if resolver == "finds no names":
        monkeypatch.setattr(linsolve, "_SYMBOL", "uvbounds_no_such_{}_")
        monkeypatch.setattr(linsolve, "_numpy_lapack", linsolve._numpy_lapack.__wrapped__)
    took = []
    monkeypatch.setattr(linsolve, "_lapack",
                        lambda real=linsolve._lapack: took.append(real()) or took[-1])
    assert run(["solve-p0", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert took and all(routines is took[0] for routines in took)
    took_flapack = not isinstance(took[0], linsolve._NumpyLapack)
    assert took_flapack or resolver == "as installed"
    assert manifest(tmp_path)["versions"]["lapack"] == \
        ("scipy _flapack" if took_flapack else "numpy scipy-openblas64")


def test_nan_in_a2_exits_3_at_the_z_inverse_check(tmp_path, cfg, monkeypatch):
    # a NaN put into a2_t just before the first z-stage, so that the inverse
    # built there is the first thing to meet it; a linear solve's failure is
    # a solver failure, the one error type that exits 3
    assert issubclass(linsolve.LinearSolveError, SolverError)
    solve_z = solver_pdelta._Scheme.solve_z

    def poisoned(scheme, *args):
        scheme.a2_t[3, 2] = np.nan
        return solve_z(scheme, *args)

    monkeypatch.setattr(solver_pdelta._Scheme, "solve_z", poisoned)
    out = tmp_path / "o"
    assert run(["solve-pdelta", "--config", cfg, "--out", str(out)]) == 3
    record = strict_json(out / "error.json")
    assert record["exit_code"] == 3
    assert "z-stage inverse: residual nan exceeds" in record["message"]


def test_tiny_z_min_solves_as_the_lu_x_stage(tmp_path, monkeypatch):
    # z_min = 1e-310: on the first slice c*a is below 2^-54, and k is
    # subnormal, so 1/a overflows; those rows stay identity rows to rounding
    argv = ["solve-pdelta", "--config", str(PAPER_CFG), "--set", "grid.z_min=1e-310",
            "--set", "grid.n_x=30", "--set", "grid.n_z=10"]
    assert run(argv + ["--out", str(tmp_path / "spd")]) == 0
    monkeypatch.setattr(solver_pdelta._Scheme, "x_solver", lu_x_solver)
    assert run(argv + ["--out", str(tmp_path / "lu")]) == 0
    got, want = (np.array(read_csv(tmp_path / side / "pdelta_surface.csv")[1], float)
                 for side in ("spd", "lu"))
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - want)) <= 1e-10


def test_stiff_x_stage_p0_matches_a_banded_lu_march(tmp_path, monkeypatch):
    # the 3000-node P0 of the exit table's backward-stable row, by the
    # scheme's L D L^T solves and by banded LU: both pass the residual bound
    # that scales with ‖I - c*A1‖∞ (1.7e6 here), and agree to rounding (the
    # gap measured 9.3e-13 of max|P0|)
    argv = ["solve-p0", "--config", str(PAPER_CFG), *sets(*STIFF_X)]
    assert run(argv + ["--out", str(tmp_path / "spd")]) == 0
    monkeypatch.setattr(solver_pdelta._Scheme, "x_solver", lu_x_solver)
    assert run(argv + ["--out", str(tmp_path / "lu")]) == 0
    got, want = (np.array(read_csv(tmp_path / side / "p0_surface.csv")[1], float)
                 for side in ("spd", "lu"))
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("command", ["coupling-rate", "simulate-bounds"])
def test_largest_u64_seed_runs(tmp_path, cfg, command):
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out), "--seed", str(2**64 - 1),
                "--set", "mc.n_paths=20", "--set", "mc.n_steps=5"]) == 0
    assert manifest(out)["seed"] == 2**64 - 1


def test_nonfinite_results_written_as_null(tmp_path, capsys, monkeypatch):
    # a study whose fits come back with NaN slopes
    real_study = montecarlo.coupling_rate_study

    def nan_slopes(*args, **kwargs):
        return [dataclasses.replace(f, slope=float("nan"))
                for f in real_study(*args, **kwargs)]

    monkeypatch.setattr(montecarlo, "coupling_rate_study", nan_slopes)
    out = tmp_path / "o"
    code = run(["coupling-rate", "--out", str(out),
                "--set", "mc.n_paths=2", "--set", "mc.n_steps=5"])
    assert code == 0
    record = strict_json(out / "manifest.json")
    assert record["results"] == {"const_d": None, "const_u": None}
    assert "written as null" in capsys.readouterr().err


# the result key each subcommand writes to the manifest
RESULT_KEY = {
    "solve-p0": "p0_at_x0_z0",
    "solve-p1": "p1_at_x0_z0",
    "solve-pdelta": "pdelta_at_x0_z0",
    "sweep-error": "slope",
    "simulate-bounds": "n_paths",
    "coupling-rate": "const_d",
    "compare-bs": "vol_low",
    "gamma-diag": "n_crossings_at_z0",
}
DEGENERATE = [
    ["grid.n_z=1"],
    ["grid.n_z=1", "grid.z_max=0"],
    ["grid.n_z=2"],
    ["grid.n_x=2"],
    ["solver.cn_weight=0"],
    ["model.T=1e-6"],
    ["model.rho=0.999"],
    ["model.rho=-0.999"],
    ["mc.n_paths=2", "mc.n_steps=1"],
    ["grid.x_max=1e300"],
    ["grid.z_max=1e300"],
]
GRID_COMMANDS = ["solve-p0", "solve-p1", "solve-pdelta", "sweep-error",
                 "compare-bs", "gamma-diag"]


def run_with(tmp_path, cfg, command, overrides):
    out = tmp_path / "o"
    return run([command, "--config", cfg, "--out", str(out), *sets(*overrides)]), out


def assert_solves_or_exits_2(tmp_path, cfg, command, overrides):
    # a degenerate config either solves, with a strict-JSON manifest, or is
    # a config error with an error record; no exception escapes ``run``
    code, out = run_with(tmp_path, cfg, command, overrides)
    assert code in (0, 2)
    if code == 0:
        assert RESULT_KEY[command] in strict_json(out / "manifest.json")["results"]
    else:
        assert strict_json(out / "error.json")["exit_code"] == 2


@pytest.mark.parametrize("overrides", DEGENERATE, ids=",".join)
def test_degenerate_pdelta_config_solves_or_exits_2(tmp_path, cfg, overrides):
    assert_solves_or_exits_2(tmp_path, cfg, "solve-pdelta", overrides)


@pytest.mark.parametrize("command", [c for c in RESULT_KEY if c != "solve-pdelta"])
@pytest.mark.parametrize("overrides", DEGENERATE, ids=",".join)
def test_degenerate_config_solves_or_exits_2(tmp_path, cfg, overrides, command):
    assert_solves_or_exits_2(tmp_path, cfg, command, overrides)


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_tiny_x0_with_explicit_gamma_eps_solves(tmp_path, cfg, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_with(tmp_path, cfg, command,
                             ["model.x0=1e-300", "solver.gamma_eps=1e-9"])
    assert code == 0
    assert RESULT_KEY[command] in strict_json(out / "manifest.json")["results"]


# -- the exit-code contract: one table of bad inputs -----------------------------
# Each row runs ``command --config small.cfg --out o *args`` in a directory of
# its own, after writing its files there; "{tmp}" in an argument or a file
# stands for that directory, and a row's own --config comes last, so it wins.
# A row names its case, the exit code and the fragment of the message that
# names the cause. A file named "o" makes --out a file, which holds no record.
# A row of code 0 checks that its manifest holds the command's result.

Exit = namedtuple("Exit", "case command args code fragment files", defaults=[{}])
EXITS = [
    Exit("test_missing_config_exits_2", "solve-p0", ["--config", "{tmp}/nope.cfg"], 2,
         "config file not found: "),
    # a key with no section header, and an unknown section
    Exit("test_malformed_config_exits_2", "solve-p0", ["--config", "{tmp}/bad.cfg"], 2,
         "File contains no section headers", {"bad.cfg": "delta = 0.1\n"}),
    Exit("test_malformed_config_exits_2", "solve-p0", ["--config", "{tmp}/bad.cfg"], 2,
         "unknown config section [nonsense]", {"bad.cfg": "[nonsense]\nfoo = 1\n"}),
    Exit("test_bad_override_exits_2", "solve-p0", sets("model.bogus=1"), 2,
         "unknown config key model.bogus"),
    Exit("test_bad_override_exits_2", "solve-p0", sets("nonsense"), 2,
         "override 'nonsense' is not of the form section.key=value"),
    Exit("test_malformed_payoff_table_exits_2", "solve-p0", ["--config", "{tmp}/tab.cfg"], 2,
         "bad tabulated payoff row: ['foo', 'bar']",
         {"payoff.csv": "x,h\nfoo,bar\n5\n1,0\n2,1\n3,1\n",
          "tab.cfg": "[payoff]\nkind = tabulated\ncsv = {tmp}/payoff.csv\n"}),
    Exit("test_invalid_model_exits_2", "solve-p0", sets("model.r=0.05"), 2,
         "r: unsupported — solvers implement r = 0 only"),
    Exit("test_invalid_model_exits_2", "solve-p0", sets("model.d=1.5"), 2,
         "d: require 0 < d < 1"),
    Exit("test_solver_failure_exits_3_with_error_record", "solve-pdelta",
         sets("solver.lin_tol=1e-30"), 3, "time level 3 failed: x-stage: residual"),
    # one path has no sample standard deviation, so no weighted fit
    Exit("test_one_path_rate_study_exits_2", "coupling-rate",
         sets("mc.n_paths=1", "mc.n_steps=5"), 2, "rate study needs n_paths >= 2"),
    *(Exit(f"test_seed_outside_u64_exits_2[{seed}-{command}]", command,
           ["--seed", str(seed), *sets("mc.n_paths=20", "mc.n_steps=5")], 2,
           f"seed must lie in [0, 2**64) (got {seed})")
      for seed in (-1, 2**64) for command in ("coupling-rate", "simulate-bounds")),
    # the squared spacing or the x-diffusion coefficient z*x^2 overflows, or
    # the squared spacing underflows to 0; the first once escaped ``run`` as
    # OverflowError, the others once ran into a singular pivot and exit 3
    *(Exit(f"test_huge_grid_span_exits_2[{','.join(kvs)}-{command}]", command, sets(*kvs), 2,
           fragment)
      for kvs, fragment in [(["grid.x_max=1e300"], "dx**2 overflows"),
                            (["grid.z_max=1e300"], "dz**2 overflows"),
                            (["grid.x_max=1e155"], "z_max * x_max**2 overflows"),
                            (["grid.x_max=1.3e154", "grid.z_max=100"],
                             "z_max * x_max**2 overflows"),
                            (["grid.x_max=2.2e-309"], "dx**2 underflows to 0")]
      for command in GRID_COMMANDS),
    # on the 40x10x4 grid, x_max = 1.3e154 makes dx = 3.3e152, and the
    # butterfly once priced to 0.0 with exit 0
    *(Exit(f"test_grid_that_misses_the_payoff_kinks_exits_2[{kv}-{command}]", command, sets(kv),
           2, fragment)
      for kv, fragment in [
          ("grid.x_max=1.3e154", "no x-node strictly between the payoff kinks 90 and 100"),
          ("grid.x_max=95", "kink(s) 100, 110 lie outside the grid"),
          ("grid.x_min=95", "kink(s) 90 lie outside the grid")]
      for command in GRID_COMMANDS),
    # each once ran to exit 0: the probe named *_at_x0_z0 read the nearest
    # slice (z = 0.08) or a clamped boundary value
    *(Exit(f"test_initial_state_off_the_grid_exits_2[{name}-{command}]", command, sets(*kvs), 2,
           fragment)
      for name, kvs, fragment in [
          ("z0", ["grid.n_z=1", "grid.z_min=0.08", "grid.z_max=0.08"],
           "model.z0 = 0.04 lies outside the grid's [z_min, z_max]"),
          ("x0", ["model.x0=250"], "model.x0 = 250 lies outside the grid's [x_min, x_max]")]
      for command in GRID_COMMANDS),
    # the automatic deadband 1e-9 * x0**2 once escaped ``run`` as
    # OverflowError; u**2 once overflowed in the control selection and ran
    # into exit 3
    *(Exit(f"test_overflowing_x0_exits_2[{name}{command}]", command, sets(kv), 2, fragment)
      for name, kv, fragment in [("", "model.x0=1e160", "x0: x0**2 overflows"),
                                 ("model.u=1e300-", "model.u=1e300", "u: u**2 overflows")]
      for command in GRID_COMMANDS),
    # 1e-9 * x0**2 underflows to 0; this once ran to exit 0 with a 0/0 in the
    # control selection and a subnormal price
    *(Exit(f"test_underflowing_automatic_gamma_eps_exits_2[{command}]", command,
           sets("model.x0=1e-300"), 2, "gamma_eps = 1e-9 * x0**2 underflows to 0.0")
      for command in GRID_COMMANDS),
    # each of these once ran to exit 0 with a wrong price or a disabled check
    *(Exit(f"test_unsafe_solver_setting_exits_2[{kv}]", "solve-pdelta", sets(kv), 2, fragment)
      for kv, fragment in [("solver.cn_weight=0.25", "cn_weight must be in [0.5, 1]"),
                           ("solver.gamma_eps=nan", "gamma_eps must be finite and positive"),
                           ("solver.lin_tol=inf", "lin_tol must be finite and positive")]),
    Exit("test_unwritable_out_exits_4", "solve-p0", [], 4, "File exists", {"o": "x"}),
    # a backward-stable solve of a stiff system: this 3000-node x-stage once
    # exited 3 with "x-stage: residual 3.341e-08 exceeds 2.010e-08", though
    # banded LU of the same system leaves 4.5e-08
    Exit("test_backward_stable_solve_exits_0[n_x=3000-solve-p0]", "solve-p0",
         ["--config", str(PAPER_CFG), *sets(*STIFF_X)], 0, ""),
    # a march that diverges, though every linear solve in it is backward-stable:
    # at kappa = 1e6 the z-stage's central drift stencil amplifies, and the
    # first level leaves the payoff's range (the march left unchecked reaches
    # -9.6e34 on paper.cfg)
    *(Exit(f"test_diverged_march_exits_3[{grid}-{command}]", command,
           [*config, *sets("model.kappa=1e6", "model.theta=1")], 3,
           "backward march diverged at time level")
      for grid, config in (("40x10x4", []), ("paper", ["--config", str(PAPER_CFG)]))
      for command in ("solve-pdelta", "gamma-diag", "sweep-error")),
]


def check_exit(tmp, capsys, row):
    """One row: its exit code, and its fragment on stderr and in a strict-JSON
    error record of the same code, wherever --out can hold one."""
    tmp.mkdir(exist_ok=True)
    for name, text in {"small.cfg": SMALL_CFG, **row.files}.items():
        (tmp / name).write_text(text.format(tmp=tmp))
    out = tmp / "o"
    assert run([row.command, "--config", str(tmp / "small.cfg"), "--out", str(out),
                *(arg.format(tmp=tmp) for arg in row.args)]) == row.code
    assert row.fragment in capsys.readouterr().err
    if row.code == 0:
        assert RESULT_KEY[row.command] in strict_json(out / "manifest.json")["results"]
    elif not out.is_file():
        record = strict_json(out / "error.json")
        assert record["exit_code"] == row.code and row.fragment in record["message"]


def exit_cases(name):
    """The test of the rows whose case is ``name``: parametrized by the part
    in brackets, or running its rows in turn where the case has none."""
    rows = [row for row in EXITS if row.case.partition("[")[0] == name]
    if rows[0].case == name:
        def test(tmp_path, capsys):
            for k, row in enumerate(rows):
                check_exit(tmp_path / str(k), capsys, row)
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.case[len(name) + 1:-1] for row in rows])
    def test(tmp_path, capsys, row):
        check_exit(tmp_path, capsys, row)
    return test


# one test per case name, so that every row keeps its case's id
for _name in dict.fromkeys(row.case.partition("[")[0] for row in EXITS):
    globals()[_name] = exit_cases(_name)


# -- the exit-code fuzzer --------------------------------------------------------
# Up to three overrides on SMALL_ARGS' 40 x 10 x 4 grid, each from a pool of
# edge and invalid values; no pool raises a count, so every run stays small
FUZZ = {
    "grid.n_x": ["0", "1", "2", "3", "-1", "2.5", "nan"],
    "grid.n_z": ["0", "1", "2", "-1"],
    "grid.n_t": ["0", "1", "2", "inf"],
    "grid.x_min": ["-1", "95", "nan"],
    "grid.x_max": ["0", "95", "1e155", "1e300", "2.2e-309", "inf"],
    "grid.z_min": ["-0.1", "1e-310", "0.04", "0.08"],
    "grid.z_max": ["0", "0.04", "100", "1e300"],
    "model.x0": ["0", "1e-300", "250", "1e160", "nan"],
    "model.z0": ["0", "1e-12", "0.12", "0.5"],
    "model.T": ["0", "1e-6", "10", "inf"],
    "model.r": ["0.05"],
    "model.d": ["0", "0.999", "1.5"],
    "model.u": ["1", "1.001", "1e300"],
    "model.kappa": ["0", "150", "1e6"],
    "model.theta": ["0", "1e-3", "1"],
    "model.delta": ["0", "1e-12", "1", "1.5"],
    "model.rho": ["-0.999", "0", "0.999", "1"],
    "solver.cn_weight": ["0.25", "0.5", "1", "nan"],
    "solver.corrector_passes": ["-1", "0", "3"],
    "solver.gamma_eps": ["0", "1e-300", "1e9", "nan"],
    "solver.lin_tol": ["0", "1e-30", "1e-16", "inf"],
    "solver.rannacher_steps": ["-1", "0", "4"],
    "payoff.kind": ["call", "put", "capped_linear", "tabulated", "nope"],
    "payoff.k2": ["90", "200", "nan"],
    "payoff.csv": ["no-such.csv", str(PAPER_CFG)],
    "sweep.deltas": ["", "0.01", "0,0.01", "nan,0.01", "0.01,1.5", "0.02,0.04"],
    "sweep.window_x_min": ["-1", "1000"],
    "sweep.window_x_max": ["0", "1e300"],
    "mc.n_paths": ["0", "1", "2"],
    "mc.n_steps": ["0", "1", "2"],
    "mc.n_bound_paths": ["0", "1"],
    "mc.rate_deltas": ["0.01", "0,0.01", "inf,0.01", "0.01,1.5", "0.01,0.04"],
}
OVERRIDE = hst.sampled_from(sorted(FUZZ)).flatmap(
    lambda key: hst.sampled_from(FUZZ[key]).map(lambda value: f"{key}={value}"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=hst.sampled_from(list(cli._DISPATCH)), overrides=hst.lists(OVERRIDE, max_size=3),
       out_is_file=hst.booleans())
def test_fuzzed_runs_keep_the_exit_code_contract(tmp_path_factory, command, overrides,
                                                 out_is_file):
    # a run succeeds with its result in a strict-JSON manifest, or fails with
    # 2, 3 or 4 and a strict-JSON record of its code; an --out that is a file
    # fails the config (2) or the output directory (4), with no record
    out = tmp_path_factory.mktemp("fuzz") / "o"
    if out_is_file:
        out.write_text("x")
    code = run([command, *SMALL_ARGS, "--out", str(out), *sets(*overrides)])
    if out_is_file:
        assert code in (2, 4)
    elif code == 0:
        assert RESULT_KEY[command] in strict_json(out / "manifest.json")["results"]
    else:
        assert code in (2, 3, 4)
        assert strict_json(out / "error.json")["exit_code"] == code


def test_paper_preset_is_loadable_default(tmp_path):
    # no --config: built-in preset, shrunk via overrides to stay quick
    out = tmp_path / "run"
    code = run(["solve-p0", "--out", str(out),
                "--set", "grid.n_x=30", "--set", "grid.n_z=6", "--set", "grid.n_t=2"])
    assert code == 0
    m = manifest(out)
    assert m["config"]["model.rho"] == "-0.9"
    assert m["config"]["grid.n_x"] == "30"


def test_module_entry_point_runs_the_command(tmp_path):
    # python -m uvbounds.cli runs the command, with the console script's exit codes
    def run_module(*args):
        return subprocess.run([sys.executable, "-m", "uvbounds.cli", *args], env=fresh_env(),
                              capture_output=True, text=True, timeout=120).returncode

    out = tmp_path / "p0"
    assert run_module("solve-p0", *SMALL_ARGS, "--out", str(out)) == 0
    assert (out / "manifest.json").is_file()
    assert run_module("solve-p0", "--config", str(PAPER_CFG), "--set", "grid.n_x=oops",
                      "--out", str(tmp_path / "bad")) == 2


def test_error_sweep_fit_is_the_same_with_one_and_two_blas_threads(tmp_path):
    # paper.cfg's sweep in two processes, one per BLAS thread count: the
    # z-stage products and the LAPACK solves give the same bits either way
    for threads in (1, 2):
        subprocess.run([sys.executable, "-m", "uvbounds.cli", "sweep-error", "--config",
                        str(PAPER_CFG), "--out", str(tmp_path / str(threads))],
                       env=dict(fresh_env(), OPENBLAS_NUM_THREADS=str(threads)),
                       capture_output=True, check=True, timeout=120)
    assert (tmp_path / "1" / "sweep_fit.csv").read_bytes() == \
        (tmp_path / "2" / "sweep_fit.csv").read_bytes()


# -- what each command's process loads and calls -------------------------------
# One fresh process per subcommand, and one that runs no command, each print
# one JSON record on its last line.

PDE, MC = ("uvbounds.solver_pdelta", "uvbounds.stencils"), ("uvbounds.montecarlo",)
# the streams' loader imports only the numpy.random modules it draws from,
# under a stand-in package, and drops their entries, so no row loads any
# RANDOM_UNUSED module, numpy.random itself among them
WATCH = (*PDE, *MC, *RANDOM_UNUSED, "uvbounds.analysis", "uvbounds.blackscholes",
         "logging", "multiprocessing", "concurrent.futures.process", "secrets", "hmac",
         "_hashlib")
# each command: the watched modules its process loads, and whether it takes
# P0 from the 2D solve at delta = 0 and so must never step P1
ROWS = {"solve-p0": (PDE, True),
        "solve-p1": (PDE, False),
        "solve-pdelta": (PDE, False),
        "sweep-error": (PDE + ("uvbounds.analysis",), False),
        "compare-bs": (PDE + ("uvbounds.analysis", "uvbounds.blackscholes"), True),
        "gamma-diag": (PDE + ("uvbounds.analysis",), True),
        "simulate-bounds": (MC, False),
        "coupling-rate": (MC, False)}
NUMPY_LAPACK = linsolve._numpy_lapack() is not None

# loaded(): the watched modules, and any scipy module, held past those
# numpy's own import loads (numpy 1.x loads numpy.random with itself)
_WATCHING = f"""
import json, os, sys
watched = lambda: {{m for m in sys.modules if m in {WATCH!r} or m.split(".")[0] == "scipy"}}
import numpy as np
with_numpy = watched()
from uvbounds import linsolve
loaded = lambda: sorted(watched() - with_numpy)
maps = "/proc/self/maps"  # the mapped OpenBLAS libraries, where the platform lists them
openblas = lambda: len({{ln.split()[-1] for ln in open(maps) if "openblas" in ln}}) \
    if os.path.exists(maps) else 1
"""
# a call the row refuses raises, and so fails the process
_ROW = _WATCHING + """
from types import SimpleNamespace
from uvbounds.cli import run
argv, pde, p0_only = json.loads(sys.argv[1])
def refuse(name):
    raise AssertionError(name + " called")
if pde:  # a solve calls dpttrf, dpttrs and dgtsv, and no dense inverse
    linsolve._lapack = lambda real=linsolve._lapack: SimpleNamespace(
        **{name: getattr(real(), name) for name in ("dpttrf", "dpttrs", "dgtsv")})
    np.linalg.inv = lambda *args: refuse("np.linalg.inv")
if p0_only:
    from uvbounds import solver_pdelta
    solver_pdelta.solve_p0p1 = lambda *args, **kw: refuse("solve_p0p1")
status = run(argv)
versions = json.load(open(argv[-1] + "/manifest.json"))["versions"] if status == 0 else {}
print(json.dumps({"status": status, "loaded": loaded(), "with_numpy": sorted(with_numpy),
                  "openblas": openblas(), "flapack_cache": linsolve._flapack.cache_info().currsize,
                  "lapack": versions.get("lapack"), "scipy": versions.get("scipy")}))
"""


@pytest.mark.parametrize("command", list(cli._DISPATCH))
def test_command_process_loads_and_calls_only_its_stack(tmp_path, command):
    loads, p0_only = ROWS[command]  # a command without a row fails here
    pde = PDE[0] in loads
    row = json.dumps([[command, *SMALL_ARGS, "--out", str(tmp_path)], pde, p0_only])
    record = json.loads(fresh_python(_ROW, row).splitlines()[-1])
    # without numpy's routines a solve loads scipy's _flapack, and the BLAS that links
    flapack = pde and not NUMPY_LAPACK
    assert record.pop("openblas") == 1 or flapack
    numpy_loads = set(record.pop("with_numpy"))
    assert record == {"status": 0, "loaded": sorted(set(loads) - numpy_loads),
                      "flapack_cache": int(flapack),
                      "lapack": "numpy scipy-openblas64" if NUMPY_LAPACK else "scipy _flapack",
                      "scipy": scipy.__version__}


# one process that runs no command: what the config, every lazy name, the
# solves' LAPACK routines and then scipy's wrappers load, each in turn
_API = _WATCHING + f"""
import uvbounds as uv, uvbounds.cli
uv.config.load_config({str(PAPER_CFG)!r}, [])
record = {{"config": loaded(), "with_numpy": sorted(with_numpy)}}
for name in uv.__all__:
    getattr(uv, name)
record.update(names=loaded(), all=sorted(uv.__all__), unknown=hasattr(uv, "no_such_name"),
              same=uv.solve_pdelta is sys.modules["uvbounds.solver_pdelta"].solve_pdelta)
linsolve._lapack()
record.update(lapack=loaded(), openblas=openblas(),
              flapack_cache=linsolve._flapack.cache_info().currsize)
flapack = linsolve._flapack()
record["flapack"] = loaded()
import scipy.linalg
record["shared"] = scipy.linalg._flapack.dpttrs is flapack.dpttrs
print(json.dumps(record))
"""


@pytest.fixture(scope="module")
def api_process():
    return json.loads(fresh_python(_API).splitlines()[-1])


def test_import_loads_no_heavy_scipy_subpackage(api_process):
    # parsing and the config need only the value types
    assert api_process["config"] == []


def test_error_sweep_and_coupling_rate_import_neither_logging_nor_scipy_linalg(api_process):
    # every lazy name, error_sweep and coupling_rate_study among them, loads
    # its solver's modules and no other watched one: no logging, no scipy
    assert api_process["names"] == sorted(
        {*PDE, "uvbounds.montecarlo", "uvbounds.analysis"} - set(api_process["with_numpy"]))


def test_lazy_names_and_the_manifest_scipy_version(api_process):
    # a lazy name is the solver module's own object, an unknown one is an
    # AttributeError, and the namespace is the one it always was; the
    # manifest's scipy version is read from scipy's version.py
    assert (api_process["same"], api_process["unknown"]) == (True, False)
    assert api_process["all"] == sorted(
        "ModelParams GridSpec SolverConfig Surface PayoffSpec SweepReport solve_p0p1 solve_pdelta "
        "simulate_cir coupling_rate_study error_sweep gamma_diagnostics compare_bs __version__"
        .split())
    assert linsolve.scipy_version() == scipy.__version__


def test_solves_load_one_openblas(api_process):
    # where numpy's extension exports them, the routines a solve calls are
    # those of numpy's OpenBLAS: scipy's wrappers do not load, nor the
    # second OpenBLAS they link
    assert api_process["lapack"] == api_process["names"]
    assert api_process["flapack_cache"] == int(not NUMPY_LAPACK)
    assert api_process["openblas"] == 1 or not NUMPY_LAPACK


def test_error_sweep_never_imports_the_scipy_linalg_package(api_process):
    # where a solve needs scipy's wrappers it loads them by file path, so
    # neither scipy's nor scipy.linalg's package init runs (~0.2 s and
    # ~25 MiB); a later scipy.linalg import finds the same wrappers
    assert api_process["flapack"] == api_process["names"]
    assert api_process["shared"]


def test_without_numpy_lapack_a_solve_loads_scipy_flapack(tmp_path):
    # names numpy's extension does not export: naming the library loads no
    # LAPACK, a solve loads scipy's wrappers by file path, and a later
    # scipy.linalg import finds the same wrappers
    code = _WATCHING + """
from uvbounds.cli import run
linsolve._SYMBOL = "uvbounds_no_such_{}_"
for argv in json.loads(sys.argv[1]):
    print(run(argv), linsolve._flapack.cache_info().currsize, "scipy" in sys.modules,
          json.load(open(argv[-1] + "/manifest.json"))["versions"]["lapack"])
import scipy.linalg
print(scipy.linalg._flapack.dpttrs is linsolve._flapack().dpttrs)
"""
    runs = [[command, *SMALL_ARGS, "--out", str(tmp_path / command)]
            for command in ("coupling-rate", "solve-p0")]
    assert fresh_python(code, json.dumps(runs)).splitlines() == [
        "0 0 False scipy _flapack", "0 1 False scipy _flapack", "True"]
