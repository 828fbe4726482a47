import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uvbounds
from uvbounds import cli
from uvbounds.cli import run
from uvbounds.csvio import read_csv

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


def test_solve_pdelta_with_control_export(tmp_path, cfg):
    out = tmp_path / "run"
    code = run(["solve-pdelta", "--config", cfg, "--out", str(out),
                "--export-controls"])
    assert code == 0
    header, rows = read_csv(out / "pdelta_controls.csv")
    assert header == ["level", "x", "z", "q", "tag"]
    assert len(rows) == 4 * 40 * 10
    assert {r[4] for r in rows} <= {"A", "B", "C"}


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
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["compare-bs", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["compare-bs", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "compare_bs.csv").read_bytes() == (out2 / "compare_bs.csv").read_bytes()


def test_coupling_rate_seeded_csv_bitwise(tmp_path, cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["coupling-rate", "--config", cfg, "--out", str(out),
                    "--seed", "99"]) == 0
    assert (out1 / "rate.csv").read_bytes() == (out2 / "rate.csv").read_bytes()
    assert (out1 / "rate_fit.csv").read_bytes() == (out2 / "rate_fit.csv").read_bytes()
    # a different seed must change the estimates
    out3 = tmp_path / "c"
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


def test_gamma_diag_outputs(tmp_path, cfg):
    out = tmp_path / "run"
    assert run(["gamma-diag", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "gamma_crossings.csv").exists()
    header, rows = read_csv(out / "gamma_mismatch.csv")
    assert header == ["z", "mismatch_width", "n_nodes"]
    assert len(rows) == 10


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


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_config_exits_2(tmp_path):
    assert run(["solve-p0", "--config", str(tmp_path / "nope.cfg"),
                "--out", str(tmp_path / "o")]) == 2


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("delta = 0.1\n")  # key with no section header
    assert run(["solve-p0", "--config", str(bad),
                "--out", str(tmp_path / "o")]) == 2
    worse = tmp_path / "worse.cfg"
    worse.write_text("[nonsense]\nfoo = 1\n")
    assert run(["solve-p0", "--config", str(worse),
                "--out", str(tmp_path / "o")]) == 2


def test_bad_override_exits_2(tmp_path, cfg):
    assert run(["solve-p0", "--config", cfg, "--out", str(tmp_path / "o"),
                "--set", "model.bogus=1"]) == 2
    assert run(["solve-p0", "--config", cfg, "--out", str(tmp_path / "o"),
                "--set", "nonsense"]) == 2


def test_malformed_payoff_table_exits_2(tmp_path):
    table = tmp_path / "payoff.csv"
    table.write_text("x,h\nfoo,bar\n5\n1,0\n2,1\n3,1\n")
    config = tmp_path / "tab.cfg"
    config.write_text(f"[payoff]\nkind = tabulated\ncsv = {table}\n")
    assert run(["solve-p0", "--config", str(config),
                "--out", str(tmp_path / "o")]) == 2


def test_invalid_model_exits_2(tmp_path, cfg):
    assert run(["solve-p0", "--config", cfg, "--out", str(tmp_path / "o"),
                "--set", "model.r=0.05"]) == 2


def test_solver_failure_exits_3_with_error_record(tmp_path, cfg):
    out = tmp_path / "o"
    code = run(["solve-pdelta", "--config", cfg, "--out", str(out),
                "--set", "solver.lin_tol=1e-30"])
    assert code == 3
    with open(out / "error.json") as fh:
        record = json.load(fh)
    assert record["exit_code"] == 3
    assert "level" in record["message"]


def test_one_path_rate_study_exits_2(tmp_path, cfg):
    # one path has no sample standard deviation, so no weighted fit
    out = tmp_path / "o"
    code = run(["coupling-rate", "--config", cfg, "--out", str(out),
                "--set", "mc.n_paths=1", "--set", "mc.n_steps=5"])
    assert code == 2
    with open(out / "error.json") as fh:
        record = json.load(fh)
    assert record["exit_code"] == 2
    assert "n_paths >= 2" in record["message"]


def test_nonfinite_results_written_as_null(tmp_path, capsys, monkeypatch):
    # a study whose fits come back with NaN slopes
    real_study = cli.coupling_rate_study

    def nan_slopes(*args, **kwargs):
        study = real_study(*args, **kwargs)
        fits = [dataclasses.replace(f, slope=float("nan")) for f in study.fits]
        return dataclasses.replace(study, fits=fits)

    monkeypatch.setattr(cli, "coupling_rate_study", nan_slopes)
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
    argv = [command, "--config", cfg, "--out", str(out)]
    for kv in overrides:
        argv += ["--set", kv]
    return run(argv), out


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
@pytest.mark.parametrize("overrides", [
    ["grid.x_max=1e300"],
    ["grid.z_max=1e300"],
    ["grid.x_max=1e155"],
    ["grid.x_max=1.3e154", "grid.z_max=100"],
], ids=",".join)
def test_huge_grid_span_exits_2(tmp_path, cfg, overrides, command):
    # the squared spacing or the x-diffusion coefficient z*x^2 overflows; the
    # first once escaped ``run`` as OverflowError, the second once ran into a
    # singular pivot and exit 3
    code, out = run_with(tmp_path, cfg, command, overrides)
    assert code == 2
    record = strict_json(out / "error.json")
    assert record["exit_code"] == 2
    assert "overflows" in record["message"]


@pytest.mark.parametrize("override", [
    "solver.cn_weight=0.25",
    "solver.gamma_eps=nan",
    "solver.lin_tol=inf",
])
def test_unsafe_solver_setting_exits_2(tmp_path, cfg, override):
    # each of these once ran to exit 0 with a wrong price or a disabled check
    out = tmp_path / "o"
    code = run(["solve-pdelta", "--config", cfg, "--out", str(out), "--set", override])
    assert code == 2
    record = strict_json(out / "error.json")
    assert record["exit_code"] == 2
    assert override.split("=")[0].split(".")[1] in record["message"]


def test_unwritable_out_exits_4(tmp_path, cfg):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert run(["solve-p0", "--config", cfg, "--out", str(blocker)]) == 4


def test_paper_preset_is_loadable_default(tmp_path):
    # no --config: built-in preset, shrunk via overrides to stay quick
    out = tmp_path / "run"
    code = run(["solve-p0", "--out", str(out),
                "--set", "grid.n_x=30", "--set", "grid.n_z=6", "--set", "grid.n_t=2"])
    assert code == 0
    m = manifest(out)
    assert m["config"]["model.rho"] == "-0.9"
    assert m["config"]["grid.n_x"] == "30"


def test_import_loads_no_heavy_scipy_subpackage():
    # each scipy subpackage adds ~25 MiB RSS and loads only where a command
    # needs it; no command runs a process pool
    heavy = ("scipy.special", "scipy.linalg", "scipy.sparse",
             "multiprocessing", "concurrent.futures.process")
    code = f"import sys, uvbounds.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = str(Path(uvbounds.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
