"""Workload definitions, output checks and results digests.

Every workload runs one ``uvbounds`` CLI subcommand on the frozen
reference configuration ``reference.cfg`` (a copy of the repository's
``paper.cfg``, kept here so the benchmark's inputs do not move when the
preset does). Only ``mc`` depends on the benchmark seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    overrides: tuple[str, ...]
    seeded: bool
    unit: str                                # what work_per_s counts
    work_units: Callable[[dict], float]      # from the child's "sizes"
    check: Callable[[Path, dict], list[str]]  # problems in one output dir
    min_calls: int = 1                       # timed calls per end-to-end run

    def argv(self, seed: int) -> list[str]:
        argv = [self.subcommand, "--config", "run.cfg", "--out", "out", "--threads", "1"]
        for item in self.overrides:
            argv += ["--set", item]
        if self.seeded:
            argv += ["--seed", str(program_seed(seed))]
        return argv


def program_seed(seed: int) -> int:
    """The Monte Carlo seed handed to the program for a benchmark seed."""
    return random.Random(seed).getrandbits(32)


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out: Path, ctx: dict) -> list[str]:
    problems = []
    slope = float(_rows(out / "sweep_fit.csv")[0]["slope"])
    if not 0.8 <= slope <= 1.2:
        problems.append(f"sweep slope {slope:.4f} outside [0.8, 1.2]")
    rows = _rows(out / "sweep.csv")
    deltas = [float(r["delta"]) for r in rows]
    errors = [float(r["error"]) for r in rows]
    if not np.all(np.isfinite(errors)):
        problems.append("non-finite sweep error")
    if deltas != sorted(deltas) or not np.all(np.diff(errors) > 0.0):
        problems.append("sweep errors are not increasing in delta")
    return problems


def pdelta_solve_times(out: Path) -> list[float]:
    """Per-delta 2D solve times a sweep wrote (none for other workloads)."""
    path = out / "sweep.csv"
    return [float(r["runtime_s"]) for r in _rows(path)] if path.is_file() else []


def read_surface(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x nodes, z nodes, values[i, j]) from a surface CSV."""
    with path.open() as fh:
        z = np.array([float(v) for v in fh.readline().strip().split(",")[1:]])
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0], z, table[:, 1:]


def _lagrange_weights(nodes: np.ndarray, target: float, order: int = 3):
    """Stencil start and weights of order-3 Lagrange interpolation, the
    same stencil choice as ``Surface.value_at``."""
    n = len(nodes)
    k = min(order, n - 1)
    target = min(max(target, nodes[0]), nodes[-1])
    i0 = int(np.searchsorted(nodes, target) - 1)
    i0 = max(0, min(i0 - (k - 1) // 2, n - 1 - k))
    xs = nodes[i0:i0 + k + 1]
    w = np.array([np.prod([(target - xs[l]) / (xs[m] - xs[l])
                           for l in range(k + 1) if l != m]) for m in range(k + 1)])
    return i0, w


def surface_value_at(path: Path, x0: float, z0: float) -> float:
    x, z, v = read_surface(path)
    ix, wx = _lagrange_weights(x, x0)
    iz, wz = _lagrange_weights(z, z0)
    return float(wx @ v[ix:ix + len(wx), iz:iz + len(wz)] @ wz)


# the reference-grid P0 probe comes from a solve-p0 run on reference.cfg
REFERENCE_PROBE_ARGV = ["solve-p0", "--config", "run.cfg", "--out", "out", "--threads", "1"]
PROBE_TOL = 0.01


def check_p0p1(out: Path, ctx: dict) -> list[str]:
    """Finite surfaces, and the P0 probe at (x0, z0) within PROBE_TOL of
    ``ctx["reference_probe"]``, the probe on the reference grid."""
    problems = []
    shape = (ctx["sizes"]["n_x"], ctx["sizes"]["n_z"])
    for name in ("p0_surface.csv", "p1_surface.csv"):
        _, _, values = read_surface(out / name)
        if values.shape != shape or not np.all(np.isfinite(values)):
            problems.append(f"{name}: shape {values.shape} or non-finite values")
    fine = surface_value_at(out / "p0_surface.csv", ctx["sizes"]["x0"], ctx["sizes"]["z0"])
    gap = abs(fine - ctx["reference_probe"])
    ctx["probe_gap"] = gap
    if not gap <= PROBE_TOL:
        problems.append(f"P0 probe {fine:.6f} is {gap:.2e} from the reference-grid "
                        f"probe {ctx['reference_probe']:.6f} (tolerance {PROBE_TOL})")
    return problems


def check_mc(out: Path, ctx: dict) -> list[str]:
    fits = _rows(out / "rate_fit.csv")
    problems = [] if len(fits) == 2 else [f"expected 2 rate fits, got {len(fits)}"]
    for row in fits:
        if not float(row["slope"]) >= 0.85:
            problems.append(f"rate slope {row['slope']} < 0.85 ({row['control']})")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep", "sweep-error", (), False, "2D P^delta solves",
                 lambda s: s["n_sweep_deltas"], check_sweep),
        Workload("p0p1_fine", "solve-p1", ("grid.n_x=400", "grid.n_t=400"), False,
                 "grid node steps (n_x*n_z*n_t)",
                 lambda s: s["n_x"] * s["n_z"] * s["n_t"], check_p0p1,
                 # one 15 s call is too short to average out host-speed drift
                 min_calls=2),
        # two calls with one seed: equal digests show that rate.csv and
        # rate_fit.csv reproduce bitwise, and two ~20 s calls average out
        # more host-speed drift than one
        Workload("mc", "coupling-rate", (), True,
                 "path steps (n_paths*n_steps*rate_deltas*2 controls)",
                 lambda s: s["mc_n_paths"] * s["mc_n_steps"] * s["mc_n_rate_deltas"] * 2,
                 check_mc, min_calls=2),
    )
}


def digest(out: Path) -> str:
    """sha256 over a run's outputs, leaving out what is wall-clock by nature
    (``sweep.csv`` ``runtime_s`` and the manifest's ``timings_s``)."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("timings_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        elif path.name == "sweep.csv":
            rows = list(csv.reader(io.StringIO(data.decode())))
            col = rows[0].index("runtime_s")
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(
                row[:col] + row[col + 1:] for row in rows)
            data = buf.getvalue().encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()
