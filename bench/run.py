"""Benchmark of the uvbounds CLI: end-to-end metrics, or per-layer ones.

Usage (from the repository root):

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads are defined in ``workloads.py`` and explained in ``README.md``.
Every ``uvbounds.cli.run`` call runs in a fresh Python process
(``child.py``) with BLAS/OpenMP pinned to one thread and ``--threads 1``,
one process at a time (closed loop, one caller).

--trace 0  repeat the workload's CLI call until --seconds have passed and
           at least ``min_calls`` calls ran, with two set-up-only
           processes before the first call and one after each call;
           report the end-to-end metrics.
--trace 1  run the call once untraced and once with layer spans
           (``tracing.py``); report the per-layer metrics.

Every call's outputs are checked. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "work_per_s": "1/s"}

PER_LAYER = {
    "cli.run.self_s": "s",
    "analysis.error_sweep.self_s": "s",
    "solver_p0p1.solve_p0p1.self_s": "s",
    "solver_pdelta.solve_pdelta.calls": "count",
    "solver_pdelta.solve_pdelta.self_s": "s",
    "solver_pdelta.select_q.calls": "count",
    "solver_pdelta.select_q.self_s": "s",
    "solver_pdelta.assemble.calls": "count",
    "solver_pdelta.assemble.self_s": "s",
    "linsolve.solve_banded.calls": "count",
    "linsolve.solve_banded.self_s": "s",
    "linsolve.solve_banded.per_level": "1/level",
    "linsolve.solve_tridiag_batch.calls": "count",
    "linsolve.solve_tridiag_batch.self_s": "s",
    "linsolve.solve_tridiag_batch.systems": "count",
    "linsolve.solve_tridiag_batch.per_level": "1/level",
    "stencils.lxx_values.self_s": "s",
    "stencils.lxz_values.self_s": "s",
    "core.Surface.calls": "count",
    "core.Surface.self_s": "s",
    "payoff.terminal_surface.self_s": "s",
    "montecarlo.brownian_increments.calls": "count",
    "montecarlo.brownian_increments.self_s": "s",
    "montecarlo.brownian_increments.distinct_ratio": "ratio",
    "montecarlo.path_step.self_s": "s",
    "csvio.write_csv.calls": "count",
    "csvio.write_csv.self_s": "s",
    "csvio.write_csv.bytes": "B",
    "pdelta_solve_s.p50": "s",
    "trace.overhead_s": "s",
}

# one BLAS/OpenMP thread per process: one process uses at most one core
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (missing program, timeout)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts fresh processes one at a time and counts CLI calls."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._count = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def spawn(self, label: str, argv=None, overrides=(), trace=False):
        """One fresh process; returns (its directory, its result record)."""
        self._count += 1
        cwd = self.work / f"{self._count:02d}-{label}"
        cwd.mkdir(parents=True)
        shutil.copyfile(BENCH_DIR / "reference.cfg", cwd / "run.cfg")
        spec = {"overrides": list(overrides), "argv": argv, "trace": trace,
                "src": str(SRC)}
        (cwd / "spec.json").write_text(json.dumps(spec))
        remaining = self.deadline - _now()
        if remaining <= 0:
            raise BenchError(f"out of time before {label}")
        spawned = _now()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), "spec.json", repr(spawned)],
                cwd=cwd, env=self.env, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{label} did not finish in time") from exc
        if proc.returncode != 0 or not (cwd / "result.json").is_file():
            raise BenchError(f"{label}: benchmark process exited with {proc.returncode}")
        return cwd, json.loads((cwd / "result.json").read_text())

    def call(self, label: str, argv, overrides=(), trace=False):
        """One checked-for-exit-code CLI call in a fresh process."""
        self.attempted += 1
        cwd, res = self.spawn(label, argv, overrides, trace)
        if res["rc"] != 0:
            self.fail(f"{label}: uvbounds exited with code {res['rc']}")
        return cwd, res


def _check(runner: Runner, workload: wl.Workload, label: str, cwd: Path,
           res: dict, ctx: dict) -> str | None:
    """Run the workload's output checks on one call; returns its digest."""
    if res["rc"] != 0:
        return None
    ctx["sizes"] = res["sizes"]
    problems = workload.check(cwd / "out", ctx)
    if problems:
        runner.fail(f"{label}: " + "; ".join(problems))
    return wl.digest(cwd / "out")


def _check_context(runner: Runner, workload: wl.Workload) -> dict:
    """What a workload's check needs beyond its own outputs."""
    if workload.name != "p0p1_fine":
        return {}
    cwd, res = runner.call("reference-p0", wl.REFERENCE_PROBE_ARGV)
    if res["rc"] != 0:
        return {"reference_probe": float("nan")}
    manifest = json.loads((cwd / "out" / "manifest.json").read_text())
    return {"reference_probe": float(manifest["results"]["p0_at_x0_z0"])}


def _stamp(first: dict, workload: wl.Workload, seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "uvbounds").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": seed,
        "program_seed": wl.program_seed(seed) if workload.seeded else None,
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "versions": first["versions"], "thread_env": THREAD_ENV, "cli_threads": 1,
        "sizes": first["sizes"], "argv": workload.argv(seed),
    }


def _end_to_end(runner: Runner, workload: wl.Workload, seed: int, seconds: float):
    def setup() -> float:
        return runner.spawn("setup", overrides=workload.overrides)[1]["setup_s"]

    # set-up samples spread over the run: host speed drifts within a run
    setups = [setup(), setup()]
    ctx = _check_context(runner, workload)
    started = _now()
    calls = []
    while len(calls) < workload.min_calls or _now() - started < seconds:
        calls.append(runner.call(f"call-{len(calls) + 1}", workload.argv(seed),
                                 workload.overrides))
        setups.append(setup())
    digests = {_check(runner, workload, f"call {k + 1}", cwd, res, ctx)
               for k, (cwd, res) in enumerate(calls)} - {None}
    if len(digests) > 1:
        runner.fail("calls with identical inputs (and seed) wrote different outputs")

    results = [res for _, res in calls]
    setups += [res["setup_s"] for res in results]
    wall = statistics.median(res["wall_s"] for res in results)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        "work_per_s": workload.work_units(results[0]["sizes"]) / wall,
    }
    notes = {"calls": len(results), "setup_samples": len(setups),
             "digest": sorted(digests), "work_unit": workload.unit,
             "walls_s": [res["wall_s"] for res in results]}
    if "probe_gap" in ctx:
        notes["p0_probe_gap"] = ctx["probe_gap"]
    return results[0], metrics, notes


def _per_layer(runner: Runner, workload: wl.Workload, seed: int):
    ctx = _check_context(runner, workload)
    argv = workload.argv(seed)
    plain_dir, plain = runner.call("untraced", argv, workload.overrides)
    traced_dir, traced = runner.call("traced", argv, workload.overrides, trace=True)
    digests = {_check(runner, workload, label, cwd, res, ctx)
               for label, cwd, res in (("untraced", plain_dir, plain),
                                       ("traced", traced_dir, traced))} - {None}
    if len(digests) > 1:
        runner.fail("tracing changed the outputs")

    layers = traced.get("layers", {})
    sizes = traced["sizes"]

    def count(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def probes(layer: str) -> list:
        return layers.get(layer, {}).get("probes", [])

    rs = sizes["rannacher_steps"]
    steps_per_solve = sizes["n_t"] - 1 + (rs if rs > 0 else 1)
    pdelta_levels = count("solver_pdelta.solve_pdelta") * steps_per_solve
    all_levels = pdelta_levels + count("solver_p0p1.solve_p0p1") * steps_per_solve

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "self_s"):
            metrics[name] = layers.get(layer, {}).get(key, 0)
    metrics["linsolve.solve_banded.per_level"] = ratio(
        count("linsolve.solve_banded"), pdelta_levels)
    metrics["linsolve.solve_tridiag_batch.systems"] = sum(
        probes("linsolve.solve_tridiag_batch"))
    metrics["linsolve.solve_tridiag_batch.per_level"] = ratio(
        count("linsolve.solve_tridiag_batch"), all_levels)
    metrics["montecarlo.brownian_increments.distinct_ratio"] = ratio(
        len({tuple(p) for p in probes("montecarlo.brownian_increments")}),
        count("montecarlo.brownian_increments"))
    metrics["csvio.write_csv.bytes"] = sum(
        (traced_dir / p).stat().st_size for p in probes("csvio.write_csv"))
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]

    solve_times = wl.pdelta_solve_times(plain_dir / "out")
    metrics["pdelta_solve_s.p50"] = statistics.median(solve_times) if solve_times else 0.0

    self_total = sum(rec["self_s"] for rec in layers.values())
    if self_total > traced["wall_s"]:
        runner.fail(f"layer self times sum to {self_total:.4f} s, more than the "
                    f"traced wall time {traced['wall_s']:.4f} s")
    spans = runner.work.parent / f"{runner.work.name}-spans.jsonl"
    shutil.copyfile(traced_dir / "spans.jsonl", spans)
    notes = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
             "layer_self_s_total": self_total, "absent_layers": traced.get("absent", []),
             "pdelta_solve_samples": len(solve_times), "digest": sorted(digests),
             "spans": str(spans.relative_to(ROOT))}
    return traced, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uvbounds" / "__init__.py").is_file():
        print(f"error: no uvbounds sources under {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    deadline = _now() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    runner = Runner(work, deadline)
    try:
        if args.trace:
            first, values, notes = _per_layer(runner, workload, args.seed)
            units = PER_LAYER
        else:
            first, values, notes = _end_to_end(runner, workload, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc} (work files kept in {work})", file=sys.stderr)
        return 1

    print("stamp " + json.dumps(_stamp(first, workload, args.seed), sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit}")
    print(f"failed_frac = {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} CLI runs)")
    for problem in runner.problems:
        print(f"check failed: {problem}")
    if runner.problems:
        print(f"work files kept in {work}")
    else:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
