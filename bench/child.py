"""One fresh benchmark process.

Usage: python3 child.py SPEC.json SPAWN_TIME   (in a directory holding run.cfg)

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start, ``import uvbounds``
and ``load_config``. If the spec names a CLI argv, the process then runs
``uvbounds.cli.run(argv)`` once, timed, optionally with layer tracing.
The result goes to ``result.json`` in the working directory.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    spawned = float(sys.argv[2])
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    import uvbounds
    import uvbounds.cli
    from uvbounds.config import load_config

    settings = load_config("run.cfg", spec["overrides"])
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned

    if not uvbounds.__file__.startswith(spec["src"]):
        print(f"error: uvbounds imported from {uvbounds.__file__}, "
              f"not from {spec['src']}", file=sys.stderr)
        return 3

    import numpy
    import scipy
    import platform

    grid = settings.grid
    result = {
        "setup_s": setup_s,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "sizes": {"x0": settings.model.x0, "z0": settings.model.z0,
                  "n_x": grid.n_x, "n_z": grid.n_z, "n_t": grid.n_t,
                  "rannacher_steps": settings.solver.rannacher_steps,
                  "n_sweep_deltas": len(settings.sweep_deltas),
                  "mc_n_paths": settings.mc_n_paths,
                  "mc_n_steps": settings.mc_n_steps,
                  "mc_n_rate_deltas": len(settings.mc_rate_deltas)},
    }
    if spec["argv"] is not None:
        recorder = None
        if spec["trace"]:
            import tracing
            recorder = tracing.install(uvbounds)
        started = time.perf_counter()
        try:
            rc = uvbounds.cli.run(spec["argv"])
        except Exception:   # a crash is a failed call, as for the console script
            traceback.print_exc()
            rc = 1
        result["wall_s"] = time.perf_counter() - started
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            result["layers"] = recorder.summary()
            result["absent"] = recorder.absent
            recorder.dump("spans.jsonl")

    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
