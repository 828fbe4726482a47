"""Layer spans for the traced benchmark run.

Each layer is named after the public or private callable that implements
it, as ``<module>.<name>``. ``install`` replaces every ``uvbounds`` module
attribute (or class attribute, for methods) bound to that callable with a
wrapper that records one span per call: layer name, parent span, start,
end and an optional probe of the arguments. Spans stay in memory; the
caller summarises and writes them once, after the run.

A layer whose callable no longer exists (renamed or removed by a refactor)
is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _tridiag_systems(args: dict) -> int:
    return int(np.shape(args["main"])[0])


def _rng_block(args: dict) -> tuple:
    return (int(args["seed"]), int(args["step"]))


def _csv_path(args: dict) -> str:
    return os.fspath(args["path"])


@dataclass(frozen=True)
class Layer:
    name: str                       # metric prefix, e.g. "linsolve.solve_banded"
    module: str                     # home module inside the package
    attr: str                       # "fn" or "Class.method"
    probe: Optional[Callable[[dict], object]] = None


LAYERS = (
    Layer("cli.run", "cli", "run"),
    Layer("analysis.error_sweep", "analysis", "error_sweep"),
    Layer("solver_p0p1.solve_p0p1", "solver_p0p1", "solve_p0p1"),
    Layer("solver_pdelta.solve_pdelta", "solver_pdelta", "solve_pdelta"),
    Layer("solver_pdelta.select_q", "solver_pdelta", "select_q"),
    Layer("solver_pdelta.assemble", "solver_pdelta", "_Assembler.generator"),
    Layer("linsolve.solve_banded", "linsolve", "solve_banded"),
    Layer("linsolve.solve_tridiag_batch", "linsolve", "solve_tridiag_batch",
          _tridiag_systems),
    Layer("stencils.lxx_values", "stencils", "lxx_values"),
    Layer("stencils.lxz_values", "stencils", "lxz_values"),
    Layer("core.Surface", "core", "Surface.__init__"),
    Layer("payoff.terminal_surface", "payoff", "terminal_surface"),
    Layer("montecarlo.path_step", "montecarlo", "_terminal_gap_sq"),
    Layer("montecarlo.brownian_increments", "montecarlo", "brownian_increments",
          _rng_block),
    Layer("csvio.write_csv", "csvio", "write_csv", _csv_path),
)


class Recorder:
    """In-memory span list; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []    # [layer, parent, start, end, probe value]
        self._stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        sig = inspect.signature(fn) if layer.probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if sig is not None:
                try:
                    extra = layer.probe(sig.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError, IndexError):
                    pass
            span = [layer.name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0, extra]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, self time, and the probe values seen."""
        child_s = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, _, start, end, extra) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "probes": []})
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_s[i]
            if extra is not None:
                rec["probes"].append(extra)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, start, end, _ in self.spans:
                fh.write(json.dumps({"layer": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def _package_modules(package) -> dict[str, object]:
    mods = {"": package}
    for info in pkgutil.iter_modules(package.__path__):
        mods[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return mods


def install(package) -> Recorder:
    """Wrap every layer of ``package`` found by module attribute."""
    rec = Recorder()
    mods = _package_modules(package)
    for layer in LAYERS:
        home = mods.get(layer.module)
        owner_path, _, attr = layer.attr.rpartition(".")
        owner = home
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            rec.absent.append(layer.name)
            continue
        wrapped = rec.wrap(layer, fn)
        if owner_path:   # a method: one binding, on its class
            setattr(owner, attr, wrapped)
            continue
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
    return rec
