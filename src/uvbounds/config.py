"""Configuration files and the built-in experiment preset.

The file format is INI-style key=value text with one section per
component. ``PAPER_PRESET`` below holds every key with its default value,
and ``SCHEMA`` adds the payoff keys that only another kind in
``payoff.KINDS`` reads; unknown sections or keys are rejected so typos
fail loudly. Dotted overrides (``section.key=value``) patch the parsed
file before anything is built.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import GridSpec, ModelParams, SolverConfig
from .payoff import KINDS, PayoffSpec, load_tabulated_csv

__all__ = [
    "ConfigError",
    "RunSettings",
    "PAPER_PRESET",
    "load_config",
    "apply_overrides",
    "build_settings",
    "settings_to_flat_dict",
]


class ConfigError(ValueError):
    """Malformed configuration file, key, or override."""


# experiment preset: butterfly 90/100/110, band slopes 0.75/1.25 around a
# slowly mean-reverting variance level 0.04, 100 x 100 grid, 20 time steps
PAPER_PRESET: dict[str, dict[str, str]] = {
    "model": {
        "x0": "100", "z0": "0.04", "T": "0.25", "r": "0",
        "d": "0.75", "u": "1.25", "kappa": "15", "theta": "0.04",
        "delta": "0.05", "rho": "-0.9",
    },
    "grid": {
        "x_min": "0", "x_max": "200", "n_x": "100",
        "z_min": "0", "z_max": "0.12", "n_z": "100", "n_t": "20",
    },
    "solver": {
        "cn_weight": "0.5", "corrector_passes": "1", "gamma_eps": "auto",
        "lin_tol": "1e-10", "rannacher_steps": "2",
    },
    "payoff": {"kind": "butterfly", "k1": "90", "k2": "100", "k3": "110"},
    "sweep": {
        "deltas": "0.005,0.01,0.015,0.02,0.025,0.03,0.035,0.04,0.045,0.05",
        "window_x_min": "60", "window_x_max": "140",
    },
    "mc": {
        "n_paths": "100000", "n_steps": "200",
        "rate_deltas": "0.00125,0.0025,0.005,0.01,0.02,0.04",
        "n_bound_paths": "8",
    },
}

SCHEMA: dict[str, tuple[str, ...]] = {sec: tuple(kv) for sec, kv in PAPER_PRESET.items()}
SCHEMA["payoff"] = tuple(dict.fromkeys(
    SCHEMA["payoff"] + tuple(key for keys, _ in KINDS.values() for key in keys)))


@dataclass(frozen=True)
class RunSettings:
    model: ModelParams
    grid: GridSpec
    solver: SolverConfig
    payoff: PayoffSpec
    sweep_deltas: tuple[float, ...]
    window: tuple[float, float]
    mc_n_paths: int
    mc_n_steps: int
    mc_rate_deltas: tuple[float, ...]
    mc_n_bound_paths: int
    raw: dict[str, dict[str, str]]


def _merge(base: dict[str, dict[str, str]],
           update: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    out = {sec: dict(kv) for sec, kv in base.items()}
    for sec, kv in update.items():
        if sec not in SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in kv.items():
            if key not in SCHEMA[sec]:
                raise ConfigError(f"unknown config key {sec}.{key}")
            out.setdefault(sec, {})[key] = value
    return out


def load_config(path: Optional[str] = None,
                overrides: Optional[list[str]] = None) -> RunSettings:
    """Parse a config file (or the built-in preset), apply overrides, build."""
    raw = {sec: dict(kv) for sec, kv in PAPER_PRESET.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive
        try:
            found = parser.read(Path(path))
            if not found:
                raise ConfigError(f"config file not found: {path}")
            file_dict = {sec: dict(parser.items(sec)) for sec in parser.sections()}
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        raw = _merge(raw, file_dict)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return build_settings(raw)


def apply_overrides(raw: dict[str, dict[str, str]],
                    overrides: list[str]) -> dict[str, dict[str, str]]:
    update: dict[str, dict[str, str]] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, value = item.split("=", 1)
        dotted = dotted.strip()
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} is not of the form section.key")
        sec, key = dotted.split(".", 1)
        update.setdefault(sec, {})[key] = value.strip()
    return _merge(raw, update)


def _as_float(raw, sec: str, key: str) -> float:
    try:
        return float(raw[sec][key])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad numeric value for {sec}.{key}") from exc


def _as_int(raw, sec: str, key: str) -> int:
    try:
        return int(raw[sec][key])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad integer value for {sec}.{key}") from exc


def _as_float_list(raw, sec: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw[sec][key].split(",") if tok.strip())
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad list value for {sec}.{key}") from exc


def _build_payoff(raw: dict[str, dict[str, str]]) -> PayoffSpec:
    kv = raw.get("payoff", {})
    kind = kv.get("kind", "butterfly")
    if kind not in KINDS:
        raise ConfigError(f"unknown payoff kind {kind!r}")
    keys, calls = KINDS[kind]
    try:
        if calls is None:  # a tabulated payoff names its two-column x,h file
            return load_tabulated_csv(kv[keys[0]])
        return PayoffSpec(kind, tuple(float(kv[key]) for key in keys))
    except (KeyError, ValueError, OSError) as exc:
        raise ConfigError(f"bad payoff section: {exc}") from exc


def _check_resolution(grid: GridSpec, payoff: PayoffSpec) -> None:
    """Each kink of a closed-form payoff must lie in [x_min, x_max], with an
    x-node strictly between adjacent kinks; tabulated payoffs are not checked."""
    if KINDS[payoff.kind][1] is None:
        return
    kinks = [k for _, k in payoff.decomposition()[2]]
    outside = [f"{k:g}" for k in kinks if not grid.x_min <= k <= grid.x_max]
    if outside:
        raise ConfigError(f"payoff kink(s) {', '.join(outside)} lie outside the grid "
                          f"[x_min, x_max] = [{grid.x_min:g}, {grid.x_max:g}]")
    x = grid.x_nodes()
    for a, b in zip(kinks, kinks[1:]):
        if not ((x > a) & (x < b)).any():
            raise ConfigError(f"grid has no x-node strictly between the payoff kinks "
                              f"{a:g} and {b:g} (dx = {grid.dx:g}); raise grid.n_x")


def _check_initial_state(model: ModelParams, grid: GridSpec) -> None:
    """Every price is reported at (x0, z0), so that point must lie on the grid."""
    outside = [f"model.{name} = {v:g} lies outside the grid's "
               f"[{axis}_min, {axis}_max] = [{lo:g}, {hi:g}]"
               for name, axis, v, lo, hi in (
                   ("x0", "x", model.x0, grid.x_min, grid.x_max),
                   ("z0", "z", model.z0, grid.z_min, grid.z_max))
               if not lo <= v <= hi]
    if outside:
        raise ConfigError("; ".join(outside))


def build_settings(raw: dict[str, dict[str, str]]) -> RunSettings:
    model = {key: _as_float(raw, "model", key) for key in SCHEMA["model"]}
    try:
        grid = GridSpec(
            x_min=_as_float(raw, "grid", "x_min"), x_max=_as_float(raw, "grid", "x_max"),
            n_x=_as_int(raw, "grid", "n_x"),
            z_min=_as_float(raw, "grid", "z_min"), z_max=_as_float(raw, "grid", "z_max"),
            n_z=_as_int(raw, "grid", "n_z"), n_t=_as_int(raw, "grid", "n_t"),
        )
        geps_raw = raw["solver"].get("gamma_eps", "auto").strip().lower()
        solver = SolverConfig(
            cn_weight=_as_float(raw, "solver", "cn_weight"),
            corrector_passes=_as_int(raw, "solver", "corrector_passes"),
            gamma_eps=None if geps_raw == "auto" else float(geps_raw),
            lin_tol=_as_float(raw, "solver", "lin_tol"),
            rannacher_steps=_as_int(raw, "solver", "rannacher_steps"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    payoff = _build_payoff(raw)
    _check_resolution(grid, payoff)
    # built last, so a config with several faults reports the others first;
    # its ValueError lists every violated model rule
    model_params = ModelParams(**model)
    _check_initial_state(model_params, grid)
    return RunSettings(
        model=model_params,
        grid=grid,
        solver=solver,
        payoff=payoff,
        sweep_deltas=_as_float_list(raw, "sweep", "deltas"),
        window=(_as_float(raw, "sweep", "window_x_min"),
                _as_float(raw, "sweep", "window_x_max")),
        mc_n_paths=_as_int(raw, "mc", "n_paths"),
        mc_n_steps=_as_int(raw, "mc", "n_steps"),
        mc_rate_deltas=_as_float_list(raw, "mc", "rate_deltas"),
        mc_n_bound_paths=_as_int(raw, "mc", "n_bound_paths"),
        raw=raw,
    )


def settings_to_flat_dict(settings: RunSettings) -> dict[str, str]:
    """Flat section.key -> value view of the resolved configuration."""
    return {f"{sec}.{key}": value
            for sec, kv in sorted(settings.raw.items())
            for key, value in sorted(kv.items())}
