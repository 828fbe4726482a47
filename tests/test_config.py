from pathlib import Path

from hypothesis import given, settings, strategies as hst

from uvbounds.config import SCHEMA, load_config
from reference import BF, GRID, PAPER_CFG, PARAMS

BENCH_CFG = Path(__file__).resolve().parents[1] / "bench" / "reference.cfg"
KEYS = [f"{sec}.{key}" for sec, keys in SCHEMA.items() for key in keys]
VALUES = hst.one_of(
    hst.sampled_from([
        "auto", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e308", "-1e308",
        "1e-300", "5e-324", "2.2e-309", "0", "-0", "-1", "", "1,2", ",", "abc",
        "butterfly", "call", "put", "capped_linear", "tabulated",
    ]),
    hst.floats().map(repr),
    hst.integers(-10**12, 10**12).map(str),
    hst.text(max_size=8),
)


def test_paper_cfg_spells_out_the_builtin_preset():
    preset = load_config(None)
    assert load_config(str(PAPER_CFG)).raw == preset.raw
    # the tests' one definition of the paper's experiment is the preset's
    assert (preset.model, preset.payoff, preset.grid) == (PARAMS, BF, GRID)


def test_benchmark_config_loads():
    # the benchmark runs every workload on its own frozen copy of the preset,
    # so a schema change that rejects it breaks every benchmark run: it must
    # build here first. It may differ from paper.cfg
    settings = load_config(str(BENCH_CFG))
    assert settings.grid.n_x > 0 and settings.sweep_deltas and settings.mc_n_paths > 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hst.lists(hst.tuples(hst.sampled_from(KEYS), VALUES), max_size=4))
def test_fuzzed_overrides_build_or_raise_value_error(overrides):
    # any --set value either builds settings or is a config error (exit 2);
    # nothing else may escape, a RuntimeWarning included
    try:
        load_config(None, [f"{key}={value}" for key, value in overrides])
    except ValueError:  # ConfigError included
        pass
