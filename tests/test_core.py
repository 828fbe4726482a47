import numpy as np
import pytest

from uvbounds.config import load_config
from uvbounds.core import GridSpec, ModelParams, SolverConfig, Surface, distinct_deltas
from reference import GRID, PARAMS


def paper_params(**overrides):
    base = dict(x0=100, z0=0.04, T=0.25, r=0, d=0.75, u=1.25,
                kappa=15, theta=0.04, delta=0.05, rho=-0.9)
    base.update(overrides)
    return ModelParams(**base)


def violations(**overrides) -> list[str]:
    """The rules a model built with ``overrides`` violates, empty if it builds."""
    try:
        paper_params(**overrides)
    except ValueError as exc:
        head, _, rules = str(exc).partition(": ")
        assert head == "invalid model parameters"
        return rules.split("; ")
    return []


def test_paper_parameters_are_valid():
    assert violations() == []


def test_feller_condition_examples():
    # kappa=15, theta=0.04 -> product 0.6, fine
    assert not any("Feller" in v for v in violations(kappa=15, theta=0.04))
    # kappa=1, theta=0.1 -> product 0.1, violated
    bad = violations(kappa=1, theta=0.1)
    assert any("Feller" in v for v in bad)


def test_band_ordering_violation():
    out = violations(d=1.5, u=1.25)
    assert any(v.startswith("d:") for v in out)
    assert any(v.startswith("d,u:") for v in out)


def test_nonzero_rate_reported_as_unsupported():
    out = violations(r=0.03)
    assert any("unsupported" in v for v in out)


def test_nonfinite_field_reported_first():
    out = violations(kappa=float("nan"))
    assert len(out) == 1 and "finite" in out[0]


@pytest.mark.parametrize("seed", range(8))
def test_validation_flags_iff_rule_violated(seed):
    rng = np.random.default_rng(seed)
    p = dict(
        d=rng.uniform(0.3, 1.4),
        u=rng.uniform(0.8, 1.8),
        kappa=rng.uniform(0.1, 30.0),
        theta=rng.uniform(0.001, 0.2),
        delta=rng.uniform(-0.2, 1.2),
        rho=rng.uniform(-1.2, 1.2),
        T=rng.uniform(-0.5, 2.0),
        x0=rng.uniform(-50.0, 200.0),
        z0=rng.uniform(-0.05, 0.2),
    )
    out = violations(**p)
    assert any("Feller" in v for v in out) == (p["theta"] * p["kappa"] < 0.5)
    assert any(v.startswith("d:") for v in out) == (not 0 < p["d"] < 1)
    assert any(v.startswith("u:") for v in out) == (p["u"] <= 1)
    assert any(v.startswith("rho:") for v in out) == (abs(p["rho"]) >= 1)
    assert any(v.startswith("delta:") for v in out) == (not 0 <= p["delta"] <= 1)
    assert any(v.startswith("T:") for v in out) == (p["T"] <= 0)
    assert any(v.startswith("x0:") for v in out) == (p["x0"] <= 0)
    assert any(v.startswith("z0:") for v in out) == (p["z0"] <= 0)
    if not out:
        assert paper_params(**p).replace() == paper_params(**p)  # stable on repeat


def test_every_way_of_building_a_model_checks_it():
    want = "invalid model parameters: d: require 0 < d < 1 (got 1.5); " \
           "d,u: require d < u (got d=1.5, u=1.25)"
    builds = [
        lambda: paper_params(d=1.5),
        lambda: paper_params().replace(d=1.5),
        lambda: load_config(None, ["model.d=1.5"]),
    ]
    for build in builds:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == want


def test_grid_midpoint_example():
    g = GridSpec(0, 200, 101, 0, 0.12, 4, 20)
    x, z = g.x_nodes(), g.z_nodes()
    t = np.arange(g.n_t + 1) * g.dt(0.25)
    assert x[50] == 100.0
    np.testing.assert_allclose(z, [0.0, 0.04, 0.08, 0.12], atol=1e-15)
    assert t[1] - t[0] == 0.0125 and len(t) == 21


def test_grid_spacing_matches_closed_form():
    x = GRID.x_nodes()
    dx = (200.0 - 0.0) / 99
    np.testing.assert_array_equal(x, 0.0 + np.arange(100) * dx)
    assert GRID.dx == dx


@pytest.mark.parametrize("kwargs", [
    dict(x_min=10, x_max=5, n_x=10, z_min=0, z_max=1, n_z=5, n_t=2),    # inverted x
    dict(x_min=0, x_max=float("inf"), n_x=10, z_min=0, z_max=1, n_z=5, n_t=2),
    dict(x_min=-1, x_max=5, n_x=10, z_min=0, z_max=1, n_z=5, n_t=2),    # negative x
    dict(x_min=0, x_max=5, n_x=1, z_min=0, z_max=1, n_z=5, n_t=2),      # too few x
    dict(x_min=0, x_max=5, n_x=2, z_min=0, z_max=1, n_z=5, n_t=2),      # no x-interior
    dict(x_min=0, x_max=5, n_x=10, z_min=0.3, z_max=0.2, n_z=5, n_t=2), # inverted z
    dict(x_min=0, x_max=5, n_x=10, z_min=0, z_max=1, n_z=5, n_t=0),     # no steps
    dict(x_min=0, x_max=5, n_x=10, z_min=0, z_max=1e-310, n_z=5, n_t=2),  # dz**2 == 0
])
def test_bad_grid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


GRID_KW = dict(x_min=0, x_max=200, n_x=40, z_min=0, z_max=0.12, n_z=10, n_t=4)


@pytest.mark.parametrize("cls,field,bad", [
    (SolverConfig, "corrector_passes", np.nan),
    (SolverConfig, "corrector_passes", 1.5),
    (SolverConfig, "rannacher_steps", 1.5),
    (SolverConfig, "rannacher_steps", np.inf),
    (GridSpec, "n_x", 40.7),
    (GridSpec, "n_z", 10.5),
    (GridSpec, "n_t", np.nan),
])
def test_non_integral_counts_rejected(cls, field, bad):
    base = GRID_KW if cls is GridSpec else {}
    with pytest.raises(ValueError, match=field):
        cls(**{**base, field: bad})
    # an integral float or a numpy integer is the count it holds
    for good in (4.0, np.int64(4)):
        n = getattr(cls(**{**base, field: good}), field)
        assert n == 4 and type(n) is int


def test_degenerate_single_z_slice_allowed():
    g = GridSpec(0, 200, 10, 0.04, 0.04, 1, 3)
    assert g.dz == 0.0
    np.testing.assert_array_equal(g.z_nodes(), [0.04])


def test_surface_is_read_only_and_shape_checked():
    g = GridSpec(0, 10, 5, 0, 1, 3, 2)
    s = Surface(np.zeros((5, 3)), g)
    with pytest.raises(ValueError):
        s.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        Surface(np.zeros((4, 3)), g)
    with pytest.raises(ValueError):
        Surface(np.full((5, 3), np.nan), g)


def test_surface_interpolation_reproduces_cubics():
    # 4-point Lagrange interpolation is exact on cubic polynomials
    g = GridSpec(0, 10, 21, 0, 1, 11, 2)
    x = g.x_nodes()[:, None]
    z = g.z_nodes()[None, :]
    vals = 0.5 * x**3 - x + 2 + 3 * z**2 * 0 + z  # cubic in x, linear in z
    s = Surface(vals, g)
    for xt, zt in [(3.3, 0.55), (0.1, 0.02), (9.9, 0.98)]:
        want = 0.5 * xt**3 - xt + 2 + zt
        assert s.value_at(xt, zt) == pytest.approx(want, abs=1e-10)


def test_surface_bilinear_interpolation():
    g = GridSpec(0, 10, 11, 0, 1, 6, 2)
    x = g.x_nodes()[:, None]
    z = g.z_nodes()[None, :]
    s = Surface(2.0 * x + 3.0 * z + 1.0, g)
    # the cubic stencil reproduces a bilinear function exactly
    assert s.value_at(4.5, 0.3) == pytest.approx(2 * 4.5 + 3 * 0.3 + 1, abs=1e-12)
    # clamped outside the rectangle
    assert s.value_at(-5.0, 0.3) == pytest.approx(3 * 0.3 + 1, abs=1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(cn_weight=1.5)
    with pytest.raises(ValueError):
        SolverConfig(corrector_passes=0)
    with pytest.raises(ValueError):
        SolverConfig(gamma_eps=-1.0)
    # below theta = 1/2 the weighted step is only conditionally stable
    for weight in (0.0, 0.25, np.nextafter(0.5, 0.0), np.nan):
        with pytest.raises(ValueError, match="cn_weight"):
            SolverConfig(cn_weight=weight)
    assert SolverConfig(cn_weight=0.5).cn_weight == 0.5
    assert SolverConfig(cn_weight=1.0).cn_weight == 1.0
    # a NaN or infinite tolerance would switch off the test it sets
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="gamma_eps"):
            SolverConfig(gamma_eps=bad)
        with pytest.raises(ValueError, match="lin_tol"):
            SolverConfig(lin_tol=bad)
    with pytest.raises(ValueError, match="lin_tol"):
        SolverConfig(lin_tol=-np.inf)
    cfg = SolverConfig()
    assert cfg.resolve_gamma_eps(paper_params()) == pytest.approx(1e-9 * 100**2)
    assert SolverConfig(gamma_eps=1e-7).resolve_gamma_eps(paper_params()) == 1e-7


def test_distinct_deltas_is_the_one_rule_for_a_delta_list():
    # what the error sweep and the rate study both fit against log(delta)
    assert distinct_deltas(PARAMS, [0.04, 0.01, 0.04]) == [0.01, 0.04]
    nan = float("nan")
    for deltas, message in [([0.01], "two distinct"), ([0.01, 0.01], "two distinct"),
                            ([0.0, 0.01], "all > 0"), ([nan, 0.0, 0.01], "all > 0"),
                            ([0.01, 1.5], "delta: require 0 <= delta <= 1"),
                            ([nan, 0.01], "delta: must be finite")]:
        with pytest.raises(ValueError, match=message):
            distinct_deltas(PARAMS, deltas)
