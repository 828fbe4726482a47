import numpy as np
import pytest

from uvbounds.core import GridSpec
from uvbounds.payoff import PayoffSpec, evaluate, load_tabulated_csv, terminal_surface
from reference import BF, GRID


def test_butterfly_peak_and_kinks():
    assert evaluate(BF, 100.0) == 10.0
    assert evaluate(BF, 90.0) == 0.0
    assert evaluate(BF, 110.0) == 0.0
    assert evaluate(BF, 50.0) == 0.0
    assert evaluate(BF, 170.0) == 0.0


def test_call_intrinsic():
    assert evaluate(PayoffSpec.call(100), 120.0) == 20.0
    assert evaluate(PayoffSpec.put(100), 80.0) == 20.0
    assert evaluate(PayoffSpec.capped_linear(100), 120.0) == 100.0
    assert evaluate(PayoffSpec.capped_linear(100), 70.0) == 70.0


def test_butterfly_bounded_and_symmetric():
    x = np.linspace(0, 250, 1001)
    h = evaluate(BF, x)
    assert np.all(h >= 0)
    assert np.all(h <= 10.0)  # bounded by k2 - k1
    for a in np.linspace(0, 30, 31):
        assert evaluate(BF, 100 + a) == pytest.approx(evaluate(BF, 100 - a), abs=1e-12)


@pytest.mark.parametrize("spec", [BF, PayoffSpec.call(80), PayoffSpec.put(120)])
@pytest.mark.parametrize("lam", [0.5, 2.0, 7.3])
def test_positive_homogeneity(spec, lam):
    scaled = PayoffSpec(spec.kind, tuple(lam * k for k in spec.strikes))
    for x in (30.0, 85.0, 101.0, 160.0):
        assert evaluate(scaled, lam * x) == pytest.approx(lam * evaluate(spec, x), rel=1e-12)


def test_terminal_surface_constant_in_z():
    surf = terminal_surface(BF, GRID)
    i100 = GRID.ix_nearest(100.0)
    col = surf.values[i100, :]
    assert np.all(col == col[0])
    np.testing.assert_array_equal(surf.values, np.tile(surf.values[:, :1], (1, 100)))


def test_terminal_surface_peak_column_on_aligned_grid():
    # with the middle strike on a node, that column is the peak value 10
    grid = GridSpec(0, 200, 101, 0, 0.12, 8, 20)
    surf = terminal_surface(BF, grid)
    assert grid.x_nodes()[50] == 100.0
    np.testing.assert_array_equal(surf.values[50, :], np.full(8, 10.0))


def test_terminal_surface_degenerate_single_slice():
    grid = GridSpec(0, 200, 50, 0.04, 0.04, 1, 4)
    surf = terminal_surface(BF, grid)
    np.testing.assert_array_equal(surf.values[:, 0], evaluate(BF, grid.x_nodes()))


def test_tabulated_copy_matches_analytic_on_nodes():
    grid = GridSpec(0, 200, 120, 0, 0.12, 5, 4)
    x = grid.x_nodes()
    tab = PayoffSpec.tabulated(x, evaluate(BF, x))
    a = terminal_surface(BF, grid)
    b = terminal_surface(tab, grid)
    np.testing.assert_array_equal(a.values, b.values)


def test_tabulated_interpolates_and_extrapolates_flat():
    tab = PayoffSpec.tabulated([1.0, 2.0, 4.0], [0.0, 2.0, 2.0])
    assert evaluate(tab, 1.5) == 1.0
    assert evaluate(tab, 0.0) == 0.0   # constant below range
    assert evaluate(tab, 9.0) == 2.0   # constant above range


def test_spec_validation():
    with pytest.raises(ValueError):
        PayoffSpec.butterfly(100, 90, 110)
    with pytest.raises(ValueError):
        PayoffSpec.call(-5)
    with pytest.raises(ValueError):
        PayoffSpec.tabulated([1, 1, 2], [0, 1, 2])  # not strictly increasing
    with pytest.raises(ValueError):
        PayoffSpec("weird")


def test_csv_loader_roundtrip(tmp_path):
    path = tmp_path / "payoff.csv"
    path.write_text("x,h\n1.0,0.0\n2.0,3.5\n3.0,1.0\n")
    spec = load_tabulated_csv(path)
    assert evaluate(spec, 2.0) == 3.5
    bad = tmp_path / "bad.csv"
    bad.write_text("x,h\n1.0,0.0\noops,1.0\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(bad)


def test_csv_loader_skips_only_the_first_row(tmp_path):
    # a second malformed row before the data is an error, not another header
    bad = tmp_path / "bad.csv"
    bad.write_text("x,h\nfoo,bar\n5\n1,0\n2,1\n3,1\n")
    with pytest.raises(ValueError, match="bad tabulated payoff row"):
        load_tabulated_csv(bad)
    headless = tmp_path / "headless.csv"
    headless.write_text("\n1,0\n2,1\n")
    np.testing.assert_array_equal(load_tabulated_csv(headless).table_x, [1.0, 2.0])


@pytest.mark.parametrize("text", [
    "x,h\n1,0,9\n2,1\n3,1,foo\n",   # cells after the second
    "1,0,9\n2,1\n3,1\n",              # a numeric first row is data, not a header
    "x,h\n1,0\n2,1,\n",               # a trailing empty cell
], ids=["extra_cells", "numeric_first_row", "trailing_empty_cell"])
def test_csv_loader_rejects_rows_without_exactly_two_cells(tmp_path, text):
    path = tmp_path / "wide.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad tabulated payoff row"):
        load_tabulated_csv(path)
