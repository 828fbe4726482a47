import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from uvbounds import csvio
from uvbounds.csvio import write_csv
from reference import write_rows_csv


def test_write_csv_bytes_equal_row_reference(tmp_path, monkeypatch):
    # several blocks, with values repeating across and within them
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", 4)
    floats = np.array([0.0, -0.0, 1.5, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1.5, -0.0])
    columns = [
        np.arange(10) % 3,
        floats,
        floats.astype(np.float32),
        np.arange(10) % 2 == 0,
        np.array(["A", "B", "a,b", 'q"t', "A", "", "C", "B", "A", "x"]),
        np.array([1, 2.5, "s", None, np.float64(-0.0), True, 3, "t", 0.25, 7],
                 dtype=object),
    ]
    header = ["i", "f64", "f32", "flag", "tag", "mixed"]
    write_rows_csv(tmp_path / "rows.csv", header, zip(*columns))
    write_csv(tmp_path / "cols.csv", header, columns)
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_header_only_and_length_check(tmp_path):
    write_csv(tmp_path / "empty.csv", ["a", "b"], [np.zeros(0), np.zeros(0)])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])


# text cells: the characters csv.writer quotes on, and the empty string
TEXT = hst.text(alphabet=hst.sampled_from('a ,"\r\n'), max_size=5)


@settings(max_examples=150, deadline=None)
@given(hst.integers(1, 3).flatmap(lambda k: hst.tuples(
           hst.lists(TEXT, min_size=k, max_size=k),
           hst.lists(hst.lists(TEXT, min_size=k, max_size=k), max_size=6))),
       hst.sampled_from([str, object]))
def test_text_cells_give_csv_writer_bytes(tmp_path_factory, table, dtype):
    header, rows = table
    columns = [np.array([row[k] for row in rows], dtype=dtype) for k in range(len(header))]
    out = tmp_path_factory.mktemp("text")
    write_rows_csv(out / "rows.csv", header, rows)
    write_csv(out / "cols.csv", header, columns)
    assert (out / "cols.csv").read_bytes() == (out / "rows.csv").read_bytes()
