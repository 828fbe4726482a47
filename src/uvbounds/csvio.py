"""CSV emission helpers.

Dialect: comma separator, '.' decimal point, LF line endings, mandatory
header row. Floats print in scientific notation with 17 significant
digits so binary doubles round-trip losslessly. Cells are quoted by the
``csv`` module's QUOTE_MINIMAL rule for this dialect, so a file is the bytes
``csv.writer(fh, lineterminator="\n")`` would write; the lines are joined
here, without that writer's per-field work.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Surface

__all__ = ["fmt", "write_csv", "surface_to_csv"]

# rows formatted at a time: bounds the cell strings held at once
_BLOCK_ROWS = 1 << 14


def fmt(value) -> str:
    """Render one cell: lossless scientific notation for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".16e")
    return str(value)


def _quote(text: str, alone: bool) -> str:
    """``text`` as csv.writer's QUOTE_MINIMAL writes it: quoted, with inner
    quotes doubled, when it holds the delimiter, the quote character or the
    line terminator, or when it is the empty only field of its record."""
    if any(c in text for c in ',"\n') or (alone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_column(values: np.ndarray, alone: bool) -> list:
    """The quoted ``fmt`` of every cell, made once per distinct value: columns
    of grid coordinates, levels and tags repeat a few values. ``alone`` says
    the column is its records' only field."""
    if values.dtype.kind == "O":
        # objects of mixed types do not sort: sort their text
        values = np.array([fmt(v) for v in values.tolist()], dtype=object)
    floats = values.dtype.kind == "f"
    # floats are keyed by bit pattern: -0.0 equals 0.0 but prints differently
    key = values.astype(np.float64).view(np.uint64) if floats else values
    distinct, inverse = np.unique(key, return_inverse=True)
    if floats:
        distinct = distinct.view(np.float64)
    text = np.array([_quote(fmt(v), alone) for v in distinct.tolist()], dtype=object)
    return text[inverse].tolist()


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns, row ``k`` holding ``fmt`` of each column's
    ``k``-th cell, at a cost per distinct value rather than per cell."""
    columns = [np.asarray(c) for c in columns]
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(_quote(str(h), len(header) == 1) for h in header) + "\n")
        for start in range(0, max(map(len, columns), default=0), _BLOCK_ROWS):
            block = [_format_column(c[start:start + _BLOCK_ROWS], len(columns) == 1)
                     for c in columns]
            fh.write("\n".join(map(",".join, zip(*block, strict=True))) + "\n")


def surface_to_csv(surface: Surface, path) -> None:
    """Surface layout: header of z-coordinates, first column x-coordinates."""
    header = ["x"] + [fmt(v) for v in surface.grid.z_nodes()]
    write_csv(path, header, [surface.grid.x_nodes(), *surface.values.T])
