"""Terminal payoff functions and their evaluation on grids."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import GridSpec, Surface

__all__ = [
    "KINDS",
    "PayoffSpec",
    "evaluate",
    "terminal_surface",
    "load_tabulated_csv",
]

# kind -> (its [payoff] config keys, strikes -> call decomposition (a, b,
# ((w, K), ...)) of h(x) = a + b*x + sum(w * max(x - K, 0))). A strike kind
# takes one strike per key, in key order; tabulated has no decomposition.
KINDS = {
    "butterfly": (("k1", "k2", "k3"),
                  lambda k1, k2, k3: (0.0, 0.0, ((1.0, k1), (-2.0, k2), (1.0, k3)))),
    "call": (("strike",), lambda k: (0.0, 0.0, ((1.0, k),))),
    "put": (("strike",), lambda k: (k, -1.0, ((1.0, k),))),
    "capped_linear": (("cap",), lambda k: (0.0, 1.0, ((-1.0, k),))),
    "tabulated": (("csv",), None),
}


@dataclass(frozen=True)
class PayoffSpec:
    """Description of a terminal payoff h(x).

    Use the classmethod constructors; the generic constructor only
    validates what they produce.
    """

    kind: str
    strikes: tuple[float, ...] = ()
    table_x: Optional[np.ndarray] = None
    table_h: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        keys, calls = KINDS[self.kind]
        if calls is None:
            x = np.asarray(self.table_x, dtype=float)
            h = np.asarray(self.table_h, dtype=float)
            if x.ndim != 1 or x.shape != h.shape or len(x) < 2:
                raise ValueError("tabulated payoff needs two equal-length 1D columns")
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(h))):
                raise ValueError("tabulated payoff values must be finite")
            if not np.all(np.diff(x) > 0):
                raise ValueError("tabulated payoff x-values must be strictly increasing")
            x.setflags(write=False)
            h.setflags(write=False)
            object.__setattr__(self, "table_x", x)
            object.__setattr__(self, "table_h", h)
        else:
            if len(self.strikes) != len(keys):
                raise ValueError(f"{self.kind} payoff needs {len(keys)} strike(s)")
            if any(k <= 0 or not np.isfinite(k) for k in self.strikes):
                raise ValueError("strikes must be positive and finite")
            if not np.all(np.diff(self.strikes) > 0):
                raise ValueError(f"{self.kind} strikes must satisfy {' < '.join(keys)}")

    @classmethod
    def butterfly(cls, k1: float, k2: float, k3: float) -> "PayoffSpec":
        return cls("butterfly", (float(k1), float(k2), float(k3)))

    @classmethod
    def call(cls, strike: float) -> "PayoffSpec":
        return cls("call", (float(strike),))

    @classmethod
    def put(cls, strike: float) -> "PayoffSpec":
        return cls("put", (float(strike),))

    @classmethod
    def capped_linear(cls, cap: float) -> "PayoffSpec":
        return cls("capped_linear", (float(cap),))

    @classmethod
    def tabulated(cls, x, h) -> "PayoffSpec":
        return cls("tabulated", (), np.asarray(x, float), np.asarray(h, float))

    def decomposition(self) -> tuple[float, float, tuple[tuple[float, float], ...]]:
        """``(a, b, ((w, K), ...))`` with h(x) = a + b*x + sum(w * max(x - K, 0)).

        Raises ``ValueError`` for a tabulated payoff, which has none.
        """
        calls = KINDS[self.kind][1]
        if calls is None:
            raise ValueError(f"payoff kind {self.kind!r} has no call decomposition")
        return calls(*self.strikes)


def evaluate(spec: PayoffSpec, x: Union[float, np.ndarray]):
    """Payoff value h(x); vectorized over x.

    Tabulated payoffs use linear interpolation inside their x-range and
    constant extrapolation outside it.
    """
    xa = np.asarray(x, dtype=float)
    if spec.kind == "tabulated":
        out = np.interp(xa, spec.table_x, spec.table_h)
    else:
        a, b, calls = spec.decomposition()
        out = a + b * xa
        for w, k in calls:
            out = out + w * np.maximum(xa - k, 0.0)
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(out)
    return out


def terminal_surface(spec: PayoffSpec, grid: GridSpec) -> Surface:
    """Terminal condition on the grid: values[i, j] = h(x_i) for every j."""
    col = evaluate(spec, grid.x_nodes())
    values = np.repeat(np.asarray(col, float)[:, None], grid.n_z, axis=1)
    return Surface(values, grid)


def load_tabulated_csv(path) -> PayoffSpec:
    """Read a tabulated payoff from a two-column CSV (x, h).

    Only the first non-empty row may hold a cell that is not a number: it
    is taken as a header and skipped. Every other row must be exactly two
    numbers; any other row raises ``ValueError``.
    """
    xs: list[float] = []
    hs: list[float] = []
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    for n, row in enumerate(rows):
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            if n == 0:
                continue  # header row
            values = []
        if len(values) != 2:
            raise ValueError(f"bad tabulated payoff row: {row!r}")
        xs.append(values[0])
        hs.append(values[1])
    return PayoffSpec.tabulated(xs, hs)
