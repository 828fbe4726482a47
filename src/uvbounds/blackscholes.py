"""Closed-form Black-Scholes prices.

These serve as oracles for the PDE solvers (convex/concave payoffs price
at the band endpoints) and as comparison curves, so accuracy matters: the
normal CDF goes through an erfc-based evaluation accurate to ~1 ulp rather
than any polynomial shortcut.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .payoff import PayoffSpec

__all__ = ["norm_cdf", "bs_call", "bs_payoff_price"]


def norm_cdf(x: Union[float, np.ndarray]):
    """Standard normal CDF, 0.5*erfc(-x/sqrt(2)) elementwise through
    ``math.erfc``; |error| below 1e-14 over the real line."""
    # a ufunc over math.erfc: scipy.special.ndtr would run scipy's package
    # init (0.3 s, 24 MiB RSS) in the one command that prices Black-Scholes
    erfc = np.frompyfunc(math.erfc, 1, 1)
    return 0.5 * np.asarray(erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


def bs_call(spot, strike, vol, maturity, rate=0.0):
    """Black-Scholes call price; vectorized over the spot."""
    for name, value in (("strike", strike), ("vol", vol), ("maturity", maturity)):
        if value is None or value <= 0:
            raise ValueError(f"{name} must be positive")
    scalar = np.isscalar(spot)
    s = np.asarray(spot, dtype=float)
    if np.any(s < 0):
        raise ValueError("spot must be nonnegative")
    srt = vol * np.sqrt(maturity)
    with np.errstate(divide="ignore"):
        d1 = np.where(s > 0, (np.log(np.maximum(s, 1e-300) / strike)
                              + (rate + 0.5 * vol * vol) * maturity) / srt, -np.inf)
    d2 = d1 - srt
    out = s * norm_cdf(d1) - strike * np.exp(-rate * maturity) * norm_cdf(d2)
    return float(out) if scalar else out


def bs_payoff_price(spec: PayoffSpec, spot, vol: float, maturity: float, rate: float = 0.0):
    """Black-Scholes price of a payoff from its call decomposition.

    h(x) = a + b*x + sum(w * (x - K)+) prices to
    sum(w * call(K)) + b*spot + a*exp(-rate*maturity); a tabulated payoff
    has no decomposition and raises ``ValueError``.
    """
    a, b, calls = spec.decomposition()
    s = np.asarray(spot, dtype=float)
    out = 0.0
    # the calls come first, so a put sums as its parity form call - spot + K
    for w, k in calls:
        out = out + w * bs_call(spot, k, vol, maturity, rate)
    out = out + b * s + a * np.exp(-rate * maturity)
    return float(out) if np.isscalar(spot) else out

