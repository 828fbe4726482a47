"""Closed-form Black-Scholes prices.

These serve as oracles for the PDE solvers (convex/concave payoffs price
at the band endpoints) and as comparison curves, so accuracy matters: the
normal CDF goes through an erf-based evaluation accurate to ~1 ulp rather
than any polynomial shortcut.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .payoff import PayoffSpec

__all__ = ["norm_cdf", "bs_call", "bs_put", "bs_butterfly", "bs_payoff_price"]


def norm_cdf(x: Union[float, np.ndarray]):
    """Standard normal CDF via erf; |error| below 1e-14 over the real line."""
    # scipy.special adds ~26 MiB RSS; load it only once a price is asked for
    from scipy.special import ndtr

    return ndtr(x)


def bs_call(spot, strike, vol, maturity, rate=0.0):
    """Black-Scholes call price; vectorized over the spot."""
    _check_inputs(strike, vol, maturity)
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


def bs_put(spot, strike, vol, maturity, rate=0.0):
    """Black-Scholes put via put-call parity."""
    call = bs_call(spot, strike, vol, maturity, rate)
    fwd = strike * np.exp(-rate * maturity)
    return call - spot + fwd if np.isscalar(spot) else call - np.asarray(spot, float) + fwd


def bs_butterfly(spot, strikes, vol, maturity, rate=0.0):
    """Price of the 1/-2/1 butterfly as a linear combination of calls."""
    k1, k2, k3 = strikes
    return (
        bs_call(spot, k1, vol, maturity, rate)
        - 2.0 * bs_call(spot, k2, vol, maturity, rate)
        + bs_call(spot, k3, vol, maturity, rate)
    )


def bs_payoff_price(spec: PayoffSpec, spot, vol: float, maturity: float, rate: float = 0.0):
    """Black-Scholes price of any call-decomposable payoff spec.

    capped_linear uses min(x, K) = K - (K - x)+, so its price is
    K*exp(-r*tau) - put(K). Tabulated payoffs are not decomposable.
    """
    if spec.kind == "call":
        return bs_call(spot, spec.strikes[0], vol, maturity, rate)
    if spec.kind == "put":
        return bs_put(spot, spec.strikes[0], vol, maturity, rate)
    if spec.kind == "butterfly":
        return bs_butterfly(spot, spec.strikes, vol, maturity, rate)
    if spec.kind == "capped_linear":
        k = spec.strikes[0]
        return k * np.exp(-rate * maturity) - bs_put(spot, k, vol, maturity, rate)
    raise ValueError(f"no closed form for payoff kind {spec.kind!r}")


def _check_inputs(strike, vol, maturity) -> None:
    for name, value in (("strike", strike), ("vol", vol), ("maturity", maturity)):
        if value is None or value <= 0:
            raise ValueError(f"{name} must be positive")
