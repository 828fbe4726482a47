"""The closed forms here are the oracle for the PDE solvers, so they get
checked against an independent high-precision reference (mpmath erfc at 50
digits). The FROZEN constants below were produced by the _mp_* functions;
one test recomputes them so a stale constant cannot hide. The put and
capped-linear references are written with N(-d1) and N(-d2), not through
put-call parity, which is how ``bs_payoff_price`` builds them.
"""

import mpmath as mp
import numpy as np
import pytest

from uvbounds.blackscholes import bs_call, bs_payoff_price, norm_cdf
from uvbounds.payoff import PayoffSpec

mp.mp.dps = 50

# (spot, strike, vol, maturity, rate) -> price, from the mpmath reference
FROZEN_CALLS = {
    (100.0, 100.0, 0.25, 0.25, 0.0): 4.983533805849444,
    (100.0, 100.0, 0.15, 0.25, 0.0): 2.9913659851819556,
    (105.0, 100.0, 0.20, 0.50, 0.03): 9.55321096334587,
    (90.0, 110.0, 0.40, 2.00, 0.01): 14.197754303136083,
}
FROZEN_BUTTERFLY = {
    (100.0, (90.0, 100.0, 110.0), 0.15, 0.25, 0.0): 4.656044408638232,
    (100.0, (90.0, 100.0, 110.0), 0.25, 0.25, 0.0): 3.0331803904529606,
}
FROZEN_PUTS = {
    (100.0, 100.0, 0.25, 0.25, 0.0): 4.9835338058494445,
    (105.0, 100.0, 0.20, 0.50, 0.03): 3.0644049236521367,
    (90.0, 110.0, 0.40, 2.00, 0.01): 32.01960836687917,
    (150.0, 100.0, 0.20, 0.25, 0.0): 6.851253473432527e-05,
}
# min(x, cap) at (spot, cap, vol, maturity, rate)
FROZEN_CAPPED = {
    (100.0, 100.0, 0.25, 0.25, 0.0): 95.01646619415055,
    (105.0, 100.0, 0.20, 0.50, 0.03): 95.44678903665412,
    (90.0, 110.0, 0.40, 2.00, 0.01): 75.80224569686392,
    (150.0, 100.0, 0.20, 0.25, 0.0): 99.99993148746526,
}
BF = (90.0, 100.0, 110.0)


def _mp_ncdf(v):
    return mp.erfc(-v / mp.sqrt(2)) / 2


def _mp_d1_d2(s, k, vol, t, r):
    d1 = (mp.log(s / k) + (r + vol**2 / 2) * t) / (vol * mp.sqrt(t))
    return d1, d1 - vol * mp.sqrt(t)


def _mp_call(s, k, vol, t, r):
    s, k, vol, t, r = map(mp.mpf, (s, k, vol, t, r))
    d1, d2 = _mp_d1_d2(s, k, vol, t, r)
    return s * _mp_ncdf(d1) - k * mp.exp(-r * t) * _mp_ncdf(d2)


def _mp_put(s, k, vol, t, r):
    s, k, vol, t, r = map(mp.mpf, (s, k, vol, t, r))
    d1, d2 = _mp_d1_d2(s, k, vol, t, r)
    return k * mp.exp(-r * t) * _mp_ncdf(-d2) - s * _mp_ncdf(-d1)


def _mp_capped(s, k, vol, t, r):
    # E[min(X, K)]: X below K pays X, X above K pays K
    s, k, vol, t, r = map(mp.mpf, (s, k, vol, t, r))
    d1, d2 = _mp_d1_d2(s, k, vol, t, r)
    return s * _mp_ncdf(-d1) + k * mp.exp(-r * t) * _mp_ncdf(d2)


def _mp_butterfly(s, ks, vol, t, r):
    return _mp_call(s, ks[0], vol, t, r) - 2 * _mp_call(s, ks[1], vol, t, r) \
        + _mp_call(s, ks[2], vol, t, r)


def test_frozen_constants_match_reference():
    for args, want in FROZEN_CALLS.items():
        assert float(_mp_call(*args)) == pytest.approx(want, abs=1e-13)
    for args, want in FROZEN_BUTTERFLY.items():
        assert float(_mp_butterfly(*args)) == pytest.approx(want, abs=1e-13)
    for args, want in FROZEN_PUTS.items():
        assert float(_mp_put(*args)) == pytest.approx(want, abs=1e-13)
    for args, want in FROZEN_CAPPED.items():
        assert float(_mp_capped(*args)) == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("args,want", sorted(FROZEN_CALLS.items()))
def test_call_against_oracle(args, want):
    assert bs_call(*args) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("args,want", sorted(FROZEN_BUTTERFLY.items()))
def test_butterfly_against_oracle(args, want):
    spot, strikes, vol, t, r = args
    price = bs_payoff_price(PayoffSpec.butterfly(*strikes), spot, vol, t, r)
    assert price == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("args,want", sorted(FROZEN_PUTS.items()))
def test_put_against_oracle(args, want):
    spot, strike, vol, t, r = args
    assert bs_payoff_price(PayoffSpec.put(strike), spot, vol, t, r) == pytest.approx(
        want, abs=1e-12)


@pytest.mark.parametrize("args,want", sorted(FROZEN_CAPPED.items()))
def test_capped_linear_against_oracle(args, want):
    spot, cap, vol, t, r = args
    assert bs_payoff_price(PayoffSpec.capped_linear(cap), spot, vol, t, r) == pytest.approx(
        want, abs=1e-12)


def test_norm_cdf_spot_values():
    # mpmath erfc reference values
    assert norm_cdf(0.0625) == pytest.approx(0.5249176690292472, abs=1e-14)
    assert norm_cdf(-1.75) == pytest.approx(0.04005915686381709, abs=1e-14)
    assert norm_cdf(3.3) == pytest.approx(0.9995165758576162, abs=1e-14)


def test_vanishing_vol_limit_is_intrinsic():
    assert bs_call(120, 100, 1e-10, 0.25, 0.0) == pytest.approx(20.0, abs=1e-8)
    assert bs_call(80, 100, 1e-10, 0.25, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_zero_spot_prices_to_zero():
    assert bs_call(np.array([0.0]), 100, 0.25, 0.25, 0.0)[0] == 0.0
    assert bs_call(1e-12, 100, 0.25, 0.25, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_short_maturity_butterfly_approaches_payoff():
    price = bs_payoff_price(PayoffSpec.butterfly(*BF), 100.0, 0.2, 1e-8, 0.0)
    assert price == pytest.approx(10.0, abs=1e-2)


def test_butterfly_value_between_zero_and_peak():
    v = bs_payoff_price(PayoffSpec.butterfly(*BF), 100.0, 0.15, 0.25, 0.0)
    assert 0.0 < v < 10.0


def test_butterfly_vega_negative_at_peak():
    spec = PayoffSpec.butterfly(*BF)
    assert bs_payoff_price(spec, 100.0, 0.25, 0.25) < bs_payoff_price(spec, 100.0, 0.15, 0.25)


def test_put_call_parity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = rng.uniform(20, 200)
        k = rng.uniform(20, 200)
        vol = rng.uniform(0.05, 0.8)
        t = rng.uniform(0.05, 3.0)
        r = rng.uniform(0.0, 0.08)
        lhs = bs_call(s, k, vol, t, r) - bs_payoff_price(PayoffSpec.put(k), s, vol, t, r)
        assert lhs == pytest.approx(s - k * np.exp(-r * t), abs=1e-10)


def test_call_monotone_in_vol_and_spot_convex_in_spot():
    spots = np.linspace(40, 180, 60)
    lo = bs_call(spots, 100, 0.15, 0.5, 0.0)
    hi = bs_call(spots, 100, 0.35, 0.5, 0.0)
    assert np.all(hi > lo)
    assert np.all(np.diff(lo) > 0)             # increasing in spot
    assert np.all(np.diff(lo, 2) > -1e-10)     # convex in spot


def test_payoff_price_dispatch_consistent():
    spot, vol, t = 104.0, 0.2, 0.5
    assert bs_payoff_price(PayoffSpec.call(100), spot, vol, t) == bs_call(spot, 100, vol, t)
    # (K - x)+ = K - x + (x - K)+, summed in put-call parity's order
    assert bs_payoff_price(PayoffSpec.put(100), spot, vol, t) == \
        bs_call(spot, 100, vol, t) - spot + 100
    # min(x, K) = K - (K - x)+
    capped = bs_payoff_price(PayoffSpec.capped_linear(100), spot, vol, t)
    put = bs_payoff_price(PayoffSpec.put(100), spot, vol, t)
    assert capped == pytest.approx(100 - put, abs=1e-12)
    with pytest.raises(ValueError):
        bs_payoff_price(PayoffSpec.tabulated([1, 2], [0, 1]), spot, vol, t)


@pytest.mark.parametrize("kwargs", [
    dict(strike=-100, vol=0.2, maturity=1.0),
    dict(strike=100, vol=-0.2, maturity=1.0),
    dict(strike=100, vol=0.2, maturity=0.0),
    dict(strike=None, vol=0.2, maturity=1.0),
])
def test_nonpositive_inputs_rejected(kwargs):
    with pytest.raises(ValueError):
        bs_call(100.0, **kwargs)
    with pytest.raises(ValueError):
        bs_call(np.array([-1.0, 50.0]), 100, 0.2, 1.0)
