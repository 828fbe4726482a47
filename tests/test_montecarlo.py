import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from uvbounds import montecarlo
from uvbounds.core import loglog_fit
from uvbounds.montecarlo import (
    CHUNK_PATHS, _terminal_gap_sq, coupling_rate_study, simulate_cir,
    simulate_coupled_asset,
)
from reference import (
    PARAMS, RANDOM_UNUSED, brownian_increments, chunk_moments, exponent_sum_terminals,
    fresh_python, product_terminals,
)

# a state-dependent control: the kernel prices constants only, so it runs
# on the reference simulator
SWITCHING = lambda t, x, z: np.where(x >= 100.0, PARAMS.d, PARAMS.u)


def test_frozen_variance_at_delta_zero():
    z = simulate_cir(PARAMS.replace(delta=0.0), 50, 200, seed=1)
    assert np.all(z == PARAMS.z0)


def test_coupled_paths_identical_at_delta_zero():
    for control in (PARAMS.d, PARAMS.u):
        z_T, x_T, x_T_frozen = simulate_coupled_asset(PARAMS.replace(delta=0.0), control,
                                                      50, 500, seed=2)
        np.testing.assert_array_equal(x_T, x_T_frozen)
        assert np.all(z_T == PARAMS.z0)


def _gap_moments(gaps: np.ndarray) -> tuple[float, float]:
    # what the rate study must give for one pair's full row of squared gaps:
    # within one chunk the two-pass moments, beyond it their chunk merge
    n = len(gaps)
    if n <= CHUNK_PATHS:
        return float(np.mean(gaps)), float(np.std(gaps, ddof=1) / np.sqrt(n))
    return chunk_moments(gaps, CHUNK_PATHS)


def test_simulators_share_one_path_kernel():
    # same seed: the terminal variance of the variance paths and the
    # squared-gap moments of the rate study are bitwise those of the
    # coupled simulation, within one chunk and across three
    for n_paths in (300, 2 * CHUNK_PATHS + 5):
        z_T, x_T, x_T_frozen = simulate_coupled_asset(PARAMS, PARAMS.d, 40, n_paths,
                                                      seed=8)
        np.testing.assert_array_equal(simulate_cir(PARAMS, 40, n_paths, seed=8)[:, -1],
                                      z_T)
        mean, stderr = _terminal_gap_sq(PARAMS, [PARAMS.delta], [PARAMS.d], 40,
                                        n_paths, seed=8)
        assert (mean[0], stderr[0]) == _gap_moments((x_T - x_T_frozen) ** 2)


@pytest.mark.parametrize("n_paths", [CHUNK_PATHS // 3, CHUNK_PATHS + 3,
                                     2 * CHUNK_PATHS + 5],
                         ids=["part_chunk", "one_chunk_plus_3", "two_chunks_plus_5"])
def test_batched_pairs_bitwise_equal_single_pair_runs(n_paths):
    # every (delta, control) pair of one batched run equals, bit for bit, its
    # own single-pair run and the unchunked loop, whatever the chunk split
    deltas = [0.04, 0.01]
    controls = {"const_d": PARAMS.d, "const_u": PARAMS.u}  # the study's pair
    n_steps, seed = 6, 31
    mean, stderr = _terminal_gap_sq(PARAMS, deltas, list(controls.values()),
                                    n_steps, n_paths, seed)
    fits = coupling_rate_study(PARAMS, deltas, n_paths, seed, n_steps)
    assert [f.control for f in fits] == list(controls)
    for i, dl in enumerate(deltas):
        p = PARAMS.replace(delta=dl)
        for j, control in enumerate(controls.values()):
            terminals = simulate_coupled_asset(p, control, n_steps, n_paths, seed)
            z, x_d, x_f = exponent_sum_terminals(p, control, n_steps, n_paths, seed)
            for got, want in zip(terminals, (z, x_d, x_f)):
                np.testing.assert_array_equal(got, want)
            want = _gap_moments((x_d - x_f) ** 2)
            pair = i * len(controls) + j
            assert (mean[pair], stderr[pair]) == want
            assert (fits[j].estimates[i], fits[j].stderrs[i]) == want


def test_multi_chunk_moments_match_two_pass_statistics():
    # the chunk merge against np.mean and np.std over the full reference
    # gap row, on 5 chunks and a partial one
    deltas = [0.04, 0.01, 0.0025]
    n_steps, n_paths, seed = 8, 5 * CHUNK_PATHS + 123, 17
    fits = coupling_rate_study(PARAMS, deltas, n_paths, seed, n_steps)
    for fit, control in zip(fits, (PARAMS.d, PARAMS.u)):
        for i, dl in enumerate(fit.deltas):
            _, x_d, x_f = exponent_sum_terminals(PARAMS.replace(delta=dl), control,
                                                 n_steps, n_paths, seed)
            gaps = (x_d - x_f) ** 2
            assert fit.estimates[i] == pytest.approx(np.mean(gaps), rel=1e-13, abs=0)
            assert fit.stderrs[i] == pytest.approx(
                np.std(gaps, ddof=1) / np.sqrt(n_paths), rel=1e-13, abs=0)


def test_rate_study_memory_independent_of_path_count():
    # the study keeps per-chunk state only: 14 more chunks of paths must
    # not raise its traced peak (a per-pair row of all paths would add
    # 6 pairs * 14 * CHUNK_PATHS * 8 B, about 2.6 MiB)
    deltas, n_steps = [0.04, 0.01, 0.0025], 5

    def peak(n_paths):
        tracemalloc.start()
        try:
            coupling_rate_study(PARAMS, deltas, n_paths, seed=3, n_steps=n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2 * CHUNK_PATHS + 5)  # warm-up: first-call caches and imports
    small, big = peak(2 * CHUNK_PATHS + 5), peak(16 * CHUNK_PATHS + 5)
    assert big - small < 0.25 * 2**20, (small, big)


RATE_DELTAS = [0.00125, 0.0025, 0.005, 0.01, 0.02, 0.04]  # paper.cfg's


def _rate_study_peak_lanes(n_steps: int) -> float:
    # the traced peak of a warm rate study on RATE_DELTAS, in lane arrays
    # (n_delta * CHUNK_PATHS * 8 B)
    n_paths = 2 * CHUNK_PATHS + 5
    coupling_rate_study(PARAMS, RATE_DELTAS, n_paths, seed=3, n_steps=5)  # warm-up
    tracemalloc.start()
    try:
        coupling_rate_study(PARAMS, RATE_DELTAS, n_paths, seed=3, n_steps=n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (len(RATE_DELTAS) * CHUNK_PATHS * 8)


def test_rate_study_working_set_is_bounded():
    # the kernel allocates its lanes once per run and steps on one lane of
    # scratch. In lane arrays, the traced peak of paper.cfg's six deltas is
    # measured 5.38 at 5 steps and 5.57 at 50, where a working set rebuilt
    # for every chunk peaked at 10.04 and 10.24
    for n_steps in (5, 50):
        lanes = _rate_study_peak_lanes(n_steps)
        assert lanes <= 7.5, (n_steps, lanes)


@pytest.mark.parametrize("n_steps", [5, 50])
def test_rate_study_steps_on_one_lane_of_scratch(n_steps):
    # the lanes, their two sums and two one-lane scratch vectors: 3 lane
    # arrays and 2/n_delta of one. Measured 5.38 at 5 steps and 5.57 at 50;
    # two scratch lanes as wide as the block measured 7.05 and 7.24
    lanes = _rate_study_peak_lanes(n_steps)
    assert lanes <= 6.0, lanes


@pytest.mark.parametrize("delta", [PARAMS.delta, 1.0], ids=["paper", "heavy_noise"])
def test_cir_paths_bitwise_equal_a_plain_loop_at_every_level(delta):
    # the chunks share one working set: no level of any chunk, the short
    # last one included, may read a value left by the chunk before it
    p = PARAMS.replace(delta=delta)
    n_steps, n_paths, seed = 12, 2 * CHUNK_PATHS + 5, 9
    dt = p.T / n_steps
    want = np.empty((n_paths, n_steps + 1))
    z = np.full(n_paths, p.z0)
    want[:, 0] = z
    for k in range(n_steps):
        zp = np.maximum(z, 0.0)
        _, dwz = brownian_increments(seed, k, n_paths, p.rho, dt)
        z = z + p.delta * p.kappa * (p.theta - zp) * dt + np.sqrt(p.delta) * np.sqrt(zp) * dwz
        want[:, k + 1] = np.maximum(z, 0.0)
    got = simulate_cir(p, n_steps, n_paths, seed)
    assert got.tobytes() == want.tobytes()
    assert delta < 1.0 or np.any(want == 0.0)  # heavy noise truncates


def test_multi_lane_record_equals_single_delta_paths_at_every_level():
    # six lanes stepped together: at every level of every chunk, the short
    # last one included, lane i is bitwise the raw level of delta i's own
    # simulate_cir run, which truncates what it reports. Controls in the
    # same run must not move the lanes
    n_steps, n_paths, seed = 7, 2 * CHUNK_PATHS + 5, 19
    want = [simulate_cir(PARAMS.replace(delta=dl), n_steps, n_paths, seed)
            for dl in RATE_DELTAS]
    for controls in ([], [PARAMS.d, PARAMS.u]):
        got = np.full((len(RATE_DELTAS), n_paths, n_steps + 1), np.nan)

        def record(rows, k, z):
            got[:, rows, k] = z

        montecarlo._advance_paths(PARAMS, RATE_DELTAS, controls, n_steps, n_paths,
                                  seed, record, terminal=lambda *pair: None)
        for i in range(len(RATE_DELTAS)):
            assert np.maximum(got[i], 0.0).tobytes() == want[i].tobytes(), (controls, i)


@pytest.mark.parametrize("simulate, control", [
    (simulate_coupled_asset, PARAMS.d), (simulate_coupled_asset, PARAMS.u),
    (exponent_sum_terminals, SWITCHING)], ids=["const_d", "const_u", "switching"])
def test_exponent_sums_match_product_of_step_factors(simulate, control):
    # one exp of the summed exponent against the product of one exp factor
    # per step: rounding apart, the same scheme. Measured at 100 steps on
    # 20,000 paths: assets 3.6e-15 relative, gap means 5.1e-15 relative
    # (largest at the smallest delta, where the gap is smallest). A flipped
    # switching control would move an asset by ~1e-2.
    n_steps, n_paths, seed = 100, 20_000, 3
    for delta in (0.00125, 0.05):
        p = PARAMS.replace(delta=delta)
        z, x_d, x_f = simulate(p, control, n_steps, n_paths, seed)
        z_ref, x_d_ref, x_f_ref = product_terminals(p, control, n_steps, n_paths, seed)
        np.testing.assert_array_equal(z, z_ref)
        np.testing.assert_allclose(x_d, x_d_ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(x_f, x_f_ref, rtol=1e-13, atol=0)
        assert np.mean((x_d - x_f) ** 2) == pytest.approx(
            np.mean((x_d_ref - x_f_ref) ** 2), rel=1e-12)


def test_study_draws_each_step_block_once(monkeypatch):
    calls = []
    real = montecarlo._stream

    def counting(seed, step):
        calls.append(step)
        return real(seed, step)

    monkeypatch.setattr(montecarlo, "_stream", counting)
    n_steps = 7
    for deltas in ([0.01, 0.02], [0.005, 0.01, 0.02]):
        calls.clear()
        coupling_rate_study(PARAMS, deltas, CHUNK_PATHS + 3, seed=4, n_steps=n_steps)
        assert sorted(calls) == list(range(n_steps))


def test_bitwise_reproducibility():
    a = simulate_coupled_asset(PARAMS, PARAMS.d, 30, 100, seed=42)
    b = simulate_coupled_asset(PARAMS, PARAMS.d, 30, 100, seed=42)
    for got, want in zip(a, b):
        np.testing.assert_array_equal(got, want)
    c = simulate_coupled_asset(PARAMS, PARAMS.d, 30, 100, seed=43)
    assert not np.array_equal(a[1], c[1])


@pytest.mark.parametrize("lam", [4.0, 0.25])
def test_time_change_symmetry_of_the_paths(lam):
    # z -> lam*z, theta -> lam*theta, kappa -> kappa/lam, delta -> lam^2*delta
    # and T -> T/lam scale the variance paths by lam and leave the asset's.
    # At lam = 4^k, sqrt(dt) scales by a power of two too, so the checks are
    # bit for bit; at lam = 2 they differ by rounding (1e-15 relative)
    deltas, controls = [0.0025, 0.005, 0.01, 0.02], [PARAMS.d, PARAMS.u]
    scaled = PARAMS.replace(z0=lam * PARAMS.z0, theta=lam * PARAMS.theta,
                            kappa=PARAMS.kappa / lam, T=PARAMS.T / lam)
    base = _terminal_gap_sq(PARAMS, deltas, controls, 40, 5000, seed=7)
    got = _terminal_gap_sq(scaled, [lam * lam * d for d in deltas], controls, 40, 5000, seed=7)
    for a, b in zip(got, base):
        assert a.tobytes() == b.tobytes()
    z = simulate_cir(PARAMS, 40, 5000, seed=7)
    z_scaled = simulate_cir(scaled.replace(delta=lam * lam * PARAMS.delta), 40, 5000, seed=7)
    assert z_scaled.tobytes() == (lam * z).tobytes()


def test_increments_pure_in_seed_step_path():
    dw1, dwz1 = brownian_increments(9, 4, 64, -0.9, 0.01)
    dw2, dwz2 = brownian_increments(9, 4, 64, -0.9, 0.01)
    np.testing.assert_array_equal(dw1, dw2)
    np.testing.assert_array_equal(dwz1, dwz2)
    dw3, _ = brownian_increments(9, 5, 64, -0.9, 0.01)
    assert not np.array_equal(dw1, dw3)
    # path p's draw does not depend on the batch size
    dw_small, _ = brownian_increments(9, 4, 16, -0.9, 0.01)
    np.testing.assert_array_equal(dw_small, dw1[:16])


def test_increment_correlation_within_three_se():
    n = 50_000
    dw, dwz = brownian_increments(123, 0, n, PARAMS.rho, 1.0)
    sample = np.corrcoef(dw, dwz)[0, 1]
    se = (1 - PARAMS.rho**2) / np.sqrt(n)
    assert abs(sample - PARAMS.rho) < 3 * se


def test_consecutive_step_shocks_uncorrelated_within_three_se():
    n = 50_000
    now = brownian_increments(123, 0, n, PARAMS.rho, 1.0)
    after = brownian_increments(123, 1, n, PARAMS.rho, 1.0)
    se = 1.0 / np.sqrt(n)
    for a, b in zip(now, after):  # (dW_k, dW_k+1), then (dW_z,k, dW_z,k+1)
        assert abs(np.corrcoef(a, b)[0, 1]) < 3 * se


@pytest.mark.parametrize("seed, step", [(0, 0), (7, 3), (2**64 - 1, 199)])
def test_stream_is_the_step_th_seed_sequence_child(seed, step):
    child = np.random.SeedSequence(seed).spawn(step + 1)[step]
    want = np.random.Generator(np.random.SFC64(child)).standard_normal((64, 2))
    np.testing.assert_array_equal(montecarlo._stream(seed, step).standard_normal((64, 2)),
                                  want)


def test_streams_differ_across_steps_and_seeds():
    def draws(seed, step):
        return montecarlo._stream(seed, step).standard_normal(16)

    s = 12345
    assert not np.array_equal(draws(s, 0), draws(s, 1))
    assert not np.array_equal(draws(s, 0), draws(s + 2**32, 0))  # all 64 bits count


# One fresh process per mode runs simulate_cir, writes its paths' bytes to a
# file, imports numpy.random plainly and prints one JSON record: "secrets"
# imports the stdlib module first, and "fails" makes a first stream import
# raise twice before the run, once with numpy.random._generator blocked and
# once with numpy.random.bit_generator. The watched modules are counted past
# those loaded before the package is: numpy 1.x loads numpy.random, and so
# secrets, with numpy.
_LOADER = f"""
import json, random, sys
mode, out, params = sys.argv[1:]
if mode == "secrets":
    import secrets
import numpy as np
watched = ("secrets", "hmac", "_hashlib", *{RANDOM_UNUSED!r})
before = {{m for m in watched if m in sys.modules}}
from uvbounds import montecarlo
from uvbounds.core import ModelParams
record = {{}}
if mode == "fails" and not before:
    for blocked in ("numpy.random._generator", "numpy.random.bit_generator"):
        sys.modules[blocked] = None
        try:
            montecarlo._numpy_random()
        except ImportError:
            # any stand-in, or submodule imported under the stand-in package
            record.setdefault("left_after_raise", []).extend(
                m for m, module in sys.modules.items() if module is not None
                and (m == "secrets" or m.startswith("numpy.random")))
        del sys.modules[blocked]
montecarlo.simulate_cir(ModelParams(**json.loads(params)), 20, 50, seed=11).tofile(out)
record["loaded"] = [m for m in watched if m in sys.modules and m not in before]
streams = montecarlo._numpy_random()
import numpy.random
record["package"] = [name for name in ("mtrand", "bit_generator", "_generator", "_sfc64",
                                       "default_rng", "RandomState", "MT19937")
                     if not hasattr(np.random, name)]
record["same_classes"] = [np.random.Generator, np.random.SFC64, np.random.SeedSequence] \
    == list(streams) and np.random.bit_generator.SeedSequence is streams[2]
record["default_rng"] = 0 <= np.random.default_rng(1).random() < 1
entropy = {{np.random.SeedSequence().entropy for _ in range(2)}}
record["os_entropy"] = len(entropy) == 2 and all(0 <= e < 2**128 for e in entropy)
import secrets
record.update(token_hex=len(secrets.token_hex(8)),
              faithful=secrets.randbits.__func__ is random.SystemRandom.getrandbits,
              numpy_bound=np.random.bit_generator.randbits.__func__
              is random.SystemRandom.getrandbits,
              aside=bool(before))
print(json.dumps(record))
"""


def test_streams_load_no_openssl_and_draw_the_same_bits(tmp_path):
    # the streams' classes come without secrets, hmac or _hashlib, and
    # without the numpy.random modules no stream draws from; the stand-ins
    # they were imported under are gone once the import returns or raises.
    # A later plain import of numpy.random gives the whole package, every
    # submodule bound, with the classes the streams used; an unseeded
    # SeedSequence still reads OS entropy, a later import finds the stdlib's
    # secrets, and the paths are bitwise those of a process whose
    # numpy.random ran its own package init
    params = json.dumps(dataclasses.asdict(PARAMS))
    runs = {mode: json.loads(fresh_python(_LOADER, mode, str(tmp_path / mode), params)
                             .splitlines()[-1])
            for mode in ("plain", "secrets", "fails")}
    # where secrets or numpy.random is loaded already, the loader stands aside
    aside = runs["plain"]["aside"]
    assert runs["fails"].pop("left_after_raise", None) == (None if aside else [])
    for mode, record in runs.items():
        # standing aside, the loader imports the whole package
        loaded = list(RANDOM_UNUSED) if mode == "secrets" and not aside else []
        assert record == {"loaded": loaded, "package": [], "same_classes": True,
                          "default_rng": True, "os_entropy": True, "token_hex": 16,
                          "faithful": True, "numpy_bound": True,
                          "aside": aside or mode == "secrets"}, mode
    assert (tmp_path / "plain").read_bytes() == (tmp_path / "secrets").read_bytes() \
        == (tmp_path / "fails").read_bytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_rejected_before_any_stream(monkeypatch, seed):
    def no_stepping(seed, step):
        raise AssertionError("a step stream was built")

    monkeypatch.setattr(montecarlo, "_stream", no_stepping)
    with pytest.raises(ValueError, match=rf"seed .*\(got {seed}\)"):
        simulate_cir(PARAMS, 10, 100, seed=seed)


def test_reported_paths_nonnegative_under_heavy_noise():
    p = PARAMS.replace(z0=0.02, theta=0.04, kappa=25, delta=1.0)
    z = simulate_cir(p, 100, 5_000, seed=3)
    assert z.min() >= 0.0


def test_cir_mean_matches_closed_form():
    # relaxation toward theta: E[Z_T] = z0 + (theta - z0)(1 - exp(-delta*kappa*T))
    p = PARAMS.replace(z0=0.02, theta=0.06, kappa=25)
    n = 100_000
    z = simulate_cir(p, 200, n, seed=7)
    oracle = p.z0 + (p.theta - p.z0) * (1 - np.exp(-p.delta * p.kappa * p.T))
    se = z[:, -1].std(ddof=1) / np.sqrt(n)
    assert abs(z[:, -1].mean() - oracle) < 3 * se


def test_terminal_mean_is_martingale_at_frozen_variance():
    n = 20_000
    _, xt, _ = simulate_coupled_asset(PARAMS.replace(delta=0.0), PARAMS.u, 100, n,
                                      seed=11)
    se = xt.std(ddof=1) / np.sqrt(n)
    assert abs(xt.mean() - PARAMS.x0) < 3 * se
    assert np.all(xt > 0)


def test_coupling_gap_small_relative_to_price_scale():
    _, x_T, x_T_frozen = simulate_coupled_asset(PARAMS, PARAMS.u, 100, 20_000, seed=13)
    msq = np.mean((x_T - x_T_frozen) ** 2)
    assert 0.0 < msq < 0.05 * PARAMS.x0**2


def test_rate_study_slopes_near_one():
    fits = coupling_rate_study(
        PARAMS, [0.005, 0.01, 0.02, 0.04], n_paths=20_000, seed=20240, n_steps=100)
    assert [f.control for f in fits] == ["const_d", "const_u"]
    for f in fits:
        assert f.slope == pytest.approx(1.0, abs=0.15)
        assert np.all(np.diff(f.deltas) < 0)  # sorted descending internally


def test_switching_control_slope_near_one():
    # the rate study's fit of a state-dependent control, one reference run
    # per delta on common random numbers
    deltas = np.array([0.04, 0.02, 0.01, 0.005])
    n_paths = 20_000
    est, se = [], []
    for delta in deltas:
        _, x_d, x_f = exponent_sum_terminals(PARAMS.replace(delta=delta), SWITCHING,
                                             100, n_paths, seed=20240)
        sq = (x_d - x_f) ** 2
        est.append(float(np.mean(sq)))
        se.append(float(np.std(sq, ddof=1) / np.sqrt(n_paths)))
    slope, _, _, _ = loglog_fit(deltas, np.array(est), np.array(se))
    assert slope == pytest.approx(1.0, abs=0.15)


def test_rate_study_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        coupling_rate_study(PARAMS, [0.0, 0.01], 100, seed=1)
    with pytest.raises(ValueError):
        coupling_rate_study(PARAMS, [0.01], 100, seed=1)
    with pytest.raises(ValueError, match="delta: require 0 <= delta <= 1"):
        coupling_rate_study(PARAMS, [0.01, 1.5], 100, seed=1)


def test_rate_stderr_shrinks_with_path_count():
    small = coupling_rate_study(PARAMS, [0.01, 0.02, 0.04], 10_000, seed=5, n_steps=50)
    big = coupling_rate_study(PARAMS, [0.01, 0.02, 0.04], 20_000, seed=5, n_steps=50)
    for f_small, f_big in zip(small, big):
        ratio = f_big.slope_stderr / f_small.slope_stderr
        assert ratio == pytest.approx(1 / np.sqrt(2), abs=0.12)


def test_control_outside_band_rejected():
    for bad in (0.5, 2.0):
        with pytest.raises(ValueError):
            simulate_coupled_asset(PARAMS, bad, 10, 10, seed=1)


def test_non_finite_controls_rejected():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            simulate_coupled_asset(PARAMS, bad, 10, 10, seed=1)


def test_study_validates_controls_before_stepping(monkeypatch):
    def no_stepping(seed, step):
        raise AssertionError("a step stream was built")

    monkeypatch.setattr(montecarlo, "_stream", no_stepping)
    for bad in (0.5, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"\[d, u\]"):
            simulate_coupled_asset(PARAMS, bad, 10, 100, seed=1)


def test_counts_validated():
    with pytest.raises(ValueError):
        simulate_cir(PARAMS, 0, 10, seed=1)
    with pytest.raises(ValueError):
        simulate_cir(PARAMS, 10, 0, seed=1)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        simulate_cir(PARAMS.replace(kappa=1, theta=0.1), 10, 10, seed=1)
