import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psimoment import MangoldtSieve, prime_count, sweep
from psimoment import sieve as sieve_module
from psimoment.sieve import WHEEL, Segment, lambda_segment, small_primes

import oracles

MAX_LO = 10**10
MAX_LENGTH = 3 * WHEEL + 7


@lru_cache(maxsize=1)
def wide_base():
    """Base primes for every range the bit-identity property draws."""
    return small_primes(math.isqrt(MAX_LO + MAX_LENGTH))


def assert_equal_bits(got, want, where):
    (ns, ws), (ref_ns, ref_ws) = got, want
    assert ns.dtype == ref_ns.dtype and ws.dtype == ref_ws.dtype
    assert np.array_equal(ns, ref_ns), where
    assert ws.tobytes() == ref_ws.tobytes(), where


def assert_same_bits(lo, hi, base):
    seg = Segment(lo, hi)
    assert_equal_bits(lambda_segment(seg, base),
                      oracles.lambda_segment_reference(seg, base), (lo, hi))


def assert_same_events(sieve, lo, hi):
    assert_equal_bits(sieve.events(lo, hi), oracles.events_reference(sieve, lo, hi),
                      (lo, hi))


def test_small_primes_trivial():
    assert small_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert small_primes(2).primes.tolist() == [2]


def test_small_primes_count_1e5():
    # Frozen from the trial-division oracle: pi(1e5) = 9592.
    assert len(small_primes(10**5).primes) == 9592


def test_small_primes_empty_domain():
    with pytest.raises(ValueError):
        small_primes(1)


def test_events_refuse_an_invalid_segment():
    with pytest.raises(ValueError, match=r"invalid segment \(-1, 10\]"):
        MangoldtSieve().events(-1, 10)


def test_lambda_segment_1_to_10():
    ns, ws = lambda_segment(Segment(1, 10), small_primes(4))
    assert ns.tolist() == [2, 3, 4, 5, 7, 8, 9]
    expected = [math.log(p) for p in [2, 3, 2, 5, 7, 2, 3]]
    assert ws.tolist() == pytest.approx(expected, abs=0)


def test_lambda_segment_single_power():
    ns, ws = lambda_segment(Segment(8, 9), small_primes(3))
    assert ns.tolist() == [9]
    assert ws.tolist() == [math.log(3)]


def test_lambda_segment_base_too_small():
    with pytest.raises(ValueError, match="need limit >= "):
        lambda_segment(Segment(1, 100), small_primes(5))


def test_lambda_segment_high_range_vs_oracle():
    lo, hi = 10**8, 10**8 + 10**4
    ns, ws = MangoldtSieve().events(lo, hi)
    expected = {
        n: oracles.trial_division_lambda(n)
        for n in range(lo + 1, hi + 1)
        if oracles.trial_division_lambda(n) > 0
    }
    assert ns.tolist() == sorted(expected)
    for n, w in zip(ns, ws):
        assert abs(w - expected[int(n)]) <= np.spacing(w)


def test_segment_independence():
    base = small_primes(100)
    whole_ns, whole_ws = lambda_segment(Segment(1, 5000), base)
    parts = [lambda_segment(Segment(a, min(a + 700, 5000)), base)
             for a in range(1, 5000, 700)]
    cat_ns = np.concatenate([p[0] for p in parts])
    cat_ws = np.concatenate([p[1] for p in parts])
    assert np.array_equal(whole_ns, cat_ns)
    assert np.array_equal(whole_ws, cat_ws)


@settings(max_examples=60, deadline=None)
@given(lo=st.one_of(st.integers(0, MAX_LO), st.integers(MAX_LO - 2**32, MAX_LO)),
       length=st.integers(1, MAX_LENGTH))
def test_lambda_segment_matches_reference(lo, length):
    # The wheel, odd-only mask, rounds and power table return the plain
    # sieve's ns and the same weight bits.  The second lo strategy keeps the
    # top decade, where every base prime is live, in every run.
    assert_same_bits(lo, lo + length, wide_base())


@pytest.mark.parametrize("lo,hi", [
    # lo = 0, 1, 2: n = 1 cleared, 2 added, odd start at 1 or 3
    *[(lo, hi) for lo in (0, 1, 2) for hi in range(lo + 1, lo + 40)],
    # ranges holding 2, or the wheel primes 3..13, at either end
    (1, 2), (1, 3), (2, 3), (2, 13), (3, 13), (12, 13), (12, 17), (13, 14),
    # p^2 boundaries: a first cross-off at p^2 just inside or outside
    *[(q - d, q + e) for p in (17, 19, 23, 101, 65521, 99991)
      for q in (p * p,) for d, e in ((3, -1), (1, 0), (2, 0), (1, 1), (3, 2))],
    # ranges crossing a 30030 = 2 * WHEEL boundary, so the tiling wraps
    *[(30030 * m - d, 30030 * m + e) for m in (1, 2, 333000)
      for d in (1, 2, 15015) for e in (0, 1, 7, 30031)],
    # whole periods and a 2^20 chunk near the top of the range
    (0, 3 * 30030), (30030, 5 * 30030 + 3), (MAX_LO - (1 << 20), MAX_LO),
])
def test_lambda_segment_edges_match_reference(lo, hi):
    assert_same_bits(lo, hi, wide_base())


def test_lambda_segment_minimal_base_matches_reference():
    # The smallest base a range allows: the power table ends at
    # (limit + 1)^2 - 1, and the slice/rounds split sees few primes.
    for hi in range(2, 1500):
        base = small_primes(max(math.isqrt(hi), 2))
        for lo in (0, hi // 2, hi - 1):
            assert_same_bits(lo, hi, base)


TOP = (10**5 + 1) ** 2 - 1  # the highest n that base primes up to 10^5 sieve


@pytest.mark.parametrize("lo,hi", [
    (10**8 - 2**21, 10**8), (4 * 10**8 - 2**21, 4 * 10**8), (10**9, 10**9 + 2**22),
    (9 * 10**9, 9 * 10**9 + 2**21), (10**10 - 2**22, 10**10), (TOP - 2**21, TOP), (TOP - 999, TOP),
])
def test_large_primes_in_rounds_or_slices_give_the_same_bits(monkeypatch, lo, hi):
    # Crossing the large base primes off in rounds or in a slice each
    # leaves the same mask, so the same ns and ws bytes.
    base = small_primes(10**5)
    got = []
    for threshold in (0, math.inf):  # always the rounds, never
        monkeypatch.setattr(sieve_module, "ROUND_PRIMES", threshold)
        got.append(lambda_segment(Segment(lo, hi), base))
    assert_equal_bits(*got, (lo, hi))


def test_large_primes_take_the_rounds_only_where_many(monkeypatch):
    # A 2^22 range at 1e10 (~7.7k large primes) still crosses them off in
    # rounds; a 2^21 segment at 1e8 (~200) takes a slice each.
    rounds = []
    cross_rounds = sieve_module._cross_rounds
    monkeypatch.setattr(sieve_module, "_cross_rounds",
                        lambda mask, primes, *rest: rounds.append(len(primes))
                        or cross_rounds(mask, primes, *rest))
    sieve = MangoldtSieve()
    sieve.events(10**10 - 2**22, 10**10)
    assert len(rounds) == 1 and rounds[0] > 7000
    sieve.events(10**8 - 2**21, 10**8)
    assert len(rounds) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_events_matches_chunked_reference(data):
    # With chunks of a few integers the reference concatenates across many
    # chunk edges; the one sieve call must return its ns and ws bits.
    chunk = data.draw(st.sampled_from([1, 7, 1000, 30031]), label="chunk")
    lo = data.draw(st.integers(0, MAX_LO), label="lo")
    length = data.draw(st.integers(0, 4 * chunk + 200), label="length")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sieve_module, "DEFAULT_SEGMENT_SIZE", chunk)
        assert_same_events(MangoldtSieve(), lo, lo + length)


@pytest.mark.parametrize("mode,param", [("scaled-integral", 1e-4),
                                        ("fixed-integral", 1e5)])
def test_events_matches_chunked_reference_on_last_full_span(mode, param):
    # The last full 2^21 segment of a 1e8 run: its one sieve call reaches
    # past the chunk size by the window's width.
    tasks = sweep.tasks(mode, 1e8, param, (2,), sieve_module.DEFAULT_SEGMENT_SIZE)
    a, b, delta, beta, _ = max(tasks[-2:], key=lambda t: t[1] - t[0])
    lo, hi = sweep.sieve_range(a, b, delta, beta)
    assert hi - lo > sieve_module.DEFAULT_SEGMENT_SIZE
    assert_same_events(MangoldtSieve(), lo, hi)


def test_prime_count_matches_small_primes():
    for n in [*range(2, 18), WHEEL * 2 - 1, WHEEL * 2, WHEEL * 2 + 1]:
        assert prime_count(n) == len(small_primes(n).primes), n


def test_pi_and_psi_across_a_chunk_edge():
    # The first chunk ends at 2^21, itself a prime power, so the count and
    # the sum must take it from the first chunk and nothing from the second.
    n = sieve_module.DEFAULT_SEGMENT_SIZE + 3
    count, psi = MangoldtSieve().pi_and_psi(n)
    assert count == prime_count(n)
    assert psi == pytest.approx(oracles.psi(n, n), rel=1e-12)


def test_psi_values():
    sieve = MangoldtSieve()
    assert sieve.psi(1.5) == 0.0
    assert sieve.psi(10) == pytest.approx(7.8320141, abs=1e-7)
    # Frozen from the trial-division enumeration oracle.
    assert sieve.psi(100) == pytest.approx(94.0453112293574, rel=1e-14)


def test_psi_nondecreasing_and_zero_below_2():
    sieve = MangoldtSieve()
    values = [sieve.psi(x) for x in [1, 1.9, 2, 10, 100, 1000, 10000]]
    assert values[0] == 0.0 and values[1] == 0.0
    assert values == sorted(values)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 0.5])
def test_psi_rejects_non_finite_and_small(x):
    with pytest.raises(ValueError, match="finite x >= 1"):
        MangoldtSieve().psi(x)


def test_rh_soft_bound_small_scale():
    # |psi(x) - x| stays well inside 3 sqrt(x) log(x)^2 at these scales.
    sieve = MangoldtSieve()
    for x in [10**3, 10**4, 10**5, 10**6]:
        assert abs(sieve.psi(x) - x) <= 3 * math.sqrt(x) * math.log(x) ** 2


def test_prime_count():
    assert prime_count(10) == 4
    assert prime_count(10**6) == 78498
