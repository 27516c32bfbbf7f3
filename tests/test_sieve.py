import math

import numpy as np
import pytest

from psimoment import MangoldtSieve, prime_count
from psimoment.sieve import Segment, lambda_segment, small_primes

import oracles


def test_small_primes_trivial():
    assert small_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert small_primes(2).primes.tolist() == [2]


def test_small_primes_count_1e5():
    # Frozen from the trial-division oracle: pi(1e5) = 9592.
    assert len(small_primes(10**5).primes) == 9592


def test_small_primes_empty_domain():
    with pytest.raises(ValueError):
        small_primes(1)


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


def test_rh_soft_bound_small_scale():
    # Soft monitor sanity: the bound comfortably holds at these scales.
    sieve = MangoldtSieve()
    for x in [10**3, 10**4, 10**5, 10**6]:
        assert abs(sieve.psi(x) - x) <= 3 * math.sqrt(x) * math.log(x) ** 2


def test_prime_count():
    assert prime_count(10) == 4
    assert prime_count(10**6) == 78498
