import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psimoment import MangoldtSieve, moment_sum, sweep
from psimoment.sweep import power_sums

import oracles

ULP = 2.0**-52


def exact_piece(u_lo, u_hi, length, k):
    """Integral of u^k over a piece where u runs linearly from u_lo to u_hi."""
    a, b, L = Fraction(u_lo), Fraction(u_hi), Fraction(length)
    if a == b:
        return L * a**k
    return L * (a ** (k + 1) - b ** (k + 1)) / ((k + 1) * (a - b))


@pytest.mark.parametrize("regime", ["same-sign", "near-equal", "equal", "opposite-sign"])
def test_power_sums_exact(regime):
    rng = random.Random(regime)
    ks = tuple(range(1, 17))
    for _ in range(200):
        u_lo = rng.uniform(-500.0, 500.0)
        length = rng.uniform(0.0, 50.0)
        if regime == "same-sign":
            u_hi = u_lo * rng.uniform(0.2, 1.0)
        elif regime == "near-equal":  # small slope: the delta -> 0 regime
            u_hi = u_lo * (1.0 - rng.uniform(1e-12, 1e-6))
        elif regime == "equal":  # fixed windows: delta = 0
            u_hi = u_lo
        else:
            u_hi = -u_lo * rng.uniform(0.2, 1.0)
        got = power_sums(np.array([u_lo]), np.array([u_hi]), np.array([length]), ks)
        for k in ks:
            if regime == "opposite-sign" and k % 2:
                continue  # the odd integral can vanish; no relative error
            want = exact_piece(u_lo, u_hi, length, k)
            err = abs(Fraction(got[k]) - want) / abs(want)
            assert err <= 8 * ULP, (u_lo, u_hi, length, k, float(err) / ULP)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_moment_sum_property(data):
    X = data.draw(st.integers(1, 3000), label="X")
    h = data.draw(st.integers(1, X), label="h")
    size = data.draw(st.integers(1, 700), label="segment_size")
    ks = (2, 4, 6)
    sieve = MangoldtSieve()
    got = moment_sum(X, h, ks, segment_size=size, sieve=sieve)
    whole = moment_sum(X, h, ks, segment_size=X, sieve=sieve)
    want = oracles.moment_sum_double_loop(X, h, ks)
    for k in ks:
        assert got[k] == pytest.approx(want[k], rel=1e-9)
        assert got[k] == pytest.approx(whole[k], rel=1e-12)


def test_segment_cap(monkeypatch):
    # 10^10 one-integer segments are refused before any bookkeeping is built.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="segments"):
        moment_sum(10**10, 10**5, [2], segment_size=1)
    assert time.perf_counter() - t0 < 0.5
    monkeypatch.setattr(sweep, "MAX_SEGMENTS", 4)
    assert len(sweep.segments(0.0, 12.0, 3)) == 4
    with pytest.raises(ValueError, match="exceeds 4 segments"):
        sweep.segments(0.0, 13.0, 3)
