import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psimoment import (MangoldtSieve, moment_integral_fixed, moment_integral_scaled,
                       moment_sum, sweep)
from psimoment.sweep import BLOCK, power_sums

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


def exact_sum(values) -> Fraction:
    """The exact sum: every float64 is an integer multiple of 2^-1074."""
    total = 0
    for v in values:
        n, d = v.as_integer_ratio()
        total += n * ((1 << 1074) // d)
    return Fraction(total, 1 << 1074)


def signed_log_uniform(rng, lo, hi, n):
    return np.sign(rng.uniform(-1, 1, n)) * 10.0 ** rng.uniform(lo, hi, n)


def fold_inputs(n, regime, rng):
    if regime == "wide":
        return signed_log_uniform(rng, -300.0, 300.0, n)  # 1e-300..1e300
    # 11 digits cancel (sum|x| / |sum x| ~ 1e11, inside the fold's ~1e13):
    # +-y with |y| in 1e-3..1e3 plus positive terms ~1e-9, then scaled by
    # 2^-990 (~1e-298), 1 or 2^980 (~1e295).
    y = signed_log_uniform(rng, -3.0, 3.0, n // 2)
    x = np.concatenate([y, -y, rng.uniform(0.0, 1.0, n % 2)])
    x += 1e-9 * rng.uniform(0.0, 1.0, n)
    rng.shuffle(x)
    return x * 2.0 ** {"cancel-tiny": -990, "cancel": 0, "cancel-huge": 980}[regime]


@pytest.mark.parametrize("regime", ["wide", "cancel-tiny", "cancel", "cancel-huge"])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_power_sums_fold_exact(n, regime):
    # With u == 1 and k = 1 each piece's term is exactly 2L and the total is
    # halved, so power_sums returns the blocked TwoSum sum of the lengths.
    x = fold_inputs(n, regime, np.random.default_rng(n))
    ones = np.ones(n)
    got = power_sums(ones, ones, x, (1,))[1]
    want = exact_sum(x.tolist())
    assert abs(Fraction(got) - want) <= Fraction(math.ulp(float(want))), (
        got, float(want))


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


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_integral_modes_vs_oracles(data):
    # Segment sizes from 1 to X give the default sieve calls of every small
    # length, starting at odd and even n.
    X = data.draw(st.floats(2.0, 3000.0), label="X")
    h = data.draw(st.floats(0.5, X), label="h")
    delta = data.draw(st.floats(1e-3, 1.0), label="delta")
    size = data.draw(st.integers(1, math.ceil(X)), label="segment_size")
    ks = (2, 4, 6)
    for got, want in (
            (moment_integral_fixed(X, h, ks, segment_size=size),
             oracles.riemann_fixed_integral(X, h, ks)),
            (moment_integral_scaled(X, delta, ks, segment_size=size),
             oracles.riemann_scaled_integral(X, delta, ks))):
        for k in ks:
            assert got[k] == pytest.approx(want[k], rel=1e-9), (k, got, want)


def test_segment_cap(monkeypatch):
    # 10^10 one-integer segments are refused before any bookkeeping is built.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="segments"):
        moment_sum(10**10, 10**5, [2], segment_size=1)
    assert time.perf_counter() - t0 < 0.5
    # A wide window widens every segment's one sieve call past its size: at
    # delta = 1 the last segment ending at 1e9 would sieve ~1e9 integers.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="delta = 1.0 makes one segment sieve"):
        moment_integral_scaled(1e9, 1.0, [2])
    assert time.perf_counter() - t0 < 0.5
    # Boundary: segments of 50 over [1, 1000] with h sieve 51 + h integers at
    # most, in the next-to-last segment [901, 951].
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "MAX_SEGMENT_SIZE", 100)
        assert len(sweep.tasks("fixed-integral", 1000, 49, (2,), 50)) == 20
        with pytest.raises(ValueError, match="h = 50 makes one segment sieve 101"):
            sweep.tasks("fixed-integral", 1000, 50, (2,), 50)
    monkeypatch.setattr(sweep, "MAX_SEGMENTS", 4)
    assert len(sweep.segments(0.0, 12.0, 3)) == 4
    with pytest.raises(ValueError, match="exceeds 4 segments"):
        sweep.segments(0.0, 13.0, 3)
    # One segment's sieve and event arrays grow with its size.
    cap = sweep.MAX_SEGMENT_SIZE
    assert sweep.segments(0.0, 2.0 * cap, cap) == [(0.0, cap), (cap, 2.0 * cap)]
    with pytest.raises(ValueError, match="segment_size"):
        sweep.segments(0.0, 10.0, cap + 1)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_worker_count_bit_identity(data):
    # Segments are independent and reduced in index order, so a pool of two
    # workers returns the serial bits.
    X = data.draw(st.integers(2, 20000), label="X")
    size = data.draw(st.integers(max(1, X // 48), X), label="segment_size")
    h = data.draw(st.integers(1, X), label="h")
    delta = data.draw(st.floats(1e-3, 1.0), label="delta")
    ks = (1, 2, 3, 4)
    for fn, args in ((moment_sum, (X, h, ks)),
                     (moment_integral_scaled, (X + 0.5, delta, ks))):
        serial = fn(*args, segment_size=size)
        pooled = fn(*args, segment_size=size, threads=2)
        assert pooled == serial, (fn.__name__, serial, pooled)
