import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psimoment import (
    MangoldtSieve,
    moment_integral_fixed,
    moment_sum,
)
from psimoment import sweep

import oracles
from oracles import ZeroMangoldt


def test_moment_sum_small_vs_double_loop():
    expected = oracles.moment_sum_double_loop(10, 2, [2])
    got = moment_sum(10, 2, [2])
    # Frozen from the double-loop oracle.
    assert expected[2] == pytest.approx(1.914649923595519, rel=1e-12)
    assert got[2] == pytest.approx(expected[2], rel=1e-12)


def test_moment_sum_single_term():
    got = moment_sum(1, 1, [2])
    assert got[2] == pytest.approx((math.log(2) - 1.0) ** 2, rel=1e-15)
    assert got[2] == pytest.approx(0.0941587, abs=1e-6)


def test_moment_sum_zero_stream_identity():
    for X, h in [(50, 3), (200, 7)]:
        got = moment_sum(X, h, [2], sieve=ZeroMangoldt())
        assert got[2] == pytest.approx(X * h**2, rel=1e-15)


@pytest.mark.parametrize("X,h", [(300, 11), (1000, 50), (5000, 101)])
def test_moment_sum_oracle_equivalence(X, h):
    expected = oracles.moment_sum_double_loop(X, h, [2, 4, 6])
    got = moment_sum(X, h, [2, 4, 6])
    for k in (2, 4, 6):
        assert got[k] == pytest.approx(expected[k], rel=1e-9)
        assert got[k] >= 0


def test_moment_sum_domain_errors():
    with pytest.raises(ValueError):
        moment_sum(10, 20, [2])
    with pytest.raises(ValueError):
        moment_sum(10, 2, [])
    with pytest.raises(ValueError):
        moment_sum(10, 2, [17])


def test_integral_fixed_h_zero():
    got = moment_integral_fixed(100, 0, [2, 4, 6])
    assert all(v == 0.0 for v in got.values())


def test_integral_fixed_vs_riemann_oracle():
    expected = oracles.riemann_fixed_integral(100, 10, [2, 4])
    got = moment_integral_fixed(100, 10, [2, 4])
    for k in (2, 4):
        assert got[k] == pytest.approx(expected[k], rel=1e-6)


def test_integral_fixed_real_h():
    expected = oracles.riemann_fixed_integral(200, 7.5, [2, 4])
    got = moment_integral_fixed(200, 7.5, [2, 4])
    for k in (2, 4):
        assert got[k] == pytest.approx(expected[k], rel=1e-6)


def test_mode_consistency_1e6():
    s = moment_sum(10**6, 10**3, [2])
    i = moment_integral_fixed(10**6, 10**3, [2])
    assert i[2] == pytest.approx(s[2], rel=0.01)


def test_partition_plan_single_segment(recording_sieve):
    (task,) = sweep.tasks("fixed-sum", 10, 3, (2,), 10)
    # Anchors (0, 10] are x in [1, 11], windows (x, x + 3].
    assert task[:4] == (1.0, 11.0, 0.0, 3.0)
    sweep.sweep_segment(sweep.Workspace(recording_sieve), task)
    # The windows of anchors 1..10 hold the weights in (1, 13].
    ((lo, hi),) = recording_sieve.ranges
    assert lo <= 1 and hi >= 13


def test_partition_plan_coverage():
    plan = sweep.tasks("fixed-sum", 100, 5, (2,), 30)
    assert len(plan) == 4
    covered = []
    for a, b, delta, beta, *_ in plan:
        covered.extend(range(int(a), int(b)))  # anchors (a - 1, b - 1]
        assert (delta, beta) == (0.0, 5.0)
    assert covered == list(range(1, 101))


def test_segmentation_self_consistency():
    one = moment_sum(10**5, 100, [2, 4], segment_size=10**6)
    many = moment_sum(10**5, 100, [2, 4], segment_size=2**12)
    # Partial sums are reduced in segment order, but regrouping the windows
    # still moves a few ulps; require near-exact agreement.
    for k in (2, 4):
        assert many[k] == pytest.approx(one[k], rel=1e-12)


def test_parallel_determinism():
    kwargs = dict(segment_size=2**13)
    serial = moment_sum(10**5, 50, [2, 4, 6], threads=1, **kwargs)
    parallel = moment_sum(10**5, 50, [2, 4, 6], threads=8, **kwargs)
    assert serial == parallel  # bit-identical

    serial_i = moment_integral_fixed(10**5, 50.0, [2], threads=1, **kwargs)
    parallel_i = moment_integral_fixed(10**5, 50.0, [2], threads=8, **kwargs)
    assert serial_i == parallel_i


def test_window_refresh_matches_psi_difference():
    sieve = MangoldtSieve()
    got = moment_sum(2000, 100, [1], segment_size=512)
    expected = math.fsum(
        (sieve.psi(n + 100) - sieve.psi(n) - 100) for n in range(1, 2001)
    )
    assert got[1] == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("X,h", [(math.inf, 10.0), (math.nan, 10.0),
                                 (100.0, math.inf), (100.0, math.nan)])
def test_integral_fixed_rejects_non_finite(X, h):
    with pytest.raises(ValueError, match="finite"):
        moment_integral_fixed(X, h, [2])


KS16 = tuple(range(1, 17))
DYADIC = oracles.DyadicMangoldt(2100)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fixed_moments_vs_exact_rational_oracle(data):
    # With dyadic weights and integer h every window weight, piece length and
    # coordinate is exact, and each piece's term L*u^k takes k roundings of
    # at most half an ulp.  The fold, the segment's fsum and the run's fsum
    # add about one ulp more of the sum of |terms|.  At odd k the terms take
    # the sign of u and can cancel, so the bound is relative to that sum,
    # which at even k is the moment itself.
    X = data.draw(st.integers(1, 1000), label="X")
    h = data.draw(st.integers(1, X), label="h")
    end = X + data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.875]), label="fraction")
    size = data.draw(st.integers(1, X + 1), label="segment_size")
    for mode, got, x in (
            ("sum", moment_sum(X, h, KS16, segment_size=size, sieve=DYADIC), X),
            ("integral", moment_integral_fixed(end, h, KS16, segment_size=size,
                                               sieve=DYADIC), end)):
        want = oracles.exact_fixed_moments(DYADIC.weights, x, h, KS16, mode)
        scale = oracles.exact_fixed_moments(DYADIC.weights, x, h, KS16, mode, absolute=True)
        for k in KS16:
            # At most (k + 2) * 2^-53 of the sum of |terms|; [1, 1] integrates to 0.
            err = abs(Fraction(got[k]) - want[k])
            assert err <= Fraction(k + 2, 2**53) * scale[k], (mode, k, got[k], float(want[k]))
