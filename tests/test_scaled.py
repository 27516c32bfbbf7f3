import math

import numpy as np
import pytest

from psimoment import (
    MangoldtSieve,
    adaptive_simpson,
    initial_window_sum,
    merged_event_stream,
    moment_integral_scaled,
    scaled_partition_plan,
)

import oracles


def test_empty_window_closed_form():
    got = moment_integral_scaled(1.4, 0.1, [2])
    assert got[2] == pytest.approx(0.01 * (1.4**3 - 1) / 3, rel=1e-12)
    assert got[2] == pytest.approx(0.0058133, abs=1e-7)


def test_riemann_oracle_1e3():
    expected = oracles.riemann_scaled_integral(1e3, 0.05, [2, 4])
    got = moment_integral_scaled(1e3, 0.05, [2, 4])
    for k in (2, 4):
        assert got[k] == pytest.approx(expected[k], rel=1e-6)


@pytest.mark.parametrize("delta", [0.5, 0.1, 0.01])
def test_riemann_oracle_1e4(delta):
    expected = oracles.riemann_scaled_integral(1e4, delta, [2, 4, 6])
    got = moment_integral_scaled(1e4, delta, [2, 4, 6])
    for k in (2, 4, 6):
        assert got[k] == pytest.approx(expected[k], rel=1e-6)
        assert got[k] >= 0


def test_domain_errors():
    with pytest.raises(ValueError):
        moment_integral_scaled(100, 0.0, [2])
    with pytest.raises(ValueError):
        moment_integral_scaled(100, -0.1, [2])
    with pytest.raises(ValueError):
        moment_integral_scaled(100, 1.5, [2])
    with pytest.raises(ValueError):
        moment_integral_scaled(100, 0.1, [])


def test_merged_event_stream_hand_example():
    stream = merged_event_stream(3, 0.5)
    kinds = [(e.kind, e.x) for e in stream]
    assert kinds == [
        ("enter", pytest.approx(4 / 3)),
        ("leave", 2.0),
        ("enter", pytest.approx(2.0)),
        ("enter", pytest.approx(8 / 3)),
        ("leave", 3.0),
    ]
    assert stream[0].weight == pytest.approx(math.log(2))
    assert stream[4].weight == pytest.approx(math.log(3))


def test_merged_event_stream_empty():
    assert merged_event_stream(1.4, 0.1) == []


def test_enter_count_at_least_leave_count():
    for X, delta in [(100, 0.1), (1000, 0.03), (50, 0.5)]:
        stream = merged_event_stream(X, delta)
        enters = sum(e.kind == "enter" for e in stream)
        leaves = sum(e.kind == "leave" for e in stream)
        assert enters >= leaves


def test_event_conservation():
    X, delta = 10**4, 0.1
    sieve = MangoldtSieve()
    stream = merged_event_stream(X, delta, sieve)
    entered = math.fsum(e.weight for e in stream if e.kind == "enter")
    exited = math.fsum(e.weight for e in stream if e.kind == "leave")
    expected = (
        sieve.psi((1 + delta) * X) - sieve.psi(1 + delta)
        - (sieve.psi(X) - sieve.psi(1))
    )
    assert entered - exited == pytest.approx(expected, abs=1e-6)


def test_piece_antiderivative_vs_quadrature():
    # One constant-weight piece: closed form against adaptive quadrature.
    delta = 0.07
    for s, x_lo, x_hi, k in [(3.5, 10.0, 12.0, 2), (0.9, 5.0, 5.4, 6)]:
        closed = ((s - delta * x_lo) ** (k + 1) - (s - delta * x_hi) ** (k + 1)) / (
            (k + 1) * delta
        )
        quad = adaptive_simpson(lambda x: (s - delta * x) ** k, x_lo, x_hi, 1e-13)
        assert closed == pytest.approx(quad, rel=1e-12)


def test_partition_plan_properties():
    plan = scaled_partition_plan(10**4, 0.1, segment_size=1000)
    assert plan[0][0][0] == 1.0
    assert plan[-1][0][1] == 10**4
    for (a, b), (lam_lo, lam_hi) in plan:
        assert lam_lo <= math.floor(a)
        assert lam_hi >= b * 1.1
    for prev, cur in zip(plan, plan[1:]):
        assert prev[0][1] == cur[0][0]


def test_segmentation_self_consistency_bit_exact():
    one = moment_integral_scaled(10**4, 0.1, [2, 4], segment_size=10**6)
    many = moment_integral_scaled(10**4, 0.1, [2, 4], segment_size=257)
    for k in (2, 4):
        assert many[k] == pytest.approx(one[k], rel=1e-12)


def test_boundary_window_sum_matches_psi():
    sieve = MangoldtSieve()
    s = initial_window_sum(10**3, 0.1, sieve)
    assert s == pytest.approx(sieve.psi(1100) - sieve.psi(1000), abs=1e-9)


def test_parallel_determinism():
    serial = moment_integral_scaled(10**5, 0.01, [2, 4, 6], threads=1,
                                    segment_size=2**13)
    parallel = moment_integral_scaled(10**5, 0.01, [2, 4, 6], threads=8,
                                      segment_size=2**13)
    assert serial == parallel  # bit-identical


@pytest.mark.parametrize("X,delta", [(math.nan, 0.1), (math.inf, 0.1),
                                     (100.0, math.nan), (100.0, math.inf)])
def test_rejects_non_finite(X, delta):
    with pytest.raises(ValueError, match="finite"):
        moment_integral_scaled(X, delta, [2])
