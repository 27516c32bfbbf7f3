import math

import numpy as np
import pytest

from psimoment import MangoldtSieve, moment_integral_scaled, sweep
from psimoment.sweep import window_events, window_weight

import oracles
from oracles import adaptive_simpson, merge_runs


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


# window_events(1, up(X), ...) returns the events of x in (1, X]: those below
# the next float after X.  Merged, enters carry +weight, leaves -weight.
def up(X):
    return math.nextafter(X, math.inf)


def merged_events(X, delta, sieve=None):
    _, *runs = window_events(1.0, up(X), delta, 0.0, sieve or MangoldtSieve())
    return merge_runs(*runs, delta, 0.0)


def test_merged_event_stream_hand_example():
    coords, signed = merged_events(3.0, 0.5)
    assert coords.tolist() == pytest.approx([4 / 3, 2.0, 2.0, 8 / 3, 3.0])
    assert coords[1] == 2.0 and coords[4] == 3.0  # leaves sit exactly at m
    assert np.sign(signed).tolist() == [1, -1, 1, 1, -1]  # leave first on ties
    assert signed[0] == pytest.approx(math.log(2))
    assert signed[4] == pytest.approx(-math.log(3))


def test_merged_event_stream_empty():
    coords, signed = merged_events(1.4, 0.1)
    assert len(coords) == 0 and len(signed) == 0


def test_enter_count_at_least_leave_count():
    for X, delta in [(100, 0.1), (1000, 0.03), (50, 0.5)]:
        _, signed = merged_events(X, delta)
        assert np.count_nonzero(signed > 0) >= np.count_nonzero(signed < 0)


def test_event_conservation():
    X, delta = 10**4, 0.1
    sieve = MangoldtSieve()
    _, signed = merged_events(X, delta, sieve)
    entered = math.fsum(signed[signed > 0])
    exited = -math.fsum(signed[signed < 0])
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


def test_partition_plan_properties(recording_sieve):
    plan = sweep.tasks("scaled-integral", 10**4, 0.1, (2,), 1000)
    assert plan[0][0] == 1.0
    assert plan[-1][1] == 10**4
    for prev, cur in zip(plan, plan[1:]):
        assert prev[1] == cur[0]
    workspace = sweep.Workspace(recording_sieve)
    for task in plan:
        sweep.sweep_segment(workspace, task)
    # Each segment's one sieve call holds every weight its windows see.
    assert len(recording_sieve.ranges) == len(plan)
    for (a, b, *_), (lo, hi) in zip(plan, recording_sieve.ranges):
        assert lo <= math.floor(a)
        assert hi >= b * 1.1


def test_segmentation_self_consistency_bit_exact():
    one = moment_integral_scaled(10**4, 0.1, [2, 4], segment_size=10**6)
    many = moment_integral_scaled(10**4, 0.1, [2, 4], segment_size=257)
    for k in (2, 4):
        assert many[k] == pytest.approx(one[k], rel=1e-12)


def test_boundary_window_sum_matches_psi():
    sieve = MangoldtSieve()
    s = window_weight(window_events(10**3, 10**3, 0.1, 0.0, sieve)[0])
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
