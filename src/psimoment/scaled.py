"""Proportional-window moments, integrated exactly by the piece sweep.

The window at position x is (x, (1+delta)x].  Its weight S(x) changes only
where a prime power m enters (x = m/(1+delta)) or leaves (x = m), so the
integrand (S - delta*x)^k is polynomial between consecutive events.  This is
the sweep of :mod:`psimoment.sweep` with beta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .runner import run_tasks
from .sieve import DEFAULT_SEGMENT_SIZE, MangoldtSieve
from .sweep import (
    check_finite,
    check_ks,
    run_digest,
    segments,
    sweep_segment,
    window_events,
)


@dataclass(frozen=True)
class SweepEvent:
    x: float
    kind: str  # "enter" | "leave"
    weight: float


def _check_delta(delta: float) -> None:
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")


def scaled_partition_plan(
    X: float, delta: float, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> list[tuple[tuple[float, float], tuple[int, int]]]:
    """Covering partition of [1, X] with each piece's weight range.

    Each entry is ((a, b], integer weight range (floor(a), ceil(b*(1+delta))]).
    """
    _check_delta(delta)
    return [((a, b), (math.floor(a), math.ceil(b * (1.0 + delta)) + 1))
            for a, b in segments(1.0, X, segment_size)]


def scaled_tasks(X: float, delta: float, ks, sieve, segment_size: int) -> list[tuple]:
    """Sweep tasks of moment_integral_scaled over [1, X]."""
    return [(a, b, float(delta), 0.0, ks, sieve)
            for a, b in segments(1.0, X, segment_size)]


def initial_window_sum(x: float, delta: float, sieve) -> float:
    """Weight of prime powers inside the window at position x.

    Membership uses the float event coordinate m/(1+delta) so it is exactly
    consistent with the sweep's enter events.
    """
    return window_events(x, x, delta, 0.0, sieve)[0]


def merged_event_stream(X: float, delta: float, sieve=None) -> list[SweepEvent]:
    """All window-boundary crossings for x in (1, X], nondecreasing in x."""
    _check_delta(delta)
    sieve = sieve if sieve is not None else MangoldtSieve()
    # The events below the next float after X are exactly those at x <= X.
    end = math.nextafter(float(X), math.inf)
    _, coords, signed = window_events(1.0, end, delta, 0.0, sieve)
    return [SweepEvent(x, "enter" if w > 0 else "leave", abs(w))
            for x, w in zip(coords.tolist(), signed.tolist())]


def moment_integral_scaled(
    X: float,
    delta: float,
    ks,
    *,
    sieve=None,
    threads: int = 1,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    checkpoint: str | None = None,
    resume: bool = False,
) -> dict[int, float]:
    """Exact integral of (S(x) - delta*x)^k over x in [1, X], per order k."""
    ks = check_ks(ks)
    check_finite(X=X, delta=delta)
    _check_delta(delta)
    if X < 1:
        raise ValueError("X must be >= 1")
    sieve = sieve if sieve is not None else MangoldtSieve(segment_size)
    tasks = scaled_tasks(X, delta, ks, sieve, segment_size)
    digest = run_digest("scaled-integral", ks, segment_size, x=X, delta=delta)
    return run_tasks(sweep_segment, tasks, ks, threads, checkpoint, resume, digest)
