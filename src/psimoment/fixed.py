"""Fixed-length window moments.

Two modes over windows of length h:

* ``moment_sum`` - the discrete sum over integer anchors n = 1..X of
  (window weight - h)^k, windows half-open (n, n+h].
* ``moment_integral_fixed`` - the exact integral over x in [1, X].

Both run the piece sweep of :mod:`psimoment.sweep` with delta = 0 and
beta = h.  With integer anchors and integer h the window weight is constant
on [n, n+1), so the sum over anchors n in (lo, hi] is exactly the integral
over [lo+1, hi+1].
"""

from __future__ import annotations

from .runner import run_tasks
from .sieve import DEFAULT_SEGMENT_SIZE, MangoldtSieve, Segment
from .sweep import check_finite, check_ks, run_digest, segments, sweep_segment


def partition_plan(
    X: int, h: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> list[tuple[Segment, tuple[int, int]]]:
    """Covering partition of anchors 1..X with each segment's weight range.

    Each entry is (segment over anchors (lo, hi], weight range (lo, hi+h]).
    """
    return [(Segment(int(a) - 1, int(b) - 1), (int(a) - 1, int(b) - 1 + h))
            for a, b in segments(1.0, X + 1.0, segment_size)]


def sum_tasks(X: int, h: int, ks, sieve, segment_size: int) -> list[tuple]:
    """Sweep tasks of moment_sum: anchors (lo, hi] become x in [lo+1, hi+1]."""
    return [(a, b, 0.0, float(h), ks, sieve)
            for a, b in segments(1.0, X + 1.0, segment_size)]


def moment_sum(
    X: int,
    h: int,
    ks,
    *,
    sieve=None,
    threads: int = 1,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    checkpoint: str | None = None,
    resume: bool = False,
) -> dict[int, float]:
    """Discrete moment sum over anchors n = 1..X for each order in ks."""
    ks = check_ks(ks)
    if not (isinstance(X, int) and isinstance(h, int)):
        raise ValueError("sum mode requires integer X and h")
    if not 1 <= h <= X:
        raise ValueError(f"need 1 <= h <= X, got h={h}, X={X}")
    sieve = sieve if sieve is not None else MangoldtSieve(segment_size)
    tasks = sum_tasks(X, h, ks, sieve, segment_size)
    digest = run_digest("fixed-sum", ks, segment_size, x=X, h=h)
    return run_tasks(sweep_segment, tasks, ks, threads, checkpoint, resume, digest)


def moment_integral_fixed(
    X: float,
    h: float,
    ks,
    *,
    sieve=None,
    threads: int = 1,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    checkpoint: str | None = None,
    resume: bool = False,
) -> dict[int, float]:
    """Exact integral of (window weight - h)^k over x in [1, X]."""
    ks = check_ks(ks)
    check_finite(X=X, h=h)
    if not 0 <= h <= X:
        raise ValueError(f"need 0 <= h <= X, got h={h}, X={X}")
    if X < 1:
        raise ValueError("X must be >= 1")
    sieve = sieve if sieve is not None else MangoldtSieve(segment_size)
    tasks = [(a, b, 0.0, float(h), ks, sieve)
             for a, b in segments(1.0, X, segment_size)]
    digest = run_digest("fixed-integral", ks, segment_size, x=X, h=h)
    return run_tasks(sweep_segment, tasks, ks, threads, checkpoint, resume, digest)
