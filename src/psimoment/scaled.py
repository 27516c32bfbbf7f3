"""Proportional-window moments, integrated exactly by the piece sweep.

The window at position x is (x, (1+delta)x].  Its weight S(x) changes only
where a prime power m enters (x = m/(1+delta)) or leaves (x = m), so the
integrand (S - delta*x)^k is polynomial between consecutive events.  This is
the sweep of :mod:`psimoment.sweep` with beta = 0.
"""

from __future__ import annotations

from . import sweep


def moment_integral_scaled(
    X: float,
    delta: float,
    ks,
    *,
    sieve=None,
    threads: int = 1,
    segment_size: int | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
) -> dict[int, float]:
    """Exact integral of (S(x) - delta*x)^k over x in [1, X], per order k."""
    sweep.check_finite(X=X, delta=delta)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if X < 1:
        raise ValueError("X must be >= 1")
    return sweep.run("scaled-integral", X, delta, ks, sieve, threads, segment_size,
                     checkpoint, resume)
