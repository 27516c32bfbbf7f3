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

import operator

from . import sweep


def moment_sum(
    X: int,
    h: int,
    ks,
    *,
    sieve=None,
    threads: int = 1,
    segment_size: int | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
) -> dict[int, float]:
    """Discrete moment sum over anchors n = 1..X for each order in ks."""
    try:
        X, h = operator.index(X), operator.index(h)  # numpy's integers too
    except TypeError:
        raise ValueError("sum mode requires integer X and h") from None
    sweep.check_finite(X=X, h=h)
    if not 1 <= h <= X:
        raise ValueError(f"need 1 <= h <= X, got h={h}, X={X}")
    return sweep.run("fixed-sum", X, h, ks, sieve, threads, segment_size,
                     checkpoint, resume)


def moment_integral_fixed(
    X: float,
    h: float,
    ks,
    *,
    sieve=None,
    threads: int = 1,
    segment_size: int | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
) -> dict[int, float]:
    """Exact integral of (window weight - h)^k over x in [1, X]."""
    sweep.check_finite(X=X, h=h)
    if not 0 <= h <= X:
        raise ValueError(f"need 0 <= h <= X, got h={h}, X={X}")
    if X < 1:
        raise ValueError("X must be >= 1")
    return sweep.run("fixed-integral", X, h, ks, sieve, threads, segment_size,
                     checkpoint, resume)
