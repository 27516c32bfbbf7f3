"""Segmented sieve for the von Mangoldt function and its summatory function.

Lambda(n) = log p when n = p^m is a prime power, 0 otherwise.  Primes in a
segment come from a cache-friendly boolean bitmap; higher prime powers are
sparse enough to enumerate directly from the base primes.  Weights are
float64 values of log p, and all downstream sums are compensated.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .accum import NeumaierSum

log = logging.getLogger(__name__)

DEFAULT_SEGMENT_SIZE = 1 << 22


@dataclass(frozen=True)
class Segment:
    """Half-open integer range (lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo < self.hi:
            raise ValueError(f"invalid segment ({self.lo}, {self.hi}]")


@dataclass(frozen=True)
class BasePrimes:
    limit: int
    primes: np.ndarray  # ascending int64


def small_primes(limit: int) -> BasePrimes:
    """All primes <= limit, by a plain sieve of Eratosthenes."""
    if limit < 2:
        raise ValueError(f"prime limit must be >= 2, got {limit}")
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return BasePrimes(limit=limit, primes=np.flatnonzero(is_prime).astype(np.int64))


def _prime_mask(lo: int, hi: int, base: BasePrimes) -> np.ndarray:
    """Boolean mask over n = lo+1 .. hi marking primes."""
    mask = np.ones(hi - lo, dtype=bool)
    if lo == 0:
        mask[0] = False  # n = 1
    for p in base.primes:
        p = int(p)
        if p * p > hi:
            break
        start = max(p * p, ((lo // p) + 1) * p)
        if start <= hi:
            mask[start - lo - 1 :: p] = False
    return mask


def lambda_segment(seg: Segment, base: BasePrimes) -> tuple[np.ndarray, np.ndarray]:
    """Prime-power locations and weights in (seg.lo, seg.hi], ascending.

    Returns (n, weight) arrays: one entry per prime power, weight = log p.
    """
    need = math.isqrt(seg.hi)
    if base.limit < need:
        raise ValueError(
            f"base primes up to {base.limit} insufficient for segment ending at "
            f"{seg.hi}; need limit >= {need}"
        )
    mask = _prime_mask(seg.lo, seg.hi, base)
    prime_ns = np.flatnonzero(mask).astype(np.int64) + seg.lo + 1
    prime_ws = np.log(prime_ns.astype(np.float64))

    # Higher powers p^m (m >= 2) are sparse: enumerate them from base primes.
    power_ns: list[int] = []
    power_ws: list[float] = []
    for p in base.primes:
        p = int(p)
        pw = p * p
        if pw > seg.hi:
            break
        lp = math.log(p)
        while pw <= seg.hi:
            if pw > seg.lo:
                power_ns.append(pw)
                power_ws.append(lp)
            pw *= p
    if power_ns:
        ns = np.concatenate([prime_ns, np.asarray(power_ns, dtype=np.int64)])
        ws = np.concatenate([prime_ws, np.asarray(power_ws, dtype=np.float64)])
        order = np.argsort(ns, kind="stable")
        return ns[order], ws[order]
    return prime_ns, prime_ws


class MangoldtSieve:
    """Reusable segmented sieve; base primes grow lazily and are immutable
    once built.  Instances are picklable and safe to share across workers.
    Ranges are sieved in chunks of DEFAULT_SEGMENT_SIZE integers.
    """

    def __init__(self):
        self._base: BasePrimes | None = None

    def base_primes(self, limit: int) -> BasePrimes:
        limit = max(limit, 2)
        if self._base is None or self._base.limit < limit:
            # Grow with headroom so repeated nearby requests don't re-sieve.
            self._base = small_primes(max(limit, 1 << 16))
        return self._base

    def events(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """All prime-power (n, weight) pairs with lo < n <= hi."""
        if hi <= lo:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        base = self.base_primes(math.isqrt(hi))
        ns_parts = []
        ws_parts = []
        a = lo
        while a < hi:
            b = min(a + DEFAULT_SEGMENT_SIZE, hi)
            ns, ws = lambda_segment(Segment(a, b), base)
            ns_parts.append(ns)
            ws_parts.append(ws)
            a = b
        return np.concatenate(ns_parts), np.concatenate(ws_parts)

    def psi(self, x: float) -> float:
        """Summatory function: compensated sum of weights over n <= floor(x)."""
        if x < 1:
            raise ValueError(f"psi requires x >= 1, got {x}")
        top = math.floor(x)
        total = NeumaierSum()
        a = 0
        while a < top:
            b = min(a + DEFAULT_SEGMENT_SIZE, top)
            _, ws = self.events(a, b)
            total.add(math.fsum(ws))
            a = b
        value = total.value
        _rh_monitor(x, value)
        return value


def _rh_monitor(x: float, psi_x: float) -> None:
    # Soft sanity bound only: warn, never fail.
    if 1e3 <= x <= 1e8:
        bound = 3.0 * math.sqrt(x) * math.log(x) ** 2
        if abs(psi_x - x) > bound:
            log.warning(
                "psi(%g) = %.6g deviates from x by more than %.3g",
                x, psi_x, bound,
            )


class ZeroMangoldt:
    """Test seam: a sieve whose weight stream is identically zero."""

    def events(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    def psi(self, x: float) -> float:
        return 0.0


def prime_count(limit: int) -> int:
    """Number of primes <= limit (segmented, for CLI smoke tests)."""
    if limit < 2:
        return 0
    base = small_primes(max(math.isqrt(limit), 2))
    count = 0
    a = 0
    while a < limit:
        b = min(a + DEFAULT_SEGMENT_SIZE, limit)
        count += int(np.count_nonzero(_prime_mask(a, b, base)))
        a = b
    return count
