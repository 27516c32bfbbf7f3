"""Segmented sieve for the von Mangoldt function and its summatory function.

Lambda(n) = log p when n = p^m is a prime power, 0 otherwise.  A segment's
primes come from a boolean mask over its odd n only.  The mask starts as
the wheel tiled by np.resize: the odd n prime to 3*5*7*11*13, which repeat
with period 15015 in the odd index.  The base primes up to length/ROUNDS then
cross off their odd multiples one strided slice each.  Every larger prime
has at most ROUNDS multiples in the mask.  Where there are at least
ROUND_PRIMES of them (a 2^21 segment from X ~ 5.1e8 on), they are crossed off
together, one multiple per prime per round, in O(#primes) memory; fewer
take a slice each too, which is cheaper than ROUNDS vectorized rounds.  The
higher powers p^m (m >= 2) come from a table built once per set of base
primes and are spliced into the sorted primes.  Weights are float64 values
of log p (np.log of each prime, math.log(p) for each higher power); psi adds
them with math.fsum, so its sum is correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_SEGMENT_SIZE = 1 << 21

WHEEL_PRIMES = (3, 5, 7, 11, 13)
WHEEL = math.prod(WHEEL_PRIMES)


def _wheel() -> np.ndarray:
    """Odd n = 2j + 1 is prime to the wheel primes iff _WHEEL[j % WHEEL].

    Two periods are stored, so the period from any phase is one slice.
    """
    period = np.ones(WHEEL, dtype=bool)
    for p in WHEEL_PRIMES:
        period[(p - 1) // 2 :: p] = False  # n = p, 3p, 5p, ...
    return np.tile(period, 2)


_WHEEL = _wheel()

# Base primes above (odd-mask length) / ROUNDS have at most ROUNDS multiples
# in the mask and are crossed off together in rounds, unless there are fewer
# than ROUND_PRIMES of them: then a slice each is cheaper.  On a 2-vCPU VM
# the rounds took this share of the slices' time in a 2^21 segment's
# _odd_mask ending at X (two runs, 60 calls of each): 1.23 at 1e8 (201 such
# primes), 1.04 at 4e8 (1234), 1.00-1.01 at 5e8 (1474), 0.98 at 6e8 (1689),
# 0.93 at 8e8 (2052), 0.90 at 1e9 (2373); a 2^22 range near 1e10 (7692)
# took 2.35 ms in rounds against 5.7 ms in slices.  Either way the mask, and
# so every bit downstream, is the same.
ROUNDS = 128
ROUND_PRIMES = 1500


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

    @cached_property
    def powers(self) -> tuple[np.ndarray, np.ndarray]:
        """Every p^m (m >= 2) below (limit+1)^2 and its p, ascending in p^m.

        (limit+1)^2 - 1 is the highest n these base primes can sieve.
        """
        top = (self.limit + 1) ** 2 - 1
        p = pw = self.primes
        ns, ps = [], []
        while len(p):
            keep = pw <= top // p
            p, pw = p[keep], pw[keep] * p[keep]
            ns.append(pw)
            ps.append(p)
        order = np.argsort(np.concatenate(ns))
        return np.concatenate(ns)[order], np.concatenate(ps)[order]


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


def _odd_mask(lo: int, hi: int, base: BasePrimes) -> tuple[int, np.ndarray]:
    """(o0, mask): mask[i] is True iff n = o0 + 2i is an odd prime in (lo, hi].

    o0 is the first odd n > lo; base must hold the primes up to sqrt(hi).
    """
    o0, mask = _wheel_mask(lo, hi)
    small, large = _crossing_primes(base.primes, len(mask), hi)
    _cross_slices(mask, small, lo, o0)
    _cross_large(mask, large, lo, o0)
    return o0, mask


def _wheel_mask(lo: int, hi: int) -> tuple[int, np.ndarray]:
    """_odd_mask's (o0, mask) before any base prime above the wheel's crosses
    off: the wheel tiled from o0's phase, the wheel primes themselves kept."""
    o0 = lo + 1 + (lo & 1)
    length = (hi - o0) // 2 + 1
    phase = (o0 // 2) % WHEEL
    mask = np.resize(_WHEEL[phase : phase + WHEEL], length)
    for q in WHEEL_PRIMES:
        if lo < q <= hi:
            mask[(q - o0) // 2] = True
    if lo == 0:
        mask[0] = False  # n = 1
    return o0, mask


def _crossing_primes(primes: np.ndarray, length: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The base primes above the wheel's and up to sqrt(hi) that cross off a
    mask of length, as (those up to length/ROUNDS, the larger ones)."""
    first = np.searchsorted(primes, WHEEL_PRIMES[-1], "right")
    stop = np.searchsorted(primes, math.isqrt(hi), "right")
    split = min(stop, max(first, np.searchsorted(primes, length // ROUNDS, "right")))
    return primes[first:split], primes[split:stop]


def _cross_large(mask: np.ndarray, primes: np.ndarray, lo: int, o0: int) -> None:
    """Cross off the larger base primes: in rounds where there are at least
    ROUND_PRIMES of them, else a slice each."""
    (_cross_rounds if len(primes) >= ROUND_PRIMES else _cross_slices)(mask, primes, lo, o0)


def _cross_slices(mask: np.ndarray, primes: np.ndarray, lo: int, o0: int) -> None:
    """Cross off each prime's odd multiples from max(p^2, o0), one strided
    slice per prime: stride 2p in n is stride p in the mask."""
    for p in primes.tolist():
        start = max(p * p, ((lo // p + 1) | 1) * p)
        mask[(start - o0) // 2 :: p] = False


def _cross_rounds(mask: np.ndarray, primes: np.ndarray, lo: int, o0: int) -> None:
    """_cross_slices' crossing off, one multiple of every prime per round."""
    i = (np.maximum(primes * primes, ((lo // primes + 1) | 1) * primes) - o0) // 2
    live = i < len(mask)
    while live.any():
        primes, i = primes[live], i[live]
        mask[i] = False
        i += primes
        live = i < len(mask)


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
    # One expression, so that no name here holds the mask or the primes
    # without the powers: each is dropped as soon as the step after it has
    # its output, and the logs are taken in place, so fewer large arrays are
    # alive at once.  Held by a name until the call returned, the primes
    # raised a fixed-integral run's peak RSS by ~0.4 MB (~1%).
    ns, at, ps = _splice_powers(_mask_ns(*_odd_mask(seg.lo, seg.hi, base)), base, seg.lo, seg.hi)
    return ns, _weights(ns, at, ps)


def _mask_ns(o0: int, mask: np.ndarray) -> np.ndarray:
    """The odd primes the mask holds, ascending."""
    ns = np.flatnonzero(mask).astype(np.int64, copy=False)
    ns *= 2
    ns += o0
    return ns


def _splice_powers(ns: np.ndarray, base: BasePrimes, lo: int, hi: int):
    """(ns, at, ps): the odd primes ns with 2 and the higher powers in
    (lo, hi] put in, the powers' indices there (None where there are none)
    and their p."""
    if lo < 2 <= hi:
        ns = np.concatenate((np.array([2], dtype=np.int64), ns))
    power_ns, power_ps = base.powers
    a, b = np.searchsorted(power_ns, (lo, hi), "right")
    if a == b:
        return ns, None, power_ps[a:b]
    # Each power lands after the primes below it and the powers before it.
    at = np.searchsorted(ns, power_ns[a:b])
    ns = np.insert(ns, at, power_ns[a:b])
    at += np.arange(b - a)
    return ns, at, power_ps[a:b]


def _weights(ns: np.ndarray, at, ps: np.ndarray) -> np.ndarray:
    """log n for each prime n, log p for each power p^m at the indices at."""
    ws = ns.astype(np.float64)
    np.log(ws, out=ws)
    if at is not None:
        ws[at] = [math.log(p) for p in ps.tolist()]  # log p, not log p^m
    return ws


def _chunks(lo: int, hi: int):
    """(a, b] pieces of (lo, hi], DEFAULT_SEGMENT_SIZE integers each but the last."""
    for a in range(lo, hi, DEFAULT_SEGMENT_SIZE):
        yield a, min(a + DEFAULT_SEGMENT_SIZE, hi)


class MangoldtSieve:
    """Reusable segmented sieve; base primes grow lazily and are immutable
    once built.  Instances are picklable and safe to share across workers.
    events, the only way into the sieve, sieves its range in one call at
    ~0.5 B per integer plus 16 B per prime power returned.  The sweep caps
    that range at sweep.MAX_SEGMENT_SIZE; the sums stream it by chunks of
    DEFAULT_SEGMENT_SIZE integers.
    """

    def __init__(self):
        self._base: BasePrimes | None = None

    def base_primes(self, limit: int) -> BasePrimes:
        if self._base is None:
            self._base = small_primes(max(limit, 1 << 16))
        elif self._base.limit < limit:  # double, so rising segments rebuild rarely
            self._base = small_primes(max(limit, 2 * self._base.limit))
        return self._base

    def events(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """All prime-power (n, weight) pairs with lo < n <= hi."""
        if hi <= lo:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        return lambda_segment(Segment(lo, hi), self.base_primes(math.isqrt(hi)))

    def psi(self, x: float) -> float:
        """Summatory function: the sum of weights over n <= floor(x)."""
        return self.pi_and_psi(x)[1]

    def pi_and_psi(self, x: float) -> tuple[int, float]:
        """The prime count and psi at x, from one sieve pass over (0, floor(x)].

        psi is one fsum of the chunks' fsums.  A chunk's primes are its prime
        powers less the higher powers the base primes' table has there.
        """
        if not 1 <= x < math.inf:
            raise ValueError(f"psi requires finite x >= 1, got {x}")
        n = math.floor(x)
        count, sums = 0, []
        for a, b in _chunks(0, n):
            ns, ws = self.events(a, b)
            powers = self.base_primes(math.isqrt(b)).powers[0]
            first, last = np.searchsorted(powers, (a, b), "right")
            count += len(ns) - int(last - first)
            sums.append(math.fsum(ws))
        return count, math.fsum(sums)


def prime_count(limit: int) -> int:
    """Number of primes <= limit (segmented, for CLI smoke tests)."""
    if limit < 2:
        return 0
    base = small_primes(max(math.isqrt(limit), 2))
    # 1 for n = 2; the masks hold the odd n.
    return 1 + sum(int(np.count_nonzero(_odd_mask(a, b, base)[1]))
                   for a, b in _chunks(0, limit))
