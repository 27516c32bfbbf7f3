"""One piece sweep behind every moment mode.

Each mode integrates u^k with u = S(x) - delta*x - beta, where S(x) is the
weight of the prime powers m in the window (x, (1+delta)x + beta]: fixed
windows use delta = 0 and beta = h, proportional windows use delta and
beta = 0.  A prime power leaves the window at x = m and enters it at
x = (m - beta)/(1+delta), so S is constant between consecutive events and u
is linear on each piece.  The integral is an exact sum over pieces.

Every segment rebuilds its window state from one sieve call, so segments are
independent and the ordered reduction in :mod:`psimoment.runner` gives the
same bits for any worker count.
"""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import config_digest
from .runner import run_tasks
from .sieve import MangoldtSieve

__version_salt__ = 3  # bump to invalidate old checkpoints on algorithm change

MAX_ORDER = 16

# power_sums walks the pieces in blocks of BLOCK: a block's running terms and
# fold temporaries take ~2.3 MB, about one core's L2, and no order copies a
# whole segment.  2^16 was the fastest of 2^13..2^18 on a 0.46M-piece segment.
# Blocks start at fixed indices, so the bits do not depend on how the pieces
# were produced.  Each block folds down to at most FOLD_TO sums.
BLOCK = 1 << 16
FOLD_TO = 64

# A run keeps ~0.4-0.5 KB per segment (its task tuple, its pending index and
# its result dict), so 2^20 segments hold ~0.5 GB before any sweeping starts.
# A pool adds only the futures of the few tasks it has in flight.
MAX_SEGMENTS = 1 << 20

# One segment holds its sieve mask and event arrays at once: a 2^26 segment at
# X = 1e9 peaks at ~406 MB RSS per worker (~5.6 B per integer), so larger
# segments are refused rather than left to fail in numpy's allocator.
MAX_SEGMENT_SIZE = 1 << 26

# mode -> (name of its parameter, (X, param) -> (lo, hi, delta, beta)): the
# sweep runs x over [lo, hi] with the window (x, (1+delta)x + beta].  Sum mode
# is the integral over [1, X+1] (see psimoment.fixed).
WINDOWS = {
    "fixed-sum": ("h", lambda X, h: (1.0, X + 1.0, 0.0, float(h))),
    "fixed-integral": ("h", lambda X, h: (1.0, X, 0.0, float(h))),
    "scaled-integral": ("delta", lambda X, d: (1.0, X, float(d), 0.0)),
}


def check_ks(ks) -> tuple[int, ...]:
    ks = tuple(ks)
    if not ks:
        raise ValueError("need at least one moment order")
    for k in ks:
        if not isinstance(k, int) or not 1 <= k <= MAX_ORDER:
            raise ValueError(
                f"moment orders must be integers in [1, {MAX_ORDER}], got {k!r}")
    return ks


def check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def segments(lo: float, hi: float, size: int) -> list[tuple[float, float]]:
    """Consecutive (a, b) pieces of length at most size covering [lo, hi]."""
    if not 1 <= size <= MAX_SEGMENT_SIZE:
        raise ValueError(f"segment_size must be in [1, {MAX_SEGMENT_SIZE}], got {size}")
    if (hi - lo) / size > MAX_SEGMENTS:
        raise ValueError(
            f"{hi - lo:g} / segment_size {size} exceeds {MAX_SEGMENTS} segments; "
            "use a larger segment size")
    out = []
    a = float(lo)
    while a < hi:
        b = min(a + size, float(hi))
        out.append((a, b))
        a = b
    return out


def tasks(mode: str, X, param, ks, segment_size: int, sieve=None) -> list[tuple]:
    """The sweep_segment tasks of one run of mode over [1, X]."""
    lo, hi, delta, beta = WINDOWS[mode][1](X, param)
    sieve = sieve if sieve is not None else MangoldtSieve()
    return [(a, b, delta, beta, ks, sieve) for a, b in segments(lo, hi, segment_size)]


def run(mode: str, X, param, ks, sieve, threads: int, segment_size: int,
        checkpoint: str | None, resume: bool) -> dict[int, float]:
    """Per-order moments of mode over [1, X], reduced in segment order.

    The checkpoint digest is salted with the sweep's version and keeps the
    values exactly as passed, so an int X and a float X are different runs.
    """
    ks = check_ks(ks)
    work = tasks(mode, X, param, ks, segment_size, sieve)
    digest = config_digest({"mode": mode, "ks": list(ks), "segment_size": segment_size,
                            "salt": __version_salt__, "x": X, WINDOWS[mode][0]: param})
    return run_tasks(sweep_segment, work, ks, threads, checkpoint, resume, digest)


def window_events(a: float, b: float, delta: float, beta: float, sieve):
    """Window weight at x = a and the events for x in (a, b), in sweep order.

    Returns (s0, coords, signed): coords nondecreasing, a leaving prime power
    with weight -w, an entering one with +w, leaves first on equal coords.
    """
    ns, ws = sieve.events(math.floor(a), math.ceil((1.0 + delta) * b + beta) + 1)
    leave = ns.astype(np.float64)
    enter = (leave - beta) / (1.0 + delta)
    # Both coordinates rise with m, so each condition selects a slice.
    l0, l1 = np.searchsorted(leave, a, "right"), np.searchsorted(leave, b, "left")
    e0, e1 = np.searchsorted(enter, a, "right"), np.searchsorted(enter, b, "left")
    s0 = math.fsum(ws[l0:e0])  # m > a and entered at or before a
    coords = np.concatenate([leave[l0:l1], enter[e0:e1]])
    signed = np.concatenate([-ws[l0:l1], ws[e0:e1]])
    # A stable sort merges the two sorted runs in one linear pass and keeps
    # leaves, which come first, ahead of enters at equal coordinates.
    order = np.argsort(coords, kind="stable")
    return s0, coords[order], signed[order]


def _fold(v, parts: list) -> None:
    """Append to parts floats that add up to v's sum.

    That is at most FOLD_TO sums and FOLD_TO errors, plus one of each per
    level that halves an odd length.  Each level adds the two halves of v
    and keeps every TwoSum rounding error (Knuth's branch-free form) in a
    parallel array, which is itself added with plain roundings: the result
    is as accurate as a sum in twice the working precision (Ogita, Rump and
    Oishi, SIAM J. Sci. Comput. 26 (2005)).  After one fsum of the parts
    the error is within an ulp of the exact sum unless cancellation removes
    more than ~13 of its digits (sum|v| / |sum v| > ~1e13).  Elementwise
    operations only, so the bits are a function of the values and their
    positions, never of memory layout or SIMD width.
    """
    err = None
    while len(v) > FOLD_TO:
        h = len(v) // 2
        if len(v) % 2:
            parts.append(float(v[-1]))
            if err is not None:
                parts.append(float(err[-1]))
        a, b = v[:h], v[h:2 * h]
        s = a + b
        z = s - a
        e = a - (s - z)
        e += b - z
        if err is not None:
            e += err[:h]
            e += err[h:2 * h]
        v, err = s, e
    parts.extend(v.tolist())
    if err is not None:
        parts.extend(err.tolist())


def power_sums(u_lo, u_hi, length, ks) -> dict[int, float]:
    """Sum over pieces of the integral of u^k, u linear from u_lo to u_hi.

    A piece of length L integrates to L*P_k/(k+1) with
    P_k = sum_j u_lo^j u_hi^(k-j) = u_hi*P_(k-1) + u_lo^k; unlike
    (u_lo^(k+1) - u_hi^(k+1))/((k+1)*slope) this does not cancel as
    u_lo - u_hi -> 0.  The length is folded into both running terms.

    The pieces are walked in fixed index blocks of BLOCK, so each block's
    running terms stay in cache; every order's block is folded by _fold and
    one math.fsum per order adds the folds of all blocks.
    """
    parts: dict[int, list] = {k: [] for k in sorted(set(ks))}
    top = max(parts)
    for i in range(0, len(length), BLOCK):
        q = np.array(length[i:i + BLOCK], dtype=np.float64)  # L*P_k
        r = q.copy()  # L*u_lo^k
        lo, hi = u_lo[i:i + BLOCK], u_hi[i:i + BLOCK]
        for k in range(1, top + 1):
            q *= hi
            r *= lo
            q += r
            if k in parts:
                _fold(q, parts[k])
    return {k: math.fsum(p) / (k + 1) for k, p in parts.items()}


def sweep_segment(task) -> dict[int, float]:
    """Per-order integrals of u^k over x in [a, b] for one segment."""
    a, b, delta, beta, ks, sieve = task
    s0, coords, signed = window_events(a, b, delta, beta, sieve)
    x = np.concatenate(([a], coords, [b]))
    u = np.concatenate(([s0 - beta], signed))
    del coords, signed
    np.cumsum(u, out=u)  # S - beta on each piece
    u_lo, u_hi, length = u - delta * x[:-1], u - delta * x[1:], np.diff(x)
    del x, u
    return power_sums(u_lo, u_hi, length, ks)
