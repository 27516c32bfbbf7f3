"""Independent reference computations used to check the fast paths.

Everything here deliberately avoids the package's segmented sieve and event
sweep: prime-power weights come from a divisor table built by repeated
marking, summatory values from a plain prefix table, moments from window
slices or piecewise quadrature of the pointwise-evaluated integrand.  The
exceptions are lambda_segment_reference, the package's earlier sieve, kept
as the bit-for-bit reference of the fast one, events_reference, the earlier
chunked MangoldtSieve.events, kept as the reference of the one-call one,
and sweep_segment_reference,
the earlier full-stream sweep, kept as the bit-for-bit reference of the
blocked one; power_sums is the blocked fold over whole piece arrays.
adaptive_simpson is the quadrature cross-check of the closed-form main
terms, from_csv reads a CSV report back for the round-trip tests,
ZeroMangoldt is the all-zero weight stream for the moments' sieve= keyword,
and DyadicMangoldt is a rounded one whose fixed-window moments
exact_fixed_moments computes in Fractions.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from psimoment import sieve as sieve_module, sweep
from psimoment.report import MomentReport, MomentRow


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its depth limit."""


def trial_division_lambda(n: int) -> float:
    """Literal per-n trial division: log p if n is a power of a prime p."""
    if n < 2:
        return 0.0
    p = 0
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            p = d
            break
    else:
        return math.log(n)  # n prime
    m = n
    while m % p == 0:
        m //= p
    return math.log(p) if m == 1 else 0.0


@lru_cache(maxsize=4)
def lambda_table(limit: int) -> np.ndarray:
    """Weights for n = 0..limit via a smallest-divisor table."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for d in range(2, math.isqrt(limit) + 1):
        sl = spf[d * d :: d]
        sl[sl == 0] = d
    lam = np.zeros(limit + 1, dtype=np.float64)
    for n in range(2, limit + 1):
        p = int(spf[n])
        if p == 0:
            lam[n] = math.log(n)  # no divisor <= sqrt(n): prime
            continue
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            lam[n] = math.log(p)
    return lam


@lru_cache(maxsize=4)
def psi_table(limit: int) -> np.ndarray:
    """Prefix sums: psi_table(L)[t] = sum of weights for n <= t."""
    return np.cumsum(lambda_table(limit))


def psi(x: float, limit: int) -> float:
    return float(psi_table(limit)[math.floor(x)])


def moment_sum_double_loop(X: int, h: int, ks) -> dict[int, float]:
    """O(X*h) reference: per-anchor window slice sums, no prefix sharing."""
    lam = lambda_table(X + h)
    out = {}
    for k in ks:
        terms = [
            (float(np.sum(lam[n + 1 : n + h + 1])) - h) ** k
            for n in range(1, X + 1)
        ]
        out[k] = math.fsum(terms)
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _piecewise_quadrature(breaks: np.ndarray, g, ks) -> dict[int, float]:
    """Integrate g^k piece by piece with interior-node Gauss panels.

    The integrand is polynomial of degree <= max(ks) on each piece, so a
    4-node panel is exact for k <= 7; nodes never touch the jump points.
    """
    lo = breaks[:-1]
    hi = breaks[1:]
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    xs = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    gv = g(xs.ravel()).reshape(xs.shape)
    out = {}
    for k in ks:
        panel = (gv**k * _GL_WEIGHTS[None, :]).sum(axis=1) * half
        out[k] = math.fsum(panel)
    return out


def riemann_fixed_integral(X: float, h: float, ks) -> dict[int, float]:
    """Fine-grained quadrature of the pointwise fixed-window integrand."""
    limit = math.ceil(X + h) + 1
    table = psi_table(limit)
    ms = np.flatnonzero(lambda_table(limit)).astype(np.float64)
    pts = np.concatenate([ms, ms - h, [1.0, X]])
    breaks = np.unique(np.clip(pts, 1.0, X))

    def g(x):
        return (
            table[np.floor(x + h).astype(np.int64)]
            - table[np.floor(x).astype(np.int64)]
            - h
        )

    return _piecewise_quadrature(breaks, g, ks)


def riemann_scaled_integral(X: float, delta: float, ks) -> dict[int, float]:
    """Fine-grained quadrature of the pointwise proportional-window integrand."""
    limit = math.ceil(X * (1.0 + delta)) + 1
    table = psi_table(limit)
    ms = np.flatnonzero(lambda_table(limit)).astype(np.float64)
    pts = np.concatenate([ms, ms / (1.0 + delta), [1.0, X]])
    breaks = np.unique(np.clip(pts, 1.0, X))

    def g(x):
        return (
            table[np.floor(x * (1.0 + delta)).astype(np.int64)]
            - table[np.floor(x).astype(np.int64)]
            - delta * x
        )

    return _piecewise_quadrature(breaks, g, ks)


def _prime_mask_reference(lo: int, hi: int, base) -> np.ndarray:
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


def lambda_segment_reference(seg, base) -> tuple[np.ndarray, np.ndarray]:
    """Prime-power locations and weights in (seg.lo, seg.hi], ascending.

    The plain segmented sieve that psimoment.sieve.lambda_segment replaced:
    a full mask crossed off prime by prime, and the higher powers enumerated
    per call.  The fast sieve must return the same ns and the same ws bits.

    Returns (n, weight) arrays: one entry per prime power, weight = log p.
    """
    need = math.isqrt(seg.hi)
    if base.limit < need:
        raise ValueError(
            f"base primes up to {base.limit} insufficient for segment ending at "
            f"{seg.hi}; need limit >= {need}"
        )
    mask = _prime_mask_reference(seg.lo, seg.hi, base)
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


def events_reference(sieve, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """All prime-power (n, weight) pairs with lo < n <= hi.

    The chunked MangoldtSieve.events that the one-call one replaced: (lo, hi]
    is sieved in pieces of psimoment.sieve.DEFAULT_SEGMENT_SIZE integers and the
    pieces' arrays are concatenated.  The one-call events must return the
    same ns and the same ws bits.
    """
    if hi <= lo:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    base = sieve.base_primes(math.isqrt(hi))
    chunks = [sieve_module.lambda_segment(sieve_module.Segment(a, b), base)
              for a, b in sieve_module._chunks(lo, hi)]
    if len(chunks) == 1:
        return chunks[0]  # no copy
    ns, ws = zip(*chunks)
    return np.concatenate(ns), np.concatenate(ws)


class ZeroMangoldt:
    """A sieve whose weight stream is identically zero: every window weight
    is 0, so each moment has a closed form.  It goes through the moment
    functions' sieve= keyword."""

    def events(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


class DyadicMangoldt:
    """The weights of lambda_table(limit) rounded to multiples of 2^-10.

    Every window weight is then a dyadic rational that float64 adds exactly,
    so with integer h the sweep's only roundings are in its powers and its
    sums, and exact_fixed_moments gives the exact value to compare with.
    It goes through the moment functions' sieve= keyword.
    """

    def __init__(self, limit: int):
        self.weights = np.round(lambda_table(limit) * 1024.0) / 1024.0

    def events(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        if hi >= len(self.weights):
            raise ValueError(f"weights end at {len(self.weights) - 1}, below {hi}")
        ns = np.flatnonzero(self.weights[lo + 1:hi + 1]) + (lo + 1)
        return ns.astype(np.int64), self.weights[ns]


def exact_fixed_moments(weights, X, h: int, ks, mode: str,
                        absolute: bool = False) -> dict[int, Fraction]:
    """Fixed-window moments in rational arithmetic, no float64 in them.

    For x in [n, n+1) the window (x, x+h] holds n+1..n+h, so its deviation
    is d_n = weights[n+1] + ... + weights[n+h] - h.  mode "sum" is the sum
    of d_n^k over n = 1..X; mode "integral" is the integral over [1, X], the
    sum over n = 1..floor(X)-1 plus (X - floor(X)) d_floor(X)^k.  With
    absolute, |d_n| replaces d_n: the exact sum of the terms' magnitudes.
    """
    top = math.floor(X)
    prefix = [Fraction(0)]
    for w in weights[:top + h + 2]:
        prefix.append(prefix[-1] + Fraction(float(w)))
    d = [prefix[n + h + 1] - prefix[n + 1] - h for n in range(top + 2)]
    if absolute:
        d = [abs(v) for v in d]
    if mode == "sum":
        return {k: sum(d[n] ** k for n in range(1, X + 1)) for k in ks}
    return {k: sum(d[n] ** k for n in range(1, top)) + (Fraction(X) - top) * d[top] ** k
            for k in ks}


def power_sums(u_lo, u_hi, length, ks) -> dict[int, float]:
    """Sum over pieces of the integral of u^k, u linear from u_lo to u_hi.

    With u_hi None, u is constant, u_lo, on each piece: the delta = 0 rule.
    The whole-array form of the sweep's power sums: the pieces in fixed
    index blocks of sweep.BLOCK, each block folded by sweep.fold_powers, and
    one math.fsum per order over the folds of all blocks.
    """
    parts: dict[int, list] = {k: [] for k in sorted(set(ks))}
    for i in range(0, len(length), sweep.BLOCK):
        block = slice(i, i + sweep.BLOCK)
        r = np.array(length[block], dtype=np.float64)  # L*u_lo^k
        q = None if u_hi is None else r.copy()  # L*P_k
        sweep.fold_powers(u_lo[block], None if u_hi is None else u_hi[block], q, r, parts,
                          (np.empty(len(r)), np.empty(len(r) // 2)))
    return {k: math.fsum(p) / (1 if u_hi is None else k + 1) for k, p in parts.items()}


def merge_runs(leaves, enters, leave_ws, enter_ws, delta: float,
               beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(coords, signed): window_events' two runs as one stream in sweep order.

    A prime power m leaves the window (x, (1+delta)x + beta] at x = m and
    enters it at x = (m - beta)/(1+delta).  A leave carries -weight and an
    enter +weight; the stable sort keeps leaves ahead of enters at equal
    coordinates.
    """
    enter = (enters.astype(np.float64) - beta) / (1.0 + delta)
    coords = np.concatenate((leaves.astype(np.float64), enter))
    signed = np.concatenate((-leave_ws, enter_ws))
    order = np.argsort(coords, kind="stable")
    return coords[order], signed[order]


# The full-stream sweep that sweep.sweep_segment replaced, kept as its
# bit-for-bit reference: it merges a segment's whole event stream and builds
# every piece before power_sums folds them block by block.

class ReferenceWorkspace:
    """A process's sieve and the four float64 buffers its segments reuse."""

    def __init__(self, sieve):
        self.sieve = sieve
        self.arrays: tuple[np.ndarray, ...] = ()

    def buffers(self, n: int) -> tuple[np.ndarray, ...]:
        """The four buffers, grown to hold at least n values each."""
        if not self.arrays or len(self.arrays[0]) < n:
            self.arrays = ()  # free the old buffers before mapping new ones
            # Headroom for a later segment with a few more events; a page is
            # resident only once it is written.
            self.arrays = tuple(np.empty(n + n // 8) for _ in range(4))
        return self.arrays


def window_events_reference(a: float, b: float, delta: float, beta: float,
                            workspace: ReferenceWorkspace):
    """Window weight at x = a and the events for x in (a, b), in sweep order.

    Returns (s0, coords, signed): coords nondecreasing, a leaving prime power
    with weight -w, an entering one with +w, leaves first on equal coords.
    coords and signed are views into the workspace, valid until its next
    window_events call: they sit at [1:n+1] of its first two buffers, so
    sweep_segment adds the ends around them in place.
    """
    ns, ws = workspace.sieve.events(*sweep.sieve_range(a, b, delta, beta))
    m = len(ns)
    # Each prime power leaves and enters at most once: at most 2m events,
    # plus the two ends.
    A, B, C, D = workspace.buffers(2 * m + 2)
    leave, enter = A[:m], B[:m]
    leave[:] = ns  # the int64 -> float64 cast of ns.astype(np.float64)
    np.subtract(leave, beta, out=enter)
    np.divide(enter, 1.0 + delta, out=enter)
    # Both coordinates rise with m, so each condition selects a slice.
    l0, l1 = np.searchsorted(leave, a, "right"), np.searchsorted(leave, b, "left")
    e0, e1 = np.searchsorted(enter, a, "right"), np.searchsorted(enter, b, "left")
    s0 = math.fsum(ws[l0:e0])  # m > a and entered at or before a
    leaves, enters = leave[l0:l1], enter[e0:e1]
    nl = len(leaves)
    n = nl + len(enters)
    coords = np.concatenate((leaves, enters), out=C[:n])
    signed = D[:n]
    np.negative(ws[l0:l1], out=signed[:nl])
    signed[nl:] = ws[e0:e1]
    # Freed here, the sieve's arrays leave the sort room to reuse; kept, the
    # sort's arrays grow the heap and ~460 pages fault in every segment.
    del ns, ws
    # A stable sort merges the two sorted runs in one linear pass and keeps
    # leaves, which come first, ahead of enters at equal coordinates.  leave
    # and enter are dead, so the sorted events go over them; take's default
    # mode would gather through a temporary.
    order = np.argsort(coords, kind="stable")
    np.take(coords, order, out=A[1:n + 1], mode="clip")
    np.take(signed, order, out=B[1:n + 1], mode="clip")
    return s0, A[1:n + 1], B[1:n + 1]


def sweep_segment_reference(workspace: ReferenceWorkspace, task) -> dict[int, float]:
    """Per-order integrals of u^k over x in [a, b] for one segment."""
    a, b, delta, beta, ks = task
    s0, coords, _ = window_events_reference(a, b, delta, beta, workspace)
    n = len(coords)
    A, B, C, D = workspace.arrays
    x, u = A[:n + 2], B[:n + 1]  # the events are x[1:-1] and u[1:]
    x[0], x[-1] = a, b
    u[0] = s0 - beta
    np.cumsum(u, out=u)  # S - beta on each piece
    if not delta:  # u is constant on each piece
        return power_sums(u, None, np.subtract(x[1:], x[:-1], out=C[:n + 1]), ks)
    u_hi, scratch = C[:n + 1], D[:n + 1]
    np.multiply(x[1:], delta, out=u_hi)
    np.subtract(u, u_hi, out=u_hi)
    np.multiply(x[:-1], delta, out=scratch)
    u_lo = np.subtract(u, scratch, out=u)
    length = np.subtract(x[1:], x[:-1], out=scratch)
    return power_sums(u_lo, u_hi, length, ks)


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 50,
) -> float:
    """Adaptive Simpson quadrature with relative tolerance tol.

    Signed orientation: a > b integrates backwards.  Raises QuadratureError
    if the depth limit is reached before the tolerance is met.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, max_depth)

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    # Tolerances scale to a first global magnitude estimate.
    fa, fm, fb = f(a), f((a + b) / 2.0), f(b)
    whole = simpson(a, b, fa, fm, fb)
    scale = max(abs(whole), 1e-300)

    def recurse(lo, hi, flo, fhi, fmid, approx, eps, depth):
        mid = (lo + hi) / 2.0
        lm, rm = (lo + mid) / 2.0, (mid + hi) / 2.0
        flm, frm = f(lm), f(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        err = left + right - approx
        if abs(err) <= 15.0 * eps:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise QuadratureError(
                f"quadrature did not converge on [{lo:g}, {hi:g}] "
                f"after depth {max_depth}"
            )
        return recurse(lo, mid, flo, fmid, flm, left, eps / 2.0, depth + 1) + recurse(
            mid, hi, fmid, fhi, frm, right, eps / 2.0, depth + 1
        )

    return recurse(a, b, fa, fb, fm, whole, tol * scale, 0)


def _parse(s: str) -> float | None:
    return None if s == "" else float(s)


def from_csv(text: str) -> MomentReport:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    mode = ""
    x = h_or_delta = wall = 0.0
    for rec in reader:
        mode = rec["mode"]
        x = float(rec["x"])
        h_or_delta = float(rec["h_or_delta"])
        wall = float(rec["wall_seconds"])
        rows.append(MomentRow(
            k=int(rec["k"]),
            actual=_parse(rec["actual"]),
            predicted_thm=_parse(rec["predicted_thm"]),
            predicted_ms=_parse(rec["predicted_ms"]),
            ratio=_parse(rec["ratio"]),
        ))
    return MomentReport(mode=mode, x=x, h_or_delta=h_or_delta,
                        rows=tuple(rows), wall_seconds=wall)
