"""One piece sweep behind every moment mode.

Each mode integrates u^k with u = S(x) - delta*x - beta, where S(x) is the
weight of the prime powers m in the window (x, (1+delta)x + beta]: fixed
windows use delta = 0 and beta = h, proportional windows use delta and
beta = 0.  A prime power leaves the window at x = m and enters it at
x = (m - beta)/(1+delta), so S is constant between consecutive events and u
is linear on each piece, constant when delta = 0.  The integral is an exact
sum over pieces, folded block by block in the workspace's own buffers.

The blocks are swept by a compiled kernel (_sweep.c, built and loaded by
:mod:`psimoment.kernel`) where it builds, loads and matches the numpy path,
which is kept as its fallback and its reference: both give the same bits.

Every segment rebuilds its window state from one sieve call, so segments are
independent and the ordered reduction in :mod:`psimoment.runner` gives the
same bits for any worker count.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import partial

import numpy as np

from . import kernel
from .checkpoint import config_digest, sha256
from .runner import checked_fsum, run_tasks
from .sieve import DEFAULT_SEGMENT_SIZE, MangoldtSieve

__version_salt__ = 6  # bump to invalidate old checkpoints on algorithm change

log = logging.getLogger(__name__)

MAX_ORDER = 16

# sweep_segment builds and folds the pieces in blocks of BLOCK: a block's
# buffers take ~0.66 MB (the numpy path's merge permutation ~0.13 MB more),
# half a 2^15 block's, and neither the merge nor any order copies a whole
# segment; the kernel sums the twice as many parts itself, and a segment
# sweeps about as fast as at 2^15 (CHANGES.md has the timings).  Blocks start
# at fixed indices, so the bits do not depend on how the pieces were
# produced, but they do depend on BLOCK.  Each block folds down to at most
# FOLD_TO sums.
BLOCK = 1 << 14
FOLD_TO = 64

# One segment holds its sieve arrays and the workspace's ~0.66 MB of block
# buffers, so its memory grows with its one sieve call's span, the segment
# and the window's width: ~0.9-0.95 B per integer above an idle process.  A
# run where one segment would sieve more integers (a large segment size,
# delta or h) is refused rather than left to fail in numpy's allocator; a
# default segment size is shortened to keep under it where it can.
MAX_SEGMENT_SIZE = 1 << 26

# Each segment's sieve call re-sieves the window's width past its end, which
# the next segment sieves again.  A default segment is at least OVERLAP times
# that width, so a run re-sieves at most 1/OVERLAP of its integers.
OVERLAP = 16

# mode -> (name of its parameter, (X, param) -> (lo, hi, delta, beta)): the
# sweep runs x over [lo, hi] with the window (x, (1+delta)x + beta].  Sum mode
# is the integral over [1, X+1] (see psimoment.fixed).
WINDOWS = {
    "fixed-sum": ("h", lambda X, h: (1.0, X + 1.0, 0.0, float(h))),
    "fixed-integral": ("h", lambda X, h: (1.0, X, 0.0, float(h))),
    "scaled-integral": ("delta", lambda X, d: (1.0, X, float(d), 0.0)),
}


def as_int(value):
    """An integer value, numpy's too, as a Python int; any other as given."""
    try:
        return operator.index(value)
    except TypeError:
        return value


def check_ks(ks) -> tuple[int, ...]:
    """The moment orders ks as Python ints, sorted and each once."""
    ks = tuple(ks)
    if not ks:
        raise ValueError("need at least one moment order")
    orders = tuple(map(as_int, ks))
    for k, order in zip(ks, orders):
        if not isinstance(order, int) or not 1 <= order <= MAX_ORDER:
            raise ValueError(
                f"moment orders must be integers in [1, {MAX_ORDER}], got {k!r}")
    return tuple(sorted(set(orders)))


def check_finite(**values: float) -> None:
    """Raise ValueError unless every value is finite as a float."""
    for name, value in values.items():
        try:
            if math.isfinite(value):
                continue
        except OverflowError:  # an int past the float range
            raise ValueError(f"{name} must be finite, got an int of "
                             f"{value.bit_length()} bits") from None
        raise ValueError(f"{name} must be finite, got {value}")


class Tasks(Sequence):
    """The (a, b, *window) tasks of the segments of size that cover [lo, hi],
    task i made from i: a = lo + i*size, exact below 2^53, as tasks keeps it."""

    def __init__(self, lo: float, hi: float, size: int, *window):
        self.lo, self.hi, self.size, self.window = lo, hi, size, window
        # ceil((hi - lo) / size), exactly: a float floor division is exact.
        self.count = max(0, int(-((lo - hi) // size)))

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(self.count)[i]]
        a = self.lo + range(self.count)[i] * self.size
        return (a, min(a + self.size, self.hi), *self.window)


def sieve_range(a: float, b: float, delta: float, beta: float) -> tuple[int, int]:
    """The (lo, hi] of the one sieve call behind the segment [a, b]."""
    return math.floor(a), math.ceil((1.0 + delta) * b + beta) + 1


def default_segment_size(mode: str, X, param) -> int:
    """The segment size of a run of mode over [1, X] that names none.

    The smallest power of two that is at least DEFAULT_SEGMENT_SIZE (its
    sieve mask and event arrays stay in cache), at least OVERLAP times the
    window's width at X and at least X / 2^20.  Where the first two
    would make one segment's sieve call pass MAX_SEGMENT_SIZE, it is halved
    toward DEFAULT_SEGMENT_SIZE until the call fits; the span check in tasks
    still refuses a window too wide for any.  No term passes
    MAX_SEGMENT_SIZE, so a huge finite X or width (whose width may be inf)
    gives a size that tasks refuses with a ValueError.
    """
    lo, hi, delta, beta = WINDOWS[mode][1](X, param)
    width = delta * hi + beta

    def power_of_two(v) -> int:  # the smallest one at least min(v, MAX_SEGMENT_SIZE)
        return 1 << (max(math.ceil(min(v, MAX_SEGMENT_SIZE)), 1) - 1).bit_length()

    size = power_of_two(max(DEFAULT_SEGMENT_SIZE, OVERLAP * width))
    # A segment [a, b] sieves (floor(a), ceil((1+delta)b + beta) + 1]: fewer
    # than b - a + width + 3 integers.
    while size > DEFAULT_SEGMENT_SIZE and size + width + 3 > MAX_SEGMENT_SIZE:
        size //= 2
    # X / 2^20 outlived the cap of 2^20 segments that it kept runs under: it
    # sets the default's segments, and so its bits, past X ~ 2.2e12.
    return max(size, power_of_two((hi - lo) / (1 << 20)))


def tasks(mode: str, X, param, ks, segment_size: int) -> Tasks:
    """The (a, b, delta, beta, ks) sweep_segment tasks of one run of mode over [1, X]."""
    name, window = WINDOWS[mode]
    lo, hi, delta, beta = window(X, param)
    if not (isinstance(segment_size, int) and 1 <= segment_size <= sys.float_info.max):
        raise ValueError(f"segment_size must be an integer in [1, {sys.float_info.max:g}], "
                         f"got {segment_size!r}")
    top = (1.0 + delta) * hi + beta
    if not top < 2.0 ** 53:  # past it, a float does not hold every integer
        raise ValueError(f"the window's top, {top:g}, reaches 2^53; use a smaller X or {name}")
    work = Tasks(float(lo), float(hi), segment_size, delta, beta, ks)
    # All segments but the last have one length and a span that grows with
    # their end, so the widest span is one of the last two.
    span = 0
    for a, b, *_ in work[-2:]:
        first, last = sieve_range(a, b, delta, beta)
        span = max(span, last - first)
    if span > MAX_SEGMENT_SIZE:
        raise ValueError(
            f"{name} = {param} makes one segment sieve {span} integers, above "
            f"{MAX_SEGMENT_SIZE}; use a smaller {name} or segment size")
    return work


def run(mode: str, X, param, ks, sieve, threads: int, segment_size: int | None,
        checkpoint: str | None, resume: bool, limit: float = math.inf) -> dict[int, float]:
    """Per-order moments of mode over [1, X], reduced in segment order.

    X, param and segment_size are taken through as_int, so a numpy integer
    is the run of the Python int.  A segment_size of None is
    default_segment_size's.  The checkpoint digest is salted with the
    sweep's version and keeps X and param otherwise as passed, so an int X
    and a float X are different runs; it covers the orders as a set, the
    segment size in use, and the type of a sieve other than the default.
    Only a run with a checkpoint builds it.
    """
    ks = check_ks(ks)
    X, param = as_int(X), as_int(param)
    segment_size = (default_segment_size(mode, X, param) if segment_size is None
                    else as_int(segment_size))
    work = tasks(mode, X, param, ks, segment_size)
    sieve = MangoldtSieve() if sieve is None else sieve
    config = {"mode": mode, "ks": list(ks), "segment_size": segment_size,
              "salt": __version_salt__, "x": X, WINDOWS[mode][0]: param}
    if type(sieve) is not MangoldtSieve:
        config["sieve"] = f"{type(sieve).__module__}.{type(sieve).__qualname__}"
    digest = config_digest(config) if checkpoint else ""
    load_kernel()  # here, so that pool processes inherit it
    # The runner hands the worker to each pool process once, so a process
    # builds the sieve's base primes and grows the buffers once.
    workspace = Workspace(sieve)
    try:
        return run_tasks(partial(sweep_segment, workspace), work, ks, threads,
                         checkpoint, resume, digest, limit=limit)
    finally:
        # A serial run sweeps in the caller's process: do not leave it the
        # block buffers (~0.66 MB).
        workspace.arrays = ()


class Workspace:
    """A process's sieve and the float64 buffers its segments reuse.

    A large numpy array is a fresh mapping whose pages the operating system
    zeroes on first touch (~38 MB for a 2^22 segment with a fresh array per
    temporary).  The sweep writes into these five buffers of BLOCK + 2
    values (~0.66 MB) through out= instead, and the numpy path folds in the
    two that held a block's coordinates and merge permutation, so later
    segments map no new pages but their sieve call's.  Only where values
    are stored changes, not how they are computed: the bits are the same.
    """

    def __init__(self, sieve):
        self.sieve = sieve
        self.arrays: tuple[np.ndarray, ...] = ()

    def buffers(self) -> tuple[np.ndarray, ...]:
        """The five block buffers, made on first use."""
        if not self.arrays:
            self.arrays = tuple(np.empty(BLOCK + 2) for _ in range(5))
        return self.arrays


def enter_at(v, delta: float, beta: float):
    """The x = (v - beta)/(1+delta) where a prime power at v enters the window.

    v is a float, or a float64 array that is changed in place; both take
    the same two roundings, so a block's coordinates and the merge's
    comparisons agree.  A fixed window divides by 1.0, which is exact.
    """
    v -= beta
    v /= 1.0 + delta
    return v


def window_events(a: float, b: float, delta: float, beta: float, sieve):
    """The window's weights at x = a and the events for x in (a, b), as two sorted runs.

    Returns (inside, leaves, enters, leave_ws, enter_ws), all views into the
    sieve's arrays: the weights inside the window at x = a (window_weight
    sums them to s0), the ascending prime powers n that leave, at x =
    float(n), and those that enter, at x = enter_at(float(n), delta, beta),
    and their weights.  Leaves come first on equal coordinates.  No
    coordinate is stored: each block of sweep_segment maps its own slices.
    """
    ns, ws = sieve.events(*sieve_range(a, b, delta, beta))

    def enter(n) -> float:
        return enter_at(float(n), delta, beta)

    # Both coordinates rise with n, so each condition selects a slice.
    l0, l1 = bisect_right(ns, a, key=float), bisect_left(ns, b, key=float)
    e0, e1 = bisect_right(ns, a, key=enter), bisect_left(ns, b, key=enter)
    # Inside: n > a and entered at or before a.
    return ws[l0:e0], ns[l0:l1], ns[e0:e1], ws[l0:l1], ws[e0:e1]


def window_weight(inside) -> float:
    """The window weight s0, the math.fsum of the weights inside the window;
    NumericRangeError where it overflows.

    fsum is exact over any iterable, so chunks of the weights give the bits
    of one list of them all, without the list.
    """
    chunks = (inside[i:i + 4096].tolist() for i in range(0, len(inside), 4096))
    return checked_fsum("window weight", itertools.chain.from_iterable(chunks))


def merge_split(leaves, enters, delta: float, beta: float, j: int) -> int:
    """How many leaves are among the first j events of the two runs' merge.

    leaves and enters are window_events' runs of prime powers, merged by
    their coordinates under (delta, beta).  The merge is the stable sort of
    leaves then enters, so a leave comes before an enter at an equal
    coordinate.
    """
    def past(r: int) -> bool:
        # With r leaves, the first j events end at enter j-r-1; unless leave
        # r comes after it, more than r leaves are among them.
        return float(leaves[r]) > enter_at(float(enters[j - r - 1]), delta, beta)

    return bisect_left(range(j + 1), True, max(0, j - len(enters)),
                       min(j, len(leaves)), key=past)


def _fold(v, parts: list, scratch) -> None:
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

    v is only read.  Each level writes its sums and errors into the halves
    of one of the two scratch arrays, (out, spare), which take turns: out
    holds at least len(v) values, spare at least len(v) // 2, and neither
    shares memory with v or with the other.  Nothing is allocated.
    """
    err = None
    out, spare = scratch
    while len(v) > FOLD_TO:
        h = len(v) // 2
        if len(v) % 2:
            parts.append(float(v[-1]))
            if err is not None:
                parts.append(float(err[-1]))
        a, b = v[:h], v[h:2 * h]
        # b - z goes over b once v is this fold's own scratch.
        w = spare[:h] if err is None else b
        s = np.add(a, b, out=out[:h])
        e = np.subtract(s, a, out=out[h:2 * h])  # z
        np.subtract(b, e, out=w)  # b - z
        np.subtract(s, e, out=e)  # s - z
        np.subtract(a, e, out=e)  # a - (s - z)
        e += w
        if err is not None:
            e += err[:h]
            e += err[h:2 * h]
        v, err = s, e
        out, spare = spare, out
    parts.extend(v.tolist())
    if err is not None:
        parts.extend(err.tolist())


def fold_powers(u_lo, u_hi, q, r, parts: dict[int, list], scratch) -> None:
    """Fold one block's integrals of u^k into parts[k], for every k in parts.

    r holds the pieces' lengths L on entry.  With u_hi None (delta = 0) u is
    constant, u_lo, on each piece, and a piece integrates to L*u^k: r
    becomes that, one rounding per order, and q is unused.  Otherwise u runs
    linearly from u_lo to u_hi on each piece, which integrates to
    L*P_k/(k+1) with P_k = sum_j u_lo^j u_hi^(k-j) = u_hi*P_(k-1) + u_lo^k;
    unlike (u_lo^(k+1) - u_hi^(k+1))/((k+1)*slope) this does not cancel as
    u_lo - u_hi -> 0.  q also holds L on entry, and q and r become the
    running terms L*P_k and L*u_lo^k: the length is folded into both, and
    the 1/(k+1) is left to the caller.  scratch is _fold's.
    """
    for k in range(1, max(parts) + 1):
        r *= u_lo
        if u_hi is not None:
            q *= u_hi
            q += r
        if k in parts:
            _fold(r if u_hi is None else q, parts[k], scratch)


def _sweep_numpy(events, task, buffers, block: int) -> dict[int, list]:
    """The parts of every order of task's segment, block by block in numpy.

    The reference for the compiled kernel and the fallback where it does
    not build, load or match: see sweep_segment.
    """
    a, b, delta, beta, ks = task
    inside, leaves, enters, leave_ws, enter_ws = events
    s0 = window_weight(inside)
    x_buf, u_buf, c_buf, d_buf, r_buf = buffers
    n = len(leaves) + len(enters)
    parts: dict[int, list] = {k: [] for k in ks}
    x_buf[0], u_buf[0], r0 = a, s0 - beta, 0  # x[0], u[0], no leaves merged
    for i in range(0, n + 1, block):
        j = min(i + block, n + 1)
        pieces = j - i
        # Events i..last-1 are x[i+1..last]; the last block ends at x[n+1] = b.
        last = min(j, n)
        r1 = merge_split(leaves, enters, delta, beta, last)
        t0, t1 = i - r0, last - r1
        count, nl = last - i, r1 - r0
        coords, signed = c_buf[:count], d_buf[:count]
        coords[:nl] = leaves[r0:r1]  # the int64 -> float64 cast
        coords[nl:] = enters[t0:t1]
        enter_at(coords[nl:], delta, beta)
        np.negative(leave_ws[r0:r1], out=signed[:nl])
        signed[nl:] = enter_ws[t0:t1]
        # A stable sort merges the two sorted runs in one linear pass and
        # keeps leaves ahead of enters at equal coordinates.  Every coordinate
        # lies in (a, b) with a >= 1, so it is positive and finite, and such
        # doubles sort as their bit patterns do: sorting the int64 view gives
        # the same permutation, faster.  take's default mode would gather
        # through a temporary.
        order = np.argsort(coords.view(np.int64), kind="stable")
        np.take(coords, order, out=x_buf[1:1 + count], mode="clip")
        if j == n + 1:
            x_buf[pieces] = b
        np.take(signed, order, out=u_buf[1:1 + count], mode="clip")
        # Up to u[j], the next block's start, unless this block is the last.
        np.cumsum(u_buf[:count + 1], out=u_buf[:count + 1])
        x, u = x_buf[:pieces + 1], u_buf[:pieces]
        r = np.subtract(x[1:], x[:-1], out=r_buf[:pieces])  # the lengths
        if delta:
            xd = np.multiply(x, delta, out=c_buf[:pieces + 1])
            u_hi = np.subtract(u, xd[1:], out=d_buf[:pieces])
            u = np.subtract(u, xd[:-1], out=u)  # u_lo
            q = c_buf[:pieces]
            q[:] = r
        else:
            u_hi = q = None
        # x[:-1] and the permutation are dead: they are the fold's scratch,
        # which holds at least pieces and pieces // 2 values (count >=
        # pieces - 1).  x[j] and u[j] lie past x[:-1] and u: the next block's start.
        fold_powers(u, u_hi, q, r, parts, (x[:-1], order.view(np.float64)))
        x_buf[0], u_buf[0], r0 = x[-1], u_buf[pieces], r1
    return parts


def _sweep_kernel(fn, events, task, buffers, block: int):
    """(sums, parts): _sweep_numpy's parts, as arrays, and the math.fsum of
    each order's, from one call of the compiled kernel fn; None where the
    window weight is not finite, which the numpy path sweeps.

    The kernel merges the runs in one linear pass instead of a sort per
    block, needs no scratch beyond the five buffers, and sums the window
    weight and each order's parts itself.  An order whose sum it leaves NaN
    (a part or the sum not finite) is summed by checked_fsum, which raises
    NumericRangeError as it does on the numpy path.
    """
    a, b, delta, beta, ks = task
    if any(len(v) < block + 2 or v.dtype != np.float64 or not v.flags.c_contiguous
           for v in buffers):
        raise ValueError(f"the kernel needs five contiguous float64 buffers of {block + 2}")
    inside, leaves, enters, leave_ws, enter_ws = (
        np.ascontiguousarray(v, dtype=t) for v, t in zip(events, (np.float64, *KERNEL_DTYPES)))
    orders = np.array(sorted(set(ks)), dtype=np.int64)
    n = len(leaves) + len(enters)
    # A block of m pieces folds to at most m parts, and to at most FOLD_TO
    # sums and errors plus two per halving.
    cap = (n // block + 1) * min(block, 2 * FOLD_TO + 2 * block.bit_length())
    parts = np.empty((len(orders), cap))
    counts = np.empty(len(orders), dtype=np.int64)
    sums = np.empty(len(orders))
    s0 = fn(leaves.ctypes.data, leave_ws.ctypes.data, len(leaves),
            enters.ctypes.data, enter_ws.ctypes.data, len(enters),
            inside.ctypes.data, len(inside), a, b, delta, beta,
            orders.ctypes.data, len(orders), block, FOLD_TO,
            *(v.ctypes.data for v in buffers), parts.ctypes.data, cap, counts.ctypes.data,
            sums.ctypes.data)
    if math.isnan(s0):
        return None
    got = {int(k): p[:c] for k, p, c in zip(orders, parts, counts)}
    total = {k: checked_fsum(f"order-{k} partial sum", got[k].tolist()) if math.isnan(s) else s
             for k, s in zip(got, sums.tolist())}
    return {k: total[k] for k in ks}, {k: got[k] for k in ks}


def sweep_segment(workspace: Workspace, task) -> dict[int, float]:
    """Per-order integrals of u^k over x in [a, b] for one segment.

    The n events cut [a, b] into n + 1 pieces: piece i runs from x[i] to
    x[i+1], where x is a, the merged event coordinates, then b, and its
    window weight u[i] + beta is s0 plus the signed weights of the first i
    events.  Block [i, j) of BLOCK pieces starts from the x[i], u[i] and
    count of merged leaves that the block before it left and merges only
    the events behind x[i+1..j], so the events are never merged as a whole.
    _fold folds every order's block, and checked_fsum adds the folds of all
    blocks (NumericRangeError where that is not finite).  With delta = 0 a
    piece's term is its integral L*u^k; otherwise it is (k+1) times it.

    After window_events, the compiled kernel does all of it, the window
    weight and the sums too, where it loaded and passed its check, the
    orders are positive and the events are int64 and float64 arrays, as
    MangoldtSieve's are; otherwise the numpy path does, with the same bits.
    """
    a, b, delta, beta, ks = task
    events = window_events(a, b, delta, beta, workspace.sieve)
    fn, swept = load_kernel(), None
    if fn and all(k >= 1 for k in ks) and all(
            np.asarray(v).dtype == t for v, t in zip(events[1:], KERNEL_DTYPES)):
        swept = _sweep_kernel(fn, events, task, workspace.buffers(), BLOCK)
    if swept is None:
        parts = _sweep_numpy(events, task, workspace.buffers(), BLOCK)
        sums = {k: checked_fsum(f"order-{k} partial sum", p) for k, p in parts.items()}
    else:
        sums = swept[0]
    return {k: s / (k + 1 if delta else 1) for k, s in sums.items()}


# The dtypes of window_events' runs that the compiled kernel takes, which are
# MangoldtSieve's; a sieve= that returns others is swept by numpy.
KERNEL_DTYPES = (np.int64, np.int64, np.float64, np.float64)

# Before it is used, the compiled kernel must give the numpy path's parts on
# these runs' segments: both window shapes, an h whose enters fall on
# leaves, every order, a segment that folds nothing, and one of several
# blocks of CHECK_BLOCK pieces that fold through odd tails and levels that
# carry errors.
CHECK_RUNS = [("fixed-sum", 1050, 78), ("scaled-integral", 1050.5, 0.37)]
CHECK_BLOCK = 300
# parts_digest of the numpy path's parts on each of check_tasks(), in order:
# the kernel is held to them without running numpy's sweep.
# tests/test_kernel.py recomputes them from _sweep_numpy, where a change to
# the sweep's arithmetic re-pins them.
CHECK_DIGESTS = (
    "3f458f19b07bd1f3cf633abe653e7edf159724a8b936f30d3a485535b4cf0c7d",
    "e80b928f9c67042c33d91b39e4d4cbeb24b12a995ae35f6199f3a3ca4ffe5be3",
    "9c1acdd957e334eddb7734736d48775ddf1263ea2613153d07630411dde05588",
    "5810c6d990ecc04275dee94a73842f05d3ad02479b0e2bb1db1cd58828132d96",
)

_kernel = None  # the compiled sweep once checked; False where numpy sweeps


class CheckEvents:
    """check_kernel's event stream: each n = 1 mod 3, of weight 1/(n % 7 + 1.5).

    No sieve: the parent of a pool checks the kernel and need not map the
    sieve's code and tables (~1 MB) that only its workers use.
    """

    def events(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        ns = range(lo + 1 + (-lo) % 3, hi + 1, 3)
        return (np.array(ns, dtype=np.int64),
                np.array([1.0 / (n % 7 + 1.5) for n in ns]))


def check_tasks() -> list[tuple]:
    """The sweep_segment tasks of CHECK_RUNS: segments of 1000, every order."""
    return [task for mode, X, param in CHECK_RUNS
            for task in tasks(mode, X, param, range(1, MAX_ORDER + 1), 1000)]


def parts_digest(parts: dict[int, list]) -> str:
    """SHA-256 of each order, its count of parts and their little-endian bits."""
    digest = sha256()
    for k, p in sorted(parts.items()):
        digest.update(np.array([k, len(p)], dtype="<i8").tobytes())
        digest.update(np.array(p, dtype="<f8").tobytes())
    return digest.hexdigest()


def check_kernel(fn) -> str | None:
    """How fn's parts, or their sums, differ from numpy's on the check
    segments, or None."""
    sieve = CheckEvents()
    buffers = tuple(np.empty(CHECK_BLOCK + 2) for _ in range(5))
    for task, want in zip(check_tasks(), CHECK_DIGESTS, strict=True):
        events = window_events(*task[:4], sieve)
        swept = _sweep_kernel(fn, events, task, buffers, CHECK_BLOCK)
        if swept is None or parts_digest(swept[1]) != want:
            return f"differs from it on the segment {task[:4]}"
        for k, p in swept[1].items():
            if swept[0][k].hex() != math.fsum(p.tolist()).hex():
                return f"sums order {k} unlike math.fsum on the segment {task[:4]}"
    return None


def load_kernel():
    """The compiled sweep, or False where it does not build, load or match numpy.

    Decided once per process, with one log line that names the path in
    use: a kernel whose parts differ from the numpy path's on check_kernel's
    segments by one bit (an x87 or FMA-contracting toolchain, say) is not
    used, once a rebuild of a cached library differs too.
    """
    global _kernel
    if _kernel is None:
        try:
            fn, path = kernel.load(check_kernel)
        except OSError as exc:
            log.warning("sweep: numpy path; %s", exc)
            fn = False
        else:
            log.info("sweep: compiled kernel %s", path)
        _kernel = fn
    return _kernel
