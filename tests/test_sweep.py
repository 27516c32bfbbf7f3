import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import psimoment
from psimoment import (MangoldtSieve, moment_integral_fixed, moment_integral_scaled,
                       moment_sum, sweep)
from psimoment import sieve as sieve_module
from psimoment.sieve import DEFAULT_SEGMENT_SIZE
from psimoment.sweep import BLOCK

import oracles
from oracles import ZeroMangoldt, power_sums

ULP = 2.0**-52


def exact_piece(u_lo, u_hi, length, k):
    """Integral of u^k over a piece where u runs linearly from u_lo to u_hi."""
    a, b, L = Fraction(u_lo), Fraction(u_hi), Fraction(length)
    if a == b:
        return L * a**k
    return L * (a ** (k + 1) - b ** (k + 1)) / ((k + 1) * (a - b))


@pytest.mark.parametrize("regime", ["same-sign", "near-equal", "equal", "opposite-sign"])
def test_power_sums_exact(regime):
    rng = random.Random(regime)
    ks = tuple(range(1, 17))
    for _ in range(200):
        u_lo = rng.uniform(-500.0, 500.0)
        length = rng.uniform(0.0, 50.0)
        if regime == "same-sign":
            u_hi = u_lo * rng.uniform(0.2, 1.0)
        elif regime == "near-equal":  # small slope: the delta -> 0 regime
            u_hi = u_lo * (1.0 - rng.uniform(1e-12, 1e-6))
        elif regime == "equal":  # fixed windows: delta = 0
            u_hi = u_lo
        else:
            u_hi = -u_lo * rng.uniform(0.2, 1.0)
        got = power_sums(np.array([u_lo]), np.array([u_hi]), np.array([length]), ks)
        # The sweep takes a fixed window's pieces as constant: u_hi None.
        constant = (power_sums(np.array([u_lo]), None, np.array([length]), ks)
                    if regime == "equal" else got)
        for k in ks:
            if regime == "opposite-sign" and k % 2:
                continue  # the odd integral can vanish; no relative error
            want = exact_piece(u_lo, u_hi, length, k)
            for value in (got[k], constant[k]):
                err = abs(Fraction(value) - want) / abs(want)
                assert err <= 8 * ULP, (u_lo, u_hi, length, k, float(err) / ULP)


def exact_sum(values) -> Fraction:
    """The exact sum: every float64 is an integer multiple of 2^-1074."""
    total = 0
    for v in values:
        n, d = v.as_integer_ratio()
        total += n * ((1 << 1074) // d)
    return Fraction(total, 1 << 1074)


def signed_log_uniform(rng, lo, hi, n):
    return np.sign(rng.uniform(-1, 1, n)) * 10.0 ** rng.uniform(lo, hi, n)


def fold_inputs(n, regime, rng):
    if regime == "wide":
        return signed_log_uniform(rng, -300.0, 300.0, n)  # 1e-300..1e300
    # 11 digits cancel (sum|x| / |sum x| ~ 1e11, inside the fold's ~1e13):
    # +-y with |y| in 1e-3..1e3 plus positive terms ~1e-9, then scaled by
    # 2^-990 (~1e-298), 1 or 2^980 (~1e295).
    y = signed_log_uniform(rng, -3.0, 3.0, n // 2)
    x = np.concatenate([y, -y, rng.uniform(0.0, 1.0, n % 2)])
    x += 1e-9 * rng.uniform(0.0, 1.0, n)
    rng.shuffle(x)
    return x * 2.0 ** {"cancel-tiny": -990, "cancel": 0, "cancel-huge": 980}[regime]


@pytest.mark.parametrize("regime", ["wide", "cancel-tiny", "cancel", "cancel-huge"])
# Lengths about one, two and four blocks, and several blocks and a tail.
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1,
                               2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK - 1, 4 * BLOCK,
                               4 * BLOCK + 1, 3 * BLOCK + 7, 6 * BLOCK + 7, 12 * BLOCK + 7])
def test_power_sums_fold_exact(n, regime):
    # With u == 1 and k = 1 each piece's term is exactly L, or 2L halved at
    # the end on the sloped path, so power_sums returns the blocked TwoSum
    # sum of the lengths.
    x = fold_inputs(n, regime, np.random.default_rng(n))
    ones = np.ones(n)
    want = exact_sum(x.tolist())
    for u_hi in (ones, None):
        got = power_sums(ones, u_hi, x, (1,))[1]
        assert abs(Fraction(got) - want) <= Fraction(math.ulp(float(want))), (
            got, float(want))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_moment_sum_property(data):
    X = data.draw(st.integers(1, 3000), label="X")
    h = data.draw(st.integers(1, X), label="h")
    size = data.draw(st.integers(1, 700), label="segment_size")
    ks = (2, 4, 6)
    sieve = MangoldtSieve()
    got = moment_sum(X, h, ks, segment_size=size, sieve=sieve)
    whole = moment_sum(X, h, ks, segment_size=X, sieve=sieve)
    want = oracles.moment_sum_double_loop(X, h, ks)
    for k in ks:
        assert got[k] == pytest.approx(want[k], rel=1e-9)
        assert got[k] == pytest.approx(whole[k], rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_integral_modes_vs_oracles(data):
    # Segment sizes from 1 to X give the default sieve calls of every small
    # length, starting at odd and even n.
    X = data.draw(st.floats(2.0, 3000.0), label="X")
    h = data.draw(st.floats(0.5, X), label="h")
    delta = data.draw(st.floats(1e-3, 1.0), label="delta")
    size = data.draw(st.integers(1, math.ceil(X)), label="segment_size")
    ks = (2, 4, 6)
    for got, want in (
            (moment_integral_fixed(X, h, ks, segment_size=size),
             oracles.riemann_fixed_integral(X, h, ks)),
            (moment_integral_scaled(X, delta, ks, segment_size=size),
             oracles.riemann_scaled_integral(X, delta, ks))):
        for k in ks:
            assert got[k] == pytest.approx(want[k], rel=1e-9), (k, got, want)


def test_segment_cap(monkeypatch):
    # 10^10 one-integer segments are refused before any bookkeeping is built.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="segments"):
        moment_sum(10**10, 10**5, [2], segment_size=1)
    assert time.perf_counter() - t0 < 0.5
    # A wide window widens every segment's one sieve call past its size: at
    # delta = 1 the last segment ending at 1e9 would sieve ~1e9 integers.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="delta = 1.0 makes one segment sieve"):
        moment_integral_scaled(1e9, 1.0, [2])
    assert time.perf_counter() - t0 < 0.5
    # Boundary: segments of 50 over [1, 1000] with h sieve 51 + h integers at
    # most, in the next-to-last segment [901, 951].
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "MAX_SEGMENT_SIZE", 100)
        assert len(sweep.tasks("fixed-integral", 1000, 49, (2,), 50)) == 20
        with pytest.raises(ValueError, match="h = 50 makes one segment sieve 101"):
            sweep.tasks("fixed-integral", 1000, 50, (2,), 50)
    monkeypatch.setattr(sweep, "MAX_SEGMENTS", 4)
    assert len(sweep.segments(0.0, 12.0, 3)) == 4
    with pytest.raises(ValueError, match="exceeds 4 segments"):
        sweep.segments(0.0, 13.0, 3)
    # One segment's memory grows with its sieve span, the only cap: a segment
    # size past it cuts a short run into one segment, which fits, and a long
    # run into full segments, which do not.
    cap = sweep.MAX_SEGMENT_SIZE
    assert sweep.segments(0.0, 2.0 * cap, cap) == [(0.0, cap), (cap, 2.0 * cap)]
    assert len(sweep.tasks("fixed-integral", 1000.0, 1.0, (2,), cap + 1)) == 1
    with pytest.raises(ValueError, match="makes one segment sieve"):
        sweep.tasks("fixed-integral", 3.0 * cap, 1.0, (2,), cap + 1)
    for size in (0, math.nan, math.inf, 10**400):  # 10**400 overflows a float
        with pytest.raises(ValueError, match="segment_size"):
            sweep.segments(0.0, 10.0, size)


@pytest.mark.parametrize("mode,X,param,log2", [
    # The paper's windows: 2^21, the cache-sized floor.
    ("fixed-integral", 1e8, 1e5, 21),
    ("scaled-integral", 1e8, 1e-4, 21),
    ("fixed-sum", 10**10, 10**5, 21),
    ("scaled-integral", 1e10, 1e-5, 21),
    # A 1e6-wide window at 1e11: 16 widths, so it re-sieves ~6%.
    ("scaled-integral", 1e11, 1e-5, 24),
    # A 1e7-wide window at 1e12: 16 widths would pass the span cap, so the
    # size is halved until one segment's sieve call fits under 2^26.
    ("scaled-integral", 1e12, 1e-5, 25),
    ("fixed-integral", 1e9, 6e7, 22),
    # Too wide for any segment: the floor, which the span check refuses.
    ("scaled-integral", 1e9, 1.0, 21),
])
def test_default_segment_size(mode, X, param, log2):
    size = sweep.default_segment_size(mode, X, param)
    assert size == 1 << log2
    lo, hi, delta, beta = sweep.WINDOWS[mode][1](X, param)
    width = delta * hi + beta
    if size > DEFAULT_SEGMENT_SIZE:
        assert size // 2 < 16 * width
    if 1 << 21 < size or 16 * width <= size:
        assert size + width + 3 <= sweep.MAX_SEGMENT_SIZE


@pytest.mark.parametrize("mode,X,param", [
    ("scaled-integral", 1e308, 1.0),  # (1+delta)X is inf
    ("fixed-integral", 1.5e308, 1.5e308),
    ("fixed-sum", 10**300, 10**300),
])
def test_default_segment_size_of_a_huge_run_is_the_span_cap(mode, X, param):
    # Every term is capped before it is rounded: no OverflowError, and the
    # segment count check refuses the run.
    assert sweep.default_segment_size(mode, X, param) == sweep.MAX_SEGMENT_SIZE
    with pytest.raises(ValueError, match="exceeds 1048576 segments"):
        sweep.tasks(mode, X, param, (2,), sweep.MAX_SEGMENT_SIZE)


def test_default_segment_size_keeps_under_the_segment_cap(monkeypatch):
    # Past MAX_SEGMENTS * 2^21 the default segment widens, so the segment cap
    # never refuses a run that names no size; a cap of 2^4 segments keeps
    # the task lists short.
    monkeypatch.setattr(sweep, "MAX_SEGMENTS", 1 << 4)
    X = 1.5 * (1 << 4) * DEFAULT_SEGMENT_SIZE
    size = sweep.default_segment_size("fixed-integral", X, 1e5)
    assert size == 2 * DEFAULT_SEGMENT_SIZE
    assert len(sweep.tasks("fixed-integral", X, 1e5, (2,), size)) == 12
    with pytest.raises(ValueError, match="exceeds 16 segments"):
        sweep.tasks("fixed-integral", X, 1e5, (2,), DEFAULT_SEGMENT_SIZE)
    # fixed-sum runs to X + 1: exactly MAX_SEGMENTS full segments fit.
    X = (1 << 4) * 4 * DEFAULT_SEGMENT_SIZE
    assert sweep.default_segment_size("fixed-sum", X, 10) == 4 * DEFAULT_SEGMENT_SIZE
    assert len(sweep.tasks("fixed-sum", X, 10, (2,), 4 * DEFAULT_SEGMENT_SIZE)) == 16


def test_explicit_segment_size_is_used_as_given(monkeypatch):
    sweep.load_kernel()  # its check makes tasks of its own
    sizes = []
    tasks = sweep.tasks
    monkeypatch.setattr(sweep, "tasks", lambda *args: sizes.append(args[-1]) or tasks(*args))
    moment_integral_fixed(1e4, 10.0, [2], segment_size=3000)
    moment_integral_fixed(1e4, 10.0, [2])
    assert sizes == [3000, DEFAULT_SEGMENT_SIZE]


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_worker_count_bit_identity(data):
    # Segments are independent and reduced in index order, so a pool of two
    # workers returns the serial bits.
    X = data.draw(st.integers(2, 20000), label="X")
    size = data.draw(st.integers(max(1, X // 48), X), label="segment_size")
    h = data.draw(st.integers(1, X), label="h")
    delta = data.draw(st.floats(1e-3, 1.0), label="delta")
    ks = (1, 2, 3, 4)
    for fn, args in ((moment_sum, (X, h, ks)),
                     (moment_integral_scaled, (X + 0.5, delta, ks))):
        serial = fn(*args, segment_size=size)
        pooled = fn(*args, segment_size=size, threads=2)
        assert pooled == serial, (fn.__name__, serial, pooled)


def test_run_frees_its_workspace(monkeypatch):
    # A serial run sweeps in the caller's process; its buffers must not
    # outlive the call, whether it returns or raises.
    made = []

    class Recorded(sweep.Workspace):
        def buffers(self):
            made.append(self)
            return super().buffers()

    class FailingSieve(MangoldtSieve):
        calls = 0

        def events(self, lo, hi):
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("sieve failed")
            return super().events(lo, hi)

    monkeypatch.setattr(sweep, "Workspace", Recorded)
    moment_integral_fixed(1e5, 100.0, [2], segment_size=2**14)
    assert made and all(ws.arrays == () for ws in made)
    made.clear()
    with pytest.raises(RuntimeError, match="sieve failed"):
        moment_integral_fixed(1e5, 100.0, [2], segment_size=2**14, sieve=FailingSieve())
    assert made and all(ws.arrays == () for ws in made)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool processes see the patched sieve only when forked")
def test_base_primes_built_once_per_pool_process(monkeypatch, tmp_path):
    # 20 segments on 2 workers: each process builds the base primes once
    # (one build per task when every task carried its own sieve).
    builds = tmp_path / "builds"
    small_primes = sieve_module.small_primes

    def counted(limit):
        with builds.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return small_primes(limit)

    monkeypatch.setattr(sieve_module, "small_primes", counted)
    moment_integral_scaled(2e7, 1e-4, [2], segment_size=2**20, threads=2)
    assert 1 <= len(builds.read_text().split()) <= 2


def test_base_primes_grow_by_doubling(monkeypatch):
    # Past 2^32 each full 2^22 segment of the 1e10 ms-table needs ~21 more in
    # isqrt(hi): growing the base primes to exactly that rebuilt them (and
    # their powers table) for every one of these 20 segments.
    builds = []
    small_primes = sieve_module.small_primes
    monkeypatch.setattr(sieve_module, "small_primes",
                        lambda limit: builds.append(limit) or small_primes(limit))
    work = sweep.tasks("fixed-sum", 10**10, 10**5, (2, 4, 6), 1 << 22)[-20:]
    workspace = sweep.Workspace(MangoldtSieve())
    got = [sweep.sweep_segment(workspace, task) for task in work]
    assert len(builds) <= 2, builds
    # The moments of exact growth, one build per segment.
    assert [math.fsum(g[k] for g in got).hex() for k in (2, 4, 6)] == [
        "0x1.2d28cfb056efbp+46", "0x1.c17fb9e00a2a6p+67", "0x1.127aeed8d0e63p+90"]


KS16 = tuple(range(1, 17))
SRC = str(Path(psimoment.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)

# Each run's moments at k = 1..16, as hex, recorded at __version_salt__ 5
# (2^15-piece blocks) and unchanged at 6 (2^14).  A change to the sweep's
# arithmetic that moves any bit fails here; such a change bumps
# sweep.__version_salt__, and these values must then be regenerated.  The
# last two runs take the default segment size, and their first segment holds
# ~19 blocks of pieces (MULTI_BLOCK_RUNS).
PINNED_RUNS = [
    (moment_integral_scaled, (1000.5, 0.37), 7, [
        "0x1.24317bd65c42dp+9", "0x1.9a87b38c63978p+15", "0x1.2cae4b4d0cd41p+18",
        "0x1.679da631d720cp+23", "0x1.18aa304a5743bp+27", "0x1.064760e00cb23p+32",
        "0x1.183b131a86ecap+36", "0x1.e03172ed6dd67p+40", "0x1.2bf97d673b106p+45",
        "0x1.f02bd4650c140p+49", "0x1.531f8445659e8p+54", "0x1.1417016ecf2b0p+59",
        "0x1.8f95b15ce9887p+63", "0x1.4344657e475d3p+68", "0x1.e659310ffabcbp+72",
        "0x1.891444199fdaep+77"]),
    (moment_sum, (997, 13), 3, [
        "-0x1.04a98cb74d60fp+6", "0x1.698faa0c5b7dbp+14", "0x1.46f1044cf1adcp+13",
        "0x1.9bf67d70402a5p+20", "0x1.863ba161dd374p+21", "0x1.7c4d11bddde02p+27",
        "0x1.49fb7f651e765p+29", "0x1.c94dde250b940p+34", "0x1.0a20e046eb299p+37",
        "0x1.331a0355f9fa0p+42", "0x1.ab4e58c481396p+44", "0x1.af64b1f6a2a4ep+49",
        "0x1.56b7241aa0224p+52", "0x1.357cb9143e7d4p+57", "0x1.121ef84c05f36p+60",
        "0x1.c18fa48d8d850p+64"]),
    (moment_integral_fixed, (12345.6, 77.25), 1000, [
        "-0x1.100f540b9b01bp+11", "0x1.3e65388974d7ep+21", "0x1.680f6d4705b9fp+20",
        "0x1.854bc17f17815p+30", "0x1.0f3a3ab3861cbp+32", "0x1.6cebf940188fbp+40",
        "0x1.03afaae2adc91p+43", "0x1.b2cf5f93fcc1fp+50", "0x1.ec2382c3c7e35p+53",
        "0x1.2f5b1d4e2e2b2p+61", "0x1.e9cf92a397071p+64", "0x1.dad69508f7ae5p+71",
        "0x1.ffc22e9f52337p+75", "0x1.95e8c80ee5509p+82", "0x1.14fa74755b3fbp+87",
        "0x1.73c9217a7a43ap+93"]),
    (moment_integral_scaled, (10**6, 1e-3), 2**15, [
        "-0x1.7cbd90cc2104cp+18", "0x1.4d6b2745d0c94p+31", "-0x1.d2f66302dce7dp+33",
        "0x1.c09294ce5447ap+44", "-0x1.2e1d516112475p+49", "0x1.20ede97783ba9p+59",
        "-0x1.dabbeaace2781p+64", "0x1.1ecae2ac2d41cp+74", "-0x1.a06d4da51cd4cp+80",
        "0x1.7a6e9d130925dp+89", "-0x1.837c67ac41a46p+96", "0x1.28533b19e85a2p+105",
        "-0x1.74f1d18caacdep+112", "0x1.00381ec817052p+121", "-0x1.6ec193325c3c9p+128",
        "0x1.d609c90734509p+136"]),
    (moment_integral_scaled, (3e6, 1e-3), None, [
        "-0x1.071856f7d2648p+17", "0x1.839d41a15b7a6p+34", "-0x1.036224f918ca1p+36",
        "0x1.871b39d6de12ep+49", "-0x1.c102f8b9b3fd8p+51", "0x1.5c11fb3f19e74p+65",
        "-0x1.69585865e8336p+67", "0x1.ac155c5d6f7e5p+81", "-0x1.bb79927403361p+82",
        "0x1.413dd744b414ap+98", "0x1.5cf6a82bf27b2p+97", "0x1.12069dea3bd50p+115",
        "0x1.8fa11caf890b1p+116", "0x1.fdb7ec9cfcd65p+131", "0x1.2413269a348f4p+134",
        "0x1.f8110228b23b4p+148"]),
    (moment_sum, (3 * 10**6, 1000), None, [
        "-0x1.b4a98b1cb63edp+15", "0x1.018937956219cp+34", "-0x1.0d5a9c16da0b0p+35",
        "0x1.1375e225819c8p+48", "-0x1.3a17b3410e0d0p+48", "0x1.f56cb941caf20p+62",
        "0x1.3392cde13a2e0p+66", "0x1.49fcc3d242af0p+78", "0x1.79732acd7dec6p+83",
        "0x1.220c2b518d8e4p+94", "0x1.6ad77b299fdd4p+100", "0x1.40ded07cec256p+110",
        "0x1.4eafe50743e12p+117", "0x1.a66d8c9dd54e8p+126", "0x1.340f22995bb22p+134",
        "0x1.3aa162b42232fp+143"]),
]
MULTI_BLOCK_RUNS = [("scaled-integral", 3e6, 1e-3), ("fixed-sum", 3 * 10**6, 1000)]


@contextmanager
def numpy_path():
    """Sweep with the numpy path, where the compiled kernel would be used."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_kernel", False)
        yield


# The tests below without "numpy_path" in their names sweep as a run does:
# with the compiled kernel, which tests/test_kernel.py requires wherever a
# compiler works.
@pytest.mark.parametrize("fn,args,size,want", PINNED_RUNS)
def test_pinned_bits(fn, args, size, want):
    assert sweep.__version_salt__ == 6
    got = fn(*args, KS16, segment_size=size)
    assert [got[k].hex() for k in KS16] == want


@pytest.mark.parametrize("mode,X,param", MULTI_BLOCK_RUNS)
def test_pinned_runs_sweep_several_blocks(mode, X, param):
    # The default geometry: a 2^21 segment of over 18 blocks, then a shorter one.
    size = sweep.default_segment_size(mode, X, param)
    assert size == DEFAULT_SEGMENT_SIZE
    first = sweep.tasks(mode, X, param, (2,), size)[0]
    events = sweep.window_events(*first[:4], MangoldtSieve())
    assert len(events[1]) + len(events[2]) > 18 * BLOCK


@pytest.mark.parametrize("fn,args,size,want", PINNED_RUNS)
def test_pinned_bits_numpy_path(fn, args, size, want):
    with numpy_path():
        test_pinned_bits(fn, args, size, want)


# Each entry names one task, (mode, X, param, segment_size, index), and the
# sieve it is swept with: large, no events, one integer, delta = 0 beside
# delta > 0, small, then large again.
STALE_SEQUENCE = [
    ("scaled-integral", 1e6, 1e-2, 1 << 17, 3, "mangoldt"),
    ("scaled-integral", 1e6, 1e-2, 1 << 17, 4, "zero"),
    ("fixed-integral", 1000.0, 10.0, 1, 500, "mangoldt"),
    ("fixed-integral", 5e4, 100.0, 4096, 5, "mangoldt"),
    ("scaled-integral", 5e4, 0.05, 4096, 5, "mangoldt"),
    ("fixed-sum", 1000, 7, 97, 10, "mangoldt"),
    ("scaled-integral", 1e6, 1e-2, 1 << 17, 3, "mangoldt"),
    ("fixed-integral", 1e6, 1e3, 1 << 17, 6, "mangoldt"),
]

FRESH_PROCESS = """
import json, sys
from oracles import ZeroMangoldt
from psimoment import MangoldtSieve, sweep
out = []
for mode, X, param, size, i, sieve in json.loads(sys.argv[1]):
    task = sweep.tasks(mode, X, param, tuple(range(1, 17)), size)[i]
    workspace = sweep.Workspace(ZeroMangoldt() if sieve == "zero" else MangoldtSieve())
    out.append({k: v.hex() for k, v in sweep.sweep_segment(workspace, task).items()})
print(json.dumps(out))
"""


def _hexes(moments):
    return {str(k): v.hex() for k, v in moments.items()}


def test_stale_buffers_match_fresh_process():
    # One workspace sweeps large, empty, tiny and large segments in turn; its
    # buffers then hold longer, stale contents.  Each result must have the
    # bits of a fresh process, which sweeps each task with a new workspace.
    mangoldt = MangoldtSieve()
    workspace = sweep.Workspace(mangoldt)
    shared = []
    for mode, X, param, size, i, sieve in STALE_SEQUENCE:
        workspace.sieve = ZeroMangoldt() if sieve == "zero" else mangoldt
        task = sweep.tasks(mode, X, param, KS16, size)[i]
        shared.append(_hexes(sweep.sweep_segment(workspace, task)))
    fresh = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, json.dumps(STALE_SEQUENCE)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((SRC, TESTS))}, capture_output=True, text=True,
        check=True, timeout=120)
    assert shared == json.loads(fresh.stdout)


RUN_SPECS = st.one_of(
    st.tuples(st.just("fixed-integral"), st.floats(2.0, 3000.0), st.floats(0.0, 50.0)),
    st.tuples(st.just("scaled-integral"), st.floats(2.0, 3000.0), st.floats(1e-3, 1.0)),
    st.tuples(st.just("fixed-sum"), st.integers(2, 3000), st.integers(1, 50)),
)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shared_workspace_matches_fresh_workspace(data):
    # The tasks of a few runs, in any order, through one workspace: every
    # segment returns the bits of the same segment swept with fresh buffers.
    work = []
    for mode, X, param in data.draw(st.lists(RUN_SPECS, min_size=1, max_size=4), label="runs"):
        size = data.draw(st.integers(max(1, math.ceil(X) // 8), math.ceil(X)), label="segment_size")
        work += sweep.tasks(mode, X, param, (1, 2, 5, 16), size)
    order = data.draw(st.permutations(range(len(work))), label="order")
    sieve = MangoldtSieve()
    workspace = sweep.Workspace(sieve)
    for i in order:
        got = sweep.sweep_segment(workspace, work[i])
        want = sweep.sweep_segment(sweep.Workspace(sieve), work[i])
        assert _hexes(got) == _hexes(want), work[i]


STEADY_FAULTS = """
import json, resource
from psimoment import MangoldtSieve, sweep
tasks = sweep.tasks("scaled-integral", 2e7, 1e-4, (2, 4, 6), 1 << 22)
workspace = sweep.Workspace(MangoldtSieve())
faults = []
for task in tasks[:4]:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep.sweep_segment(workspace, task)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def test_full_segment_sieves_once(monkeypatch):
    # A full 2^22 segment's sieve call reaches past 2^22 integers by the
    # window's width; it is still one lambda_segment call (chunked, it was
    # two and a concatenation).
    calls = []
    lambda_segment = sieve_module.lambda_segment
    monkeypatch.setattr(sieve_module, "lambda_segment",
                        lambda seg, base: calls.append(seg) or lambda_segment(seg, base))
    task = sweep.tasks("scaled-integral", 2e7, 1e-4, (2,), 1 << 22)[3]
    assert task[1] - task[0] == 1 << 22
    sweep.sweep_segment(sweep.Workspace(MangoldtSieve()), task)
    assert len(calls) == 1, calls


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults are counted by Linux's getrusage")
def test_steady_state_segment_maps_no_fresh_pages():
    # Once the workspace and the allocator have warmed up (three 2^22
    # segments near 1e7), a segment faults in almost no new pages.  With a
    # fresh array per temporary it was ~9.6k pages (~38 MB) per segment.
    run = subprocess.run([sys.executable, "-c", STEADY_FAULTS],
                         env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                         text=True, check=True, timeout=120)
    faults = json.loads(run.stdout)
    assert faults[-1] < 1000, faults


def check_blocked_sweep(data):
    # With blocks of a few pieces, every segment merges and sums across many
    # block boundaries; each must return the bits of the full-stream sweep,
    # which merges the whole segment and builds every piece at once.
    block = data.draw(st.sampled_from([1, 2, 7, 64]), label="BLOCK")
    mode, X, param = data.draw(RUN_SPECS, label="run")
    size = data.draw(st.integers(max(1, math.ceil(X) // 8), math.ceil(X)), label="segment_size")
    sieve = MangoldtSieve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "BLOCK", block)
        workspace = sweep.Workspace(sieve)
        for task in sweep.tasks(mode, X, param, KS16, size):
            got = sweep.sweep_segment(workspace, task)
            want = oracles.sweep_segment_reference(oracles.ReferenceWorkspace(sieve), task)
            assert _hexes(got) == _hexes(want), (block, task)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_blocked_sweep_matches_full_stream(data):
    check_blocked_sweep(data)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_blocked_sweep_numpy_path_matches_full_stream(data):
    with numpy_path():
        check_blocked_sweep(data)


# The window (x, (1+delta)x + beta] of every mode, and of windows with both
# delta and beta, which no mode runs but the sweep handles alike.
WINDOW_SHAPES = st.tuples(
    st.sampled_from([0.0, 1e-3, 0.37]),
    st.just(0.0) | st.integers(1, 100).map(float) | st.sampled_from([0.5, 2.75, 77.25]))

SORTED_RUN = st.lists(st.integers(0, 120), max_size=12).map(
    lambda v: np.array(sorted(v), dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(leaves=SORTED_RUN, enters=SORTED_RUN, window=WINDOW_SHAPES)
@example(leaves=np.array([], dtype=np.int64), enters=np.array([], dtype=np.int64),
         window=(0.0, 0.0))
@example(leaves=np.array([3, 3]), enters=np.array([3]), window=(0.0, 0.0))
@example(leaves=np.array([3, 3]), enters=np.array([10]), window=(0.0, 7.0))
@example(leaves=np.array([], dtype=np.int64), enters=np.array([1, 2]), window=(0.37, 0.0))
@example(leaves=np.array([1, 2]), enters=np.array([], dtype=np.int64), window=(1e-3, 77.25))
def test_merge_split_matches_stable_argsort(leaves, enters, window):
    # Of the first j events of the stable merge of leaves then enters by
    # their coordinates, the leaves are those merged with a negative sign.
    delta, beta = window
    _, signed = oracles.merge_runs(leaves, enters, np.ones(len(leaves)),
                                   np.ones(len(enters)), delta, beta)
    for j in range(len(signed) + 1):
        want = int(np.count_nonzero(signed[:j] < 0))
        assert sweep.merge_split(leaves, enters, delta, beta, j) == want, j


ENDPOINTS = (st.integers(1, 3000).map(float)
             | st.floats(1.0, 3000.0)
             | st.tuples(st.integers(1, 3000), st.sampled_from([0.25, 0.5, 0.75])).map(sum))


@settings(max_examples=200, deadline=None)
@given(ends=st.tuples(ENDPOINTS, ENDPOINTS).map(sorted), window=WINDOW_SHAPES)
@example(ends=[10.0, 11.0], window=(0.0, 1.0))
@example(ends=[100.5, 2000.25], window=(0.0, 77.25))
@example(ends=[1000.5, 1000.75], window=(0.37, 0.0))
def test_window_events_match_reference(ends, window):
    # The integer runs, mapped to coordinates and merged, are the float64
    # event stream that the full-stream reference builds from coordinates.
    (a, b), (delta, beta) = ends, window
    sieve = MangoldtSieve()
    inside, *runs = sweep.window_events(a, b, delta, beta, sieve)
    coords, signed = oracles.merge_runs(*runs, delta, beta)
    want = oracles.window_events_reference(a, b, delta, beta, oracles.ReferenceWorkspace(sieve))
    assert sweep.window_weight(inside).hex() == want[0].hex()
    assert coords.tobytes() == want[1].tobytes()
    assert signed.tobytes() == want[2].tobytes()


def test_window_sum_is_streamed():
    # A window of 350k weights at x = a, of magnitudes 1e-8..1e8: s0 has the
    # bits of one fsum of them all, and it is summed in chunks, so the
    # traced peak stays small (a list of the whole window was ~11 MB).
    rng = np.random.default_rng(1)
    ns = np.arange(2, 400_002, dtype=np.int64)
    ws = rng.standard_normal(len(ns)) * 10.0 ** rng.integers(-8, 9, len(ns))
    a, b, delta, beta = 10.5, 20.5, 0.0, 350_000.0
    l0, e0 = np.searchsorted(ns, a, "right"), np.searchsorted(ns - beta, a, "right")
    assert e0 - l0 == 350_000
    stored = SimpleNamespace(events=lambda lo, hi: (ns, ws))  # a sieve of stored arrays
    tracemalloc.start()
    try:
        s0 = sweep.window_weight(sweep.window_events(a, b, delta, beta, stored)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s0.hex() == math.fsum(ws[l0:e0].tolist()).hex()
    assert peak < 2**20, peak


POSITIVE_COORDS = st.lists(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 0.5, 1.0, 1.0 + 2.0**-52, 3.0,
                     1e8, 1e8 + 0.5, 1.7976931348623157e308])
    | st.floats(min_value=5e-324, allow_infinity=False), max_size=40).map(
    lambda v: np.array(v, dtype=np.float64))


@settings(max_examples=200, deadline=None)
@given(coords=POSITIVE_COORDS)
@example(coords=np.array([2.0, 1.0, 2.0, 1.0, 2.0]))
def test_merge_sorts_int64_view_as_floats(coords):
    # sweep_segment merges by sorting the coordinates' int64 view: positive
    # finite doubles order as their bit patterns, so the stable permutation,
    # ties included, is the one of the floats.
    want = np.argsort(coords, kind="stable")
    got = np.argsort(coords.view(np.int64), kind="stable")
    assert np.array_equal(got, want), coords


SEGMENT_PEAK = """
from psimoment import MangoldtSieve, sweep

def peak_kib():
    # This process's own peak RSS: ru_maxrss would also count the pages
    # of the parent that spawned it.
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

task = sweep.tasks("fixed-integral", 1e9, 1e5, (2, 4, 6), 1 << 25)[-2]
workspace = sweep.Workspace(MangoldtSieve())
idle = peak_kib()
sweep.sweep_segment(workspace, task)
print((peak_kib() - idle) * 1024 / (task[1] - task[0]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from Linux's /proc/self/status")
def test_large_segment_peak_rss():
    # One serial 2^25 segment near 1e9 holds its sieve arrays and the block
    # buffers: ~0.95 B per integer above the idle process.  With float64
    # copies of both event runs in the workspace it was ~1.7 B.
    run = subprocess.run([sys.executable, "-c", SEGMENT_PEAK],
                         env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                         text=True, check=True, timeout=120)
    assert float(run.stdout) < 1.25, float(run.stdout)


TRACED_PEAK = """
import tracemalloc
from psimoment import MangoldtSieve, sweep
task = sweep.tasks("scaled-integral", 2e7, 1e-4, (2, 4, 6), 1 << 22)[3]
tracemalloc.start()
sweep.sweep_segment(sweep.Workspace(MangoldtSieve()), task)
print(tracemalloc.get_traced_memory()[1])
"""


def test_segment_traced_peak():
    # One 2^22 segment near 2e7 with a fresh workspace: the block buffers and
    # the sieve's arrays peak at ~5.2 MB.  With float64 copies of both event
    # runs it was ~10.9 MB, and with the merged event stream in four buffers
    # of 2m+2 values ~21.5 MB.
    run = subprocess.run([sys.executable, "-c", TRACED_PEAK],
                         env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(run.stdout) < 9 * 2**20, int(run.stdout) / 2**20
