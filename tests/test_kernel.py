"""The compiled sweep kernel gives the numpy path's bits, or is not used.

Full 2^22 segments of the paper's tables through both paths, part for part;
a missing compiler and a kernel with wrong bits, each of which leaves the
numpy path in use with one log line, and a failed build that later
processes do not repeat; a cache that is not this user's alone, a corrupt
and a stale library, each of which still ends on the kernel; two sources
that share a cache; the pinned digests of the numpy path's parts that the
kernel is checked against; the source the loader builds from; and the
compiled fixture, which skips only where no kernel can be had.
"""

import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import psimoment
from psimoment import MangoldtSieve, kernel, sweep
from psimoment.errors import NumericRangeError

from oracles import ZeroMangoldt

KS16 = tuple(range(1, 17))
SEGMENT = 1 << 22


def compiled_kernel():
    """The compiled sweep; a skip where it cannot be built or loaded.

    A kernel that builds and loads but fails its check against the numpy
    path fails the test, whether the check ran now or a failed build's
    marker holds its reason: that is a fault, not a missing compiler.
    """
    fn = sweep.load_kernel()
    if not fn:
        try:
            kernel.load(sweep.check_kernel)
        except OSError as exc:
            if re.search("did not build or load|only where files have owners", str(exc)):
                pytest.skip(f"no compiled kernel: {exc}")
            pytest.fail(f"the compiled kernel fails its check: {exc}")
        pytest.fail("the compiled kernel builds, loads and passes its check, but is not used")
    return fn


@pytest.fixture(scope="module")
def compiled():
    return compiled_kernel()


@pytest.mark.parametrize("reason, outcome", [
    ("the compiled kernel did not build or load: cc: [Errno 2] No such file", pytest.skip),
    ("the compiled kernel is loaded only where files have owners", pytest.skip),
    ("the compiled kernel /c/_sweep-0.so differs from it on the segment (1, 2, 0, 3)",
     pytest.fail),
    ("the compiled kernel /c/_sweep-0.so sums order 2 unlike math.fsum on the segment "
     "(1, 2, 0, 3) (a build within the last day; remove /c/_sweep-0.bad to build again)",
     pytest.fail),
], ids=["no-build", "no-owners", "check", "marked-check"])
def test_compiled_fails_a_kernel_that_fails_its_check(monkeypatch, reason, outcome):
    # Only a kernel that cannot be had skips the kernel tests; one that
    # fails its check, fresh or as a marker recorded it, fails them.
    def load(check):
        raise OSError(reason)

    monkeypatch.setattr(sweep, "_kernel", False)
    monkeypatch.setattr(kernel, "load", load)
    with pytest.raises(outcome.Exception, match=re.escape(reason)):
        compiled_kernel()


def full_segment(mode, X, param):
    """The last full-length segment of mode's run over [1, X]."""
    return [t for t in sweep.tasks(mode, X, param, KS16, SEGMENT) if t[1] - t[0] == SEGMENT][-1]


def assert_same_parts(fn, task, sieve):
    events = sweep.window_events(*task[:4], sieve)
    buffers = sweep.Workspace(sieve).buffers()
    want = sweep._sweep_numpy(events, task, buffers, sweep.BLOCK)
    sums, got = sweep._sweep_kernel(fn, events, task, buffers, sweep.BLOCK)
    assert list(got) == list(sums) == list(want)
    for k, parts in want.items():
        assert got[k].tobytes() == np.array(parts).tobytes(), (task[:4], k)
        assert sums[k].hex() == math.fsum(parts).hex(), (task[:4], k)


@pytest.mark.parametrize("mode,X,param", [
    ("fixed-sum", 10**8, 10**5),
    ("fixed-integral", 1e8, 1e5),
    ("scaled-integral", 1e8, 1e-4),
    ("fixed-sum", 10**10, 10**5),
    ("fixed-integral", 1e10, 1e5),
    ("scaled-integral", 1e10, 1e-5),
    ("scaled-integral", 1e8, 2.0**-17),
])
def test_full_segments_match_numpy(compiled, mode, X, param):
    # ~0.4M events and 23-28 blocks, every order: each block's parts, bit for bit.
    assert_same_parts(compiled, full_segment(mode, X, param), MangoldtSieve())


def test_segment_without_events_matches_numpy(compiled):
    for task in (full_segment("scaled-integral", 1e8, 1e-4), (5.0, 5.5, 0.0, 0.25, KS16)):
        assert_same_parts(compiled, task, ZeroMangoldt())
    # A stretch of the real sieve without a prime power: its one call sieves
    # (89, 95], which has none.
    task = (89.5, 93.0, 0.0, 1.0, KS16)
    assert not any(len(v) for v in sweep.window_events(*task[:4], MangoldtSieve())[1:])
    assert_same_parts(compiled, task, MangoldtSieve())


class Gapped(MangoldtSieve):
    """MangoldtSieve without the prime powers in (lo, hi]."""

    def __init__(self, lo, hi):
        super().__init__()
        self.gap = (lo, hi)

    def events(self, lo, hi):
        ns, ws = super().events(lo, hi)
        keep = (ns <= self.gap[0]) | (ns > self.gap[1])
        return ns[keep], ws[keep]


A, B = 10**6, 10**6 + 2**15


@pytest.mark.parametrize("task,gap", [
    # Leaves only below A + 2^14, and every enter above it: ~1.1k enters
    # follow the last leave.
    ((A, B, 0.0, 2.0**14, KS16), (A + 2**14, B)),
    # Enters only below A + 2^14: ~1.1k leaves follow the last enter.
    ((A, B, 0.0, 2.0**14, KS16), (B, B + 2**14)),
    ((A, B, 1e-3, 0.0, KS16), (A + 2**14, B + 2**11)),
])
def test_one_run_ending_first_matches_numpy(compiled, task, gap):
    # The merge's two runs end apart: the rest of one run follows the other.
    assert_same_parts(compiled, task, Gapped(*gap))


def kernel_fsum(fn, values):
    """The kernel's fsum of values, or None where it leaves the sum to math.fsum.

    The values are the weights inside the window (0, 1] at x = 0, with no
    events: the kernel sums them to the window weight s0, and the one
    piece's order-1 term is 1.0 * s0, whose one part it sums again.
    """
    no_events = (np.empty(0, np.int64),) * 2 + (np.empty(0),) * 2
    buffers = tuple(np.empty(66) for _ in range(5))
    got = sweep._sweep_kernel(fn, (np.array(values, dtype=np.float64), *no_events),
                              (0.0, 1.0, 0.0, 0.0, (1,)), buffers, 64)
    return None if got is None else got[0][1]


HUGE = st.floats(1e306, sys.float_info.max)
UNITS = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def ties(draw):
    """x, half an ulp of x and a nudge far below, either sign, in any order:
    a half-even tie that only the partials below the top two break."""
    x = draw(st.floats(1.0, 1e300))
    nudge = draw(st.sampled_from([0.0, 2.0**-200, -(2.0**-200), 5e-324, -5e-324]))
    return draw(st.permutations([x, math.ulp(x) / 2, nudge]))


FSUM_INPUTS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
    # Cancellation: values and their negations, shuffled, around a small rest.
    st.tuples(st.lists(st.floats(-1e300, 1e300), max_size=20),
              st.lists(st.floats(-1e-10, 1e-10), max_size=4), st.randoms()).map(
        lambda t: t[2].sample(t[0] + [-v for v in t[0]] + t[1],
                              2 * len(t[0]) + len(t[1]))),
    ties(),
    st.lists(st.floats(-2.3e-308, 2.3e-308), max_size=20),  # subnormals
    # Near +-1e308: sums that overflow, and ones that come back in range.
    st.lists(st.one_of(HUGE, HUGE.map(lambda v: -v), UNITS), max_size=12),
    st.lists(st.sampled_from([math.inf, -math.inf, math.nan, 1.0, -1.0]), max_size=4),
)


@settings(max_examples=1500, deadline=None)
@given(values=FSUM_INPUTS)
@example(values=[])
@example(values=[-0.0])
@example(values=[5e-324])
@example(values=[1e16, 1.0, 1e-16])  # rounds up only with the partial below the tie
@example(values=[sys.float_info.max, sys.float_info.max, -sys.float_info.max])
@example(values=[math.inf, -math.inf])
def test_kernel_fsum_is_math_fsum(compiled, values):
    # Bit for bit where math.fsum returns a finite sum; where it raises or
    # returns inf or NaN, the kernel leaves the sum to it.
    try:
        want = math.fsum(values)
    except (OverflowError, ValueError):
        want = math.nan
    got = kernel_fsum(compiled, values)
    if math.isfinite(want):
        assert got is not None and got.hex() == want.hex(), values
    else:
        assert got is None, values


class Heavy(MangoldtSieve):
    """MangoldtSieve with every weight set to weight."""

    def __init__(self, weight):
        super().__init__()
        self.weight = weight

    def events(self, lo, hi):
        ns, ws = super().events(lo, hi)
        return ns, np.full(len(ws), self.weight)


@pytest.mark.parametrize("weight", [1e60, 10**74.95, 10**75.05, 1e200])
def test_overflowing_order_ends_as_on_numpy(compiled, weight):
    # Terms that overflow to inf or NaN, or finite parts whose sum does,
    # within a segment (10**75.05) or only across segments (10**74.95):
    # the kernel's sums leave them to order_sum, so a run ends as on the
    # numpy path, in NumericRangeError past 1e60.
    def outcome():
        try:
            return psimoment.moment_integral_fixed(1e4, 100, [2, 4], sieve=Heavy(weight),
                                                   segment_size=1000)
        except NumericRangeError as exc:
            return str(exc)

    got = outcome()
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(sweep, "_kernel", False)
        assert got == outcome()
    assert isinstance(got, dict) if weight == 1e60 else "overflowed" in got


def test_kernel_refuses_short_buffers(compiled):
    # The kernel writes block + 2 values into each buffer; shorter ones
    # would be overrun.
    task = (89.5, 93.0, 0.0, 1.0, KS16)
    events = sweep.window_events(*task[:4], MangoldtSieve())
    with pytest.raises(ValueError, match="buffers of 66"):
        sweep._sweep_kernel(compiled, events, task, tuple(np.empty(65) for _ in range(5)), 64)


def test_check_digests_are_the_numpy_parts():
    # The kernel is checked against pinned digests of the numpy path's
    # parts: recomputed here from _sweep_numpy, so the pins cannot drift
    # from the reference.  A change to the sweep's arithmetic re-pins them.
    sieve = sweep.CheckEvents()
    buffers = tuple(np.empty(sweep.CHECK_BLOCK + 2) for _ in range(5))
    got = []
    for task in sweep.check_tasks():
        events = sweep.window_events(*task[:4], sieve)
        got.append(sweep.parts_digest(
            sweep._sweep_numpy(events, task, buffers, sweep.CHECK_BLOCK)))
    assert len(got) == 4 and tuple(got) == sweep.CHECK_DIGESTS


def test_check_runs_no_numpy_sweep(compiled, monkeypatch):
    # Loading and checking the kernel sweeps nothing on the numpy path.
    def refuse(*args):
        raise AssertionError("the numpy path ran")

    monkeypatch.setattr(sweep, "_sweep_numpy", refuse)
    monkeypatch.setattr(sweep, "_kernel", None)
    assert sweep.load_kernel()
    assert sweep.check_kernel(compiled) is None


def test_one_bit_refuses_the_kernel(compiled, monkeypatch):
    # One part one ulp off, on one check segment: the check names it.
    task = sweep.check_tasks()[2]
    sweep_kernel = sweep._sweep_kernel

    def off_by_one_bit(fn, events, t, buffers, block):
        sums, parts = sweep_kernel(fn, events, t, buffers, block)
        if t == task:
            parts[16][-1] = np.nextafter(parts[16][-1], np.inf)
        return sums, parts

    monkeypatch.setattr(sweep, "_sweep_kernel", off_by_one_bit)
    assert sweep.check_kernel(compiled) == f"differs from it on the segment {task[:4]}"


def test_kernel_without_a_window_weight_is_refused(compiled, monkeypatch):
    # A kernel that gives no window weight on a check segment is refused,
    # not a crash of the check.
    monkeypatch.setattr(sweep, "_sweep_kernel", lambda *args: None)
    task = sweep.check_tasks()[0]
    assert sweep.check_kernel(compiled) == f"differs from it on the segment {task[:4]}"


def numpy_moments():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_kernel", False)
        return psimoment.moment_integral_scaled(5000.5, 0.37, KS16, segment_size=1000)


def fallback_run(monkeypatch, caplog, tmp_path):
    """One run with a fresh kernel decision and cache; its moments and log lines."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(sweep, "_kernel", None)
    with caplog.at_level(logging.INFO, logger="psimoment.sweep"):
        got = psimoment.moment_integral_scaled(5000.5, 0.37, KS16, segment_size=1000)
    return got, [r.getMessage() for r in caplog.records if r.name == "psimoment.sweep"]


def test_missing_compiler_falls_back_to_numpy(monkeypatch, caplog, tmp_path):
    monkeypatch.setattr(kernel, "COMPILER", "psimoment-no-such-cc")
    got, lines = fallback_run(monkeypatch, caplog, tmp_path)
    assert sweep._kernel is False
    assert got == numpy_moments()
    assert len(lines) == 1 and lines[0].startswith("sweep: numpy path;"), lines
    assert "psimoment-no-such-cc" in lines[0]


@pytest.mark.parametrize("old,new,line", [
    # Without TwoSum's second error term the kernel builds, loads and runs,
    # and its check finds parts that differ from numpy's.
    ("*err = (a - (s - z)) + (b - z);", "*err = a - (s - z);",
     r"sweep: numpy path; the compiled kernel \S+ differs from it on the segment"),
    # A library without the function.
    ("double psimoment_sweep(", "double psimoment_renamed(",
     r"sweep: numpy path; the compiled kernel did not build or load: .*psimoment_sweep"),
], ids=["wrong-bits", "no-symbol"])
def test_broken_kernel_falls_back_to_numpy(monkeypatch, caplog, tmp_path, old, new, line):
    source = Path(kernel.SOURCE).read_text()
    assert old in source
    (tmp_path / "_sweep.c").write_text(source.replace(old, new))
    monkeypatch.setattr(kernel, "SOURCE", str(tmp_path / "_sweep.c"))
    got, lines = fallback_run(monkeypatch, caplog, tmp_path)
    assert sweep._kernel is False
    assert got == numpy_moments()
    assert len(lines) == 1 and re.match(line, lines[0]), lines


def test_kernel_builds_once_into_the_cache(compiled, monkeypatch, caplog, tmp_path):
    got, lines = fallback_run(monkeypatch, caplog, tmp_path)
    library = tmp_path / "cache" / "psimoment" / kernel.library_name()
    assert sweep._kernel
    assert got == numpy_moments()
    assert lines == [f"sweep: compiled kernel {library}"]
    assert os.listdir(library.parent) == [library.name]  # no temporary file is left
    assert (library.parent.stat().st_mode & 0o777, library.stat().st_mode & 0o777) == (
        0o700, 0o755)
    # A second process, or a second decision, loads what the first built.
    before = library.stat().st_mtime_ns
    monkeypatch.setattr(sweep, "_kernel", None)
    assert sweep.load_kernel()
    assert library.stat().st_mtime_ns == before


def kernel_run(monkeypatch, caplog, tmp_path):
    """fallback_run that must end on the kernel, with the temp directory in
    tmp_path; its one log line's library path."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir(exist_ok=True)
    got, lines = fallback_run(monkeypatch, caplog, tmp_path)
    assert sweep._kernel
    assert got == numpy_moments()
    assert len(lines) == 1 and lines[0].startswith("sweep: compiled kernel "), lines
    return Path(lines[0].removeprefix("sweep: compiled kernel "))


def test_cache_of_another_user_is_passed_over(compiled, monkeypatch, caplog, tmp_path):
    # Both cache directories exist, owned by this process's user, which
    # the loader is told is someone else: it builds into a fresh private
    # temporary directory and removes it once the library is loaded.
    uid = os.getuid()
    for cache in (tmp_path / "cache" / "psimoment", tmp_path / "tmp" / f"psimoment-{uid + 1}"):
        cache.mkdir(parents=True)
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    library = kernel_run(monkeypatch, caplog, tmp_path)
    assert library.parent.parent == tmp_path / "tmp"
    assert library.parent.name.startswith("psimoment-")
    assert not library.parent.exists()
    assert os.listdir(tmp_path / "cache" / "psimoment") == []


@pytest.mark.parametrize("plant", ["writable", "symlink", "writable-library"])
def test_cache_that_others_can_write_is_passed_over(compiled, monkeypatch, caplog,
                                                    tmp_path, plant):
    # A per-user cache that group and others can write, one that is a
    # symlink, or one whose library they can write: the temp one is used.
    cache = tmp_path / "cache" / "psimoment"
    if plant == "symlink":
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        (tmp_path / "cache").mkdir()
        cache.symlink_to(tmp_path / "elsewhere")
    else:
        cache.mkdir(parents=True)
        cache.chmod(0o777 if plant == "writable" else 0o700)
    if plant == "writable-library":
        planted = cache / kernel.library_name()
        planted.write_bytes(b"planted")
        planted.chmod(0o666)
    library = kernel_run(monkeypatch, caplog, tmp_path)
    assert library == tmp_path / "tmp" / f"psimoment-{os.getuid()}" / kernel.library_name()
    assert library.parent.stat().st_mode & 0o777 == 0o700
    assert sorted(os.listdir(cache)) == ([kernel.library_name()]
                                         if plant == "writable-library" else [])


def test_corrupt_library_is_rebuilt(compiled, monkeypatch, caplog, tmp_path):
    # A cached library that does not load is rebuilt once, under its name.
    cache = tmp_path / "cache" / "psimoment"
    cache.mkdir(parents=True, mode=0o700)
    (cache / kernel.library_name()).write_bytes(b"\x7fELF truncated")
    library = kernel_run(monkeypatch, caplog, tmp_path)
    assert library == cache / kernel.library_name()
    assert os.listdir(cache) == [library.name]
    assert library.read_bytes().startswith(b"\x7fELF") and library.stat().st_size > 1000


def test_library_with_wrong_bits_is_rebuilt(compiled, monkeypatch, caplog, tmp_path):
    # A cached library that loads but fails the check against numpy (built
    # from a source with TwoSum's second error term dropped, but under the
    # good source's name) is rebuilt once, from the good source.
    cache = tmp_path / "cache" / "psimoment"
    cache.mkdir(parents=True, mode=0o700)
    cached = str(cache / kernel.library_name())
    source = Path(kernel.SOURCE).read_text()
    (tmp_path / "_sweep.c").write_text(source.replace(
        "*err = (a - (s - z)) + (b - z);", "*err = a - (s - z);"))
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "SOURCE", str(tmp_path / "_sweep.c"))
        kernel.build(cached)
    # Loaded here under its cached name, which the rebuild must not reuse.
    assert sweep.check_kernel(kernel.open_checked(cached, lambda fn: None))
    library = kernel_run(monkeypatch, caplog, tmp_path)
    assert str(library) == cached
    # What was published under that name passes, loaded under a name of its own.
    os.link(cached, tmp_path / "published.so")
    assert sweep.check_kernel(kernel.open_checked(str(tmp_path / "published.so"),
                                                  lambda fn: None)) is None


def test_build_removes_stale_libraries(compiled, monkeypatch, caplog, tmp_path):
    # Libraries, markers and temporary files of another source or flags are
    # removed once this one is built if they are a day old; younger ones,
    # which another tree sharing the cache may use, and other files are
    # left alone.
    cache = tmp_path / "cache" / "psimoment"
    cache.mkdir(parents=True, mode=0o700)
    day_old = time.time() - kernel.STALE_SECONDS
    for name in ("_sweep-00000000.so", "_sweep-00000001.bad", "_sweep-00000002.so.7-0.tmp",
                 "_sweep-00000003.so", "notes.txt"):
        (cache / name).write_bytes(b"old")
        if name != "_sweep-00000003.so":
            os.utime(cache / name, (day_old, day_old))
    library = kernel_run(monkeypatch, caplog, tmp_path)
    assert sorted(os.listdir(cache)) == sorted(
        [library.name, "_sweep-00000003.so", "notes.txt"])


def counted_builds(monkeypatch):
    """The libraries kernel.build makes from now on."""
    built = []
    build = kernel.build
    monkeypatch.setattr(kernel, "build", lambda out: built.append(out) or build(out))
    return built


def test_sources_that_alternate_build_once_each(compiled, monkeypatch, tmp_path):
    # Two trees whose sources differ share one cache: each source is built
    # once, and loading them in turn afterwards builds nothing.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    source = Path(kernel.SOURCE).read_text()
    sources = [tmp_path / "a" / "_sweep.c", tmp_path / "b" / "_sweep.c"]
    for i, path in enumerate(sources):
        path.parent.mkdir()
        path.write_text(source + f"/* tree {i} */\n")
    built = counted_builds(monkeypatch)
    paths = []
    for path in sources * 2:
        monkeypatch.setattr(kernel, "SOURCE", str(path))
        paths.append(kernel.load(sweep.check_kernel)[1])
    assert len(built) == 2 and paths[:2] == paths[2:] and paths[0] != paths[1]
    assert sorted(os.listdir(tmp_path / "cache" / "psimoment")) == sorted(
        os.path.basename(p) for p in paths[:2])


def test_failed_build_is_not_repeated_for_a_day(compiled, monkeypatch, caplog, tmp_path):
    # A build that fails its check is not published but leaves its reason:
    # a later decision logs that reason and takes the numpy path without
    # running the compiler, until the marker is a day old.
    source = Path(kernel.SOURCE).read_text()
    (tmp_path / "_sweep.c").write_text(source.replace(
        "*err = (a - (s - z)) + (b - z);", "*err = a - (s - z);"))
    monkeypatch.setattr(kernel, "SOURCE", str(tmp_path / "_sweep.c"))
    built = counted_builds(monkeypatch)
    first = fallback_run(monkeypatch, caplog, tmp_path)[1]
    assert len(built) == 1
    cache = tmp_path / "cache" / "psimoment"
    bad = cache / kernel.library_name().replace(".so", ".bad")
    assert os.listdir(cache) == [bad.name]
    assert re.match(r"sweep: numpy path; the compiled kernel \S+ differs", first[0]), first
    assert str(cache / kernel.library_name()) in first[0]
    caplog.clear()
    got, second = fallback_run(monkeypatch, caplog, tmp_path)
    assert sweep._kernel is False and len(built) == 1
    assert got == numpy_moments()
    assert second == [first[0] + f" (a build within the last day; remove {bad} to build again)"]
    day_old = time.time() - kernel.STALE_SECONDS
    os.utime(bad, (day_old, day_old))
    caplog.clear()
    assert fallback_run(monkeypatch, caplog, tmp_path)[1] == first
    assert len(built) == 2 and os.listdir(cache) == [bad.name]


def test_import_loads_no_kernel(tmp_path):
    # Importing the package builds, loads and checks nothing; the cache
    # directory is not even made.
    code = ("import psimoment, psimoment.cli\n"
            "from psimoment import sweep\n"
            "print(sweep._kernel)")
    src = str(Path(kernel.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src,
                                          "XDG_CACHE_HOME": str(tmp_path / "cache")})
    assert run.stdout.split() == ["None"]
    assert not (tmp_path / "cache").exists()


def test_source_ships_next_to_the_module():
    # An installed package builds the kernel from the source beside kernel.py,
    # which pyproject.toml lists as package data.
    assert Path(kernel.SOURCE) == Path(kernel.__file__).with_name("_sweep.c")
    assert "psimoment_sweep" in Path(kernel.SOURCE).read_text()
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^\[tool\.setuptools\.package-data\]\npsimoment = \["_sweep\.c"\]$',
                     pyproject, re.MULTILINE)
