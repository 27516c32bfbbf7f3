"""The compiled sweep kernel gives the numpy path's bits, or is not used.

Full 2^22 segments of the paper's tables through both paths, part for part;
a missing compiler and a kernel with wrong bits, each of which leaves the
numpy path in use with one log line; and the source the loader builds from.
"""

import logging
import os
import re
from pathlib import Path

import numpy as np
import pytest

import psimoment
from psimoment import MangoldtSieve, kernel, sweep

from oracles import ZeroMangoldt

KS16 = tuple(range(1, 17))
SEGMENT = 1 << 22


@pytest.fixture(scope="module")
def compiled():
    """The compiled sweep; a skip where it cannot be built or loaded.

    A kernel that builds and loads but fails its check against the numpy
    path fails the test: that is a fault, not a missing compiler.
    """
    fn = sweep.load_kernel()
    if not fn:
        try:
            kernel.load()
        except OSError as exc:
            pytest.skip(f"no compiled kernel: {exc}")
        pytest.fail("the compiled kernel builds and loads but fails its check")
    return fn


def full_segment(mode, X, param):
    """The last full-length segment of mode's run over [1, X]."""
    return [t for t in sweep.tasks(mode, X, param, KS16, SEGMENT) if t[1] - t[0] == SEGMENT][-1]


def assert_same_parts(fn, task, sieve):
    events = sweep.window_events(*task[:4], sieve)
    buffers = sweep.Workspace(sieve).buffers()
    want = sweep._sweep_numpy(events, task, buffers, sweep.BLOCK)
    got = sweep._sweep_kernel(fn, events, task, buffers, sweep.BLOCK)
    assert list(got) == list(want)
    for k, parts in want.items():
        assert np.array(got[k]).tobytes() == np.array(parts).tobytes(), (task[:4], k)


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
    # ~0.4M events and 7 blocks, every order: each block's parts, bit for bit.
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


def test_kernel_refuses_short_buffers(compiled):
    # The kernel writes block + 2 values into each buffer; shorter ones
    # would be overrun.
    task = (89.5, 93.0, 0.0, 1.0, KS16)
    events = sweep.window_events(*task[:4], MangoldtSieve())
    with pytest.raises(ValueError, match="buffers of 66"):
        sweep._sweep_kernel(compiled, events, task, tuple(np.empty(65) for _ in range(5)), 64)


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
    ("void psimoment_sweep(", "void psimoment_renamed(",
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
    assert sweep._kernel
    assert got == numpy_moments()
    assert lines == [f"sweep: compiled kernel {kernel.library_path()}"]
    assert os.listdir(tmp_path / "cache" / "psimoment") == [
        os.path.basename(kernel.library_path())]  # no temporary file is left
    # A second process, or a second decision, loads what the first built.
    before = os.stat(kernel.library_path()).st_mtime_ns
    monkeypatch.setattr(sweep, "_kernel", None)
    assert sweep.load_kernel()
    assert os.stat(kernel.library_path()).st_mtime_ns == before


def test_source_ships_next_to_the_module():
    # An installed package builds the kernel from the source beside kernel.py,
    # which pyproject.toml lists as package data.
    assert Path(kernel.SOURCE) == Path(kernel.__file__).with_name("_sweep.c")
    assert "psimoment_sweep" in Path(kernel.SOURCE).read_text()
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^\[tool\.setuptools\.package-data\]\npsimoment = \["_sweep\.c"\]$',
                     pyproject, re.MULTILINE)
