import concurrent.futures
import hashlib
import json
import logging
import math
import os
import signal
import subprocess
import sys
import time
import types
from concurrent.futures import Future, wait
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from psimoment import moment_integral_fixed, moment_integral_scaled, moment_sum
from psimoment.checkpoint import CheckpointError, CheckpointWriter, config_digest, load
from psimoment.errors import LongRunError, NumericRangeError
from psimoment import runner, sweep
from psimoment.runner import run_tasks

from oracles import ZeroMangoldt


def _keep_first_records(path: str, n: int) -> None:
    """Cut the checkpoint at path to its header and first n records."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:1 + n]) + "\n")


def test_resume_bit_identical_sum(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    baseline = moment_sum(2 * 10**4, 100, [2, 4], segment_size=2**12)

    full = moment_sum(2 * 10**4, 100, [2, 4], segment_size=2**12, checkpoint=path)
    assert full == baseline

    _keep_first_records(path, 2)  # as if the run stopped after two segments
    resumed = moment_sum(2 * 10**4, 100, [2, 4], segment_size=2**12,
                         checkpoint=path, resume=True)
    assert resumed == baseline  # bit-identical


def test_resume_bit_identical_scaled(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    baseline = moment_integral_scaled(10**4, 0.05, [2], segment_size=1500)
    moment_integral_scaled(10**4, 0.05, [2], segment_size=1500, checkpoint=path)
    _keep_first_records(path, 1)
    resumed = moment_integral_scaled(10**4, 0.05, [2], segment_size=1500,
                                     checkpoint=path, resume=True)
    assert resumed == baseline


def test_resume_past_torn_final_record(tmp_path):
    path = tmp_path / "ck.jsonl"
    args = (2 * 10**4, 100, [2, 4])
    baseline = moment_sum(*args, segment_size=2**12)
    moment_sum(*args, segment_size=2**12, checkpoint=str(path))
    # A crash in the middle of the last append leaves a torn final line.
    path.write_bytes(path.read_bytes()[:-15])
    resumed = moment_sum(*args, segment_size=2**12, checkpoint=str(path),
                         resume=True)
    assert resumed == baseline  # bit-identical
    # The fragment was cut before the recomputed segment was appended.
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert sorted(rec["segment"] for rec in records) == [0, 1, 2, 3, 4]


# Checkpoint headers of one small run per mode, as written at
# __version_salt__ = 6 (2^14-piece blocks; a block's fold decides its parts,
# so a checkpoint of 2^15-piece blocks at salt 5 is refused).  They change
# only with the sweep's __version_salt__; until then such checkpoints must
# keep resuming.
PINNED_DIGESTS = {
    "fixed-sum": (moment_sum, (1000, 10, [2, 4]),
                  "5d1e629fe125e263c2cda46d675871a7a522c50852781ac275b72f387635678d"),
    "fixed-integral": (moment_integral_fixed, (1000.0, 7.5, [2, 4]),
                       "dc1bb8d3d1a0254d27008156e3c6521735e6dbbd0c8587f6622128942049bf8a"),
    "scaled-integral": (moment_integral_scaled, (1000.0, 0.05, [2, 4]),
                        "26e3a4c2534d7fc7a2932eece3627a484efe1b76905dfc87ad8702cf0e7615b8"),
}


@pytest.mark.parametrize("mode", sorted(PINNED_DIGESTS))
def test_pinned_digests(tmp_path, mode):
    fn, args, digest = PINNED_DIGESTS[mode]
    header = json.dumps({"version": 1, "digest": digest})
    fresh = tmp_path / "fresh.jsonl"
    baseline = fn(*args, segment_size=256, checkpoint=str(fresh))
    assert fresh.read_text().splitlines()[0] == header
    old = tmp_path / "old.jsonl"
    old.write_text(header + "\n")
    resumed = fn(*args, segment_size=256, checkpoint=str(old), resume=True)
    assert resumed == baseline


def _recording_sha256(calls, sha256=hashlib.sha256):
    """hashlib's sha256, noting each call in calls."""
    return lambda data: calls.append(data) or sha256(data)


def _header_digest(tmp_path, mode):
    """The digest a fresh checkpointed run of PINNED_DIGESTS[mode] writes."""
    fn, args, _ = PINNED_DIGESTS[mode]
    path = tmp_path / "ck.jsonl"
    fn(*args, segment_size=256, checkpoint=str(path))
    return json.loads(path.read_text().splitlines()[0])["digest"]


@pytest.mark.parametrize("mode", sorted(PINNED_DIGESTS))
def test_digest_falls_back_to_hashlib(tmp_path, monkeypatch, mode):
    # An interpreter built without its own SHA-256 modules takes hashlib's,
    # and with it the same hex.  The kernel's check hashes its parts too, so
    # it is decided before the count starts.
    sweep.load_kernel()
    calls = []
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setattr(hashlib, "sha256", _recording_sha256(calls))
    assert _header_digest(tmp_path, mode) == PINNED_DIGESTS[mode][2]
    assert len(calls) == 1


@pytest.mark.parametrize("mode", sorted(PINNED_DIGESTS))
def test_digest_from_sha2(tmp_path, monkeypatch, mode):
    # Python 3.12 merged _sha256 into _sha2; a stand-in runs that branch on
    # any interpreter.
    sweep.load_kernel()  # its check hashes too: decided before the count
    calls = []
    sha2 = types.ModuleType("_sha2")
    sha2.sha256 = _recording_sha256(calls)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "_sha2", sha2)
    assert _header_digest(tmp_path, mode) == PINNED_DIGESTS[mode][2]
    assert len(calls) == 1


def test_digest_records_the_default_segment_size(tmp_path):
    # A run that names no segment size is the run with the size it resolved
    # to, and not the run with another.
    path = str(tmp_path / "ck.jsonl")
    first = moment_sum(10**3, 10, [2], checkpoint=path)
    size = sweep.default_segment_size("fixed-sum", 10**3, 10)
    assert moment_sum(10**3, 10, [2], segment_size=size, checkpoint=path, resume=True) == first
    with pytest.raises(CheckpointError, match="digest mismatch"):
        moment_sum(10**3, 10, [2], segment_size=size // 2, checkpoint=path, resume=True)


def test_digest_mismatch_refused(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    moment_sum(10**3, 10, [2], segment_size=256, checkpoint=path)
    with pytest.raises(CheckpointError, match="digest mismatch"):
        # Different h -> different config digest.
        moment_sum(10**3, 20, [2], segment_size=256, checkpoint=path, resume=True)


def test_resume_with_orders_reordered_or_repeated(tmp_path):
    # The digest covers the orders as a set: [2, 4] and [2, 2, 4] resume [4, 2].
    path = str(tmp_path / "ck.jsonl")
    first = moment_sum(1000, 10, [4, 2], segment_size=256, checkpoint=path)
    for ks in ([2, 4], [2, 2, 4]):
        _keep_first_records(path, 2)
        resumed = moment_sum(1000, 10, ks, segment_size=256, checkpoint=path, resume=True)
        assert {k: v.hex() for k, v in resumed.items()} == \
            {k: v.hex() for k, v in first.items()}


def test_digest_covers_a_non_default_sieve(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    zero = moment_sum(1000, 10, [2], segment_size=256, sieve=ZeroMangoldt(), checkpoint=path)
    assert zero == {2: 100000.0}
    _keep_first_records(path, 2)
    with pytest.raises(CheckpointError, match="digest mismatch"):
        moment_sum(1000, 10, [2], segment_size=256, checkpoint=path, resume=True)
    assert moment_sum(1000, 10, [2], segment_size=256, sieve=ZeroMangoldt(),
                      checkpoint=path, resume=True) == zero


def test_digest_is_stable():
    a = config_digest({"x": 1, "ks": [2, 4]})
    b = config_digest({"ks": [2, 4], "x": 1})
    assert a == b
    assert a != config_digest({"x": 2, "ks": [2, 4]})


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("")
    with pytest.raises(CheckpointError):
        load(str(path), "digest")
    # A torn record with another after it is damage, not an interrupted append.
    path.write_text(json.dumps({"version": 1, "digest": "digest"})
                    + '\n{"segment": 0, "val\n{"segment": 1, "values": {}}\n')
    with pytest.raises(CheckpointError, match="damaged"):
        load(str(path), "digest")


def test_runner_overflow_raises():
    partials = [
        lambda i: 1e308,  # finite partials whose sum overflows
        lambda i: math.inf if i % 2 == 0 else -math.inf,  # inf - inf
        lambda i: math.nan,
    ]
    for value in partials:
        with pytest.raises(NumericRangeError):
            run_tasks(lambda task: {2: value(task)}, [0, 1, 2, 3], [2])


def _value_worker(task):
    return {2: task}


CANCELLING = [1e16, 1.0, -1e16]  # a plain left-to-right sum gives 0.0


@pytest.mark.parametrize("threads", [1, 2])
def test_runner_reduction_exact_under_cancellation(threads):
    assert run_tasks(_value_worker, CANCELLING, [2], threads=threads) == {2: 1.0}


def test_runner_reduction_exact_on_resume(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    writer = CheckpointWriter(path, "", fresh=True)
    writer.append(0, {2: CANCELLING[0]})
    writer.close()
    seen = []

    def worker(task):
        seen.append(task)
        return _value_worker(task)

    got = run_tasks(worker, CANCELLING, [2], checkpoint_path=path, resume=True)
    assert got == {2: 1.0}
    assert seen == CANCELLING[1:]  # segment 0 came from the checkpoint


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("empty", [False, True], ids=["missing", "0-byte"])
def test_runner_resume_from_nothing_recorded(tmp_path, caplog, empty, threads):
    # A run interrupted before its header reached the disk recorded nothing:
    # resuming it is a fresh run, which writes the header and every record.
    path = tmp_path / "ck.jsonl"
    if empty:
        path.write_bytes(b"")
    with caplog.at_level(logging.INFO, logger=runner.__name__):
        got = run_tasks(_value_worker, CANCELLING, [2], threads=threads,
                        checkpoint_path=str(path), resume=True, digest="d")
    assert got == {2: 1.0}
    assert path.read_text().splitlines()[0] == json.dumps({"version": 1, "digest": "d"})
    assert sorted(load(str(path), "d")) == [0, 1, 2]
    assert f"{path}: missing or empty, nothing to resume; starting at segment 0" \
        in caplog.messages


@pytest.mark.parametrize("text", ["not a checkpoint\n", '{"version": 1, "dig'],
                         ids=["other-file", "torn-header"])
def test_runner_resume_refuses_a_file_without_a_header(tmp_path, text):
    # A mistyped path to some other file is refused and left as it is.
    path = tmp_path / "notes.txt"
    path.write_text(text)
    with pytest.raises(CheckpointError):
        run_tasks(_value_worker, CANCELLING, [2], checkpoint_path=str(path),
                  resume=True, digest="d")
    assert path.read_text() == text


@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=200))
def test_runner_reduction_is_fsum(xs):
    got = run_tasks(lambda i: {2: xs[i]}, range(len(xs)), [2])
    assert got[2].hex() == math.fsum(xs).hex()


def _index_worker(task):
    time.sleep(2e-4)  # results arrive one at a time, not in one batch
    return {2: float(task)}


class _CountedFuture(Future):
    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.in_flight -= 1
        return super().result(timeout)


class _CountingPool:
    """Runs each task at submit; counts futures whose result is still unread."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.in_flight = self.peak = 0
        self.sigint = signal.getsignal(signal.SIGINT)
        initializer(*initargs)  # in this process, as a pool process would

    def shutdown(self, wait=True, cancel_futures=False):
        # The initializer made this process ignore Ctrl-C, as a pool process does.
        signal.signal(signal.SIGINT, self.sigint)

    def submit(self, fn, *args):
        fut = _CountedFuture(self)
        fut.set_result(fn(*args))
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        return fut


def test_runner_pool_linear_in_segments(monkeypatch):
    # 8192 segments on 2 workers: each completion waits on the few futures in
    # flight, so the work per completion does not grow with the run.  Waiting
    # on the whole remaining set after every completion was quadratic.
    handed = []

    def counted_wait(fs, **kwargs):
        handed.append(len(fs))
        return wait(fs, **kwargs)

    # The runner looks the pool up in concurrent.futures on its pool branch.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(runner, "_worker", None)  # the fake pool sets it here
    monkeypatch.setattr(runner, "wait", counted_wait)
    n = 1 << 13
    got = run_tasks(lambda i: {2: float(i)}, range(n), [2], threads=2)
    assert got[2] == n * (n - 1) / 2
    assert handed and max(handed) <= 2 * runner.TASKS_PER_WORKER, max(handed)


def _recording_pools(monkeypatch):
    pools = []

    def counting_pool(max_workers, **init):
        pools.append(_CountingPool(max_workers, **init))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    monkeypatch.setattr(runner, "_worker", None)  # the fake pool sets it here
    return pools


def test_runner_bounded_submissions(monkeypatch, tmp_path):
    pools = _recording_pools(monkeypatch)
    n, path = 1000, tmp_path / "ck.jsonl"
    got = run_tasks(_index_worker, range(n), [2], threads=3, checkpoint_path=str(path))
    # A few tasks per worker in flight, not one future per segment.
    assert pools[0].peak == 3 * runner.TASKS_PER_WORKER
    assert pools[0].in_flight == 0
    assert got == run_tasks(_index_worker, range(n), [2])
    assert sorted(load(str(path), "")) == list(range(n))


@pytest.mark.parametrize("threads", [1, 2])
def test_runner_refusal_records_every_task_handed_out(threads, monkeypatch, tmp_path):
    # Every projection passes a limit of 0 s, so the run is refused at its
    # 2 x workers-th finished task.  It hands out no further task, finishes
    # those it has handed out and records each of them.
    _recording_pools(monkeypatch)
    ran, path = [], tmp_path / "ck.jsonl"

    def worker(task):
        ran.append(task)
        return _index_worker(task)

    with pytest.raises(LongRunError, match="exceeds 0 min"):
        run_tasks(worker, range(100), [2], threads=threads, checkpoint_path=str(path),
                  limit=0.0)
    # Pooled: the first 2 x TASKS_PER_WORKER, and one more per task finished
    # before the refusal.
    handed = 2 if threads == 1 else 2 * runner.TASKS_PER_WORKER + 3
    assert sorted(ran) == list(range(handed))
    assert sorted(load(str(path), "")) == sorted(ran)


def test_runner_pool_has_no_more_workers_than_tasks(monkeypatch):
    # A forked pool starts all its processes at the first submit: 3 segments
    # on --threads 8 forked 8 processes.
    pools = _recording_pools(monkeypatch)
    got = moment_integral_scaled(2e4, 0.01, [2], segment_size=8192, threads=8)
    assert [pool.max_workers for pool in pools] == [3]
    assert got[2].hex() == moment_integral_scaled(2e4, 0.01, [2], segment_size=8192)[2].hex()


def test_runner_logs_progress(monkeypatch, caplog):
    # One line per finished segment with the interval at 0; the clock does not
    # reach the reduction.
    monkeypatch.setattr(runner, "PROGRESS_SECONDS", 0)
    with caplog.at_level(logging.INFO, logger="psimoment"):
        got = moment_integral_scaled(2e4, 0.01, [2, 4], segment_size=4096)
    lines = [r.getMessage() for r in caplog.records if "segments done" in r.getMessage()]
    assert [line.split()[0] for line in lines] == [f"{i}/5" for i in range(1, 6)]
    assert all("s elapsed, ETA" in line for line in lines)
    assert lines[-1].endswith("ETA 0 s")
    monkeypatch.setattr(runner, "PROGRESS_SECONDS", 5)
    assert moment_integral_scaled(2e4, 0.01, [2, 4], segment_size=4096) == got


# Two tasks on two workers: the fast one leaves its worker idle while the slow
# one, which says when it has started, sleeps.  Ctrl-C exits as the CLI does.
INTERRUPTED_POOL = """
import sys, time
from psimoment.runner import run_tasks

def nap(seconds):
    if seconds > 1:
        print("started", flush=True)
    time.sleep(seconds)
    return {2: seconds}

try:
    run_tasks(nap, [0.01, 2.0], [2], threads=2)
except KeyboardInterrupt:
    print("interrupted", file=sys.stderr)
    sys.exit(130)
"""


def test_runner_ctrl_c_prints_one_line_from_a_pool():
    # The interrupt reaches the whole process group, as a terminal's Ctrl-C
    # does: the idle worker prints nothing and the busy one stops at once.
    src = str(Path(runner.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED_POOL], text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path}, start_new_session=True)
    try:
        assert proc.stdout.readline() == "started\n"
        t0 = time.monotonic()
        time.sleep(0.5)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=10)
        elapsed = time.monotonic() - t0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert err.splitlines() == ["interrupted"], err  # no worker's traceback
    assert elapsed < 1.5  # the slow task would have slept until 2 s
