import json
import time
from concurrent.futures import Future

import pytest

from psimoment import moment_integral_fixed, moment_integral_scaled, moment_sum
from psimoment.checkpoint import CheckpointError, config_digest, load
from psimoment.errors import NumericRangeError
from psimoment import runner
from psimoment.runner import run_tasks


def test_resume_bit_identical_sum(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    baseline = moment_sum(2 * 10**4, 100, [2, 4], segment_size=2**12)

    full = moment_sum(2 * 10**4, 100, [2, 4], segment_size=2**12, checkpoint=path)
    assert full == baseline

    # Simulate an interruption: keep only the header and first two segments.
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:3]) + "\n")
    resumed = moment_sum(2 * 10**4, 100, [2, 4], segment_size=2**12,
                         checkpoint=path, resume=True)
    assert resumed == baseline  # bit-identical


def test_resume_bit_identical_scaled(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    baseline = moment_integral_scaled(10**4, 0.05, [2], segment_size=1500)
    moment_integral_scaled(10**4, 0.05, [2], segment_size=1500, checkpoint=path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:2]) + "\n")
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
# __version_salt__ = 3 (the blocked TwoSum power sums).  They change only
# with the sweep's __version_salt__; until then such checkpoints must keep
# resuming.
PINNED_DIGESTS = {
    "fixed-sum": (moment_sum, (1000, 10, [2, 4]),
                  "7b5d996d0f692bee6e01c58eb285f153278ed48c91a2897477dd37639cbba6e7"),
    "fixed-integral": (moment_integral_fixed, (1000.0, 7.5, [2, 4]),
                       "3416d55ae4044fc9d07dc5e8827910be1f95b9a5f98f95e8606e1134a8b1b28c"),
    "scaled-integral": (moment_integral_scaled, (1000.0, 0.05, [2, 4]),
                        "633b5b9808354d497b939f9edf0ae18c99775f7dc9a8a5aba4578b2a33cf58e0"),
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


def test_digest_mismatch_refused(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    moment_sum(10**3, 10, [2], segment_size=256, checkpoint=path)
    with pytest.raises(CheckpointError, match="digest mismatch"):
        # Different h -> different config digest.
        moment_sum(10**3, 20, [2], segment_size=256, checkpoint=path, resume=True)


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
    def worker(task):
        return {2: 1e308}

    with pytest.raises(NumericRangeError):
        run_tasks(worker, [0, 1, 2, 3], [2])


def _index_worker(task):
    time.sleep(2e-4)  # results arrive one at a time, not in one batch
    return {2: float(task)}


def test_runner_pool_linear_in_segments():
    # 8192 short segments on 2 workers: ~1.3 s on 2 CPUs.  Waiting on the
    # whole remaining set after every completion took ~11 s.
    n = 1 << 13
    t0 = time.perf_counter()
    got = run_tasks(_index_worker, range(n), [2], threads=2)
    assert time.perf_counter() - t0 < 6.0
    assert got[2] == n * (n - 1) / 2


class _CountedFuture(Future):
    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.in_flight -= 1
        return super().result(timeout)


class _CountingPool:
    """Runs each task at submit; counts futures whose result is still unread."""

    def __init__(self, max_workers):
        self.in_flight = self.peak = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = _CountedFuture(self)
        fut.set_result(fn(*args))
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        return fut


def test_runner_bounded_submissions(monkeypatch, tmp_path):
    pools = []

    def counting_pool(max_workers):
        pools.append(_CountingPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(runner, "ProcessPoolExecutor", counting_pool)
    n, path = 1000, tmp_path / "ck.jsonl"
    got = run_tasks(_index_worker, range(n), [2], threads=3, checkpoint_path=str(path))
    # A few tasks per worker in flight, not one future per segment.
    assert pools[0].peak == 3 * runner.TASKS_PER_WORKER
    assert pools[0].in_flight == 0
    assert got == run_tasks(_index_worker, range(n), [2])
    assert sorted(load(str(path), "")) == list(range(n))
