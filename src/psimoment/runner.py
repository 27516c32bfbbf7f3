"""Segment-parallel execution with a deterministic reduction.

Workers own disjoint segments and return per-order partial sums; the
reduction is one math.fsum per order, correctly rounded and so independent of
the order the partials arrive in: the result is bit-identical for any worker
count and across checkpoint resumes.

A pool gets the worker once per process, through its initializer, and each
task then carries only its own arguments: whatever the worker holds (a sieve
and its base primes, a workspace) is built once in each process and reused by
every task that process runs.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, wait  # loads only concurrent.futures._base
from typing import Any, Callable, Sequence

from .checkpoint import CheckpointWriter, load
from .errors import CheckpointError, LongRunError, NumericRangeError

log = logging.getLogger(__name__)

Worker = Callable[[Any], dict[int, float]]

# Tasks in flight per pool worker.  A few queued behind each running task keep
# every worker busy while the parent appends checkpoint records, and the
# parent holds a bounded number of futures however many segments a run has.
TASKS_PER_WORKER = 4
PROGRESS_SECONDS = 5  # a run logs its progress at most this often

_worker: Worker | None = None  # a pool process's worker, set by _set_worker


def _set_worker(worker: Worker) -> None:
    global _worker
    _worker = worker
    # Ctrl-C reaches the whole process group.  A pool process waiting for its
    # next task ignores it; the run's own KeyboardInterrupt shuts the pool down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _call_worker(task):
    # A pool process busy on a task hands the interrupt back as its result.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        return _worker(task)
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def order_sum(k: int, values) -> float:
    """The math.fsum of order k's values; NumericRangeError where it overflows."""
    # fsum raises OverflowError past float64 and ValueError on inf - inf.
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        raise NumericRangeError(f"order-{k} partial sum overflowed: {exc}") from exc
    if not math.isfinite(total):
        raise NumericRangeError(f"order-{k} partial sum overflowed: {total}")
    return total


def _recorded_nothing(path: str) -> bool:
    """Whether the checkpoint at path is missing or has 0 bytes."""
    try:
        return os.path.getsize(path) == 0
    except FileNotFoundError:
        return True


def run_tasks(
    worker: Worker,
    tasks: Sequence[Any],
    ks: Sequence[int],
    threads: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
    digest: str = "",
    limit: float = math.inf,
) -> dict[int, float]:
    """Run worker over tasks; return each k's partials summed by math.fsum.

    A run projected past limit seconds hands out no further task, records
    the ones it has handed out and stops with LongRunError.  A resume from a
    missing or 0-byte checkpoint is a run with nothing recorded; a non-empty
    file without a valid header is refused by load.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    done: dict[int, dict[int, float]] = {}
    if checkpoint_path and resume and _recorded_nothing(checkpoint_path):
        # A run stopped before its header reached the disk recorded nothing;
        # the writer starts the file.
        log.info("%s: missing or empty, nothing to resume; starting at segment 0",
                 checkpoint_path)
    elif checkpoint_path and resume:
        done = load(checkpoint_path, digest)
        extra = set(done) - set(range(len(tasks)))
        if extra:
            raise CheckpointError(f"checkpoint has unknown segments {sorted(extra)}")
        log.info("resuming: %d of %d segments already done", len(done), len(tasks))

    writer = checkpoint_path and CheckpointWriter(checkpoint_path, digest, fresh=not resume)
    pending = [i for i in range(len(tasks)) if i not in done]
    workers = min(threads, len(pending))  # a pool forks them all at its first submit
    t0, shown, resumed, refusal = time.monotonic(), 0.0, len(done), ""

    def finish(i: int, partials: dict[int, float]) -> bool:
        """Record task i; return whether the run may go on."""
        nonlocal shown, refusal
        done[i] = partials
        if writer:
            writer.append(i, partials)
        elapsed, ran = time.monotonic() - t0, len(done) - resumed
        projected = elapsed * len(pending) / ran
        if elapsed - shown >= PROGRESS_SECONDS:
            shown = elapsed
            log.info("%d/%d segments done, %.0f s elapsed, ETA %.0f s",
                     len(done), len(tasks), elapsed, elapsed * (len(pending) - ran) / ran)
        if projected > limit and ran >= 2 * workers:
            refusal = (f"projected run time {projected / 60:.0f} min "
                       f"exceeds {limit / 60:.0f} min")
        return not refusal

    try:
        if workers <= 1:
            for i in pending:
                if not finish(i, worker(tasks[i])):
                    break
        else:
            # The pool machinery (multiprocessing, socket, subprocess: ~1 MB RSS
            # and ~18 ms of import) loads only here; a serial run never pays for it.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, initializer=_set_worker, initargs=(worker,))
            try:
                queue = iter(pending)
                running = {pool.submit(_call_worker, tasks[i]): i
                           for i in itertools.islice(queue, TASKS_PER_WORKER * workers)}
                while running:
                    finished, _ = wait(running, return_when=FIRST_COMPLETED)
                    for fut in sorted(finished, key=running.get):
                        j = next(queue, None) if finish(running.pop(fut), fut.result()) else None
                        if j is not None:
                            running[pool.submit(_call_worker, tasks[j])] = j
            finally:
                pool.shutdown(cancel_futures=True)  # on an error, drop the tasks not started
    finally:
        if writer:
            writer.close()
    if len(done) < len(tasks):
        raise LongRunError(refusal)

    return {k: order_sum(k, (done[i][k] for i in range(len(tasks)))) for k in ks}
