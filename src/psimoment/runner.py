"""Segment-parallel execution with a deterministic reduction.

Workers own disjoint segments and return per-order partial sums, which a pool
hands back in segment order too: a pooled run's value, error and checkpoint
records are a serial run's.  Each order's sum runs exactly, by math.fsum's
own step, and is correctly rounded, so a resumed run's is bit-identical too.

A pool gets the worker once per process, through its initializer, and each
task then carries only its own arguments: whatever the worker holds (a sieve
and its base primes, a workspace) is built once in each process and reused by
every task that process runs.
"""

from __future__ import annotations

import collections
import itertools
import logging
import math
import signal
import time
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


def checked_fsum(what: str, values) -> float:
    """The math.fsum of values; NumericRangeError, naming what, where it overflows."""
    # fsum raises OverflowError past float64 and ValueError on inf - inf.
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        raise NumericRangeError(f"{what} overflowed: {exc}") from exc
    if not math.isfinite(total):
        raise NumericRangeError(f"{what} overflowed: {total}")
    return total


def fsum_step(partials: list[float], x: float, what: str) -> None:
    """Add x to partials by math.fsum's own exact step (Shewchuk, Discrete
    Comput. Geom. 18 (1997)): math.fsum(partials) is then the fsum of the
    values added.  NumericRangeError, naming what, where x or the sum is not finite."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    if not math.isfinite(x):
        raise NumericRangeError(f"{what} overflowed: {x}")
    partials[i:] = [x]


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

    The sums run in segment order through fsum_step, so a run keeps no state
    per segment but the indices it resumed.  A resumed record of a segment
    not in tasks or recorded twice, or of orders not ks, is a CheckpointError
    as it is read.  A run projected past limit seconds hands out no further
    task, records the ones it has handed out and stops with LongRunError.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    sums: dict[int, list[float]] = {k: [] for k in ks}
    recorded: set[int] = set()

    def add(partials: dict[int, float]) -> None:
        for k, running in sums.items():
            fsum_step(running, partials[k], f"order-{k} partial sum")

    def resumed(i: int, partials: dict[int, float]) -> None:
        if not 0 <= i < len(tasks):
            raise CheckpointError(f"checkpoint has unknown segments [{i}]")
        if i in recorded:
            raise CheckpointError(f"checkpoint records segment {i} twice")
        if partials.keys() != sums.keys():
            raise CheckpointError(f"checkpoint segment {i} has orders {sorted(partials)}, "
                                  f"not {sorted(sums)}")
        recorded.add(i)
        add(partials)

    if checkpoint_path and resume:
        if load(checkpoint_path, digest, resumed):
            log.info("resuming: %d of %d segments already done", len(recorded), len(tasks))
        else:  # the writer starts the file
            log.info("%s: missing or empty, nothing to resume; starting at segment 0",
                     checkpoint_path)

    writer = checkpoint_path and CheckpointWriter(checkpoint_path, digest, fresh=not resume)
    todo = len(tasks) - len(recorded)
    workers = min(threads, todo)  # a pool forks them all at its first submit
    t0, shown, ran, refusal = time.monotonic(), 0.0, 0, ""

    def finish(i: int, partials: dict[int, float]) -> bool:
        """Record task i; return whether the run may go on."""
        nonlocal shown, ran, refusal
        if writer:
            writer.append(i, partials)
        add(partials)
        elapsed, ran = time.monotonic() - t0, ran + 1
        projected = elapsed * todo / ran
        if elapsed - shown >= PROGRESS_SECONDS:
            shown = elapsed
            log.info("%d/%d segments done, %.0f s elapsed, ETA %.0f s",
                     len(recorded) + ran, len(tasks), elapsed, elapsed * (todo - ran) / ran)
        if projected > limit and ran >= 2 * workers:
            refusal = (f"projected run time {projected / 60:.0f} min "
                       f"exceeds {limit / 60:.0f} min")
        return not refusal

    pending = (i for i in range(len(tasks)) if i not in recorded)
    try:
        if workers <= 1:
            for i in pending:
                if not finish(i, worker(tasks[i])):
                    break
        else:
            # The pool machinery (concurrent.futures, multiprocessing: ~1 MB RSS
            # and ~18 ms of import) loads only here; a serial run never pays for it.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, initializer=_set_worker, initargs=(worker,))
            try:
                # Oldest first, as a serial run; the younger keep the workers busy.
                running = collections.deque((i, pool.submit(_call_worker, tasks[i])) for i in
                                            itertools.islice(pending, TASKS_PER_WORKER * workers))
                while running:
                    i, fut = running.popleft()
                    j = next(pending, None) if finish(i, fut.result()) else None
                    if j is not None:
                        running.append((j, pool.submit(_call_worker, tasks[j])))
            finally:
                pool.shutdown(cancel_futures=True)  # on an error, drop the tasks not started
    finally:
        if writer:
            writer.close()
    if ran < todo:
        raise LongRunError(refusal)
    return {k: checked_fsum(f"order-{k} partial sum", running) for k, running in sums.items()}
