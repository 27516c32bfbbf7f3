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
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Sequence

from .checkpoint import CheckpointWriter, load
from .errors import CheckpointError, NumericRangeError

log = logging.getLogger(__name__)

Worker = Callable[[Any], dict[int, float]]

# Tasks in flight per pool worker.  A few queued behind each running task keep
# every worker busy while the parent appends checkpoint records, and the
# parent holds a bounded number of futures however many segments a run has.
TASKS_PER_WORKER = 4

_worker: Worker | None = None  # a pool process's worker, set by _set_worker


def _set_worker(worker: Worker) -> None:
    global _worker
    _worker = worker


def _call_worker(task):
    return _worker(task)


def run_tasks(
    worker: Worker,
    tasks: Sequence[Any],
    ks: Sequence[int],
    threads: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
    digest: str = "",
) -> dict[int, float]:
    """Run worker over tasks; return each k's partials summed by math.fsum."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    done: dict[int, dict[int, float]] = {}
    if checkpoint_path and resume:
        done = load(checkpoint_path, digest)
        extra = set(done) - set(range(len(tasks)))
        if extra:
            raise CheckpointError(f"checkpoint has unknown segments {sorted(extra)}")
        log.info("resuming: %d of %d segments already done", len(done), len(tasks))

    writer = None
    if checkpoint_path:
        writer = CheckpointWriter(checkpoint_path, digest, fresh=not resume)
    try:
        pending = [i for i in range(len(tasks)) if i not in done]
        if threads == 1 or len(pending) <= 1:
            for i in pending:
                done[i] = worker(tasks[i])
                if writer:
                    writer.append(i, done[i])
        else:
            with ProcessPoolExecutor(max_workers=threads, initializer=_set_worker,
                                     initargs=(worker,)) as pool:
                queue = iter(pending)
                running = {pool.submit(_call_worker, tasks[i]): i
                           for i in itertools.islice(queue, TASKS_PER_WORKER * threads)}
                while running:
                    finished, _ = wait(running, return_when=FIRST_COMPLETED)
                    for fut in sorted(finished, key=running.get):
                        i = running.pop(fut)
                        done[i] = fut.result()
                        if writer:
                            writer.append(i, done[i])
                        j = next(queue, None)
                        if j is not None:
                            running[pool.submit(_call_worker, tasks[j])] = j
    finally:
        if writer:
            writer.close()

    out = {}
    for k in ks:
        # fsum raises OverflowError past float64 and ValueError on inf - inf.
        try:
            out[k] = math.fsum(done[i][k] for i in range(len(tasks)))
        except (OverflowError, ValueError) as exc:
            raise NumericRangeError(f"order-{k} partial sum overflowed: {exc}") from exc
        if not math.isfinite(out[k]):
            raise NumericRangeError(f"order-{k} partial sum overflowed: {out[k]}")
    return out
