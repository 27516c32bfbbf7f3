"""Segment-parallel execution with a deterministic ordered reduction.

Workers own disjoint segments and return per-order partial sums; the
reduction is compensated addition applied in segment-index order, so the
result is bit-identical for any worker count and across checkpoint resumes.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Sequence

from .accum import NeumaierSum
from .checkpoint import CheckpointWriter, load
from .errors import CheckpointError, NumericRangeError

log = logging.getLogger(__name__)

Worker = Callable[[Any], dict[int, float]]


def run_tasks(
    worker: Worker,
    tasks: Sequence[Any],
    ks: Sequence[int],
    threads: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
    digest: str = "",
) -> dict[int, float]:
    """Run worker over tasks, reduce per-k results in task-index order."""
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
            with ProcessPoolExecutor(max_workers=threads) as pool:
                futures = {pool.submit(worker, tasks[i]): i for i in pending}
                # as_completed waits on each future once; a wait() on the
                # remaining set per completion costs O(segments^2).
                for fut in as_completed(futures):
                    i = futures[fut]
                    done[i] = fut.result()
                    if writer:
                        writer.append(i, done[i])
    finally:
        if writer:
            writer.close()

    totals = {k: NeumaierSum() for k in ks}
    for i in range(len(tasks)):
        for k in ks:
            totals[k].add(done[i][k])
    out = {k: acc.value for k, acc in totals.items()}
    for k, v in out.items():
        if not math.isfinite(v):
            raise NumericRangeError(f"order-{k} partial sum overflowed: {v}")
    return out
