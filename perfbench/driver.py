"""One benchmark run of one workload, in a fresh process.

Untimed mode (--trace 0) repeats the workload's operation for --seconds and
prints each operation's wall and CPU time.  CPU time is user+sys of this
process plus its reaped children, so worker processes count.  Between
operations it starts setup_probe.py a few times, so the set-up samples are
spread over the whole run like the operations are.

Traced mode (--trace 1) runs the operation untraced on 2 workers, when the
workload uses 2, and on 1 worker, then once more on 1 worker with the tracer
installed.  All of them must return the same bits, and the wrapped layers
must cover nearly all of the traced time.  It prints the per-layer metrics
and writes the spans to perfbench/out/.

The last line of stdout is one JSON object; run.py reads it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import psimoment as pm
import psimoment.cli  # noqa: F401  (the scaled workload calls pm.cli.main)

import tracing
from workloads import Outcome, WORKLOADS

MIN_OPS = 3
PROBES_PER_OP = 3
# Start no operation expected to end later than this; run.py kills the
# driver at 170 s.
BUDGET_S = 140.0
# Share of the traced wall time that no layer may exceed.  The sieve
# workload's own primality checks are about 3%; more means that work has
# moved out of the wrapped public functions.
MAX_UNCOVERED = 0.10
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def operation(wl, inputs, threads, tracer=None):
    """Run one operation; returns (Outcome, wall seconds, cpu seconds)."""
    prepared = wl.prepare(pm, inputs)
    run = wl.run if tracer is None else tracer.wrap("workload", "workload", wl.run)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out = run(pm, inputs, threads, tmp, prepared)
        except Exception:
            traceback.print_exc()
            out = Outcome(attempted=wl.calls, failed=wl.calls, notes=["raised"])
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    return out, wall, cpu


def setup_probes(wl, seed, count):
    """Time import and base primes in count fresh processes."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=60)
        samples.append(json.loads(proc.stdout))
    return samples


def timed(wl, inputs, seed, seconds):
    walls, cpus, probes = [], [], []
    attempted = failed = 0
    notes = set()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # Stop at the operation expected to end nearest to --seconds.
        if len(walls) >= MIN_OPS and elapsed + statistics.median(walls) / 2 >= seconds:
            break
        if walls and elapsed + max(walls) > BUDGET_S:
            break
        out, wall, cpu = operation(wl, inputs, wl.threads)
        walls.append(wall)
        cpus.append(cpu)
        attempted += out.attempted
        failed += out.failed
        notes.update(out.notes)
        probes += setup_probes(wl, seed, PROBES_PER_OP)
    return {"attempted": attempted, "failed": failed, "correct": failed == 0,
            "wall_s": walls, "cpu_s": cpus, "probes": probes, "notes": sorted(notes)}


def traced(wl, inputs, seed):
    probes = setup_probes(wl, seed, 3 * PROBES_PER_OP)
    runs = {}
    for threads in ((2, 1) if wl.threads > 1 else (1,)):
        runs[threads] = operation(wl, inputs, threads)
    tracer = tracing.Tracer()
    tracer.install(pm)
    try:
        runs["traced"] = operation(wl, inputs, 1, tracer)
    finally:
        tracer.uninstall()
    outs = [r[0] for r in runs.values()]
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    notes = {note for o in outs for note in o.notes}
    same_bits = len({o.key for o in outs}) == 1
    if not same_bits:
        notes.add(f"results differ across worker counts or tracing: "
                  f"{[o.key for o in outs]}")
    metrics = tracing.layer_metrics(
        tracer.spans, wall_1w=runs[1][1], wall_2w=runs[2][1] if 2 in runs else None)
    metrics["checkpoint.bytes"] = runs["traced"][0].checkpoint_bytes
    covered = metrics["trace.uncovered_s"] <= MAX_UNCOVERED * metrics["trace.wall_s"]
    if not covered:
        notes.add(f"{metrics['trace.uncovered_s']:.3f} s of the traced "
                  f"{metrics['trace.wall_s']:.3f} s is in no layer")
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.json")
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and same_bits and covered, "layers": metrics,
            "probes": probes, "notes": sorted(notes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    if args.trace:
        result = traced(wl, inputs, args.seed)
    else:
        result = timed(wl, inputs, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
