"""Time the piece sweep by layer on its numpy path and on the compiled kernel.

    python3 tools/bench_layers.py 20            # writes BENCH_20.json
    python3 tools/bench_layers.py 20 --runs 5   # fewer rounds per path

Run it from the repository root.  Each round is a fresh process that imports
psimoment from ./src and times one path: the numpy path (the kernel turned
off) or the kernel.  The rounds of the two paths alternate, and the file
holds each timing's median and interquartile range over the rounds and the
kernel's median over the numpy path's.

A round times, on the last full 2^22 segment below X = 1e8 and 1e10 of a
fixed window (h = 1e5) and of a scaled one (delta = 1e-4 at 1e8, 1e-5 at
1e10), the median of 5 calls of:

* sieve_s: the segment's one sieve call;
* sweep_s: sweep_segment without the sieve (a sieve that hands back the
  stored arrays);
* events_s: window_events alone, the part of sweep_s before either path;
* body_s: the path's own work after window_events, the parts of every
  order (_sweep_numpy or _sweep_kernel);
* fold_s (numpy path only): the share of body_s in fold_powers, the powers
  and TwoSum folds; the rest of body_s is the merge, the cumsum and the
  pieces.

and, end to end at X = 1e8 on one process, each mode's moments for k = 2,
4, 6 (one call each).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEGMENTS = [("fixed-integral", 10**8, 10**5), ("scaled-integral", 10**8, 1e-4),
            ("fixed-integral", 10**10, 10**5), ("scaled-integral", 10**10, 1e-5)]
PATHS = ("numpy", "kernel")


def clock(f, reps: int = 1) -> float:
    """The median of reps timings of f()."""
    ts = []
    for _ in range(reps):
        t = time.perf_counter()
        f()
        ts.append(time.perf_counter() - t)
    return sorted(ts)[reps // 2]


def one_round(path: str) -> dict[str, float]:
    """The timings of one path in this process."""
    from psimoment import moment_integral_fixed, moment_integral_scaled, moment_sum, sweep
    from psimoment.sieve import DEFAULT_SEGMENT_SIZE as SEG, MangoldtSieve

    if path == "numpy":
        sweep._kernel = False
    elif not sweep.load_kernel():
        sys.exit("the compiled kernel did not build, load or pass its check")

    class Stored:  # hands back one sieve call's arrays: the sweep without the sieve
        def __init__(self, arrays):
            self.arrays = arrays

        def events(self, lo, hi):
            return self.arrays

    folding = [0.0]
    fold_powers = sweep.fold_powers

    def timed_fold_powers(*args):
        t = time.perf_counter()
        fold_powers(*args)
        folding[0] += time.perf_counter() - t

    sweep.fold_powers = timed_fold_powers
    body = sweep._sweep_numpy if path == "numpy" else (
        lambda *args: sweep._sweep_kernel(sweep._kernel, *args))
    out = {}
    for mode, X, p in SEGMENTS:
        task = [t for t in sweep.tasks(mode, X, p, (2, 4, 6), SEG) if t[1] - t[0] == SEG][-1]
        sieve = MangoldtSieve()
        span = sweep.sieve_range(*task[:4])
        arrays = sieve.events(*span)  # warm: base primes built, pages touched once
        ws = sweep.Workspace(Stored(arrays))
        sweep.sweep_segment(ws, task)
        events = sweep.window_events(*task[:4], ws.sieve)
        key = f"{mode.split('-')[0]}@{X:.0e}"
        out[key + ".sieve_s"] = clock(lambda: sieve.events(*span), 5)
        out[key + ".sweep_s"] = clock(lambda: sweep.sweep_segment(ws, task), 5)
        out[key + ".events_s"] = clock(lambda: sweep.window_events(*task[:4], ws.sieve), 5)
        folding[0] = 0.0
        out[key + ".body_s"] = clock(lambda: body(events, task, ws.buffers(), sweep.BLOCK), 5)
        if path == "numpy":
            out[key + ".fold_s"] = folding[0] / 5
    sweep.fold_powers = fold_powers
    for name, f in [("fixed-sum", lambda: moment_sum(10**8, 10**5, [2, 4, 6])),
                    ("fixed-integral", lambda: moment_integral_fixed(1e8, 1e5, [2, 4, 6])),
                    ("scaled-integral", lambda: moment_integral_scaled(1e8, 1e-4, [2, 4, 6]))]:
        out[f"e2e.{name}@1e8_s"] = clock(f)
    return out


def iqr(xs) -> float:
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("number", nargs="?", help="write BENCH_<number>.json")
    parser.add_argument("--runs", type=int, default=11, help="rounds per path (default 11)")
    parser.add_argument("--round", choices=PATHS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.round:
        print(json.dumps(one_round(args.round)))
        return
    if not args.number or args.runs < 2:
        parser.error("give the BENCH file's number and at least 2 runs")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    rounds = {path: [] for path in PATHS}
    for i in range(args.runs):
        for path in PATHS[:: 1 if i % 2 == 0 else -1]:
            done = subprocess.run([sys.executable, os.path.abspath(__file__), "--round", path],
                                  env=env, capture_output=True, text=True, check=True)
            rounds[path].append(json.loads(done.stdout))
    med = {path: {k: statistics.median(r[k] for r in rs) for k in rs[0]}
           for path, rs in rounds.items()}
    spread = {path: {k: iqr([r[k] for r in rs]) for k in rs[0]} for path, rs in rounds.items()}
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    report = {
        "machine": f"{os.cpu_count()} vCPU, Python {sys.version.split()[0]}, numpy {numpy_version}",
        "command": f"python3 tools/bench_layers.py {args.number} --runs {args.runs}",
        "commit": commit, "runs_each": args.runs, "median_s": med, "iqr_s": spread,
        "ratio_kernel_over_numpy": {k: med["kernel"][k] / med["numpy"][k]
                                    for k in med["kernel"]},
    }
    with open(os.path.join(ROOT, f"BENCH_{args.number}.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
