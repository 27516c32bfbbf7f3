"""Time the sieve and the piece sweep by layer, in a parent tree and this one.

    python3 tools/bench_layers.py 21 --against ../parent   # writes BENCH_21.json
    python3 tools/bench_layers.py 21 --against ../parent --runs 5   # fewer rounds

Run it from the repository root; --against TREE, a checkout of the parent
commit, is required.  Each round is a fresh process that imports psimoment
from one tree's src and times it on the compiled kernel, which is what a
run uses.  The rounds of the two sides, TREE and this tree, alternate, and
the file holds each timing's median and interquartile range over the rounds
and the ratio of the two sides' medians.

A round times, on the last full segment of each side's default size below
X = 1e8, 1e10 and 1e11 of a fixed window (h = 1e5) and of a scaled one
(delta = 1e-4 at 1e8, 1e-5 above), the median of 5 calls of:

* sieve_s: the segment's one sieve call;
* sweep_s: sweep_segment without the sieve (a sieve that hands back the
  stored arrays);
* body_s: _sweep_kernel alone, the kernel's call with the window weight
  and every order's parts and sums; the rest of sweep_s is window_events
  and the call's set-up;
* stage.<stage>_s: each stage of the sieve call, run one at a time by the
  sieve module's own function for it, as lambda_segment runs them, and
  held to its output: wheel (the mask tiled from the wheel), small (the
  base primes up to the mask length / ROUNDS, a slice each), large (the
  larger base primes, in rounds or a slice each: the file's sieve_large
  says which), nonzero (flatnonzero and the mask's indices to n), splice
  (2 and the higher powers put in) and log (the weights).

and, on one process, once each:

* range.<mode>@<X>.2^<n>_s: the segments of size 2^n that cover the last
  2^26 integers below X = 1e11 and 1e12 of the scaled window (delta =
  1e-5), swept one after another as a run sweeps them, sieve included:
  2^21, 2^22 and the size default_segment_size picks there (2^24, 2^25);
* e2e.<mode>@1e8_s: each mode's moments at X = 1e8 for k = 2, 4, 6.

Each round also reports its process's peak RSS (ru_maxrss) once it is
done, and the file holds each side's list of them, in MB, in maxrss_mb.
That is the round's peak, which the 1e12 range sweeps set, and not one
segment's: perfbench's peak_rss_mb is the memory of a run.

The file records each side's segment sizes; where the two sides' sizes
differ, the ratio of a segment's timings is taken per integer.

--against TREE needs a checkout from commit e5848ca on: a round calls the
tree's own sieve stage functions, sieve.ROUND_PRIMES and
sweep.default_segment_size, which older trees do not have.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEGMENTS = [("fixed-integral", 10**8, 10**5), ("scaled-integral", 10**8, 1e-4),
            ("fixed-integral", 10**10, 10**5), ("scaled-integral", 10**10, 1e-5),
            ("fixed-integral", 10**11, 10**5), ("scaled-integral", 10**11, 1e-5)]
# (mode, X, param, the log2 segment sizes whose sweeps of the last RANGE
# integers below X are timed)
RANGES = [("scaled-integral", 10**11, 1e-5, (21, 22, 24)),
          ("scaled-integral", 10**12, 1e-5, (21, 22, 25))]
RANGE = 1 << 26


def clock(f, reps: int = 1) -> float:
    """The median of reps timings of f()."""
    ts = []
    for _ in range(reps):
        t = time.perf_counter()
        f()
        ts.append(time.perf_counter() - t)
    return sorted(ts)[reps // 2]


def sieve_stages(sieve, lo: int, hi: int, reps: int = 5) -> tuple[dict, bool]:
    """The median of reps timings of each stage of the sieve call (lo, hi],
    by stage name, and whether its larger base primes took the rounds.

    Each stage calls the sieve module's function for it, as lambda_segment
    does.  Crossing off is idempotent, so each stage can be timed on the
    mask that the stages before it left.  A stage list that does not give
    lambda_segment's bits is an error, not a timing.
    """
    from psimoment import sieve as module

    base = sieve.base_primes(math.isqrt(hi))
    o0 = lo + 1 + (lo & 1)
    small, large = module._crossing_primes(base.primes, (hi - o0) // 2 + 1, hi)
    state = {}

    def wheel():
        state["mask"] = module._wheel_mask(lo, hi)[1]

    def nonzero():
        state["ns"] = module._mask_ns(o0, state["mask"])

    def splice():
        state["spliced"] = module._splice_powers(state["ns"], base, lo, hi)

    def log():
        state["ws"] = module._weights(*state["spliced"])

    stages = [("wheel", wheel),
              ("small", lambda: module._cross_slices(state["mask"], small, lo, o0)),
              ("large", lambda: module._cross_large(state["mask"], large, lo, o0)),
              ("nonzero", nonzero), ("splice", splice), ("log", log)]
    times = {name: clock(stage, reps) for name, stage in stages}
    rounds = len(large) >= module.ROUND_PRIMES
    # Digests, so that the stages' arrays are gone before lambda_segment
    # makes its own and the round's peak RSS stays that of its sweeps.
    got = [hashlib.sha256(v).digest() for v in (state["spliced"][0], state["ws"])]
    state.clear()
    if got != [hashlib.sha256(v).digest()
               for v in module.lambda_segment(module.Segment(lo, hi), base)]:
        raise AssertionError(f"the sieve's stages differ from lambda_segment on ({lo}, {hi}]")
    return times, rounds


def one_round() -> dict:
    """The timings of this process's tree, the segment sizes timed and the
    process's peak RSS in MB."""
    from psimoment import moment_integral_fixed, moment_integral_scaled, moment_sum, sweep
    from psimoment.sieve import MangoldtSieve

    fn = sweep.load_kernel()
    if not fn:
        sys.exit("the compiled kernel did not build, load or pass its check")

    class Stored:  # hands back one sieve call's arrays: the sweep without the sieve
        def __init__(self, arrays):
            self.arrays = arrays

        def events(self, lo, hi):
            return self.arrays

    out, sizes, large = {}, {}, {}
    for mode, X, p in SEGMENTS:
        size = sweep.default_segment_size(mode, X, p)
        task = [t for t in sweep.tasks(mode, X, p, (2, 4, 6), size) if t[1] - t[0] == size][-1]
        sieve = MangoldtSieve()
        span = sweep.sieve_range(*task[:4])
        arrays = sieve.events(*span)  # warm: base primes built, pages touched once
        ws = sweep.Workspace(Stored(arrays))
        sweep.sweep_segment(ws, task)
        events = sweep.window_events(*task[:4], ws.sieve)
        key = f"{mode.split('-')[0]}@{X:.0e}"
        sizes[key] = size
        out[key + ".sieve_s"] = clock(lambda: sieve.events(*span), 5)
        stages, rounds = sieve_stages(sieve, *span)
        out.update({f"{key}.stage.{name}_s": t for name, t in stages.items()})
        large[key] = "rounds" if rounds else "slices"
        out[key + ".sweep_s"] = clock(lambda: sweep.sweep_segment(ws, task), 5)
        out[key + ".body_s"] = clock(
            lambda: sweep._sweep_kernel(fn, events, task, ws.buffers(), sweep.BLOCK), 5)
    for mode, X, p, log2s in RANGES:
        delta, beta = sweep.WINDOWS[mode][1](X, p)[2:]
        for n in log2s:
            ws = sweep.Workspace(MangoldtSieve())
            sweep.sweep_segment(ws, (X / 2, X / 2 + 1000, delta, beta, (2, 4, 6)))  # warm
            run = [(float(a), float(a + (1 << n)), delta, beta, (2, 4, 6))
                   for a in range(X - RANGE, X, 1 << n)]
            out[f"range.{mode.split('-')[0]}@{X:.0e}.2^{n}_s"] = clock(
                lambda: [sweep.sweep_segment(ws, task) for task in run])
    for name, f in [("fixed-sum", lambda: moment_sum(10**8, 10**5, [2, 4, 6])),
                    ("fixed-integral", lambda: moment_integral_fixed(1e8, 1e5, [2, 4, 6])),
                    ("scaled-integral", lambda: moment_integral_scaled(1e8, 1e-4, [2, 4, 6]))]:
        out[f"e2e.{name}@1e8_s"] = clock(f)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"times": out, "sizes": sizes, "large": large, "maxrss_mb": round(peak, 2)}


def iqr(xs) -> float:
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def describe(tree: str) -> str:
    """The tree's commit, as git describes it."""
    return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True).stdout.strip() or "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("number", nargs="?", help="write BENCH_<number>.json")
    parser.add_argument("--runs", type=int, default=11, help="rounds per side (default 11)")
    parser.add_argument("--against", metavar="TREE",
                        help="time TREE (a checkout of the parent commit, from e5848ca "
                        "on) against this tree (required)")
    parser.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.round:
        print(json.dumps(one_round()))
        return
    if not args.number or not args.against or args.runs < 2:
        parser.error("give the BENCH file's number, --against TREE and at least 2 runs")
    # side -> the tree whose src it imports
    sides = {"parent": os.path.abspath(args.against), "change": ROOT}
    rounds = {side: [] for side in sides}
    for i in range(args.runs):
        for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
            env = dict(os.environ, PYTHONPATH=os.path.join(sides[side], "src"))
            done = subprocess.run([sys.executable, os.path.abspath(__file__), "--round"],
                                  env=env, capture_output=True, text=True, check=True)
            rounds[side].append(json.loads(done.stdout))
    med = {side: {k: statistics.median(r["times"][k] for r in rs) for k in rs[0]["times"]}
           for side, rs in rounds.items()}
    spread = {side: {k: iqr([r["times"][k] for r in rs]) for k in rs[0]["times"]}
              for side, rs in rounds.items()}
    sizes = {side: rs[0]["sizes"] for side, rs in rounds.items()}
    ratio = {}
    for k in med["change"].keys() & med["parent"].keys():
        segment = k.rsplit(".", 1)[0]
        per = sizes["parent"].get(segment, 1) / sizes["change"].get(segment, 1)
        ratio[k] = med["change"][k] / med["parent"][k] * per
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   capture_output=True, text=True).stdout.strip()
    report = {
        "machine": f"{os.cpu_count()} vCPU, Python {sys.version.split()[0]}, numpy {numpy_version}",
        "command": f"python3 tools/bench_layers.py {args.number} --runs {args.runs} "
                   "--against <parent tree>",
        "commit": describe(ROOT), "parent": describe(sides["parent"]), "runs_each": args.runs,
        "median_s": med, "iqr_s": spread, "segment_size": sizes,
        "sieve_large": {side: rs[0]["large"] for side, rs in rounds.items()},
        "maxrss_mb": {side: [r["maxrss_mb"] for r in rs] for side, rs in rounds.items()},
        "ratio_change_over_parent": ratio,
    }
    with open(os.path.join(ROOT, f"BENCH_{args.number}.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
