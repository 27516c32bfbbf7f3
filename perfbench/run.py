"""psimoment benchmark: one run of one workload.

    python3 perfbench/run.py --workload scaled-1e8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src, so no
install is needed.  Workloads (see workloads.py and BENCHMARK.json):
scaled-1e8, fixed-sum-2e7, fixed-integral-1e8, sieve-1e10.

With --trace 0 it prints the end-to-end metrics: wall_s and cpu_s (medians
over the operations repeated for --seconds), setup_s (median over fresh
processes, started between operations, that import psimoment and build the
workload's base primes) and peak_rss_mb (largest resident set of any process
in the run, workers included).  With --trace 1 it prints the per-layer metrics of a traced
1-worker run, which does a fixed amount of work and ignores --seconds.  The last line of stdout is the result as JSON:
{"correct", "attempted", "failed", "metrics"}.

This process only starts the driver and reads its output; everything that
imports psimoment runs in a fresh child, so the children's resource usage is
the run's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def run_child(argv, env, timeout):
    """Run a child in its own process group; its last stdout line as JSON."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{argv[1]} ran past the deadline")
    finally:
        # Kill any worker the child left running in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{argv[1]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "psimoment" / "__init__.py").is_file():
        print(f"error: no psimoment package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    try:
        run = run_child([sys.executable, str(HERE / "driver.py"),
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)],
                        env, DEADLINE_S - (time.monotonic() - start))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for note in run["notes"]:
        print(f"{args.workload}: {note}")
    probes = run["probes"]
    setup = [p["import_s"] + p["base_primes_s"] for p in probes]
    if args.trace:
        metrics = dict(run["layers"])
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["setup.base_primes_s"] = statistics.median(p["base_primes_s"] for p in probes)
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in units}
    else:
        values = {
            "wall_s": statistics.median(run["wall_s"]),
            "cpu_s": statistics.median(run["cpu_s"]),
            "setup_s": statistics.median(setup),
            # Linux reports ru_maxrss in KiB; children include grandchildren.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"{args.workload}: {len(run['wall_s'])} operations, wall_s "
              + " ".join(f"{w:.3f}" for w in run["wall_s"]))
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
