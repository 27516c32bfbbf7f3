"""The benchmark's four workloads: inputs from a seed, the timed calls, the gate.

Each workload's ``run`` makes its calls into psimoment's public API and
checks what comes back.  It returns an Outcome: calls attempted, calls that
missed the gate, a key that is equal exactly when two runs returned the same
bits, and the checkpoint size for the trace.  A call that raises fails the whole
operation; the driver counts that.

The moment workloads are the paper's fixed tables, so their inputs do not
depend on the seed; the seed picks the sieve workload's ranges and the
numbers it samples for the primality check.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KS = (2, 4, 6)
# Oracle checks in tests/test_acceptance.py hold moments to 1e-9 relative.
REL_TOL = 1e-9
# Published scaled-integral moments at X=1e8, delta=1e-4 (the paper's table).
SCALED_1E8_ACTUAL = {2: 4.0075e12, 4: 6.5161e17, 6: 1.9592e23}
PUBLISHED_TOL = 0.01

REFERENCE = {
    name: {int(k): float.fromhex(v) for k, v in moments.items()}
    for name, moments in json.loads(
        (Path(__file__).with_name("reference.json")).read_text()
    )["moments"].items()
}


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    key: object = None
    checkpoint_bytes: int = 0
    notes: list = field(default_factory=list)


def _gate(name, got, out: Outcome):
    """Count a failed call unless got matches the seed-commit reference."""
    want = REFERENCE[name]
    bad = [k for k in KS
           if not abs(got[k] - want[k]) <= REL_TOL * abs(want[k])]
    if bad:
        out.failed += 1
        out.notes.append(f"{name}: k={bad} off the reference by more than {REL_TOL:g}")


class Workload:
    name: str
    threads: int  # worker processes of the end-to-end run
    calls: int  # public calls per operation

    def prepare(self, pm, inputs):
        """Untimed set-up for one operation."""
        return None


class ScaledCli(Workload):
    """psimoment scaled --x 1e8 --delta 1e-4 --k 2,4,6, CSV to a temp file."""

    name = "scaled-1e8"
    threads = 2
    calls = 1

    def inputs(self, seed):
        return {"x": "1e8", "delta": "1e-4"}

    def base_limit(self, inputs):
        return math.isqrt(math.ceil(float(inputs["x"]) * (1 + float(inputs["delta"]))) + 1)

    def run(self, pm, inputs, threads, tmp, prepared):
        path = os.path.join(tmp, "scaled.csv")
        code = pm.cli.main([
            "scaled", "--x", inputs["x"], "--delta", inputs["delta"],
            "--k", ",".join(map(str, KS)), "--threads", str(threads),
            "--out", path,
        ])
        out = Outcome(attempted=1)
        if code != 0:
            out.failed = 1
            out.notes.append(f"cli exit code {code}")
            return out
        with open(path, newline="") as fh:
            rows = {int(r["k"]): r for r in csv.DictReader(fh)}
        got = {k: float(rows[k]["actual"]) for k in KS}
        _gate(self.name, got, out)
        off = [k for k, want in SCALED_1E8_ACTUAL.items()
               if not abs(got[k] - want) <= PUBLISHED_TOL * want]
        if off and not out.failed:
            out.failed = 1
            out.notes.append(f"k={off} off the published table by more than 1%")
        out.key = tuple(got[k].hex() for k in KS)
        out.notes.append("actual/predicted: " + ", ".join(
            f"k={k} {float(rows[k]['ratio']):.6f}" for k in KS))
        return out


class FixedSum(Workload):
    """moment_sum(2e7, 1e5) with a fresh checkpoint, then a resume from it."""

    name = "fixed-sum-2e7"
    threads = 2
    calls = 2

    def inputs(self, seed):
        return {"x": 2 * 10**7, "h": 10**5}

    def base_limit(self, inputs):
        return math.isqrt(inputs["x"] + inputs["h"])

    def run(self, pm, inputs, threads, tmp, prepared):
        path = os.path.join(tmp, "fixed-sum.ckpt")
        args = (inputs["x"], inputs["h"], KS)
        got = pm.moment_sum(*args, threads=threads, checkpoint=path)
        again = pm.moment_sum(*args, threads=threads, checkpoint=path, resume=True)
        out = Outcome(attempted=2, key=tuple(got[k].hex() for k in KS),
                      checkpoint_bytes=os.path.getsize(path))
        _gate(self.name, got, out)
        if any(again[k].hex() != got[k].hex() for k in KS):
            out.failed += 1
            out.notes.append("resume from the completed checkpoint changed the bits")
        return out


class FixedIntegral(Workload):
    """moment_integral_fixed(1e8, 1e5) in one process."""

    name = "fixed-integral-1e8"
    threads = 1
    calls = 1

    def inputs(self, seed):
        return {"x": 1e8, "h": 1e5}

    def base_limit(self, inputs):
        return math.isqrt(int(inputs["x"] + inputs["h"]) + 1)

    def run(self, pm, inputs, threads, tmp, prepared):
        got = pm.moment_integral_fixed(inputs["x"], inputs["h"], KS, threads=threads)
        out = Outcome(attempted=1, key=tuple(got[k].hex() for k in KS))
        _gate(self.name, got, out)
        return out


# Miller-Rabin with the first j of these bases is deterministic below
# _MR_LIMITS[j]: 5 bases below 2.15e12, 7 below 3.4e14, all 12 below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMITS = ((5, 2_152_302_898_747), (7, 341_550_071_728_321), (12, 3 * 10**24))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = next(_MR_BASES[:j] for j, limit in _MR_LIMITS if n < limit)
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_base(n: int) -> int | None:
    """p when n = p^m for a prime p and m >= 1, else None."""
    for p in _MR_BASES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    if is_prime(n):
        return n
    # Any p^m with m >= 2 is a perfect q-th power for each prime q dividing m.
    for q in _MR_BASES:
        if 41**q > n:
            break
        r = round(n ** (1.0 / q))
        for c in (r - 1, r, r + 1):
            if c > 1 and c**q == n:
                return prime_power_base(c)
    return None


class SieveRanges(Workload):
    """MangoldtSieve.events over 64 consecutive 2^22 ranges near 1e10."""

    name = "sieve-1e10"
    threads = 1
    ranges = 64
    width = 1 << 22
    returned_samples = 12  # per range
    absent_samples = 128  # per range; cheap, and catches a sieve that drops a few n
    calls = ranges

    def inputs(self, seed):
        rng = random.Random(seed)
        lo = 10**10 + rng.randrange(1 << 28)
        return {"lo": lo, "seed": seed}

    def base_limit(self, inputs):
        return math.isqrt(inputs["lo"] + self.ranges * self.width)

    def prepare(self, pm, inputs):
        sieve = pm.MangoldtSieve()
        sieve.base_primes(self.base_limit(inputs))
        return sieve

    def run(self, pm, inputs, threads, tmp, sieve):
        rng = random.Random(inputs["seed"])
        out = Outcome(attempted=self.ranges)
        count = ns_total = 0
        ws_total = 0.0
        for i in range(self.ranges):
            a = inputs["lo"] + i * self.width
            b = a + self.width
            ns, ws = sieve.events(a, b)
            problem = self._check(ns, ws, a, b, rng)
            if problem:
                out.failed += 1
                out.notes.append(f"({a}, {b}]: {problem}")
            count += len(ns)
            ns_total += int(ns.sum())
            ws_total += float(ws.sum())
        out.key = (count, ns_total, ws_total.hex())
        return out

    def _check(self, ns, ws, a, b, rng):
        if len(ns) != len(ws) or not len(ns):
            return "length mismatch or empty"
        if ns[0] <= a or ns[-1] > b or np.any(np.diff(ns) <= 0):
            return "n not strictly increasing inside the range"
        for j in rng.sample(range(len(ns)), self.returned_samples):
            n, w = int(ns[j]), float(ws[j])
            p = prime_power_base(n)
            if p is None:
                return f"returned {n} is not a prime power"
            if abs(w - math.log(p)) > math.ulp(math.log(p)):
                return f"weight of {n} is {w!r}, not log {p}"
        picks = np.array(rng.sample(range(a + 1, b + 1), self.absent_samples))
        at = np.minimum(np.searchsorted(ns, picks), len(ns) - 1)
        for n in picks[ns[at] != picks].tolist():
            if prime_power_base(n) is not None:
                return f"prime power {n} missing"
        return None


WORKLOADS = {w.name: w for w in (ScaledCli(), FixedSum(), FixedIntegral(), SieveRanges())}
