"""Set-up cost of one workload, measured in a fresh process.

Times ``import psimoment`` and then building the base primes the workload's
sieve needs, and prints both as one JSON line.  The workload module is
imported only after psimoment, so the psimoment import starts cold.
"""

import json
import sys
import time

t0 = time.perf_counter()
import psimoment  # noqa: E402

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

wl = WORKLOADS[sys.argv[1]]
limit = wl.base_limit(wl.inputs(int(sys.argv[2])))
t2 = time.perf_counter()
psimoment.MangoldtSieve().base_primes(limit)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "base_primes_s": t3 - t2}))
