"""tools/bench_layers.py times the sieve's own stages and holds them to its bits.

sieve_stages runs each stage of lambda_segment by the sieve module's
function for it and raises where the stages' output differs from
lambda_segment's; here on a range with the wheel primes, n = 1, 2 and the
higher powers, on a 1e8 segment whose few large base primes take a slice
each, and on a 1e10 range whose many take the rounds.
"""

import importlib.util
from pathlib import Path

import pytest

from psimoment import MangoldtSieve

TOOL = Path(__file__).parent.parent / "tools" / "bench_layers.py"
STAGES = ["wheel", "small", "large", "nonzero", "splice", "log"]


@pytest.fixture(scope="module")
def bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("lo, hi, rounds", [
    (0, 10**5, False),
    (10**8 - (1 << 21), 10**8, False),
    (10**10, 10**10 + (1 << 22), True),
])
def test_sieve_stages_match_lambda_segment(bench_layers, lo, hi, rounds):
    times, took_rounds = bench_layers.sieve_stages(MangoldtSieve(), lo, hi, reps=1)
    assert list(times) == STAGES and all(t >= 0 for t in times.values())
    assert took_rounds is rounds
