"""Acceptance suite: one pass/fail line per criterion, tolerances pinned.

The two published-table "extended" reproductions at X = 1e10 take about a
minute each on 2 CPUs and only run when PSIMOMENT_EXTENDED=1 is set.
"""

import math
import os

import numpy as np
import pytest

from psimoment import (
    CONSTANTS,
    MangoldtSieve,
    fixed_main_term,
    gaussian_moment,
    moment_integral_scaled,
    moment_sum,
    poly_exp_integral,
    scaled_main_term,
)
from psimoment.sweep import window_events

import oracles
from oracles import adaptive_simpson, merge_runs

extended = pytest.mark.skipif(
    not os.environ.get("PSIMOMENT_EXTENDED"),
    reason="1e10 table reproduction (~1 min on 2 CPUs); set PSIMOMENT_EXTENDED=1",
)


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


FIXED_TABLE = {2: 9.0978e15, 4: 2.5131e22, 6: 1.1675e29}       # X=1e10, h=1e5
SCALED_1E8_FORMULA = {2: 3.8976e12, 4: 6.0766e17, 6: 1.7763e23}  # X=1e8, d=1e-4
SCALED_1E10_FORMULA = {2: 5.0485e15, 4: 1.0195e22, 6: 3.8602e28}  # X=1e10, d=1e-5
SCALED_1E8_ACTUAL = {2: 4.0075e12, 4: 6.5161e17, 6: 1.9592e23}
FIXED_1E10_ACTUAL = {2: 9.0663e15, 4: 2.4995e22, 6: 1.1573e29}
SCALED_1E10_ACTUAL = {2: 5.0527e15, 4: 1.0210e22, 6: 3.8645e28}


def test_formula_reproduction():
    for k, want in FIXED_TABLE.items():
        got = fixed_main_term(1e10, 1e5, k)
        check(f"formula fixed k={k}", rel_err(got, want) < 1e-3,
              f"got {got:.5g} want {want:.5g}")
    for k, want in SCALED_1E8_FORMULA.items():
        got = scaled_main_term(1e8, 1e-4, k)
        check(f"formula scaled-1e8 k={k}", rel_err(got, want) < 1e-3,
              f"got {got:.5g} want {want:.5g}")
    for k, want in SCALED_1E10_FORMULA.items():
        got = scaled_main_term(1e10, 1e-5, k)
        check(f"formula scaled-1e10 k={k}", rel_err(got, want) < 1e-3,
              f"got {got:.5g} want {want:.5g}")


@pytest.mark.slow
def test_actual_value_scaled_1e8():
    threads = min(8, os.cpu_count() or 1)
    got = moment_integral_scaled(1e8, 1e-4, [2, 4, 6], threads=threads)
    for k, want in SCALED_1E8_ACTUAL.items():
        check(f"actual scaled-1e8 k={k}", rel_err(got[k], want) < 0.01,
              f"got {got[k]:.5g} want {want:.5g}")


@extended
def test_extended_fixed_sum_1e10():
    threads = min(16, os.cpu_count() or 1)
    got = moment_sum(10**10, 10**5, [2, 4, 6], threads=threads)
    for k, want in FIXED_1E10_ACTUAL.items():
        check(f"extended fixed-sum-1e10 k={k}", rel_err(got[k], want) < 0.01,
              f"got {got[k]:.5g} want {want:.5g}")


@extended
def test_extended_scaled_1e10():
    threads = min(16, os.cpu_count() or 1)
    got = moment_integral_scaled(1e10, 1e-5, [2, 4, 6], threads=threads)
    for k, want in SCALED_1E10_ACTUAL.items():
        check(f"extended scaled-1e10 k={k}", rel_err(got[k], want) < 0.01,
              f"got {got[k]:.5g} want {want:.5g}")


def test_oracle_equivalence_lambda_1e6():
    limit = 10**6
    lam = oracles.lambda_table(limit)
    expected_ns = np.flatnonzero(lam)
    ns, ws = MangoldtSieve().events(0, limit)
    same_locations = np.array_equal(ns, expected_ns)
    within_ulp = bool(np.all(np.abs(ws - lam[ns]) <= np.spacing(ws)))
    check("oracle lambda n<=1e6 locations", same_locations)
    check("oracle lambda n<=1e6 weights 1ulp", within_ulp)


def test_oracle_equivalence_moment_sum():
    X, h = 10**5, 10**3
    expected = oracles.moment_sum_double_loop(X, h, [2, 4, 6])
    got = moment_sum(X, h, [2, 4, 6])
    for k in (2, 4, 6):
        check(f"oracle moment_sum k={k}", rel_err(got[k], expected[k]) < 1e-9,
              f"got {got[k]:.12g} want {expected[k]:.12g}")


def test_oracle_equivalence_scaled_sweep():
    for delta in (0.5, 0.1, 0.01):
        expected = oracles.riemann_scaled_integral(1e4, delta, [2, 4, 6])
        got = moment_integral_scaled(1e4, delta, [2, 4, 6])
        for k in (2, 4, 6):
            check(f"oracle scaled d={delta} k={k}",
                  rel_err(got[k], expected[k]) < 1e-6)


def test_oracle_equivalence_closed_forms():
    cases = [(2.5, 3), (-1.5, 2), (0.3, 5), (7.0, 8)]
    for T, m in cases:
        quad = adaptive_simpson(lambda t: t**m * math.exp(t), 0.0, T, 1e-12)
        check(f"oracle closed form T={T} m={m}",
              rel_err(poly_exp_integral(T, m), quad) < 1e-10)


def test_property_suite():
    check("constant identity",
          abs(CONSTANTS.log_offset + math.log(CONSTANTS.norm_scale)) < 1e-14)

    got = moment_integral_scaled(10**3, 0.1, [2, 4, 6])
    check("even-k nonnegativity", all(got[k] >= 0 for k in (2, 4, 6)))

    recurrence = all(
        gaussian_moment(k) == (k - 1) * gaussian_moment(k - 2)
        for k in range(4, 17, 2)
    )
    check("gaussian moment recurrence", recurrence)

    serial = moment_integral_scaled(10**5, 0.01, [2, 4], threads=1,
                                    segment_size=2**13)
    parallel = moment_integral_scaled(10**5, 0.01, [2, 4], threads=8,
                                      segment_size=2**13)
    check("parallel determinism 1 vs 8", serial == parallel)

    X, delta = 10**4, 0.1
    sieve = MangoldtSieve()
    # The events of x in (1, X]: those below the next float after X.
    _, *runs = window_events(1.0, math.nextafter(X, math.inf), delta, 0.0, sieve)
    _, signed = merge_runs(*runs, delta, 0.0)
    net = math.fsum(signed)
    indep = (sieve.psi((1 + delta) * X) - sieve.psi(1 + delta)
             - (sieve.psi(X) - sieve.psi(1)))
    check("event conservation", abs(net - indep) < 1e-6,
          f"net {net:.9g} independent {indep:.9g}")


def test_property_checkpoint_resume(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    baseline = moment_sum(10**4, 100, [2, 4], segment_size=2**11)
    moment_sum(10**4, 100, [2, 4], segment_size=2**11, checkpoint=path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:3]) + "\n")
    resumed = moment_sum(10**4, 100, [2, 4], segment_size=2**11,
                         checkpoint=path, resume=True)
    check("checkpoint resume exactness", resumed == baseline)
