import math

import pytest
from hypothesis import given, strategies as st

from psimoment import (
    CONSTANTS,
    cramer_variance,
    fixed_main_term,
    fixed_main_term_from_one,
    gaussian_moment,
    poly_exp_integral,
    scaled_main_term,
)

from oracles import QuadratureError, adaptive_simpson


def test_constants_identity():
    assert abs(CONSTANTS.log_offset + math.log(CONSTANTS.norm_scale)) < 1e-14
    assert CONSTANTS.norm_scale == pytest.approx(4.11687, abs=1e-5)
    assert CONSTANTS.log_offset == pytest.approx(-1.41509, abs=1e-5)


def test_gaussian_moment_values():
    assert gaussian_moment(2) == 1.0
    assert gaussian_moment(3) == 0.0
    assert gaussian_moment(4) == 3.0
    assert gaussian_moment(6) == 15.0


@pytest.mark.parametrize("k", range(4, 17, 2))
def test_gaussian_moment_recurrence(k):
    assert gaussian_moment(k) == (k - 1) * gaussian_moment(k - 2)


def test_gaussian_moment_domain():
    with pytest.raises(ValueError):
        gaussian_moment(0)
    with pytest.raises(ValueError):
        gaussian_moment(17)


@pytest.mark.parametrize("call", [
    lambda: fixed_main_term(math.nan, 1e5, 3),
    lambda: fixed_main_term(1e8, math.inf, 2),
    lambda: scaled_main_term(math.nan, 1e-4, 3),
    lambda: scaled_main_term(math.inf, 1e-4, 2),
    lambda: fixed_main_term_from_one(math.nan, 1e5, 2),
    lambda: poly_exp_integral(math.nan, 2),
    lambda: poly_exp_integral(-math.inf, 2),
    lambda: cramer_variance(math.inf, 1e5),
], ids=["fixed", "fixed-h", "scaled", "scaled-X", "from-one", "poly-exp",
        "poly-exp-inf", "cramer"])
def test_predictors_reject_non_finite(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


def test_poly_exp_integral_trivial():
    assert poly_exp_integral(1.0, 0) == pytest.approx(math.e - 1, rel=1e-15)
    assert poly_exp_integral(1.0, 1) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("T,m", [(2.5, 3), (-1.5, 2), (0.3, 5), (7.0, 8), (-4.0, 4)])
def test_poly_exp_integral_vs_quadrature(T, m):
    quad = adaptive_simpson(lambda t: t**m * math.exp(t), 0.0, T, 1e-12)
    assert poly_exp_integral(T, m) == pytest.approx(quad, rel=1e-10)


def test_fixed_main_term_paper_table():
    # X = 1e10, h = 1e5; published to five significant figures.
    assert fixed_main_term(1e10, 1e5, 2) == pytest.approx(9.0978e15, rel=1e-3)
    assert fixed_main_term(1e10, 1e5, 4) == pytest.approx(2.5131e22, rel=1e-3)
    assert fixed_main_term(1e10, 1e5, 6) == pytest.approx(1.1675e29, rel=1e-3)


def test_fixed_main_term_zero_length_domain():
    X = CONSTANTS.norm_scale * 100.0
    assert fixed_main_term(X, 100.0, 2) == 0.0
    with pytest.raises(ValueError):
        fixed_main_term(X * 0.99, 100.0, 2)


def test_fixed_main_term_vs_quadrature():
    X, h, k = 1e6, 100.0, 4
    scale = CONSTANTS.norm_scale

    def integrand(x):
        return math.log(x / scale) ** (k // 2)

    quad = gaussian_moment(k) * h ** (k / 2 + 1) * adaptive_simpson(
        integrand, scale, X / h, 1e-12
    )
    assert fixed_main_term(X, h, k) == pytest.approx(quad, rel=1e-10)


def test_scaled_main_term_paper_tables():
    assert scaled_main_term(1e8, 1e-4, 2) == pytest.approx(3.8976e12, rel=1e-3)
    assert scaled_main_term(1e8, 1e-4, 4) == pytest.approx(6.0766e17, rel=1e-3)
    assert scaled_main_term(1e8, 1e-4, 6) == pytest.approx(1.7763e23, rel=1e-3)
    assert scaled_main_term(1e10, 1e-5, 2) == pytest.approx(5.0485e15, rel=1e-3)
    assert scaled_main_term(1e10, 1e-5, 4) == pytest.approx(1.0195e22, rel=1e-3)
    assert scaled_main_term(1e10, 1e-5, 6) == pytest.approx(3.8602e28, rel=1e-3)


def test_scaled_main_term_odd_k_zero():
    assert scaled_main_term(1e8, 1e-4, 3) == 0.0


def test_fixed_main_terms_odd_k_zero():
    assert fixed_main_term(1e10, 1e5, 3) == 0.0
    assert fixed_main_term_from_one(1e10, 1e5, 5) == 0.0


@pytest.mark.parametrize("call,message", [
    (lambda: poly_exp_integral(1.0, 9), "polynomial degree"),
    (lambda: fixed_main_term(1e8, 0.0, 2), "must be positive"),
    (lambda: scaled_main_term(-1.0, 1e-4, 2), "must be positive"),
    (lambda: fixed_main_term_from_one(1e8, 0.5, 2), "must be >= 1"),
    (lambda: cramer_variance(10.0, 20.0), "need 1 <= h <= N"),
], ids=["poly-exp", "fixed", "scaled", "from-one", "cramer"])
def test_predictors_domain_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_scaled_main_term_domain():
    with pytest.raises(ValueError):
        scaled_main_term(1e8, 1.0 / CONSTANTS.norm_scale, 2)


def test_from_one_agrees_with_main_form():
    # The two fixed-window forms differ only by the lower tail.
    for k in (2, 4, 6):
        for N, h in [(1e10, 1e5), (1e8, 1e3), (1e7, 1e3)]:
            a = fixed_main_term(N, h, k)
            b = fixed_main_term_from_one(N, h, k)
            assert b == pytest.approx(a, rel=0.01)


def test_from_one_sign_below_scale():
    h = 1e3
    N = CONSTANTS.norm_scale * h  # integrate only over the negative tail
    assert fixed_main_term_from_one(N, h, 2) < 0


def test_from_one_vs_quadrature():
    N, h, k = 1e5, 50.0, 2

    def integrand(x):
        return (math.log(x / h) + CONSTANTS.log_offset) ** (k // 2)

    quad = gaussian_moment(k) * h ** (k // 2) * adaptive_simpson(
        integrand, 1.0, N, 1e-12
    )
    assert fixed_main_term_from_one(N, h, k) == pytest.approx(quad, rel=1e-10)


def test_even_power_nonnegative():
    assert fixed_main_term_from_one(100.0, 10.0, 4) >= 0


def test_cramer_variance():
    short, cramer = cramer_variance(1e10, 1e5)
    assert short == pytest.approx(1e5 * math.log(1e5), rel=1e-12)
    assert cramer == pytest.approx(1e5 * math.log(1e10), rel=1e-12)
    assert short == pytest.approx(1.1513e6, rel=1e-4)
    assert cramer == pytest.approx(2.3026e6, rel=1e-4)


def test_cramer_variance_h_equals_n():
    short, cramer = cramer_variance(1e6, 1e6)
    assert short == 0.0
    assert cramer == pytest.approx(1e6 * math.log(1e6), rel=1e-12)


@given(st.floats(1e2, 1e12), st.floats(1.0, 1e6))
def test_cramer_ratio_identity(N, h):
    if h > N:
        N, h = h, N
    short, cramer = cramer_variance(N, h)
    assert short / cramer == pytest.approx(1 - math.log(h) / math.log(N), rel=1e-9)


def test_quadrature_trivials():
    assert adaptive_simpson(lambda t: t, 0, 1, 1e-12) == pytest.approx(0.5, abs=1e-13)
    assert adaptive_simpson(lambda t: math.exp(t), 0, -1, 1e-12) == pytest.approx(
        math.exp(-1) - 1, rel=1e-10
    )


def test_quadrature_log_integral():
    scale = CONSTANTS.norm_scale
    quad = adaptive_simpson(lambda x: math.log(x / scale), scale, 10.0, 1e-10)
    closed = scale * poly_exp_integral(math.log(10.0 / scale), 1)
    assert quad == pytest.approx(closed, rel=1e-10)


def test_quadrature_nonconvergence():
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda t: abs(t - math.pi / 7) ** -0.9, 0, 1,
                         1e-14, max_depth=8)
