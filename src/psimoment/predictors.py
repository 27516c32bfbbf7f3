"""Asymptotic main terms for the short-interval moments.

All predictors reduce to the incomplete integral int_0^T t^m e^t dt, which
has a stable forward recurrence.  The two normalization constants are
derived from Euler's constant at import time; they are never hardcoded
separately, so the identity log_offset == -log(norm_scale) holds by
construction.  Logs are natural throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import QuadratureError
from .sweep import check_ks

EULER_GAMMA = 0.57721566490153286061


@dataclass(frozen=True)
class Constants:
    euler_gamma: float
    norm_scale: float  # 2*pi*e^(gamma-1); the scale inside log(x/scale)
    log_offset: float  # 1 - gamma - log(2*pi); equals -log(norm_scale)


CONSTANTS = Constants(
    euler_gamma=EULER_GAMMA,
    norm_scale=2.0 * math.pi * math.exp(EULER_GAMMA - 1.0),
    log_offset=1.0 - EULER_GAMMA - math.log(2.0 * math.pi),
)


def gaussian_moment(k: int) -> float:
    """k-th central moment of the standard normal: (k-1)!! for even k, 0 odd."""
    check_ks([k])
    if k % 2:
        return 0.0
    v = 1.0
    for j in range(3, k, 2):
        v *= j
    return v


def poly_exp_integral(T: float, m: int) -> float:
    """int_0^T t^m e^t dt by the recurrence I_m = T^m e^T - m I_{m-1}.

    Valid for negative T as well (signed orientation).
    """
    if not 0 <= m <= 8:
        raise ValueError(f"polynomial degree must be in [0, 8], got {m}")
    eT = math.exp(T)
    v = eT - 1.0
    for j in range(1, m + 1):
        v = T**j * eT - j * v
    return v


def fixed_main_term(X: float, h: float, k: int) -> float:
    """Main term for the fixed-window moment integral at window length h.

    Equals gaussian_moment(k) * h^(k/2+1) * int over [norm_scale, X/h] of
    log(x/norm_scale)^(k/2) dx, evaluated in closed form.
    """
    check_ks([k])
    if X <= 0 or h <= 0:
        raise ValueError("X and h must be positive")
    ratio = X / h
    if ratio < CONSTANTS.norm_scale:
        raise ValueError(
            f"X/h = {ratio:g} is below the scale constant "
            f"{CONSTANTS.norm_scale:g}; the main-term integral is empty"
        )
    if k % 2:
        return 0.0
    T = math.log(ratio / CONSTANTS.norm_scale)
    return (
        gaussian_moment(k)
        * h ** (k / 2 + 1)
        * CONSTANTS.norm_scale
        * poly_exp_integral(T, k // 2)
    )


def scaled_main_term(X: float, delta: float, k: int) -> float:
    """Main term for the proportional-window moment integral at ratio delta."""
    check_ks([k])
    if X <= 0 or delta <= 0:
        raise ValueError("X and delta must be positive")
    if delta >= 1.0 / CONSTANTS.norm_scale:
        raise ValueError(
            f"delta = {delta:g} must be below 1/{CONSTANTS.norm_scale:g} "
            "for the log factor to be positive"
        )
    if k % 2:
        return 0.0
    half = k // 2
    return (
        gaussian_moment(k)
        / (half + 1)
        * X ** (half + 1)
        * delta**half
        * math.log(1.0 / (CONSTANTS.norm_scale * delta)) ** half
    )


def fixed_main_term_from_one(N: float, h: float, k: int) -> float:
    """Fixed-window main term integrated from x = 1 with the log-offset form.

    Equals gaussian_moment(k) * h^(k/2) * int over [1, N] of
    (log(x/h) + log_offset)^(k/2) dx; the integrand is a signed integer
    power, so the lower tail below x = norm_scale*h contributes with sign.
    """
    check_ks([k])
    if N < 1 or h < 1:
        raise ValueError("N and h must be >= 1")
    if k % 2:
        return 0.0
    half = k // 2
    scale = CONSTANTS.norm_scale * h
    upper = poly_exp_integral(math.log(N / scale), half)
    lower = poly_exp_integral(-math.log(scale), half)
    return gaussian_moment(k) * h**half * scale * (upper - lower)


def cramer_variance(N: float, h: float) -> tuple[float, float]:
    """(short-interval variance h*log(N/h), Cramer-model variance h*log N)."""
    if not 1 <= h <= N:
        raise ValueError("need 1 <= h <= N")
    return (h * math.log(N / h), h * math.log(N))


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 50,
) -> float:
    """Adaptive Simpson quadrature with relative tolerance tol.

    Signed orientation: a > b integrates backwards.  Raises QuadratureError
    if the depth limit is reached before the tolerance is met.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, max_depth)

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    # Tolerances scale to a first global magnitude estimate.
    fa, fm, fb = f(a), f((a + b) / 2.0), f(b)
    whole = simpson(a, b, fa, fm, fb)
    scale = max(abs(whole), 1e-300)

    def recurse(lo, hi, flo, fhi, fmid, approx, eps, depth):
        mid = (lo + hi) / 2.0
        lm, rm = (lo + mid) / 2.0, (mid + hi) / 2.0
        flm, frm = f(lm), f(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        err = left + right - approx
        if abs(err) <= 15.0 * eps:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise QuadratureError(
                f"quadrature did not converge on [{lo:g}, {hi:g}] "
                f"after depth {max_depth}"
            )
        return recurse(lo, mid, flo, fmid, flm, left, eps / 2.0, depth + 1) + recurse(
            mid, hi, fmid, fhi, frm, right, eps / 2.0, depth + 1
        )

    return recurse(a, b, fa, fb, fm, whole, tol * scale, 0)
