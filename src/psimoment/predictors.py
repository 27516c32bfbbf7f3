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

from .sweep import check_finite, check_ks

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
    return 0.0 if k % 2 else float(math.prod(range(3, k, 2)))


def poly_exp_integral(T: float, m: int) -> float:
    """int_0^T t^m e^t dt by the recurrence I_m = T^m e^T - m I_{m-1}.

    Valid for negative T as well (signed orientation).
    """
    check_finite(T=T)
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
    check_finite(X=X, h=h)
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
    check_finite(X=X, delta=delta)
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
    check_finite(N=N, h=h)
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
    check_finite(N=N, h=h)
    if not 1 <= h <= N:
        raise ValueError("need 1 <= h <= N")
    return (h * math.log(N / h), h * math.log(N))
