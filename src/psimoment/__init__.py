"""Moments of prime counts in short intervals.

Library surface:

* :mod:`psimoment.sieve` - segmented prime-power sieve and summatory sums
* :mod:`psimoment.sweep` - the piece sweep shared by every moment mode
* :mod:`psimoment.fixed` - fixed-length window moments (sum and integral)
* :mod:`psimoment.scaled` - proportional-window moment integrals
* :mod:`psimoment.predictors` - asymptotic main terms and constants
* :mod:`psimoment.report` - CSV/JSON reports
* :mod:`psimoment.cli` - the ``psimoment`` command
"""

__version__ = "0.1.0"

from .accum import NeumaierSum
from .fixed import moment_integral_fixed, moment_sum, partition_plan
from .predictors import (
    CONSTANTS,
    adaptive_simpson,
    cramer_variance,
    fixed_main_term,
    fixed_main_term_from_one,
    gaussian_moment,
    poly_exp_integral,
    scaled_main_term,
)
from .scaled import (
    initial_window_sum,
    merged_event_stream,
    moment_integral_scaled,
    scaled_partition_plan,
)
from .sieve import (
    BasePrimes,
    LambdaEvent,
    MangoldtSieve,
    Segment,
    ZeroMangoldt,
    lambda_events,
    lambda_segment,
    prime_count,
    small_primes,
)

__all__ = [
    "__version__",
    "NeumaierSum",
    "moment_sum",
    "moment_integral_fixed",
    "partition_plan",
    "moment_integral_scaled",
    "merged_event_stream",
    "initial_window_sum",
    "scaled_partition_plan",
    "CONSTANTS",
    "gaussian_moment",
    "poly_exp_integral",
    "fixed_main_term",
    "scaled_main_term",
    "fixed_main_term_from_one",
    "cramer_variance",
    "adaptive_simpson",
    "BasePrimes",
    "Segment",
    "LambdaEvent",
    "MangoldtSieve",
    "ZeroMangoldt",
    "small_primes",
    "lambda_segment",
    "lambda_events",
    "prime_count",
]
