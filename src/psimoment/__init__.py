"""Moments of prime counts in short intervals.

The names exported here are the library API that README's Library section
documents: the three moment computations, the asymptotic main terms and the
sieve.  The modules behind them:

* :mod:`psimoment.sieve` - segmented prime-power sieve and summatory sums
* :mod:`psimoment.sweep` - the piece sweep and mode windows behind every moment
* :mod:`psimoment.fixed` - fixed-length window moments (sum and integral)
* :mod:`psimoment.scaled` - proportional-window moment integrals
* :mod:`psimoment.predictors` - asymptotic main terms and constants
* :mod:`psimoment.report` - CSV/JSON reports
* :mod:`psimoment.cli` - the ``psimoment`` command
"""

__version__ = "0.1.0"

from .fixed import moment_integral_fixed, moment_sum
from .predictors import (
    CONSTANTS,
    cramer_variance,
    fixed_main_term,
    fixed_main_term_from_one,
    gaussian_moment,
    poly_exp_integral,
    scaled_main_term,
)
from .scaled import moment_integral_scaled
from .sieve import MangoldtSieve, prime_count

__all__ = [
    "__version__",
    "moment_sum",
    "moment_integral_fixed",
    "moment_integral_scaled",
    "CONSTANTS",
    "gaussian_moment",
    "poly_exp_integral",
    "fixed_main_term",
    "scaled_main_term",
    "fixed_main_term_from_one",
    "cramer_variance",
    "MangoldtSieve",
    "prime_count",
]
