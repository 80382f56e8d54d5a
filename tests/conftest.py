"""Shared fixtures."""

import sys

import mpmath
import pytest


@pytest.fixture
def clear_caches():
    """A function that empties every memo of the package, as a fresh process has them."""

    def clear():
        for name, mod in list(sys.modules.items()):
            if name.startswith("sphereheat."):
                for obj in list(vars(mod).values()):
                    if hasattr(obj, "cache_clear"):
                        obj.cache_clear()

    return clear


@pytest.fixture
def sum_300_digits():
    """The exp-sum  sum w m^j exp(-c t/N)  over (j, c) -> w, taken at 300 digits
    (or ``dps``) from its own m = sqrt(N) exp((t/2)(1/N - 1)) and exp(-t/N), one
    power of each per term."""

    def direct(terms, N, t, dps=300):
        with mpmath.workdps(dps):
            tt = mpmath.mpf(t)
            m = mpmath.sqrt(N) * mpmath.exp(tt / 2 * (mpmath.mpf(1) / N - 1))
            e = mpmath.exp(-tt / N)
            return mpmath.fsum(mpmath.mpf(w.numerator) / w.denominator * m**j * e**c
                               for (j, c), w in terms.items())

    return direct


@pytest.fixture
def within_300_digit_sum(sum_300_digits):
    """Whether |value - sum w m^j exp(-c t/N)| <= bound, the sum over (j, c) -> w
    taken at 300 digits by :func:`sum_300_digits`."""

    def within(terms, N, t, value, bound):
        with mpmath.workdps(300):
            return abs(mpmath.mpf(value) - sum_300_digits(terms, N, t)) <= bound

    return within
