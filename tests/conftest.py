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
def within_300_digit_sum():
    """Whether |value - sum w exp(-s t/2) exp(q t/(2N)) sqrt(N)^p| <= bound, with the
    sum taken at 300 digits, one exp and power per term."""

    def direct(terms, N, t):
        tt = mpmath.mpf(t)
        return mpmath.fsum(
            mpmath.mpf(w.numerator) / w.denominator
            * mpmath.exp(-s * tt / 2 + mpmath.mpf(q) * tt / (2 * N)) * mpmath.sqrt(N) ** p
            for (s, q, p), w in terms.items())

    def within(terms, N, t, value, bound):
        with mpmath.workdps(300):
            return abs(mpmath.mpf(value) - direct(terms, N, t)) <= bound

    return within
