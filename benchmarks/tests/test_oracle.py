"""Self-tests of the exact oracle: closed forms it must reproduce."""

import math
from fractions import Fraction

import pytest

import oracle


@pytest.mark.parametrize("N", [4, 16, 1024])
@pytest.mark.parametrize("alpha", [(0, 2), (0, 0, 2)])
def test_rest_coordinate_square_is_one_minus_exp(N, alpha):
    # E[x_j^2] = 1 - e^-t for every N
    assert oracle.moment_terms(alpha, N) == {Fraction(0): Fraction(1), Fraction(-1): Fraction(-1)}


@pytest.mark.parametrize("N", [3, 7, 64, 1000])
def test_first_coordinate_square(N):
    # E[x1^2] = 1 + (N-1) e^-t - N e^{-t(1-1/N)}, in units of N^(2/2)
    want = {
        Fraction(0): Fraction(1, N),
        Fraction(-1): Fraction(N - 1, N),
        Fraction(-(N - 1), N): Fraction(-1),
    }
    assert oracle.moment_terms((2,), N) == want
    t = 0.7
    closed = 1 + (N - 1) * math.exp(-t) - N * math.exp(-t * (1 - 1 / N))
    assert oracle.moment((2,), N, t) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("alpha", [(1,), (0, 1), (0, 3), (2, 1), (4, 0, 5), (1, 1, 1)])
def test_odd_moments_vanish_exactly(alpha):
    # the mean identity E[x1] = 0 and the symmetry x_j -> -x_j for j >= 2
    assert oracle.moment_terms(alpha, 9) == {}


@pytest.mark.parametrize("alpha", [(4,), (6,), (2, 2), (0, 4), (2, 2, 2)])
def test_moments_approach_the_gaussian_limit_at_rate_one_over_n(alpha):
    t = 1.0
    limit = oracle.gaussian_moment(alpha, t)
    errs = [abs(oracle.moment(alpha, n, t) - limit) for n in (1024, 2048, 4096)]
    assert all(0 < e < 1e-1 for e in errs)
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(2.0, rel=0.02)


def test_evaluation_has_digits_to_spare():
    # x1^12 at N = 1024 cancels terms of size ~1e18 down to O(1)
    a = oracle.moment_mp((12,), 1024, 1.0)
    b = oracle.moment_mp((12,), 1024, 1.0, extra_digits=30)
    assert abs(a - b) <= 1e-20 * abs(b)
    assert float(b) == pytest.approx(3.8257, abs=5e-5)


def test_gaussian_moment_products():
    v1 = 1 - math.exp(-2.0) - 2.0 * math.exp(-2.0)
    v2 = 1 - math.exp(-2.0)
    assert oracle.gaussian_moment((4, 0, 6), 2.0) == pytest.approx(3 * v1**2 * 15 * v2**3, rel=1e-14)
    assert oracle.gaussian_moment((2, 3), 2.0) == 0.0


def test_on_target():
    assert oracle.on_target(1.0 + 5e-9, 1.0, 1e-8)
    assert not oracle.on_target(1.0 + 2e-8, 1.0, 1e-8)
    assert oracle.on_target(5e-9, 0.0, 1e-8)
    assert not oracle.on_target(None, 0.0, 1e-8)
