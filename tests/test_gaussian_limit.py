"""The limit law: density, normalization, moments, marginals, large t."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sphereheat.gaussian_limit import (
    LimitKernelParams,
    classical_limit_check,
    density_mass_quadrature,
    density_moment_quadrature,
    even_moment_factor,
    gaussian_moment,
    integrate_gaussian_decay,
    limit_density,
    marginal_compatibility,
    standard_gaussian_moment,
    var_first,
    var_rest,
)


def test_variance_closed_forms():
    t = 1.0
    assert var_first(t) == pytest.approx(1 - 2 * math.exp(-1))
    assert var_rest(t) == pytest.approx(1 - math.exp(-1))


def test_variance_ordering_and_monotonicity():
    ts = np.linspace(0.05, 8.0, 200)
    v1 = [var_first(t) for t in ts]
    v2 = [var_rest(t) for t in ts]
    assert all(a < b < 1.0 for a, b in zip(v1, v2))
    assert all(a < b for a, b in zip(v1, v1[1:]))
    assert all(a < b for a, b in zip(v2, v2[1:]))


def test_variances_approach_one():
    assert var_first(40.0) == pytest.approx(1.0, abs=1e-15)
    assert var_rest(40.0) == pytest.approx(1.0, abs=1e-15)


def test_small_time_taylor_expansion():
    # var_first = t^2/2 - t^3/3 + t^4/8 + O(t^5)
    for t in (1e-2, 1e-3):
        taylor = t**2 / 2 - t**3 / 3 + t**4 / 8
        assert abs(var_first(t) - taylor) / taylor <= 1e-2
    # and the linear small-t law of the other coordinates
    assert var_rest(1e-3) == pytest.approx(1e-3, rel=1e-3)


def test_even_moment_factor_is_double_factorial():
    assert [even_moment_factor(n) for n in (0, 2, 4, 6, 8)] == [1, 1, 3, 15, 105]
    with pytest.raises(ValueError):
        even_moment_factor(3)


# ----------------------------------------------------------------------
# density
# ----------------------------------------------------------------------


def test_normalizing_constant_one_dimensional():
    params = LimitKernelParams(1.0, 1)
    expect = (2 * math.pi * var_first(1.0)) ** -0.5
    assert limit_density(params, [0.0]) == pytest.approx(expect, rel=1e-14)
    assert params.norm_const == pytest.approx(expect, rel=1e-14)


def test_density_even_and_peaked_at_origin():
    params = LimitKernelParams(0.8, 3)
    x = [0.4, -1.2, 0.7]
    neg = [-v for v in x]
    assert limit_density(params, x) == pytest.approx(limit_density(params, neg), rel=1e-15)
    assert limit_density(params, [0, 0, 0]) > limit_density(params, x) > 0


def test_density_integrates_to_one():
    for t in (0.25, 1.0, 4.0):
        for k in (1, 2, 3):
            mass = density_mass_quadrature(LimitKernelParams(t, k))
            assert mass == pytest.approx(1.0, abs=1e-8)


def test_params_validation():
    with pytest.raises(ValueError):
        LimitKernelParams(0.0, 2)
    with pytest.raises(ValueError):
        LimitKernelParams(1.0, 0)
    with pytest.raises(ValueError):
        limit_density(LimitKernelParams(1.0, 2), [1.0])


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_axis_by_axis_contraction_equals_the_tensor_grid_sum(k):
    # (x1 + ... + xk)^4 times a Gaussian does not factor over the coordinates;
    # the integrand is written here so that it takes a point or an open mesh
    variances = LimitKernelParams(0.7, k).variances()
    sigmas = np.sqrt(variances)

    def fn(xs):
        return sum(xs) ** 4 * np.exp(-sum(x**2 / (2.0 * v) for x, v in zip(xs, variances)))

    y, w = np.polynomial.hermite.hermgauss(8)
    scales = 1.25 * math.sqrt(2.0) * sigmas
    terms = []
    for idx in itertools.product(range(8), repeat=k):
        point = [s * y[i] for s, i in zip(scales, idx)]
        weight = math.prod(s * w[i] * math.exp(y[i] ** 2) for s, i in zip(scales, idx))
        terms.append(weight * fn(point))
    expect = math.fsum(terms)
    assert integrate_gaussian_decay(fn, sigmas, order=8) == pytest.approx(expect, rel=1e-14)


def test_moment_quadrature_never_holds_the_tensor_grid():
    # the 120^3 grid as (n, 3) points alone is 40 MiB; one value array is 13 MiB
    tracemalloc.start()
    try:
        density_moment_quadrature(LimitKernelParams(1.0, 3), (0, 4, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------


def test_moment_examples():
    t = 1.0
    assert gaussian_moment((0, 2), t) == pytest.approx(1 - math.exp(-1))
    assert gaussian_moment((1, 1), t) == 0.0
    expect = (1 - 2 * math.exp(-1)) * (1 - math.exp(-1))
    assert gaussian_moment((2, 2), t) == pytest.approx(expect)
    assert density_moment_quadrature(LimitKernelParams(t, 2), (2, 2)) == pytest.approx(
        expect, abs=1e-8
    )


def test_moments_match_quadrature_up_to_degree_six():
    for k, t in ((1, 0.5), (2, 1.0), (3, 2.0)):
        params = LimitKernelParams(t, k)
        if k == 1:
            alphas = [(n,) for n in range(7)]
        elif k == 2:
            alphas = [(a, b) for a in range(7) for b in range(7 - a)]
        else:
            alphas = [
                (a, b, c)
                for a in range(7)
                for b in range(7 - a)
                for c in range(7 - a - b)
            ]
        for alpha in alphas:
            q = density_moment_quadrature(params, alpha, order=60)
            assert q == pytest.approx(gaussian_moment(alpha, t), abs=1e-7), alpha


def test_classical_limit_examples():
    # the t = 30 deviations are exactly 31 e^-30 and e^-30
    assert gaussian_moment((2, 0), 30.0) == pytest.approx(
        1.0 - 31.0 * math.exp(-30.0), abs=1e-15
    )
    assert gaussian_moment((0, 2), 30.0) == pytest.approx(
        1.0 - math.exp(-30.0), abs=1e-15
    )
    assert standard_gaussian_moment((4, 0)) == 3.0
    assert classical_limit_check((4, 0)) <= 1e-7


def test_classical_limit_degree_six_grid():
    alphas = [(6,), (4, 2), (2, 2, 2), (0, 4, 0), (1, 2, 3), (5, 1)]
    for alpha in alphas:
        assert classical_limit_check(alpha) <= 1e-7


# ----------------------------------------------------------------------
# marginals
# ----------------------------------------------------------------------


def test_marginal_identity_case():
    report = marginal_compatibility(2, 2, 1.0)
    assert report.passed and report.max_abs_deviation <= 1e-12


def test_marginal_two_to_one():
    report = marginal_compatibility(2, 1, 1.0)
    assert report.passed
    # marginal density at the origin equals the 1-variable normalizer
    params1 = LimitKernelParams(1.0, 1)
    assert limit_density(params1, [0.0]) == pytest.approx(params1.norm_const)


def test_marginal_three_to_two_on_grid():
    report = marginal_compatibility(3, 2, 0.5)
    assert report.passed and report.max_abs_deviation <= 1e-7


def test_marginal_validation():
    with pytest.raises(ValueError):
        marginal_compatibility(2, 3, 1.0)
