"""Verification of the 1-D parabolic factors of the limit kernel."""

import math

import numpy as np
import pytest

from sphereheat.gaussian_limit import LimitKernelParams, limit_density
from sphereheat.pde_appendix import (
    FIRST_COORDINATE,
    OTHER_COORDINATE,
    GridAccuracyError,
    ParabolicVariant,
    characteristic_transport,
    closed_form_fourier,
    grid_mass,
    mollified_delta_solution,
    product_kernel,
    residual,
    spectral_evolve,
)
from sphereheat.verify import run_pde_suite

VARIANTS = (FIRST_COORDINATE, OTHER_COORDINATE)


def test_variant_coefficients():
    t = 1.0
    assert FIRST_COORDINATE.diffusion_coeff(t) == pytest.approx(1 - math.exp(-1))
    assert OTHER_COORDINATE.diffusion_coeff(t) == 1.0
    assert FIRST_COORDINATE.variance(t) == pytest.approx(1 - 2 * math.exp(-1))
    assert OTHER_COORDINATE.variance(t) == pytest.approx(1 - math.exp(-1))
    with pytest.raises(ValueError):
        ParabolicVariant("radial")


def test_closed_form_properties():
    for variant in VARIANTS:
        for t in (0.2, 1.0, 4.0):
            g0 = variant.closed_form(t, 0.0)
            assert g0 > 0
            assert variant.closed_form(t, 1.3) == variant.closed_form(t, -1.3)
            xs = np.linspace(-10, 10, 20001)
            mass = np.trapezoid([variant.closed_form(t, x) for x in xs], xs)
            assert mass == pytest.approx(1.0, abs=1e-8)


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------


def test_residual_magnitude_examples():
    assert residual(OTHER_COORDINATE, 1.0, 0.0, 1e-3) <= 1e-5
    assert residual(FIRST_COORDINATE, 1.0, 1.0, 1e-3) <= 1e-5


def test_residual_second_order_refinement():
    for variant in VARIANTS:
        for t in (0.1, 1.0, 4.0):
            for x in (0.0, 1.0, -1.0, 3.0, -3.0):
                r1 = residual(variant, t, x, 1e-3)
                if r1 <= 1e-13:
                    continue  # residual already at the noise floor
                r2 = residual(variant, t, x, 5e-4)
                assert 3.5 <= r1 / r2 <= 4.5, (variant.kind, t, x)


def test_residual_preconditions():
    with pytest.raises(ValueError):
        residual(OTHER_COORDINATE, 0.01, 0.0, 1e-3)
    with pytest.raises(ValueError):
        residual(OTHER_COORDINATE, 1.0, 0.0, 0.0)


# ----------------------------------------------------------------------
# frequency-space transport
# ----------------------------------------------------------------------


def test_transport_zero_frequency_is_mass():
    for variant in VARIANTS:
        for t in (0.3, 1.0, 2.5):
            assert characteristic_transport(variant, 0.0, t, 7.0) == 7.0


def test_transport_example_values():
    amp = characteristic_transport(FIRST_COORDINATE, 1.0, 1.0)
    assert amp == pytest.approx(math.exp(-0.5 * (1 - 2 * math.exp(-1))))
    amp2 = characteristic_transport(OTHER_COORDINATE, 1.0, 1.0)
    assert amp2 == pytest.approx(math.exp(-0.5 * (1 - math.exp(-1))))


def test_transport_matches_numeric_fourier_transform():
    xs = np.linspace(-14, 14, 50001)
    for variant in VARIANTS:
        for t in (0.5, 1.0):
            g = np.array([variant.closed_form(t, float(x)) for x in xs])
            for xi in (0.0, 0.7, 1.5, 3.0):
                numeric = np.trapezoid(g * np.cos(xi * xs), xs) / math.sqrt(2 * math.pi)
                analytic = closed_form_fourier(variant, xi, t)
                transported = characteristic_transport(
                    variant, xi, t, initial_amplitude=1 / math.sqrt(2 * math.pi)
                )
                assert abs(numeric - transported) <= 1e-10
                assert transported == pytest.approx(analytic, abs=1e-15)


def test_transport_checks_fail_on_a_wrong_closed_form(monkeypatch):
    # the transport integrates a(t) itself, so a closed form off by 10% in its
    # variance no longer agrees with it, nor with the spectral evolution
    variance = ParabolicVariant.variance
    monkeypatch.setattr(ParabolicVariant, "variance", lambda self, t: 1.1 * variance(self, t))
    status = {r.name: r.status for r in run_pde_suite()}
    assert status["transported amplitude matches the numeric transform"] == "FAIL"
    assert status["mollified evolution extrapolates to the closed form"] == "FAIL"


def test_inverse_transform_of_transported_amplitude():
    # transport followed by the inverse transform reproduces the closed form
    grid = np.linspace(-4.0, 4.0, 81)
    for variant in VARIANTS:
        for t in (0.5, 1.0, 2.0):
            sigma = math.sqrt(variant.variance(t))
            xi = np.linspace(0.0, 14.0 / sigma, 4001)
            amp = np.array([
                characteristic_transport(
                    variant, float(x), t, initial_amplitude=1 / math.sqrt(2 * math.pi)
                )
                for x in xi
            ])
            recovered = np.array([
                2.0 / math.sqrt(2 * math.pi) * np.trapezoid(amp * np.cos(xi * x), xi)
                for x in grid
            ])
            closed = np.array([variant.closed_form(t, float(x)) for x in grid])
            assert np.max(np.abs(recovered - closed)) <= 1e-8


# ----------------------------------------------------------------------
# spectral evolution of mollified delta data
# ----------------------------------------------------------------------


def test_spectral_evolution_matches_enlarged_variance_gaussian():
    grid = np.linspace(-5, 5, 101)
    eps, t = 1e-3, 1.0
    for variant in VARIANTS:
        u = spectral_evolve(variant, eps, t, grid)
        v = variant.variance(t) + eps * math.exp(-t)
        target = np.exp(-(grid**2) / (2 * v)) / math.sqrt(2 * math.pi * v)
        assert np.max(np.abs(u - target)) <= 1e-5


def test_richardson_extrapolation_recovers_closed_form():
    grid = np.linspace(-5, 5, 101)
    for variant in VARIANTS:
        for t, eps in ((0.5, 5e-4), (1.0, 1e-3)):
            # the leftover is O(eps^2 / variance^2); smaller t needs smaller eps
            u = mollified_delta_solution(variant, t, grid, eps=eps)
            closed = np.array([variant.closed_form(t, float(x)) for x in grid])
            assert np.max(np.abs(u - closed)) <= 1e-5


def test_mass_conservation_along_evolution():
    wide = np.linspace(-9, 9, 1201)
    for variant in VARIANTS:
        masses = [
            grid_mass(spectral_evolve(variant, 1e-3, t, wide), wide)
            for t in (0.3, 1.0, 3.0)
        ]
        assert max(abs(m - 1.0) for m in masses) <= 1e-8


def test_spectral_grid_too_coarse_raises():
    # at t = 1 the trapezoid rule's aliasing period clears |x| <= 350, not 400
    spectral_evolve(OTHER_COORDINATE, 1e-3, 1.0, np.linspace(-350, 350, 11))
    with pytest.raises(GridAccuracyError):
        spectral_evolve(OTHER_COORDINATE, 1e-3, 1.0, np.linspace(-400, 400, 11))


def test_spectral_validation():
    grid = np.linspace(-5, 5, 11)
    with pytest.raises(ValueError):
        spectral_evolve(OTHER_COORDINATE, 0.5, 1.0, grid)  # eps too large
    with pytest.raises(ValueError):
        spectral_evolve(OTHER_COORDINATE, 1e-3, 0.0, grid)


# ----------------------------------------------------------------------
# product structure
# ----------------------------------------------------------------------


def test_product_of_factors_equals_joint_density():
    for t in (0.3, 0.7, 2.0):
        params = LimitKernelParams(t, 3)
        for point in ([0.0, 0.0, 0.0], [0.4, -1.0, 0.9], [1.5, 0.1, -0.3]):
            joint = limit_density(params, point)
            prod = product_kernel(t, np.array(point))
            assert abs(prod - joint) / joint <= 1e-12
