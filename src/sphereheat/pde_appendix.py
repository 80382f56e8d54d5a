"""One-dimensional parabolic factors of the limiting kernel.

The limit density factorizes into one first-coordinate factor and k-1
identical factors for the other coordinates, each solving a 1-D parabolic
equation with delta initial data:

    first coordinate:   g_t = (1/2) ((1 - e^{-t}) g_xx + x g_x + g)
    other coordinates:  g_t = (1/2) (g_xx + x g_x + g)

The closed-form solutions are centered Gaussians whose variances solve
v' = a(t) - v with diffusion coefficient a(t) = 1 - e^{-t} or 1, giving
1 - e^{-t} - t e^{-t} and 1 - e^{-t} respectively.  This module verifies
the equations by finite-difference residuals and evolves mollified delta
data spectrally along the frequency-space characteristics (in the angular
convention, where the second derivative transforms to -xi^2).  The
transport integrates a(t) by quadrature and never reads the closed form,
which serves only as the reference the evolution is checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian_limit import var_first, var_rest

_FREQ_POINTS = 2048  # trapezoid nodes of spectral_evolve's frequency window


class GridAccuracyError(RuntimeError):
    """The requested spectral grid cannot reach the target accuracy."""


@dataclass(frozen=True)
class ParabolicVariant:
    """One of the two separated 1-D equations."""

    kind: str  # "first-coordinate" or "other-coordinate"

    def __post_init__(self):
        if self.kind not in ("first-coordinate", "other-coordinate"):
            raise ValueError(f"unknown variant {self.kind!r}")

    def diffusion_coeff(self, t: float) -> float:
        return var_rest(t) if self.kind == "first-coordinate" else 1.0

    def variance(self, t: float) -> float:
        """Variance of the delta-data solution at time t."""
        return var_first(t) if self.kind == "first-coordinate" else var_rest(t)

    def closed_form(self, t: float, x: float) -> float:
        """Gaussian solution with the delta initial condition."""
        v = self.variance(t)
        return math.exp(-x * x / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


FIRST_COORDINATE = ParabolicVariant("first-coordinate")
OTHER_COORDINATE = ParabolicVariant("other-coordinate")


def residual(variant: ParabolicVariant, t: float, x: float, h: float) -> float:
    """|g_t - (1/2)(a(t) g_xx + x g_x + g)| on the closed form.

    Central differences with mesh h in both t and x; since the closed form
    satisfies the equation exactly, the residual is pure O(h^2)
    discretization error.  Needs t - h > 0.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if t < 0.05:
        raise ValueError("residual checks need t >= 0.05; the closed form is "
                         "too steep below that")
    if t - h <= 0:
        raise ValueError("need t - h > 0 for the time stencil")
    g = variant.closed_form
    g_t = (g(t + h, x) - g(t - h, x)) / (2.0 * h)
    g_x = (g(t, x + h) - g(t, x - h)) / (2.0 * h)
    g_xx = (g(t, x + h) - 2.0 * g(t, x) + g(t, x - h)) / (h * h)
    rhs = 0.5 * (variant.diffusion_coeff(t) * g_xx + x * g_x + g(t, x))
    return abs(g_t - rhs)


@functools.lru_cache(maxsize=1)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """32-node Gauss-Legendre rule on [-1, 1]: a(s) e^s is entire, and it integrates
    to rounding for t up to about 50.  Built on first use, since its eigen solve
    maps a LAPACK workspace that the other commands never need."""
    return np.polynomial.legendre.leggauss(32)


def _transported_variance(variant: ParabolicVariant, t: float) -> float:
    """V(t) = e^{-t} int_0^t a(s) e^s ds, by Gauss-Legendre quadrature of a alone."""
    nodes, weights = _legendre_rule()
    s = 0.5 * t * (nodes + 1.0)
    a = np.array([variant.diffusion_coeff(float(x)) for x in s])
    return 0.5 * t * float(np.dot(weights, a * np.exp(s - t)))


def characteristic_transport(variant: ParabolicVariant, xi, t: float, initial_amplitude=1.0):
    """Fourier amplitude at frequency xi (a float or an array) and time t.

    The frequency characteristic is xi(s) = xi0 e^{s/2}, along which the
    amplitude decays at rate (1/2) a(s) xi(s)^2; integrating it multiplies the
    initial amplitude at xi0 = xi e^{-t/2} by exp(-(1/2) xi^2 e^{-t}
    int_0^t a(s) e^s ds).  At xi = 0 the amplitude is the conserved total
    mass (times the convention factor).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    return initial_amplitude * np.exp(-0.5 * _transported_variance(variant, t) * np.square(xi))


def closed_form_fourier(variant: ParabolicVariant, xi: float, t: float) -> float:
    """Angular-convention Fourier transform of the closed-form solution."""
    return math.exp(-0.5 * variant.variance(t) * xi * xi) / math.sqrt(2.0 * math.pi)


def spectral_evolve(
    variant: ParabolicVariant,
    eps: float,
    t: float,
    grid: np.ndarray,
) -> np.ndarray:
    """Evolve a variance-eps Gaussian mollification of the delta data.

    Works directly in frequency space: the initial transform is sampled,
    each mode is transported by the characteristics factor (exact in xi),
    and the inverse transform is taken by trapezoidal quadrature on a
    truncated frequency window.  The only discretization is the window and
    spacing; both are validated against the target solution width.
    """
    if not 0 < eps <= 0.01:
        raise ValueError("eps must lie in (0, 0.01]")
    if t <= 0:
        raise ValueError("t must be positive")
    grid = np.asarray(grid, dtype=float)
    v_out = _transported_variance(variant, t) + eps * math.exp(-t)
    sigma_out = math.sqrt(v_out)

    # frequency window: 14 standard deviations of the transformed solution
    xi_max = 14.0 / sigma_out
    xi = np.linspace(0.0, xi_max, _FREQ_POINTS)
    dxi = xi[1] - xi[0]
    # aliasing period of the trapezoid rule must clear the physical window
    if 2.0 * math.pi / dxi < 2.0 * (np.max(np.abs(grid)) + 10.0 * sigma_out):
        raise GridAccuracyError(
            "frequency grid too coarse for the requested spatial window"
        )
    initial_hat = np.exp(-0.5 * eps * (xi * math.exp(-0.5 * t)) ** 2) / math.sqrt(
        2.0 * math.pi
    )
    evolved_hat = characteristic_transport(variant, xi, t, initial_hat)
    # inverse transform of an even function: cosine sum over xi >= 0
    weights = np.full(_FREQ_POINTS, dxi)
    weights[0] = 0.5 * dxi
    weights[-1] = 0.5 * dxi
    cos_table = np.cos(np.outer(grid, xi))
    return (2.0 / math.sqrt(2.0 * math.pi)) * cos_table @ (weights * evolved_hat)


def mollified_delta_solution(
    variant: ParabolicVariant,
    t: float,
    grid: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    """Richardson extrapolation eps -> 0 of the mollified evolution.

    The solution depends smoothly on the mollifier variance, so
    2 u(eps/2) - u(eps) removes the O(eps) term and leaves O(eps^2),
    recovering the delta-data closed form on the grid.
    """
    u1 = spectral_evolve(variant, eps, t, grid)
    u2 = spectral_evolve(variant, eps / 2.0, t, grid)
    return 2.0 * u2 - u1


def grid_mass(values: np.ndarray, grid: np.ndarray) -> float:
    """Trapezoidal integral of sampled values (mass conservation check)."""
    return float(np.trapezoid(values, np.asarray(grid, dtype=float)))


def product_kernel(t: float, point: np.ndarray) -> float:
    """k-variable kernel as the product of its 1-D factors.

    One first-coordinate factor times other-coordinate factors; equals the
    joint limit density by construction.
    """
    point = np.asarray(point, dtype=float)
    out = FIRST_COORDINATE.closed_form(t, float(point[0]))
    for xj in point[1:]:
        out *= OTHER_COORDINATE.closed_form(t, float(xj))
    return out
