"""The limiting Gaussian law of the sphere heat-kernel moments.

As N grows, the heat-kernel moments of polynomials in the first k
coordinates converge to the moments of a centered Gaussian product measure
whose first coordinate has variance 1 - e^{-t} - t e^{-t} and whose other
coordinates have variance 1 - e^{-t}.  This module provides the density,
its normalizing constant, closed-form moments, quadrature oracles for both,
and the large-t reduction to the standard Gaussian (the classical uniform
sphere limit).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


def var_first(t: float) -> float:
    """Variance of the first coordinate, 1 - e^{-t} - t e^{-t}.

    Evaluated through expm1 so the t^2/2 smallness at t -> 0 is not lost to
    cancellation.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return -math.expm1(-t) - t * math.exp(-t)


def var_rest(t: float) -> float:
    """Variance of every coordinate beyond the first, 1 - e^{-t}."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return -math.expm1(-t)


def even_moment_factor(n: int) -> int:
    """(n-1)!! for even n, computed exactly as n! / (2^(n/2) (n/2)!)."""
    if n % 2:
        raise ValueError("n must be even")
    half = n // 2
    return math.factorial(n) // (2**half * math.factorial(half))


@dataclass
class LimitKernelParams:
    """Variances and normalizing constant of the k-variable limit density.

    The normalizer is (2 pi)^{-k/2} var_first^{-1/2} var_rest^{(1-k)/2},
    the unique constant that makes the density integrate to one.
    """

    t: float
    k: int
    var_first: float = field(init=False)
    var_rest: float = field(init=False)
    norm_const: float = field(init=False)

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        self.var_first = var_first(self.t)
        self.var_rest = var_rest(self.t)
        self.norm_const = (
            (2.0 * math.pi) ** (-0.5 * self.k)
            * self.var_first**-0.5
            * self.var_rest ** (0.5 * (1 - self.k))
        )

    def variances(self) -> np.ndarray:
        return np.array([self.var_first] + [self.var_rest] * (self.k - 1))


def limit_density(params: LimitKernelParams, x: Sequence[float]) -> float:
    """Density of the limit law at a point of R^k (strictly positive)."""
    pt = np.asarray(x, dtype=float)
    if pt.shape != (params.k,):
        raise ValueError(f"expected a point of R^{params.k}")
    return float(_density(params, pt))


def _density(params: LimitKernelParams, xs: Sequence) -> np.ndarray:
    """Density at the points whose k coordinates ``xs`` broadcast together.

    One exp of the summed quadratic form, not a product of 1-D factors, so
    the quadrature checks the product form instead of assuming it.
    """
    quad = sum(x**2 / (2.0 * v) for x, v in zip(xs, params.variances()))
    return params.norm_const * np.exp(-quad)


def gaussian_moment(alpha: Sequence[int], t: float) -> float:
    """Closed-form limit moment of the monomial x^alpha.

    Product over coordinates of (n_j - 1)!! sigma_j^{n_j} for even n_j, and
    zero whenever any exponent is odd; sigma_1^2 = var_first(t) and
    sigma_j^2 = var_rest(t) for j >= 2.
    """
    if any(n < 0 for n in alpha):
        raise ValueError("exponents must be nonnegative")
    if any(n % 2 for n in alpha):
        return 0.0
    out = 1.0
    for j, n in enumerate(alpha):
        if n == 0:
            continue
        sigma2 = var_first(t) if j == 0 else var_rest(t)
        out *= even_moment_factor(n) * sigma2 ** (n // 2)
    return out


def standard_gaussian_moment(alpha: Sequence[int]) -> float:
    """Moment of the standard Gaussian product measure (variance one)."""
    if any(n % 2 for n in alpha):
        return 0.0
    out = 1
    for n in alpha:
        if n:
            out *= even_moment_factor(n)
    return float(out)


def classical_limit_check(alpha: Sequence[int]) -> float:
    """Distance of the limit moment at t = 30 from the standard Gaussian one.

    Both variances tend to one as t grows, recovering the classical uniform
    sphere limit; the returned value is the absolute deviation.
    """
    return abs(gaussian_moment(alpha, 30.0) - standard_gaussian_moment(alpha))


# ----------------------------------------------------------------------
# quadrature oracles
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(order)
    return x, w


def integrate_gaussian_decay(
    fn: Callable[[tuple[np.ndarray, ...]], np.ndarray],
    sigmas: Sequence[float],
    order: int = 120,
) -> float:
    """Tensor Gauss-Hermite quadrature of an integrand over R^len(sigmas).

    ``fn`` gets the nodes as an open mesh (``np.ix_``: one array per
    coordinate, each broadcasting against the others) and must decay at least
    like exp(-x_j^2 / (2 sigma_j^2)) per coordinate.  Its values are
    contracted with the weights one axis at a time, so the tensor grid of
    points is never built.  The nodes are placed on a slightly widened scale
    per coordinate; the rule converges geometrically for
    Gaussian-times-polynomial integrands.
    """
    y, w = _hermite_nodes(order)
    scales = [1.25 * math.sqrt(2.0) * s for s in sigmas]
    values = np.broadcast_to(fn(np.ix_(*(s * y for s in scales))), (order,) * len(scales))
    for s in reversed(scales):
        values = values @ (s * w * np.exp(y**2))
    return float(values)


def density_mass_quadrature(params: LimitKernelParams, order: int = 120) -> float:
    """Total mass of the limit density by quadrature (should be one)."""
    return density_moment_quadrature(params, (0,) * params.k, order)


def density_moment_quadrature(
    params: LimitKernelParams, alpha: Sequence[int], order: int = 120
) -> float:
    """Quadrature of x^alpha against the limit density (moment oracle)."""
    if len(alpha) != params.k:
        raise ValueError("exponent length must equal k")
    return integrate_gaussian_decay(
        lambda xs: math.prod(x**n for x, n in zip(xs, alpha)) * _density(params, xs),
        np.sqrt(params.variances()),
        order,
    )


_MARGINAL_TOLERANCE = 1e-7  # largest pointwise deviation the marginal check passes
_MARGINAL_ORDER = 90  # Gauss-Hermite nodes per integrated coordinate


@dataclass(frozen=True)
class MarginalReport:
    """Result of the marginal-compatibility quadrature check."""

    k: int
    m: int
    t: float
    max_abs_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_abs_deviation <= _MARGINAL_TOLERANCE


def marginal_compatibility(k: int, m: int, t: float) -> MarginalReport:
    """Check that integrating out trailing coordinates reproduces the
    m-variable density pointwise on the grid {-1, 0, 1}^m.
    """
    if not 1 <= m <= k:
        raise ValueError("need 1 <= m <= k")
    params_k = LimitKernelParams(t, k)
    params_m = LimitKernelParams(t, m)

    worst = 0.0
    sigma_rest = math.sqrt(params_k.var_rest)
    for lead in itertools.product([-1.0, 0.0, 1.0], repeat=m):
        integrated = integrate_gaussian_decay(
            lambda xs: _density(params_k, (*lead, *xs)), [sigma_rest] * (k - m), _MARGINAL_ORDER
        )
        worst = max(worst, abs(integrated - limit_density(params_m, lead)))
    return MarginalReport(k=k, m=m, t=t, max_abs_deviation=worst)
