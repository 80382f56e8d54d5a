"""The sphere operators as symbolic rules on polynomials.

All operators here act on polynomials in the shifted frame: the first
variable is the recentered coordinate of a sphere of radius sqrt(N), the
remaining k-1 variables are the untouched coordinates.  With d1 the partial
derivative in the first variable and R1 = x1*d1, Ry = x2*d2 + ... + xk*dk
the two Euler (degree-counting) operators, the pieces are

    first_part   D = d1^2 - (1 - 2/N) R1 - (1/N) R1^2
    rest_part    E = sum_j dj^2 - (1 - 2/N) Ry - (1/N) Ry^2      (j >= 2)
    laplacian    L = D + E - (2/N) R1 Ry
    hermite      H = sum_j dj^2 - Ry                              (j >= 2)

L is the Laplace-Beltrami operator of the sphere restricted to polynomials
in k < N variables; H is the limit of E as N grows.  Each operator is a
rule: a linear map from an exact ``Polynomial`` to its image that never
raises the degree.  Identities between operators are checked on the rule
images of monomials, by composing the rules.  :func:`operator_from_rule`
expands a rule over a truncated monomial basis into an exact dense matrix;
the tests use it as a reference and the 50-digit matrix exponential reads
it, but no moment does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .polyalg import BasisIndexer, Exponents, Polynomial


@dataclass(frozen=True)
class SphereConfig:
    """Parameters of one finite-N computation.

    N is the squared sphere radius (and ambient dimension proxy), t the
    diffusion time, k how many coordinates observables may use, ell the
    largest degree an observable may have.  Moments only check their degree
    against ell and do not otherwise depend on it; the dense builders use it
    as the degree cap of their basis.  Requires k < N so that the sphere
    operator is a well-defined self-map of the k-variable polynomials.
    """

    N: int
    t: float
    k: int
    ell: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.N <= self.k:
            raise ValueError(f"need k < N, got k={self.k}, N={self.N}")
        if not 0 <= self.t < math.inf:
            raise ValueError(f"t must be finite and >= 0, got {self.t}")
        if self.ell < 0:
            raise ValueError(f"ell must be >= 0, got {self.ell}")

    @property
    def m(self) -> float:
        """Drift of the first coordinate: sqrt(N) * exp((t/2)(-1 + 1/N)).

        Equals the heat-operator mean of the shifted first coordinate; at
        t = 0 it is sqrt(N) and it decreases strictly in t.
        """
        return math.sqrt(self.N) * math.exp(0.5 * self.t * (-1.0 + 1.0 / self.N))


class OperatorMatrix:
    """Dense exact-rational matrix of a degree-nonincreasing rule.

    Column j holds the expansion of the rule applied to basis monomial j.
    It is a dense reference for tests and the input of the 50-digit matrix
    exponential; operator identities are checked on the rules themselves.
    """

    __slots__ = ("entries", "indexer")

    def __init__(self, entries, indexer: BasisIndexer):
        self.entries = tuple(tuple(row) for row in entries)
        n = indexer.dimension
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("entry matrix does not match basis dimension")
        self.indexer = indexer

    @property
    def dimension(self) -> int:
        return self.indexer.dimension

    def to_float(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


def operator_from_rule(
    indexer: BasisIndexer, rule: Callable[[Polynomial], Polynomial]
) -> OperatorMatrix:
    """Materialize a symbolic polynomial rule as an exact matrix.

    The rule must be linear and degree-nonincreasing; each basis monomial is
    pushed through it and expanded back over the basis.
    """
    cols = [indexer.to_vector(image) for image in rule_images(rule, indexer)]
    return OperatorMatrix(zip(*cols), indexer)


def rule_images(
    rule: Callable[[Polynomial], Polynomial], basis: BasisIndexer
) -> list[Polynomial]:
    """The rule's image of every monomial of the basis, in basis order."""
    return [rule(Polynomial.monomial(alpha)) for alpha in basis]


# ----------------------------------------------------------------------
# symbolic generator rules
# ----------------------------------------------------------------------


def euler_apply(p: Polynomial, variables: Sequence[int]) -> Polynomial:
    """Euler operator sum_j x_j d_j over the given 0-based variables.

    On a monomial it multiplies by the total degree in those variables.
    """
    return Polynomial(p.varcount, {
        alpha: sum(alpha[j] for j in variables) * c for alpha, c in p.terms.items()})


def second_derivative_sum(p: Polynomial, variables: Sequence[int]) -> Polynomial:
    """sum_j d_j^2 p over the given 0-based variables."""
    out = Polynomial.zero(p.varcount)
    for j in variables:
        out = out + p.diff(j).diff(j)
    return out


def _part_rule(N: int, variables: Sequence[int]) -> Callable[[Polynomial], Polynomial]:
    """sum_j dj^2 - (1 - 2/N) R - (1/N) R^2 with R the Euler operator of ``variables``."""
    c1 = Fraction(1) - Fraction(2, N)
    cN = Fraction(1, N)

    def rule(p: Polynomial) -> Polynomial:
        e = euler_apply(p, variables)
        return second_derivative_sum(p, variables) - c1 * e - cN * euler_apply(e, variables)

    return rule


def _first_part_rule(N: int) -> Callable[[Polynomial], Polynomial]:
    return _part_rule(N, [0])


def _rest_part_rule(N: int, varcount: int) -> Callable[[Polynomial], Polynomial]:
    return _part_rule(N, range(1, varcount))


def _sphere_image(
    N: int, alpha: Exponents, include_mixed_term: bool
) -> dict[Exponents, Fraction]:
    """L x^alpha in closed form, L = D + E - (2/N) R1 Ry (or D + E).

    With a = alpha_1, b the degree in the other variables and d = a + b, the
    diagonal coefficient is -d + q/N, q = 2d - a^2 - b^2 - 2ab (the last
    term only with the mixed term, giving the rate -d (1 + (d-2)/N)); every
    other term is alpha_j (alpha_j - 1) x^(alpha - 2 e_j).
    """
    a, b = alpha[0], sum(alpha[1:])
    q = 2 * (a + b) - a * a - b * b - (2 * a * b if include_mixed_term else 0)
    image = {alpha: Fraction(q, N) - a - b}
    for j, e in enumerate(alpha):
        if e >= 2:
            image[alpha[:j] + (e - 2,) + alpha[j + 1:]] = Fraction(e * (e - 1))
    return image


def _sphere_rule(
    N: int, varcount: int, include_mixed_term: bool
) -> Callable[[Polynomial], Polynomial]:
    """:func:`_sphere_image`, extended linearly to polynomials."""

    def rule(p: Polynomial) -> Polynomial:
        out: dict[Exponents, Fraction] = {}
        for alpha, c in p.terms.items():
            for beta, w in _sphere_image(N, alpha, include_mixed_term).items():
                out[beta] = out.get(beta, 0) + c * w
        return Polynomial(varcount, out)

    return rule


def _hermite_rule(varcount: int) -> Callable[[Polynomial], Polynomial]:
    rest = range(1, varcount)
    return lambda p: second_derivative_sum(p, rest) - euler_apply(p, rest)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


# Matrices are immutable after construction, so repeated builds with the
# same parameters can share one instance.  The builders are dense references
# for the tests; every identity is checked on the rules above.


@lru_cache(maxsize=None)
def build_D(N: int, ell: int) -> OperatorMatrix:
    """First-coordinate operator D = d1^2 - (1-2/N) x1 d1 - (1/N)(x1 d1)^2.

    On x1^n the action is n(n-1) x1^(n-2) + lambda_n x1^n with the exact
    eigenvalue lambda_n = -n (1 + (n-2)/N), on the one-variable basis of
    degree <= ell.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    return operator_from_rule(BasisIndexer(1, ell), _first_part_rule(N))


@lru_cache(maxsize=None)
def build_E(N: int, k: int, ell: int) -> OperatorMatrix:
    """Operator E acting on variables 2..k of the joint k-variable basis.

    E = sum_{j>=2} dj^2 - (1-2/N) Ry - (1/N) Ry^2 where Ry multiplies a
    monomial by its total degree in the variables beyond the first.  For
    k = 1 there are no such variables and E is the zero operator.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    indexer = BasisIndexer(k, ell)
    return operator_from_rule(indexer, _rest_part_rule(N, k))


@lru_cache(maxsize=None)
def build_hermite_limit(k: int, ell: int) -> OperatorMatrix:
    """Hermite operator sum_{j>=2} dj^2 - Ry, the entrywise large-N limit of E."""
    return operator_from_rule(BasisIndexer(k, ell), _hermite_rule(k))


def build_sphere_laplacian(cfg: SphereConfig, include_mixed_term: bool = True) -> OperatorMatrix:
    """Sphere Laplacian L = D + E - (2/N) R1 Ry on the joint degree <= cfg.ell basis.

    Built column by column from :func:`_sphere_rule`.
    ``include_mixed_term=False`` yields the decoupled operator D + E whose
    distance to L vanishes like 1/N in the moments.
    """
    return _laplacian_cached(cfg.N, cfg.k, cfg.ell, include_mixed_term)


@lru_cache(maxsize=None)
def _laplacian_cached(
    N: int, k: int, ell: int, include_mixed_term: bool
) -> OperatorMatrix:
    return operator_from_rule(BasisIndexer(k, ell), _sphere_rule(N, k, include_mixed_term))
