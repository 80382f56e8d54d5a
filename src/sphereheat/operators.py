"""Exact matrices of the sphere operators on truncated polynomial spaces.

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
in k < N variables; H is the entrywise limit of E as N grows.  Every
operator maps the space of degree <= l polynomials to itself, never raising
the degree, so the matrices are built column by column by applying the
symbolic rule to each basis monomial.  All entries are exact rationals.
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
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
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
    """Dense exact-rational matrix of a degree-nonincreasing operator.

    Column j holds the expansion of the operator applied to basis monomial
    j, so matrix-vector products implement the operator action and matrix
    products implement composition (exact on the truncated space because no
    operator here raises the degree).
    """

    __slots__ = ("entries", "indexer", "label", "params", "_float_cache", "_norm_cache")

    def __init__(self, entries, indexer: BasisIndexer, label: str, params: tuple):
        self.entries = tuple(tuple(row) for row in entries)
        n = indexer.dimension
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("entry matrix does not match basis dimension")
        self.indexer = indexer
        self.label = label
        self.params = params
        self._float_cache = None
        self._norm_cache = None

    @property
    def dimension(self) -> int:
        return self.indexer.dimension

    def _check_same_basis(self, other: "OperatorMatrix") -> None:
        if self.indexer != other.indexer:
            raise ValueError("operators live on different bases")

    def apply(self, p: Polynomial) -> Polynomial:
        """Exact action on a polynomial of the basis space."""
        vec = self.indexer.to_vector(p)
        out = []
        for row in self.entries:
            s = Fraction(0)
            for a, v in zip(row, vec):
                if a and v:
                    s += a * v
            out.append(s)
        return self.indexer.from_vector(out)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_basis(other)
        n = self.dimension
        cols_other = [
            [(i, other.entries[i][j]) for i in range(n) if other.entries[i][j]]
            for j in range(n)
        ]
        out = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            for l, b in cols_other[j]:
                col_a = self.entries
                if b:
                    for i in range(n):
                        a = col_a[i][l]
                        if a:
                            out[i][j] += a * b
        return OperatorMatrix(
            out, self.indexer, f"({self.label})*({other.label})", self.params
        )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_basis(other)
        out = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return OperatorMatrix(
            out, self.indexer, f"({self.label})+({other.label})", self.params
        )

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same_basis(other)
        out = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ]
        return OperatorMatrix(
            out, self.indexer, f"({self.label})-({other.label})", self.params
        )

    def scale(self, scalar) -> "OperatorMatrix":
        s = Fraction(scalar)
        out = [[s * a for a in row] for row in self.entries]
        return OperatorMatrix(out, self.indexer, f"{scalar}*({self.label})", self.params)

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def to_float(self) -> np.ndarray:
        if self._float_cache is None:
            self._float_cache = np.array(
                [[float(a) for a in row] for row in self.entries], dtype=float
            )
        return self._float_cache.copy()

    def one_norm(self) -> Fraction:
        """Induced 1-norm (max column sum of absolute values), exact."""
        if self._norm_cache is None:
            n = self.dimension
            best = Fraction(0)
            for j in range(n):
                s = sum(abs(self.entries[i][j]) for i in range(n))
                if s > best:
                    best = s
            self._norm_cache = best
        return self._norm_cache

    def max_abs_entry(self) -> Fraction:
        return max((abs(a) for row in self.entries for a in row), default=Fraction(0))

    def is_degree_graded(self) -> bool:
        """True iff no column contains a monomial of higher degree than its own.

        This is the matrix form of closure: the operator maps the degree-d
        polynomials into the degree <= d ones, i.e. the matrix is block
        lower-triangular under the degree grading.
        """
        idx = self.indexer
        for j in range(self.dimension):
            dj = sum(idx.monomial(j))
            for i in range(self.dimension):
                if self.entries[i][j] and sum(idx.monomial(i)) > dj:
                    return False
        return True

    def diagonal(self) -> list[Fraction]:
        return [self.entries[i][i] for i in range(self.dimension)]

    def __repr__(self) -> str:
        return f"OperatorMatrix({self.label!r}, dim={self.dimension}, params={self.params})"


def operator_from_rule(
    indexer: BasisIndexer,
    rule: Callable[[Polynomial], Polynomial],
    label: str,
    params: tuple,
) -> OperatorMatrix:
    """Materialize a symbolic polynomial rule as an exact matrix.

    The rule must be linear and degree-nonincreasing; each basis monomial is
    pushed through it and expanded back over the basis, which makes every
    column auditable against the defining formula of the operator.
    """
    n = indexer.dimension
    cols = []
    for alpha in indexer:
        image = rule(Polynomial.monomial(alpha))
        cols.append(indexer.to_vector(image))
    entries = [[cols[j][i] for j in range(n)] for i in range(n)]
    return OperatorMatrix(entries, indexer, label, params)


# ----------------------------------------------------------------------
# symbolic generator rules
# ----------------------------------------------------------------------


def euler_apply(p: Polynomial, variables: Sequence[int]) -> Polynomial:
    """Euler operator sum_j x_j d_j over the given 0-based variables.

    On a monomial it multiplies by the total degree in those variables.
    """
    return Polynomial(p.varcount, {
        alpha: sum(alpha[j] for j in variables) * c for alpha, c in p.terms.items()})


def _first_part_rule(N: int) -> Callable[[Polynomial], Polynomial]:
    c1 = Fraction(1) - Fraction(2, N)
    cN = Fraction(1, N)

    def rule(p: Polynomial) -> Polynomial:
        e = euler_apply(p, [0])
        return p.diff(0).diff(0) - c1 * e - cN * euler_apply(e, [0])

    return rule


def _rest_part_rule(N: int, varcount: int) -> Callable[[Polynomial], Polynomial]:
    rest = list(range(1, varcount))
    c1 = Fraction(1) - Fraction(2, N)
    cN = Fraction(1, N)

    def rule(p: Polynomial) -> Polynomial:
        out = Polynomial.zero(p.varcount)
        for j in rest:
            out = out + p.diff(j).diff(j)
        e = euler_apply(p, rest)
        return out - c1 * e - cN * euler_apply(e, rest)

    return rule


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
    rest = list(range(1, varcount))

    def rule(p: Polynomial) -> Polynomial:
        out = Polynomial.zero(p.varcount)
        for j in rest:
            out = out + p.diff(j).diff(j)
        return out - euler_apply(p, rest)

    return rule


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


# Matrices are immutable after construction, so repeated builds with the
# same parameters can share one instance.


@lru_cache(maxsize=None)
def build_D(N: int, ell: int, varcount: int = 1) -> OperatorMatrix:
    """First-coordinate operator D = d1^2 - (1-2/N) x1 d1 - (1/N)(x1 d1)^2.

    On x1^n the action is n(n-1) x1^(n-2) + lambda_n x1^n with the exact
    eigenvalue lambda_n = -n (1 + (n-2)/N).  Defaults to the one-variable
    space; pass a larger varcount to embed it in a joint basis (it then
    ignores the other variables).
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    indexer = BasisIndexer(varcount, ell)
    return operator_from_rule(indexer, _first_part_rule(N), "D", (N, varcount, ell))


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
    return operator_from_rule(indexer, _rest_part_rule(N, k), "E", (N, k, ell))


@lru_cache(maxsize=None)
def build_hermite_limit(k: int, ell: int) -> OperatorMatrix:
    """Hermite operator sum_{j>=2} dj^2 - Ry, the entrywise large-N limit of E."""
    indexer = BasisIndexer(k, ell)
    return operator_from_rule(indexer, _hermite_rule(k), "Hermite", (None, k, ell))


def build_derivative_squared(indexer: BasisIndexer, index: int) -> OperatorMatrix:
    """Matrix of d_index^2 (used by the commutation-relation checks)."""
    return operator_from_rule(
        indexer,
        lambda p: p.diff(index).diff(index),
        f"d{index + 1}^2",
        (None, indexer.varcount, indexer.max_degree),
    )


def build_euler_var(indexer: BasisIndexer, index: int) -> OperatorMatrix:
    """Matrix of x_index d_index for a single variable."""
    return operator_from_rule(
        indexer,
        lambda p: euler_apply(p, [index]),
        f"x{index + 1}d{index + 1}",
        (None, indexer.varcount, indexer.max_degree),
    )


def build_sphere_laplacian(
    cfg: SphereConfig, ell: int | None = None, include_mixed_term: bool = True
) -> OperatorMatrix:
    """Sphere Laplacian L = D + E - (2/N) R1 Ry on the joint degree <= ell basis.

    Built column by column from :func:`_sphere_rule`.
    ``include_mixed_term=False`` yields the decoupled operator D + E whose
    distance to L vanishes like 1/N in the moments.
    """
    ell = cfg.ell if ell is None else ell
    return _laplacian_cached(cfg.N, cfg.k, ell, include_mixed_term)


@lru_cache(maxsize=None)
def _laplacian_cached(
    N: int, k: int, ell: int, include_mixed_term: bool
) -> OperatorMatrix:
    return operator_from_rule(
        BasisIndexer(k, ell),
        _sphere_rule(N, k, include_mixed_term),
        "L" if include_mixed_term else "D+E",
        (N, k, ell),
    )


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Exact commutator a b - b a on a shared basis."""
    out = (a @ b) - (b @ a)
    return OperatorMatrix(
        out.entries, a.indexer, f"[{a.label},{b.label}]", a.params
    )
