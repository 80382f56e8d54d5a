"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in k variables is stored as a mapping from exponent tuples to
coefficients.  Coefficients are ``Fraction`` or ``int``, so every ring
operation is exact.  Zero coefficients are never stored, so structural
equality is mathematical equality.  The sphere operators of
:mod:`sphereheat.operators` are rules on these polynomials.

The module also provides the graded-lexicographic indexing of the monomial
basis of the truncated spaces of polynomials of total degree at most ``l``,
over which a rule expands into a dense reference matrix:

* monomials of lower total degree come first,
* within one degree, exponent tuples are ordered lexicographically
  descending, so for two variables the order starts
  ``1, x1, x2, x1^2, x1*x2, x2^2, ...``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

Exponents = tuple[int, ...]


class OutOfBasisError(ValueError):
    """A monomial's degree exceeds the cap of a truncated basis."""


def total_degree(alpha: Sequence[int]) -> int:
    """Total degree |alpha| of an exponent tuple."""
    return sum(alpha)


def _normalized(terms: Mapping[Exponents, object], varcount: int) -> dict:
    out = {}
    for alpha, coeff in terms.items():
        alpha = tuple(alpha)
        if len(alpha) != varcount:
            raise ValueError(
                f"exponent tuple {alpha} has length {len(alpha)}, expected {varcount}"
            )
        if any(e < 0 for e in alpha):
            raise ValueError(f"negative exponent in {alpha}")
        if coeff == 0:
            continue
        out[alpha] = coeff
    return out


class Polynomial:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms", "varcount")

    def __init__(self, varcount: int, terms: Mapping[Exponents, object] | None = None):
        if varcount < 1:
            raise ValueError("varcount must be >= 1")
        self.varcount = varcount
        self.terms = _normalized(terms or {}, varcount)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, varcount: int) -> "Polynomial":
        return cls(varcount)

    @classmethod
    def variable(cls, varcount: int, index: int) -> "Polynomial":
        """The polynomial x_index (0-based index)."""
        if not 0 <= index < varcount:
            raise ValueError(f"variable index {index} out of range for k={varcount}")
        alpha = [0] * varcount
        alpha[index] = 1
        return cls(varcount, {tuple(alpha): Fraction(1)})

    @classmethod
    def monomial(cls, alpha: Sequence[int], coeff=Fraction(1)) -> "Polynomial":
        alpha = tuple(alpha)
        return cls(len(alpha), {alpha: coeff})

    # ------------------------------------------------------------------
    # ring structure
    # ------------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.varcount == other.varcount and self.terms == other.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for alpha, coeff in other.terms.items():
            out[alpha] = out.get(alpha, 0) + coeff
        return Polynomial(self.varcount, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for alpha, coeff in other.terms.items():
            out[alpha] = out.get(alpha, 0) - coeff
        return Polynomial(self.varcount, out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            out: dict[Exponents, object] = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    out[key] = out.get(key, 0) + ca * cb
            return Polynomial(self.varcount, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "Polynomial":
        if scalar == 0:
            return Polynomial.zero(self.varcount)
        return Polynomial(self.varcount, {a: scalar * c for a, c in self.terms.items()})

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.varcount != other.varcount:
            raise ValueError(
                f"variable count mismatch: {self.varcount} vs {other.varcount}"
            )

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------

    def degree(self) -> int:
        """Total degree; the zero polynomial reports degree 0."""
        return max((total_degree(a) for a in self.terms), default=0)

    def diff(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index`` (0-based)."""
        out: dict[Exponents, object] = {}
        for alpha, coeff in self.terms.items():
            e = alpha[index]
            if e == 0:
                continue
            beta = list(alpha)
            beta[index] = e - 1
            key = tuple(beta)
            out[key] = out.get(key, 0) + e * coeff
        return Polynomial(self.varcount, out)

    def coefficient(self, alpha: Sequence[int]):
        return self.terms.get(tuple(alpha), Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=lambda a: (total_degree(a), tuple(-e for e in a))):
            coeff = self.terms[alpha]
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(alpha)
                if e
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


# ----------------------------------------------------------------------
# first-variable shift
# ----------------------------------------------------------------------


def shift_first_variable_powers(p: Polynomial) -> list[Polynomial]:
    """Decompose the substitution x1 -> x1 - m by powers of the shift m.

    Returns polynomials ``g`` such that ``p(x1 - m, x2, ...)`` equals
    ``sum_i m^i * g[i]`` for every scalar m.  The coefficients of each
    ``g[i]`` are exact rationals, so irrational shifts never contaminate
    the polynomial layer: they are applied only when the sum is formed.
    """
    buckets: list[dict[Exponents, object]] = [dict() for _ in range(p.degree() + 1)]
    for alpha, coeff in p.terms.items():
        n = alpha[0]
        rest = alpha[1:]
        for i in range(n + 1):
            c = coeff * math.comb(n, i) * (-1) ** i
            key = (n - i,) + rest
            bucket = buckets[i]
            bucket[key] = bucket.get(key, 0) + c
    return [Polynomial(p.varcount, b) for b in buckets]


def shift_first_variable(p: Polynomial, m) -> Polynomial:
    """Substitute x1 -> x1 - m, expanding binomially.

    The total degree is preserved and variables beyond the first are left
    untouched.  With a rational ``m`` the result is exact, and shifting by
    ``m`` and then ``-m`` round-trips exactly.
    """
    out = Polynomial.zero(p.varcount)
    for i, g in enumerate(shift_first_variable_powers(p)):
        out = out + g.scale(m**i) if i else out + g
    return out


# ----------------------------------------------------------------------
# graded-lexicographic basis indexing
# ----------------------------------------------------------------------


def _monomials_of_degree(varcount: int, degree: int) -> Iterator[Exponents]:
    """Exponent tuples of one total degree, lexicographically descending."""
    if varcount == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomials_of_degree(varcount - 1, degree - first):
            yield (first,) + rest


class BasisIndexer:
    """Bijective position map for the monomial basis of degree <= max_degree.

    The ordering is graded lexicographic: all monomials of one total degree
    are contiguous, and degrees increase with the index.  Every operator in
    this package is degree-nonincreasing, so its matrix in this ordering is
    block upper-triangular, with the diagonal blocks carrying the spectrum.
    """

    def __init__(self, varcount: int, max_degree: int):
        if varcount < 1:
            raise ValueError("varcount must be >= 1")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.varcount = varcount
        self.max_degree = max_degree
        self._monomials: list[Exponents] = [
            alpha
            for d in range(max_degree + 1)
            for alpha in _monomials_of_degree(varcount, d)
        ]
        self._positions = {alpha: i for i, alpha in enumerate(self._monomials)}

    @property
    def dimension(self) -> int:
        return len(self._monomials)

    def index(self, alpha: Sequence[int]) -> int:
        """Basis position of a monomial; raises OutOfBasisError beyond the cap."""
        key = tuple(alpha)
        if len(key) != self.varcount:
            raise ValueError(
                f"exponent tuple {key} has length {len(key)}, expected {self.varcount}"
            )
        try:
            return self._positions[key]
        except KeyError:
            raise OutOfBasisError(
                f"monomial {key} of degree {total_degree(key)} exceeds cap {self.max_degree}"
            ) from None

    def monomial(self, i: int) -> Exponents:
        """Inverse of :meth:`index`."""
        return self._monomials[i]

    def __iter__(self) -> Iterator[Exponents]:
        return iter(self._monomials)

    def __len__(self) -> int:
        return len(self._monomials)

    def __repr__(self) -> str:
        return f"BasisIndexer(varcount={self.varcount}, max_degree={self.max_degree})"

    def to_vector(self, p: Polynomial) -> list:
        """Coefficient vector of ``p`` in basis order (Fractions preserved)."""
        if p.varcount != self.varcount:
            raise ValueError("variable count mismatch with basis")
        vec = [Fraction(0)] * self.dimension
        for alpha, coeff in p.terms.items():
            vec[self.index(alpha)] = coeff
        return vec
