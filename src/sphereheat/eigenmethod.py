"""Closed-form route for first-coordinate moments via eigen-polynomials.

The one-variable operator D = d^2 - (1-2/N) x d - (1/N)(x d)^2 is
diagonalized by a family of monic polynomials p_n with exact rational
coefficients (built by exact ratio recurrences) and eigenvalues
lambda_n = -n (1 + (n-2)/N).  Expanding a monomial over that family,
applying exp((t/2) D) eigenvalue by eigenvalue, and evaluating at sqrt(N)
yields finite-N moments in closed form, kept symbolic as sums of rationals
times exp(-s t/2) exp(q t/(2N)) N^(p/2) until :func:`evaluate_exp_sum`
adds them exactly on one binary grid from shared powers of three bases.
:func:`eigen_moment_terms` is the one exact derivation of the package:
:mod:`sphereheat.heatop` reduces every moment to first-coordinate parts
and sums their eigen expansions through it.

The module also carries the 1/N power-series machinery for the rational
factor t0(h) that drives the large-N moment analysis, and the limiting
moment formula itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import mpmath

from .gaussian_limit import even_moment_factor, var_first
from .operators import SphereConfig
from .polyalg import Polynomial


class DegenerateParameterError(ValueError):
    """Sphere parameter too small for the closed-form machinery."""


def falling(z, j: int) -> Fraction:
    """Falling factorial z (z-1) ... (z-j+1), exact."""
    if j < 0:
        raise ValueError("j must be >= 0")
    out = Fraction(1)
    z = Fraction(z)
    for i in range(j):
        out *= z - i
    return out


def rising(z, j: int) -> Fraction:
    """Rising factorial z (z+1) ... (z+j-1), exact."""
    if j < 0:
        raise ValueError("j must be >= 0")
    out = Fraction(1)
    z = Fraction(z)
    for i in range(j):
        out *= z + i
    return out


def _require_regular_n(N: int) -> None:
    if N < 2:
        raise DegenerateParameterError(
            f"N={N} is rejected for the closed-form route; use N >= 2"
        )


def eigenvalue(n: int, N: int) -> Fraction:
    """Exact eigenvalue lambda_n = -n (1 + (n-2)/N) of degree n."""
    return Fraction(-n * (N + n - 2), N)


def eigenvalues_distinct(ell: int, N: int) -> bool:
    """Whether lambda_0 ... lambda_ell are pairwise distinct."""
    vals = [eigenvalue(n, N) for n in range(ell + 1)]
    return len(set(vals)) == len(vals)


@dataclass(frozen=True)
class EigenPolynomial:
    """Monic degree-n polynomial diagonalizing D, with its eigenvalue.

    ``coeffs[j]`` is the exact coefficient of x^(n-2j); the leading
    coefficient is one.  The eigen-relation D p = lambda p is re-verified
    exactly on construction.
    """

    n: int
    N: int
    coeffs: tuple[Fraction, ...]
    eigenvalue: Fraction

    def polynomial(self) -> Polynomial:
        return Polynomial(
            1, {(self.n - 2 * j,): c for j, c in enumerate(self.coeffs)}
        )


@lru_cache(maxsize=1024)
def eigen_poly(n: int, N: int) -> EigenPolynomial:
    """Eigen-polynomial p_n of D for sphere parameter N (memoized).

    p_n(x) = sum_j (-N/4)^j  n^(2j falling) / (j! (N/2 + n - 2)^(j falling))
             x^(n-2j),
    built by the exact ratio c_(j+1) / c_j = -N (n-2j) (n-2j-1) / (2 (j+1) (N + 2n - 4 - 2j)).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_regular_n(N)
    coeffs = [Fraction(1)]
    for j in range(n // 2):
        coeffs.append(coeffs[j] * Fraction(-N * (n - 2 * j) * (n - 2 * j - 1),
                                           2 * (j + 1) * (N + 2 * n - 4 - 2 * j)))
    lam = eigenvalue(n, N)
    if _apply_d(n, N, coeffs) != [lam * c for c in coeffs]:
        raise AssertionError(f"eigen-relation failed for n={n}, N={N}")
    return EigenPolynomial(n=n, N=N, coeffs=tuple(coeffs), eigenvalue=lam)


def _apply_d(n: int, N: int, coeffs: Sequence[Fraction]) -> list[Fraction]:
    """D p for p = sum_j coeffs[j] x^(n-2j), from D = d^2 - (1-2/N) R1 - (1/N) R1^2:
    d^2 sends x^(e+2) to (e+2)(e+1) x^e and R1 multiplies x^e by e."""
    c1, cN = 1 - Fraction(2, N), Fraction(1, N)
    out = []
    for j, c in enumerate(coeffs):
        e = n - 2 * j
        lowered = (e + 2) * (e + 1) * coeffs[j - 1] if j else 0
        out.append(lowered - (c1 * e + cN * e * e) * c)
    return out


@lru_cache(maxsize=1024)
def eigen_poly_at_sqrtN(n: int, N: int) -> Fraction:
    """Exact normalized value p_n(sqrt(N)) / N^(n/2) (memoized).

    Computed directly from the coefficients and cross-validated against the
    hypergeometric product form; the two must agree exactly.
    """
    p = eigen_poly(n, N)
    direct = sum((c * Fraction(N) ** -j for j, c in enumerate(p.coeffs)), Fraction(0))
    product = pw_product_form(n, N)
    if direct != product:
        raise AssertionError(
            f"product form disagrees with direct evaluation at n={n}, N={N}"
        )
    return direct


def pw_product_form(n: int, N: int) -> Fraction:
    """Product form of p_n(sqrt(N)) / N^(n/2):
    ((N-1)/2)^(floor(n/2) rising) / (N/2 + n - 2)^(floor(n/2) falling).
    """
    _require_regular_n(N)  # so no factor of the denominator vanishes
    half = n // 2
    return rising(Fraction(N - 1, 2), half) / falling(Fraction(N, 2) + n - 2, half)


def pw_simplified_form(n: int, N: int) -> Fraction:
    """The compact form (N-1)^(n rising) / (2^n (N/2)^(n rising)) of
    p_n(sqrt(N)) / N^(n/2).

    This form does not match direct evaluation for n >= 1 (already p_1
    gives (N-1)/N instead of 1); in fact it reproduces the direct value of
    degree n+1 exactly, i.e. it telescopes a ratio that is shifted by one
    degree.  It is exposed solely so the mismatch can be reported; all
    computation uses :func:`pw_product_form`.
    """
    return rising(N - 1, n) / (2**n * rising(Fraction(N, 2), n))


@dataclass(frozen=True)
class PwDiscrepancy:
    n: int
    direct: Fraction
    simplified: Fraction

    @property
    def matches(self) -> bool:
        return self.direct == self.simplified


def pw_discrepancy_report(n_max: int, N: int) -> list[PwDiscrepancy]:
    """Compare the direct evaluation with the simplified form for n <= n_max."""
    return [
        PwDiscrepancy(n, eigen_poly_at_sqrtN(n, N), pw_simplified_form(n, N))
        for n in range(n_max + 1)
    ]


def evaluation_ratio(n: int, N: int) -> Fraction:
    """Directly computed ratio p_(n+1)(sqrt N) / (sqrt(N) p_n(sqrt N)).

    Equals (N + n - 2) / (N + 2n - 2) for every n >= 0, one rational
    expression regardless of the parity of n.
    """
    return eigen_poly_at_sqrtN(n + 1, N) / eigen_poly_at_sqrtN(n, N)


@lru_cache(maxsize=1024)
def monomial_in_eigenbasis(n: int, N: int) -> tuple[Fraction, ...]:
    """Coefficients c_j with x^n = sum_j c_j p_(n-2j), exact (memoized).

    c_j = (N/4)^j n^(2j falling) / (j! (N/2 + n - j - 1)^(j falling)), built by
    the exact ratio c_(j+1) / c_j
    = N (n-2j) (n-2j-1) (N + 2n - 2j - 2) / (2 (j+1) (N + 2n - 4j - 2) (N + 2n - 4j - 4)).
    The reconstruction is verified exactly, coefficient by coefficient, before returning.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_regular_n(N)
    coeffs = [Fraction(1)]
    for j in range(n // 2):
        coeffs.append(coeffs[j] * Fraction(
            N * (n - 2 * j) * (n - 2 * j - 1) * (N + 2 * n - 2 * j - 2),
            2 * (j + 1) * (N + 2 * n - 4 * j - 2) * (N + 2 * n - 4 * j - 4)))
    recon = [Fraction(0)] * len(coeffs)  # recon[i]: coefficient of x^(n-2i)
    for j, c in enumerate(coeffs):
        for i, e in enumerate(eigen_poly(n - 2 * j, N).coeffs, j):
            recon[i] += c * e
    if recon != [1] + [0] * (len(coeffs) - 1):
        raise AssertionError(f"eigenbasis reconstruction failed for n={n}, N={N}")
    return tuple(coeffs)


# ----------------------------------------------------------------------
# finite-N first-coordinate moments
# ----------------------------------------------------------------------


def evaluate_exp_sum(
    terms: Mapping[tuple[int, int, int], Fraction], N: int, t: float
) -> tuple[float, float]:
    """Value and error bound of  sum weight * exp(-s t/2) * exp(q t/(2N)) * N^(p/2).

    The terms can cancel from their largest magnitude 10^top down to an O(1)
    result, so they are carried to dps = ceil(top) + 30 digits: the bases
    a = exp(-t/2), b = exp(t/(2N)), sqrt(N) and each distinct power of them
    are taken once at P bits, each term is truncated to an integer multiple
    of 2^g <= 2^-10 10^(top - dps), and the integers are summed exactly
    before one correctly rounded division.  Weights must be nonzero.

    Error: with u = 2^(1-P), a and sqrt(N) are within u, b within (1 + t) u
    (its argument is rounded too), each power rounds once more and the
    products of a term are exact, so a term's transcendental factor is
    within K u, K = |s| + (1 + t) |q| + 8, relatively.  P is dps digits plus
    bit_length(K) + 11 bits, so K u < 2^-10 10^-dps, and a term of at most
    10^top is off by less than 2^-9 10^(top - dps): well inside the bound's
    10^(top + 1 - dps) per term, besides half an ulp of the double.
    """
    top = max((  # log10 of the largest term
        math.log10(abs(w.numerator)) - math.log10(w.denominator)
        + (-s * t / 2 + q * t / (2 * N)) / math.log(10) + p * math.log10(N) / 2
        for (s, q, p), w in terms.items()
    ), default=0.0)
    dps = max(math.ceil(top), 0) + 30
    k_max = math.ceil(max((abs(s) + (1 + t) * abs(q) for s, q, _ in terms), default=0) + 8)
    g = math.floor((top - dps) * math.log2(10)) - 10
    with mpmath.workprec(math.ceil(dps * math.log2(10)) + k_max.bit_length() + 11):
        a, b = mpmath.exp(-mpmath.mpf(t) / 2), mpmath.exp(mpmath.mpf(t) / (2 * N))
        root_man, root_exp = mpmath.sqrt(N).man_exp  # (mantissa, exponent) pairs from here
        a_pow = {s: (a**s).man_exp for s in {s for s, _, _ in terms}}
        b_pow = {q: (b**q).man_exp for q in {q for _, q, _ in terms}}
    n_pow = {p: (root_man * N ** (p // 2), root_exp) if p % 2 else (N ** (p // 2), 0)
             for p in {p for _, _, p in terms}}
    total = 0
    for (s, q, p), w in terms.items():
        (ma, ea), (mb, eb), (mn, en) = a_pow[s], b_pow[q], n_pow[p]
        shift = ea + eb + en - g
        if shift >= 0:
            total += (w.numerator * ma * mb * mn << shift) // w.denominator
        else:
            total += w.numerator * ma * mb * mn // (w.denominator << -shift)
    value = total / (1 << -g) if g < 0 else float(total << g)
    return value, 0.5 * math.ulp(value) + len(terms) * 10.0 ** (top + 1 - dps)


@dataclass(frozen=True)
class FiniteMomentX1:
    """Symbolic finite-N moment of x1^n.

    ``terms`` maps integer triples (s, q, p) to exact rational weights; the
    moment is  sum  weight * exp(-s t/2) * exp(q t/(2N)) * N^(p/2).
    Transcendental factors enter only at evaluation time.
    """

    n: int
    N: int
    terms: Mapping[tuple[int, int, int], Fraction]

    def evaluate_extended(self, t: float) -> float:
        """Numeric value of the moment, through :func:`evaluate_exp_sum`."""
        return evaluate_exp_sum(self.terms, self.N, t)[0]


@lru_cache(maxsize=256)
def eigen_moment_terms(
    N: int, parts: tuple[tuple[tuple[int, Fraction], ...], ...]
) -> Mapping[tuple[int, int, int], Fraction]:
    """Exact moment  sum_i m^i E[g_i(y1)]  as (s, q, p) -> weight terms.

    ``parts[i]`` holds the (n, c) pairs of g_i = sum c y1^n.  Each y1^n is
    expanded over the eigenbasis, each p_d scaled by exp(t lambda_d / 2) and
    evaluated at sqrt(N): the key (d, -d (d-2), d).  The drift power
    m^i = N^(i/2) exp(-i t/2) exp(i t/(2N)) shifts a key by (i, i, i).
    Memoized per (parts, N), so every t shares it; the mapping is read-only.
    The eigenvalues are distinct for N >= 2: lambda_a = lambda_b means
    (a - b) (N - 2 + a + b) = 0.
    """
    terms: dict[tuple[int, int, int], Fraction] = {}
    for i, g in enumerate(parts):
        for n, coeff in g:
            for j, c in enumerate(monomial_in_eigenbasis(n, N)):
                d = n - 2 * j
                key = (i + d, i - d * (d - 2), i + d)
                terms[key] = terms.get(key, 0) + coeff * c * eigen_poly_at_sqrtN(d, N)
    return MappingProxyType({k: w for k, w in terms.items() if w})


@lru_cache(maxsize=1024)
def finite_moment_x1(n: int, N: int) -> FiniteMomentX1:
    """The exact finite-N moment of x1^n: :func:`eigen_moment_terms` of the
    binomial parts of (y1 - m)^n.  Memoized per (n, N)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    parts = tuple(((n - i, Fraction(math.comb(n, i) * (-1) ** i)),) for i in range(n + 1))
    return FiniteMomentX1(n=n, N=N, terms=eigen_moment_terms(N, parts))


def heat_moment_x1_eigen(n: int, cfg: SphereConfig) -> float:
    """Finite-N heat-kernel moment of x1^n by the eigen route."""
    if n > cfg.ell:
        raise ValueError(f"degree {n} exceeds configured cap {cfg.ell}")
    return finite_moment_x1(n, cfg.N).evaluate_extended(cfg.t)


def limit_moment_x1(n: int, t: float) -> float:
    """Large-N limit of the x1^n moment:
    (n-1)!! (1 - e^{-t} - t e^{-t})^(n/2) for even n, zero for odd n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2:
        return 0.0
    return even_moment_factor(n) * var_first(t) ** (n // 2)


# ----------------------------------------------------------------------
# the t0(h) factor and its 1/N power series
# ----------------------------------------------------------------------


def t0_exact(j: int, h: int, N: int) -> Fraction:
    """Exact rational t0(h) = (N-1)^(h rising) / (2^h (N/2)^((h+j) rising))."""
    if j < 0 or h < 0:
        raise ValueError("j and h must be >= 0")
    if N < 2:
        raise ValueError("N must be >= 2")
    return rising(N - 1, h) / (2**h * rising(Fraction(N, 2), h + j))


def _poly_eval_frac(coeffs: Sequence[Fraction], x) -> Fraction:
    out = Fraction(0)
    for c in reversed(list(coeffs)):
        out = out * x + c
    return out


def _interpolate(points: Sequence[tuple[int, Fraction]]) -> tuple[Fraction, ...]:
    """Exact Lagrange interpolation through the given integer nodes."""
    total = Polynomial.zero(1)
    x = Polynomial.variable(1, 0)
    for xi, yi in points:
        basis = Polynomial.constant(1, Fraction(1))
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            basis = basis * (x - Polynomial.constant(1, Fraction(xj)))
            denom *= Fraction(xi - xj)
        total = total + (yi / denom) * basis
    degree = total.degree()
    return tuple(total.coefficient((d,)) for d in range(degree + 1))


def _initial_constants(j: int, order: int) -> list[Fraction]:
    """Coefficients of t0(0) * N^j = 2^j prod_i (1 + 2i/N)^(-1) in powers 1/N."""
    series = [Fraction(1)] + [Fraction(0)] * order
    for i in range(j):
        # multiply by the geometric series of (1 + 2i/N)^(-1)
        factor = [Fraction((-2 * i) ** s) for s in range(order + 1)]
        series = [
            sum(series[r] * factor[s - r] for r in range(s + 1))
            for s in range(order + 1)
        ]
    return [Fraction(2**j) * c for c in series]


@dataclass(frozen=True)
class SeriesCoefficients:
    """Polynomials u_0 ... u_L with t0(h) = sum_l u_l(h) / N^(l+j).

    Each ``u[l]`` is a coefficient tuple (ascending powers of h) of a
    polynomial of degree 2l with leading coefficient (-1)^l 2^(j-l) / l!.
    The family satisfies, order by order in 1/N, the exact recurrence
    (N + 2h + 2j) t0(h+1) = (N + h - 1) t0(h) obeyed by t0 itself:

        u_l(h+1) - u_l(h) = (h-1) u_(l-1)(h) - (2h + 2j) u_(l-1)(h+1).
    """

    j: int
    u: tuple[tuple[Fraction, ...], ...]

    @property
    def order(self) -> int:
        return len(self.u) - 1

    def u_value(self, ell: int, h: int) -> Fraction:
        return _poly_eval_frac(self.u[ell], Fraction(h))

    def leading_coefficient(self, ell: int) -> Fraction:
        return self.u[ell][-1]

    def partial_sum(self, h: int, N: int, upto: int | None = None) -> Fraction:
        """Exact partial sum sum_(l<=upto) u_l(h) / N^(l+j)."""
        upto = self.order if upto is None else upto
        if upto > self.order:
            raise ValueError("requested order exceeds computed coefficients")
        total = Fraction(0)
        for ell in range(upto + 1):
            total += self.u_value(ell, h) / Fraction(N) ** (ell + self.j)
        return total


def t0_series(j: int, L: int) -> SeriesCoefficients:
    """Compute the 1/N expansion coefficients u_0 ... u_L of t0(h).

    Values of each u_l on 0..2l are generated from the recurrence, with the
    additive constant fixed by the exact expansion of t0(0); Lagrange
    interpolation recovers the polynomial, which is then re-verified
    against the recurrence at extra points.
    """
    if j < 0 or L < 0:
        raise ValueError("j and L must be >= 0")
    init = _initial_constants(j, L)
    polys: list[tuple[Fraction, ...]] = []
    for ell in range(L + 1):
        if ell == 0:
            polys.append((init[0],))
            continue
        prev = polys[ell - 1]
        npts = 2 * ell + 4  # degree 2*ell plus verification slack
        values = [init[ell]]
        for h in range(npts - 1):
            step = (
                (h - 1) * _poly_eval_frac(prev, Fraction(h))
                - (2 * h + 2 * j) * _poly_eval_frac(prev, Fraction(h + 1))
            )
            values.append(values[-1] + step)
        coeffs = _interpolate(list(enumerate(values[: 2 * ell + 1])))
        for h in range(2 * ell + 1, npts):
            if _poly_eval_frac(coeffs, Fraction(h)) != values[h]:
                raise AssertionError(
                    f"u_{ell} is not a degree-{2 * ell} polynomial (j={j})"
                )
        polys.append(coeffs)
    return SeriesCoefficients(j=j, u=tuple(polys))
