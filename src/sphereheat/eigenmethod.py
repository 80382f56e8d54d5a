"""Closed-form route for first-coordinate moments via eigen-polynomials.

The one-variable operator D = d^2 - (1-2/N) x d - (1/N)(x d)^2 is
diagonalized by a family of monic polynomials p_n with exact rational
coefficients (built by exact ratio recurrences) and eigenvalues
lambda_n = -n (1 + (n-2)/N).  Expanding a monomial over that family,
applying exp((t/2) D) eigenvalue by eigenvalue, and evaluating at sqrt(N)
yields finite-N moments in closed form, polynomials in the drift
m = sqrt(N) exp((t/2)(1/N - 1)): sums of rationals times m^j exp(-c t/N),
which :func:`evaluate_exp_sum` adds exactly from powers of m and exp(-t/N).
The one exact derivation of the package is two steps: the rotation
reduction :func:`_first_coordinate_parts` turns a polynomial into parts in
the shifted first coordinate, and :func:`eigen_moment_terms` sums their
eigen expansions.  :mod:`sphereheat.heatop` takes every moment through
them, and :func:`finite_moment_x1` is their x1^n case.  Both, and the
eigen-polynomials, their values at sqrt(N) and the expansion of x^n over
them, compute in Python integers over one common denominator each; their
runtime checks (D p = lambda p, the direct value against the product form,
the O(n) check of the expansion) hold multiplied through by those
denominators, and the public functions return the same Fractions.

The module also carries the 1/N power series of the rational factor t0(h)
that drives the large-N moment analysis, each coefficient polynomial
solved from the recurrence of t0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import mpmath

from .gaussian_limit import even_moment_factor
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


def _over_one_denominator(ratios: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """Integers a_0 ... a_J and Q with a_j / Q = prod_(i<j) p_i / q_i over the ratios
    (p_i, q_i), i < J: a_j = prod_(i<j) p_i prod_(j<=i<J) q_i and Q = prod q_i."""
    heads, tails = [1], [1]
    for p, _ in ratios:
        heads.append(heads[-1] * p)
    for _, q in reversed(ratios):
        tails.append(tails[-1] * q)
    return tuple(h * t for h, t in zip(heads, reversed(tails))), tails[-1]


@lru_cache(maxsize=1024)
def _eigen_coeffs(n: int, N: int) -> tuple[tuple[int, ...], int]:
    """The coefficients of p_n as integers a_j over one denominator Q, c_j = a_j / Q
    (memoized), from the exact ratio
    c_(j+1) / c_j = -N (n-2j) (n-2j-1) / (2 (j+1) (N + 2n - 4 - 2j)).
    D p = lambda p is checked multiplied through by N Q: N D p = -n (N + n - 2) p."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_regular_n(N)
    nums, den = _over_one_denominator([
        (-N * (n - 2 * j) * (n - 2 * j - 1), 2 * (j + 1) * (N + 2 * n - 4 - 2 * j))
        for j in range(n // 2)])
    if _apply_d(n, N, nums) != [-n * (N + n - 2) * a for a in nums]:
        raise AssertionError(f"eigen-relation failed for n={n}, N={N}")
    return nums, den


def eigen_poly(n: int, N: int) -> EigenPolynomial:
    """Eigen-polynomial p_n of D for sphere parameter N.

    p_n(x) = sum_j (-N/4)^j  n^(2j falling) / (j! (N/2 + n - 2)^(j falling))
             x^(n-2j),
    the coefficients of :func:`_eigen_coeffs` as Fractions.
    """
    nums, den = _eigen_coeffs(n, N)
    return EigenPolynomial(n=n, N=N, coeffs=tuple(Fraction(a, den) for a in nums),
                           eigenvalue=eigenvalue(n, N))


def _apply_d(n: int, N: int, coeffs: Sequence) -> list:
    """N D p for p = sum_j coeffs[j] x^(n-2j), from N D = N d^2 - (N-2) R1 - R1^2:
    d^2 sends x^(e+2) to (e+2)(e+1) x^e and R1 multiplies x^e by e.  Integer
    coefficients give integers."""
    out = []
    for j, c in enumerate(coeffs):
        e = n - 2 * j
        lowered = N * (e + 2) * (e + 1) * coeffs[j - 1] if j else 0
        out.append(lowered - e * (N - 2 + e) * c)
    return out


@lru_cache(maxsize=1024)
def _value_at_sqrtN(n: int, N: int) -> tuple[int, int]:
    """p_n(sqrt(N)) / N^(n/2) in lowest terms, (numerator, denominator) (memoized).

    The direct value sum_j c_j N^-j is summed by Horner over the common
    denominator Q N^J, J = floor(n/2), and must equal the product form
    :func:`pw_product_form`, cross-multiplied in integers.
    """
    nums, den = _eigen_coeffs(n, N)
    direct = 0
    for a in nums:
        direct = direct * N + a
    product = pw_product_form(n, N)
    if direct * product.denominator != product.numerator * den * N ** (len(nums) - 1):
        raise AssertionError(
            f"product form disagrees with direct evaluation at n={n}, N={N}"
        )
    return product.numerator, product.denominator


def eigen_poly_at_sqrtN(n: int, N: int) -> Fraction:
    """Exact normalized value p_n(sqrt(N)) / N^(n/2).

    Computed directly from the coefficients and cross-validated against the
    hypergeometric product form; the two must agree exactly.
    """
    return Fraction(*_value_at_sqrtN(n, N))


def pw_product_form(n: int, N: int) -> Fraction:
    """Product form of p_n(sqrt(N)) / N^(n/2):
    ((N-1)/2)^(floor(n/2) rising) / (N/2 + n - 2)^(floor(n/2) falling)
    = prod_(i<h) (N - 1 + 2i) / (N + 2n - 4 - 2i), h = floor(n/2).
    """
    _require_regular_n(N)  # so no factor of the denominator vanishes
    half = n // 2
    return Fraction(math.prod(range(N - 1, N - 1 + 2 * half, 2)),
                    math.prod(range(N + 2 * n - 4, N + 2 * n - 4 - 2 * half, -2)))


def pw_simplified_form(n: int, N: int) -> Fraction:
    """The compact form (N-1)^(n rising) / (2^n (N/2)^(n rising)) of
    p_n(sqrt(N)) / N^(n/2), which is t0(n) at j = 0.

    This form does not match direct evaluation for n >= 1 (already p_1
    gives (N-1)/N instead of 1): it is prod_(i<n) (N-1+i) / (N+2i), the
    product of :func:`evaluation_ratio` over 1 <= i <= n, which carries the
    direct value 1 of degree 1 to that of degree n+1.  It is exposed solely
    so the mismatch can be reported; all computation uses
    :func:`pw_product_form`.
    """
    return t0_exact(0, n, N)


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
def _monomial_expansion(n: int, N: int) -> tuple[tuple[int, ...], int]:
    """Coefficients c_j with x^n = sum_j c_j p_(n-2j), as integers a_j over one
    denominator Q, c_j = a_j / Q (memoized).

    c_j = (N/4)^j n^(2j falling) / (j! (N/2 + n - j - 1)^(j falling)), built by
    the exact ratio c_(j+1) / c_j
    = N (n-2j) (n-2j-1) (N + 2n - 2j - 2) / (2 (j+1) (N + 2n - 4j - 2) (N + 2n - 4j - 4)).
    Verified exactly in O(n), by induction on n from x^0 = p_0, x^1 = p_1: with c' the
    verified x^(n-2), D x^n = lambda_n x^n + n (n-1) x^(n-2) and the eigen relations of
    :func:`_eigen_coeffs`, r = x^n - sum_j c_j p_(n-2j) has (D - lambda_n) r = sum_(j>=1)
    [n (n-1) c'_(j-1) - c_j (lambda_(n-2j) - lambda_n)] p_(n-2j), each bracket 0, checked
    multiplied through by N and both denominators.  As c_0 = 1, r holds x^e, e < n,
    where D is triangular with distinct diagonal lambda_e: so r = 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_regular_n(N)
    nums, den = _over_one_denominator([
        (N * (n - 2 * j) * (n - 2 * j - 1) * (N + 2 * n - 2 * j - 2),
         2 * (j + 1) * (N + 2 * n - 4 * j - 2) * (N + 2 * n - 4 * j - 4))
        for j in range(n // 2)])
    _eigen_coeffs(n, N)  # checks D p_n = lambda_n p_n
    lower, lower_den = (), 1
    for e in range(n % 2, n - 1, 2):  # lowest first, so no call recurses deeper than one
        lower, lower_den = _monomial_expansion(e, N)
    gap = n * (N + n - 2)  # N (lambda_e - lambda_n) = gap - e (N + e - 2)
    for j, a in enumerate(nums[1:], 1):
        e = n - 2 * j
        if a * (gap - e * (N + e - 2)) * lower_den != N * n * (n - 1) * lower[j - 1] * den:
            raise AssertionError(f"eigenbasis expansion failed for n={n}, N={N}")
    return nums, den


def monomial_in_eigenbasis(n: int, N: int) -> tuple[Fraction, ...]:
    """Coefficients c_j with x^n = sum_j c_j p_(n-2j), exact: those of
    :func:`_monomial_expansion` as Fractions."""
    nums, den = _monomial_expansion(n, N)
    return tuple(Fraction(a, den) for a in nums)


# ----------------------------------------------------------------------
# finite-N first-coordinate moments
# ----------------------------------------------------------------------


_MAX_DPS = 2000  # digit budget of one exp-sum
_TERM_ERROR = 8  # per-term error allowance of an exp-sum pass, in units of its grid 2^g


class ExpSumPrecisionError(ValueError):
    """An exp-sum cancels too far to reach the nearest double within ``_MAX_DPS`` digits."""


def evaluate_exp_sum(
    terms: Mapping[tuple[int, int], Fraction], N: int, t: float
) -> tuple[float, float]:
    """Value and error bound of  sum w m^j exp(-c t/N)  over (j, c) -> w, with
    the drift m = sqrt(N) exp((t/2)(1/N - 1)); weights must be nonzero.

    The value is the double nearest the exact sum, and the bound is half its
    ulp, rounded up to a double (the smallest positive one where half an ulp
    is not a double), so it is never 0.  The
    terms can cancel from their largest magnitude 10^top down to an O(1)
    result or far below, so a pass carries dps = ceil(top) + guard digits:
    m, e = exp(-t/N) and each distinct power of them are taken once at P
    bits, each term is truncated to an integer multiple of the grid 2^g,
    2^-11 10^(top - dps) < 2^g <= 2^-10 10^(top - dps), and the integers are
    summed exactly.  The exact sum lies within err = 8 (#terms) grid units of
    that integer total; when total - err and total + err round to the same
    double, so does the exact sum, and that double is returned (a zero keeps
    its sign only when both ends agree on it).  Otherwise the guard digits
    double, from 30; past ``_MAX_DPS`` digits it raises
    :class:`ExpSumPrecisionError`.

    Error: with u = 2^(1-P), each rounded operation is within u.  The
    argument t (1-N)/(2N), below t/2 in size, takes two roundings, so m is
    within (3 + t) u with its exp, sqrt(N) and product; -t/N takes one, so e
    is within (1 + t) u.  A power x^j of a base within a u is within
    (j a + 1) u and a term's products are exact, so its transcendental
    factor is within K u, K = (3 + T) j + (1 + T) c + 8 with T = ceil(t) (in
    integers, as t may be near the double range), the 8 covering both
    powers' roundings and every second-order term.  P is dps digits plus
    bit_length(K) + 11 bits, so K u < 2^-10 10^-dps, and a term below
    2 10^top (top is a float estimate) is off by less than 2^-9 10^(top - dps),
    under 4 grid units; the floor of its truncation adds under 1 more.
    """
    log10_m = math.log10(N) / 2 + t * (1 / N - 1) / (2 * math.log(10))
    top = max((  # log10 of the largest term
        math.log10(abs(w.numerator)) - math.log10(w.denominator)
        + j * log10_m - c * t / (N * math.log(10))
        for (j, c), w in terms.items()
    ), default=0.0)
    err = _TERM_ERROR * len(terms)
    guard = 30
    while (dps := max(math.ceil(top), 0) + guard) <= _MAX_DPS:
        total, g = _exp_sum_at(terms, N, t, top, dps)
        lo, hi = _grid_float(total - err, g), _grid_float(total + err, g)
        if lo == hi:
            value = lo if lo else lo + hi
            return value, max(0.5 * math.ulp(value), math.ulp(0.0))
        guard *= 2
    raise ExpSumPrecisionError(f"exp-sum at N={N}, t={t} cancels past {_MAX_DPS} digits")


def _grid_float(total: int, g: int) -> float:
    """total * 2^g, correctly rounded to a double."""
    if total.bit_length() + g <= -1075:  # below half the least subnormal, even at a huge -g
        return math.copysign(0.0, total)
    return total / (1 << -g) if g < 0 else float(total << g)


def _exp_sum_at(terms: Mapping, N: int, t: float, top: float, dps: int) -> tuple[int, int]:
    """The exp-sum of :func:`evaluate_exp_sum` at dps digits, largest term 10^top,
    as an integer total on the grid 2^g: (total, g)."""
    t_up = math.ceil(t)
    k_max = max(((3 + t_up) * j + (1 + t_up) * c for j, c in terms), default=0) + 8
    g = math.floor((top - dps) * math.log2(10)) - 10
    with mpmath.workprec(math.ceil(dps * math.log2(10)) + k_max.bit_length() + 11):
        tt = mpmath.mpf(t)
        m, e = mpmath.sqrt(N) * mpmath.exp(tt * (1 - N) / (2 * N)), mpmath.exp(-tt / N)
        m_pow = {j: (m**j).man_exp for j in {j for j, _ in terms}}  # (mantissa, exponent)
        e_pow = {c: (e**c).man_exp for c in {c for _, c in terms}}
    total = 0
    for (j, c), w in terms.items():
        (mm, em), (me, ee) = m_pow[j], e_pow[c]
        shift = em + ee - g
        if shift >= 0:
            total += (w.numerator * mm * me << shift) // w.denominator
        else:
            total += (w.numerator * mm * me >> -shift) // w.denominator
    return total, g


@dataclass(frozen=True)
class FiniteMomentX1:
    """Symbolic finite-N moment of x1^n.

    ``terms`` maps integer pairs (j, c) to exact rational weights; the moment
    is  sum  weight * m^j * exp(-c t/N)  in the drift m = sqrt(N) exp((t/2)(1/N - 1)).
    Transcendental factors enter only at evaluation time.
    """

    n: int
    N: int
    terms: Mapping[tuple[int, int], Fraction]

    def evaluate_extended(self, t: float) -> float:
        """Numeric value of the moment, through :func:`evaluate_exp_sum`."""
        return evaluate_exp_sum(self.terms, self.N, t)[0]


@lru_cache(maxsize=256)
def _first_coordinate_parts(N: int, k: int, terms: tuple) -> tuple:
    """Parts of f = sum c x^alpha over (alpha, c) in terms, in integers over one
    denominator: (den, parts) with E f = sum_i m^i E[g_i(y1)] / den, where
    parts[i] lists the (n, a) of g_i = sum a y1^n by increasing n, each a a
    nonzero integer, for i up to the total degree of f.

    Given y1 = x1 + m, x1^a = sum_i C(a, i) (-m)^i y1^(a-i), and the other
    coordinates are uniform on the sphere of radius sqrt(N - y1^2) in N - 1
    dimensions, so E[prod_j x_j^b_j | y1] is 0 if some b_j is odd and
    c_b(N) (N - y1^2)^h otherwise, h = |b|/2, with c_b(N) = prod (b_j - 1)!! /
    prod_(i<h) (N - 1 + 2i) (G. B. Folland, How to integrate a polynomial over a
    sphere, Amer. Math. Monthly 108, 2001).  den is the least common multiple
    of the coefficients' denominators times prod_(i<H) (N - 1 + 2i), H the
    largest h.
    """
    even = [(alpha, c) for alpha, c in terms if not any(e % 2 for e in alpha[1:])]
    h_top = max((sum(alpha[1:]) // 2 for alpha, _ in even), default=0)
    scale = math.lcm(*(c.denominator for _, c in even))
    parts: list[dict[int, int]] = [{} for _ in range(max((sum(a) for a, _ in even), default=0) + 1)]
    for (n, *b), c in even:
        h = sum(b) // 2
        w = (c.numerator * (scale // c.denominator) * math.prod(map(even_moment_factor, b))
             * math.prod(range(N - 1 + 2 * h, N - 1 + 2 * h_top, 2)))
        for i in range(n + 1):
            part, shifted = parts[i], w * math.comb(n, i) * (-1) ** i
            for l in range(h + 1):  # (N - y1^2)^h, expanded
                d = n - i + 2 * l
                part[d] = part.get(d, 0) + shifted * math.comb(h, l) * (-1) ** l * N ** (h - l)
    den = scale * math.prod(range(N - 1, N - 1 + 2 * h_top, 2))
    return den, tuple(tuple(sorted((n, a) for n, a in part.items() if a)) for part in parts)


def eigen_moment_terms(N: int, parts: tuple) -> Mapping[tuple[int, int], Fraction]:
    """Exact moment  sum_i m^i E[g_i(y1)] / den  as (j, c) -> w terms, w m^j exp(-c t/N).

    ``parts`` is (den, parts) from :func:`_first_coordinate_parts`: ``parts[i]``
    holds the (n, a) pairs of g_i = sum a y1^n.  Each y1^n is expanded over the
    eigenbasis and each p_d scaled by exp(t lambda_d / 2) and evaluated at
    sqrt(N): with lambda_d = -d - d (d-2)/N, that is p_d(sqrt N) / N^(d/2) times
    m^d exp(-d (d-1) t/(2N)), the key (d, d (d-1)/2); the drift power m^i adds i
    to j.  The products c_k p_d(sqrt N) / N^(d/2) of every y1^n are taken over
    their least common denominator, and the weights summed in integers.
    A batch takes it once per (parts, N) for all its t; the mapping is
    read-only, as :func:`finite_moment_x1` memoizes it.
    The eigenvalues are distinct for N >= 2: lambda_a = lambda_b means
    (a - b) (N - 2 + a + b) = 0.
    """
    den, parts = parts
    expansions = {n: _monomial_expansion(n, N) for n in sorted({n for g in parts for n, _ in g})}
    values = {d: _value_at_sqrtN(d, N)
              for d in {d for n in expansions for d in range(n % 2, n + 1, 2)}}
    common = math.lcm(*{q * values[n - 2 * k][1] for n, (nums, q) in expansions.items()
                        for k in range(len(nums))})
    weights = {  # y1^n: d -> c_k p_d(sqrt N) / N^(d/2) over the common denominator
        n: [(n - 2 * k, b * values[n - 2 * k][0] * (common // (q * values[n - 2 * k][1])))
            for k, b in enumerate(nums)]
        for n, (nums, q) in expansions.items()}
    terms: dict[tuple[int, int], int] = {}
    for i, g in enumerate(parts):
        for n, a in g:
            for d, w in weights[n]:
                key = (i + d, d * (d - 1) // 2)
                terms[key] = terms.get(key, 0) + a * w
    return MappingProxyType({k: Fraction(w, den * common) for k, w in terms.items() if w})


@lru_cache(maxsize=1024)
def finite_moment_x1(n: int, N: int) -> FiniteMomentX1:
    """The exact finite-N moment of x1^n, the x1^n case of
    :func:`_first_coordinate_parts` and :func:`eigen_moment_terms`.  Memoized
    per (n, N)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    parts = _first_coordinate_parts(N, 1, (((n,), Fraction(1)),))
    return FiniteMomentX1(n=n, N=N, terms=eigen_moment_terms(N, parts))


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

    With a_k the h^k coefficients of u_l and r_i those of the right side
    r(h) = (h-1) u_(l-1)(h) - (2h+2j) u_(l-1)(h+1), of degree 2l-1, the h^i
    coefficient of u_l(h+1) - u_l(h) = r(h) reads sum_(k>i) C(k,i) a_k = r_i.
    It is solved for a_(i+1) from i = 2l-1 down; a_0 comes from the exact
    expansion of t0(0).
    """
    if j < 0 or L < 0:
        raise ValueError("j and L must be >= 0")
    init = _initial_constants(j, L)
    polys = [(init[0],)]
    for ell in range(1, L + 1):
        p, deg = polys[-1] + (0,), 2 * ell
        # p: u_(l-1) padded to 2l coefficients; q: u_(l-1)(h+1); r: (h-1) p - (2h+2j) q
        q = [sum(math.comb(k, i) * p[k] for k in range(i, deg)) for i in range(deg)]
        r = [(p[i - 1] - 2 * q[i - 1] if i else 0) - p[i] - 2 * j * q[i] for i in range(deg)]
        a = [init[ell]] + [Fraction(0)] * deg
        for i in range(deg - 1, -1, -1):
            a[i + 1] = (r[i] - sum(math.comb(k, i) * a[k] for k in range(i + 2, deg + 1))) / (i + 1)
        polys.append(tuple(a))
    return SeriesCoefficients(j=j, u=tuple(polys))
