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
them, and :func:`finite_moment_x1` is their x1^n case.

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
from .polyalg import Polynomial, shift_first_variable_powers


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
def monomial_in_eigenbasis(n: int, N: int) -> tuple[Fraction, ...]:
    """Coefficients c_j with x^n = sum_j c_j p_(n-2j), exact (memoized).

    c_j = (N/4)^j n^(2j falling) / (j! (N/2 + n - j - 1)^(j falling)), built by
    the exact ratio c_(j+1) / c_j
    = N (n-2j) (n-2j-1) (N + 2n - 2j - 2) / (2 (j+1) (N + 2n - 4j - 2) (N + 2n - 4j - 4)).
    Verified exactly in O(n), by induction on n from x^0 = p_0, x^1 = p_1: with c' the
    verified x^(n-2), D x^n = lambda_n x^n + n (n-1) x^(n-2) and the eigen relations of
    :func:`eigen_poly`, r = x^n - sum_j c_j p_(n-2j) has (D - lambda_n) r = sum_(j>=1)
    [n (n-1) c'_(j-1) - c_j (lambda_(n-2j) - lambda_n)] p_(n-2j), each bracket 0.  As c_0 = 1,
    r holds x^e, e < n, where D is triangular with distinct diagonal lambda_e: so r = 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_regular_n(N)
    coeffs = [Fraction(1)]
    for j in range(n // 2):
        coeffs.append(coeffs[j] * Fraction(
            N * (n - 2 * j) * (n - 2 * j - 1) * (N + 2 * n - 2 * j - 2),
            2 * (j + 1) * (N + 2 * n - 4 * j - 2) * (N + 2 * n - 4 * j - 4)))
    eigen_poly(n, N)  # checks D p_n = lambda_n p_n
    lam, lower = eigenvalue(n, N), ()
    for e in range(n % 2, n - 1, 2):  # lowest first, so no call recurses deeper than one
        lower = monomial_in_eigenbasis(e, N)
    for j, c in enumerate(coeffs[1:], 1):
        if c * (eigenvalue(n - 2 * j, N) - lam) != n * (n - 1) * lower[j - 1]:
            raise AssertionError(f"eigenbasis expansion failed for n={n}, N={N}")
    return tuple(coeffs)


# ----------------------------------------------------------------------
# finite-N first-coordinate moments
# ----------------------------------------------------------------------


_MAX_DPS = 2000  # digit budget of one exp-sum
_TERM_ERROR = 8  # per-term error allowance of an exp-sum pass, in units of its grid 2^g


class ExpSumPrecisionError(RuntimeError):
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
    """Parts of f = sum c x^alpha over (alpha, c) in terms, with E f = sum_i m^i E[g_i(y1)]:
    parts[i] lists the (n, c) of g_i = sum c y1^n by increasing n.

    Given y1 = x1 + m, the other coordinates are uniform on the sphere of
    radius sqrt(N - y1^2) in N - 1 dimensions, so E[prod_j x_j^b_j | y1] is 0
    if some b_j is odd and c_b(N) (N - y1^2)^h otherwise, h = |b|/2, with
    c_b(N) = prod (b_j - 1)!! / prod_(i<h) (N - 1 + 2i) (G. B. Folland, How to
    integrate a polynomial over a sphere, Amer. Math. Monthly 108, 2001).
    """
    even = {alpha: c for alpha, c in terms if not any(e % 2 for e in alpha[1:])}
    parts = []
    for g in shift_first_variable_powers(Polynomial(k, even)):
        part: dict[int, Fraction] = {}
        for (n, *b), c in g.terms.items():
            h = sum(b) // 2
            c *= Fraction(math.prod(map(even_moment_factor, b)),
                          math.prod(range(N - 1, N - 1 + 2 * h, 2)))
            for l in range(h + 1):  # (N - y1^2)^h, expanded
                w = c * math.comb(h, l) * (-1) ** l * N ** (h - l)
                part[n + 2 * l] = part.get(n + 2 * l, 0) + w
        parts.append(tuple(sorted((n, c) for n, c in part.items() if c)))
    return tuple(parts)


@lru_cache(maxsize=256)
def eigen_moment_terms(
    N: int, parts: tuple[tuple[tuple[int, Fraction], ...], ...]
) -> Mapping[tuple[int, int], Fraction]:
    """Exact moment  sum_i m^i E[g_i(y1)]  as (j, c) -> w terms, w m^j exp(-c t/N).

    ``parts[i]`` holds the (n, coeff) pairs of g_i = sum coeff y1^n.  Each y1^n
    is expanded over the eigenbasis and each p_d scaled by exp(t lambda_d / 2)
    and evaluated at sqrt(N): with lambda_d = -d - d (d-2)/N, that is
    p_d(sqrt N) / N^(d/2) times m^d exp(-d (d-1) t/(2N)), the key
    (d, d (d-1)/2); the drift power m^i adds i to j.  Memoized per
    (parts, N), so every t shares it; the mapping is read-only.  The
    eigenvalues are distinct for N >= 2: lambda_a = lambda_b means
    (a - b) (N - 2 + a + b) = 0.
    """
    terms: dict[tuple[int, int], Fraction] = {}
    for i, g in enumerate(parts):
        for n, coeff in g:
            for k, b in enumerate(monomial_in_eigenbasis(n, N)):
                d = n - 2 * k
                key = (i + d, d * (d - 1) // 2)
                terms[key] = terms.get(key, 0) + coeff * b * eigen_poly_at_sqrtN(d, N)
    return MappingProxyType({k: w for k, w in terms.items() if w})


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
