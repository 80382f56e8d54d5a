"""Exact heat-kernel moments on S^{N-1}(sqrt N), written apart from sphereheat.

This module imports nothing from the package it checks.  It solves the
moment ODE of the sphere Laplacian exactly.  On a monomial y^b of total
degree d in the first k ambient coordinates,

    L y^b = lambda_d y^b + sum_i b_i (b_i - 1) y^(b - 2 e_i),
    lambda_d = -d (N + d - 2) / N,

so L keeps the degree on the diagonal and otherwise lowers it by two: the
moments M_b(t) = E[Y_t^b] of the walk started at the pole (sqrt N, 0, ...)
form a triangular system

    M_b' = (1/2) (lambda_|b| M_b + sum_i b_i (b_i - 1) M_(b - 2 e_i)).

Its solution is a finite sum of exponentials with exact rational weights on
the lattice of monomials below b.  The recentred moment of x^a, with
x_1 = y_1 - m and m = sqrt(N) exp(-t (1 - 1/N) / 2), follows from the
binomial expansion of (y_1 - m)^(a_1), with m^i = N^(i/2) e^(-i t (1-1/N)/2).

The result is kept as exact rationals until a single mpmath evaluation at a
number of digits chosen from the largest term, so cancellation between
terms of size N^(a_1/2) cannot cost accuracy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

GUARD_DIGITS = 25  # digits kept beyond the largest term's magnitude


def eigenvalue(d: int, N: int) -> Fraction:
    """lambda_d = -d (N + d - 2) / N, the Laplacian's value on degree d."""
    return Fraction(-d * (N + d - 2), N)


@lru_cache(maxsize=None)
def pole_moment(b: tuple[int, ...], N: int) -> dict[int, Fraction]:
    """E[Y_t^b] / N^(b_1/2) as {degree d: r_d}, meaning sum_d r_d e^(lambda_d t/2)."""
    if N <= len(b):
        raise ValueError(f"need more than {len(b)} coordinates, got N={N}")
    deg = sum(b)
    lam = eigenvalue(deg, N)
    forcing: dict[int, Fraction] = {}
    for i, bi in enumerate(b):
        if bi < 2:
            continue
        lower = b[:i] + (bi - 2,) + b[i + 1:]
        # lowering b_1 drops one power of N from the N^(b_1/2) prefactor
        scale = Fraction(bi * (bi - 1), N if i == 0 else 1)
        for d, r in pole_moment(lower, N).items():
            forcing[d] = forcing.get(d, Fraction(0)) + scale * r
    out = {d: a / (eigenvalue(d, N) - lam) for d, a in forcing.items() if a}
    start = Fraction(1) if not any(b[1:]) else Fraction(0)  # y0^b / N^(b_1/2)
    out[deg] = start - sum(out.values(), Fraction(0))
    return {d: r for d, r in out.items() if r}


@lru_cache(maxsize=None)
def moment_terms(alpha: tuple[int, ...], N: int) -> dict[Fraction, Fraction]:
    """E[x^alpha] / N^(alpha_1/2) as {rate: weight}, meaning sum w e^(rate t)."""
    a1, rest = alpha[0], tuple(alpha[1:])
    drift_rate = Fraction(-(N - 1), 2 * N)  # m = sqrt(N) e^(drift_rate t)
    terms: dict[Fraction, Fraction] = {}
    for i in range(a1 + 1):
        coeff = math.comb(a1, i) * (-1) ** i
        for d, r in pole_moment((a1 - i,) + rest, N).items():
            rate = eigenvalue(d, N) / 2 + i * drift_rate
            terms[rate] = terms.get(rate, Fraction(0)) + coeff * r
    return {rate: w for rate, w in terms.items() if w}


def moment(alpha, N: int, t: float) -> float:
    """Exact E[x^alpha] at (N, t), rounded once to the nearest double."""
    return float(moment_mp(tuple(alpha), N, t))


def moment_mp(alpha: tuple[int, ...], N: int, t: float, extra_digits: int = 0):
    """E[x^alpha] as an mpf, evaluated with enough digits for its cancellation."""
    terms = moment_terms(alpha, N)
    if not terms:
        return mpmath.mpf(0)
    log10_scale = 0.5 * alpha[0] * math.log10(N)
    log10_max = max(
        math.log10(abs(w.numerator)) - math.log10(w.denominator) + float(rate) * t / math.log(10)
        for rate, w in terms.items()
    ) + log10_scale
    dps = GUARD_DIGITS + extra_digits + max(0, math.ceil(log10_max))
    with mpmath.workdps(dps):
        tt = mpmath.mpf(t)
        total = mpmath.fsum(
            mpmath.mpf(w.numerator) / w.denominator
            * mpmath.exp(mpmath.mpf(rate.numerator) / rate.denominator * tt)
            for rate, w in terms.items()
        )
        return +(total * mpmath.power(N, mpmath.mpf(alpha[0]) / 2))


def double_factorial_odd(n: int) -> int:
    """(n - 1)!! for even n: the n-th moment of a standard normal."""
    return math.prod(range(n - 1, 0, -2))


def gaussian_moment(alpha, t: float) -> float:
    """The paper's limit: prod_j (n_j - 1)!! v_j^(n_j/2), zero for odd n_j.

    v_1 = 1 - e^-t - t e^-t for the first coordinate, v_j = 1 - e^-t else.
    """
    if any(n % 2 for n in alpha):
        return 0.0
    v_first = -math.expm1(-t) - t * math.exp(-t)
    v_rest = -math.expm1(-t)
    out = 1.0
    for j, n in enumerate(alpha):
        if n:
            out *= double_factorial_odd(n) * (v_first if j == 0 else v_rest) ** (n // 2)
    return out


def on_target(value: float | None, exact: float, rel: float) -> bool:
    """Whether value is within rel * max(1, |exact|) of exact."""
    return value is not None and abs(value - exact) <= rel * max(1.0, abs(exact))
