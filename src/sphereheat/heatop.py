"""Heat-operator moments of polynomials on the shifted sphere.

The heat-kernel measure is based at the pole and invariant under the
rotations that fix the first axis, so every moment is one-dimensional:
the reduction of :mod:`sphereheat.eigenmethod` turns f into exact parts
g_i of the shifted first coordinate y1 with E f = sum_i m^i E[g_i(y1)].
The heat operator acts on y1^n through the one-variable part D of the
sphere Laplacian, so the double routes work on the 1-D lattice of degrees
D reaches from the parts, and evolve one row, pole exp((t/2) D) with pole
the base point's sqrt(N)^n, dotted with every part: ``series`` sums its
power series, stopped once for all parts by a proven tail bound in the
1-norm of D scaled by diag(1/n!), and ``matexp`` uses :func:`expm`.
With ``precision="extended"`` the moment is instead the exact sum of the parts'
eigen expansions from :mod:`sphereheat.eigenmethod`, a polynomial in the
drift m: sum w m^j exp(-c t/N) with rational w.  What does not depend
on t (the parts, the lattice, its float operator, the base point values) is
memoized per (polynomial, N), and no result depends on that cache.

:func:`heat_apply_matexp` exponentiates a dense operator matrix from
:mod:`sphereheat.operators`; no moment uses it.  A stochastic route lives
in :mod:`sphereheat.sphere_mc`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .eigenmethod import (_first_coordinate_parts, eigen_moment_terms, eigenvalue,
                          evaluate_exp_sum)
from .operators import OperatorMatrix, SphereConfig
from .polyalg import Exponents, Polynomial


_CHUNK = 64  # series terms buffered between two folds into the running sum
_SERIES_TOL = 1e-12  # absolute error the series route's proven bound must meet
_U = 2.0**-53  # unit roundoff of a double


class SeriesToleranceError(RuntimeError):
    """The power series could not reach the requested tolerance."""


@dataclass(frozen=True)
class MomentResult:
    """A heat-kernel moment with provenance.

    ``error_bound`` sums over the parts a proven tail bound (D's 1-norm scaled by
    diag(1/n!)) plus a rounding estimate for series, and 1e-13 sqrt(N)^deg times
    the column sums of |exp((t/2) D)| against |b_i| for matexp; it is a standard
    error for Monte Carlo.  With extended precision the value is the double
    nearest the exact moment and the bound half its ulp, rounded up to the
    smallest positive double (0 only for an identically 0 moment).
    """

    value: float
    route: str
    error_bound: float
    config: SphereConfig
    monomial: Exponents | None

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")


def _series_stop(half_t: float, norm: float, ratio: float, max_terms: int = 20000) -> tuple:
    """The first n >= 1 with tail(a, n) <= ratio, a = half_t norm, and that tail
    (0 and 0 when a = 0), from one upward scan.

    tail(a, n) = a^(n+1)/(n+1)! / (1 - a/(n+2)) majorizes sum_{i>n} a^i/i! once
    n + 2 > a.  In floating point a is rounded up, the lead a^(n+1)/(n+1)! kept as
    mantissa and power of two, and 1 + 4 (n + 4) u covers the 2n + 6 roundings of
    tail(a, n) and of its product with two bounds.
    """
    a = half_t * norm * (1 + 4 * _U)
    if not a:
        return 0, 0.0
    mant, exp2 = math.frexp(a)  # the lead at n = 0: a
    for n in range(1, max_terms + 1):
        mant, e = math.frexp(mant * (a / (n + 1)))
        exp2 += e
        if n + 2 > a:
            lead = mant * (n + 2) / (n + 2 - a) * (1 + 4 * (n + 4) * _U)
            tail = math.ldexp(lead, exp2) + math.ulp(0.0)  # ulp(0) covers a subnormal
            if tail <= ratio:
                return n, tail
    raise SeriesToleranceError(f"series did not reach tail {ratio:.3g} in {max_terms}"
                               f" terms at scaled operator 1-norm {norm:.6g}")


def _series_evolve(mat: np.ndarray, t: float, row: np.ndarray, stop: int) -> tuple:
    """The series of row exp((t/2) mat) through term ``stop``, and sum_n |term_n|
    (from n = 0) for rounding estimates.

    Terms are written in chunks below a row that holds the running sum, and
    each chunk is folded into it by ``np.add.accumulate``, which adds in term
    order: the sums are those of a term-by-term loop, bit for bit.
    """
    half_t = 0.5 * t
    terms = np.empty((_CHUNK + 1, len(row)))  # row 0: the running sum
    abs_terms = np.empty_like(terms)
    terms[0], abs_terms[0] = row, np.abs(row)
    term = row
    for first in range(1, stop + 1, _CHUNK):
        rows = min(_CHUNK, stop + 1 - first)
        for j, n in enumerate(range(first, first + rows), 1):
            term = np.matmul(term, mat, out=terms[j])
            term *= half_t / n
        np.abs(terms[1:rows + 1], out=abs_terms[1:rows + 1])
        terms[0] = np.add.accumulate(terms[:rows + 1])[-1]
        abs_terms[0] = np.add.accumulate(abs_terms[:rows + 1])[-1]
    return terms[0].copy(), abs_terms[0].copy()


# Pade [13/13] coefficients b_0..b_13, and the 1-norm up to which the approximant
# meets double precision unscaled (N. J. Higham, The scaling and squaring method
# for the matrix exponential revisited, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small float matrix: Pade [13/13] scaling and squaring.

    Scales by 2^-s, s = max(0, ceil(log2(||a||_1 / theta_13))), solves
    (V - U) r = V + U and squares s times (Higham 2005).  For upper-triangular
    input, as every lattice D is, the approximant and each square of it, those
    of 2^-k a for k = s, ..., 0, get the diagonal exp(2^-k diag a) and the
    superdiagonal 2^-k a_(j,j+1) times the divided difference of exp,
    e^((x+y)/2) sinh(d)/d with d = (y - x)/2 (Al-Mohy and
    Higham, A new scaling and squaring algorithm for the matrix exponential,
    SIAM J. Matrix Anal. Appl. 31, 2009, Code Fragment 2.1).  One degree
    suffices for the few-dozen-row matrices of this package.
    """
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm else 0
    x = a * 2.0**-s
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    b = _PADE13
    eye = np.eye(len(a))
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    j = np.arange(len(a))
    if a[j[:, None] > j].any():
        for _ in range(s):
            r = r @ r
        return r
    scales = 2.0 ** -np.arange(s, -1, -1.0)[:, None]  # row i: 2^-(s - i)
    h = a.diagonal() * scales
    d = (h[:, 1:] - h[:, :-1]) / 2
    sinch = np.divide(np.sinh(d), d, out=np.ones_like(d), where=d != 0)
    sup = a.diagonal(1) * scales * np.exp(h[:, :-1] + d) * sinch
    for i, (exp_h, sup_i) in enumerate(zip(np.exp(h), sup)):
        if i:
            r = r @ r
        r[j, j], r[j[:-1], j[1:]] = exp_h, sup_i
    return r


def heat_apply_matexp(op: OperatorMatrix, t: float, precision: str = "double"):
    """Matrix exponential exp((t/2) op) by scaling and squaring.

    Returns a dense float matrix, or an ``mpmath.matrix`` when
    ``precision="extended"`` (50 significant digits).
    """
    if precision == "double":
        return expm(0.5 * t * op.to_float())
    if precision == "extended":
        with mpmath.workdps(50):
            n = op.dimension
            half_t = mpmath.mpf(t) / 2
            m = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    e = op.entries[i][j]
                    if e:
                        m[i, j] = half_t * mpmath.mpf(e.numerator) / e.denominator
            return mpmath.expm(m)
    raise ValueError(f"unknown precision {precision!r}")


@functools.lru_cache(maxsize=256)
def _prepare(N: int, parts: tuple) -> tuple:
    """The t-independent part of the double routes, on the 1-D lattice.

    The lattice is every degree D reaches from the parts (n, n - 2, ... >= 0),
    lowest first, and D y1^n = lambda_n y1^n + n (n - 1) y1^(n-2).  Returns D as
    a float matrix; the 1-norm of S^-1 D S, S = diag(1/n!) (D's diagonal and the
    superdiagonal 1), rounded up from its exact value; upper bounds on the parts'
    ||S^-1 b||_1 (inf past degree 170); the base-point row sqrt(N)^n; and the
    block of the parts (columns b).  Memoized per (parts, N), so its arrays are
    read-only.
    """
    degrees = sorted({d for g in parts for n, _ in g for d in range(n % 2, n + 1, 2)})
    index = {n: i for i, n in enumerate(degrees)}
    mat = np.zeros((len(index), len(index)))
    for n in degrees:
        mat[index[n], index[n]] = eigenvalue(n, N)
        if n >= 2:
            mat[index[n - 2], index[n]] = n * (n - 1)
    # |lambda_n| grows with n: the top degree's column has the largest scaled norm
    exact = abs(Fraction(mat[-1, -1])) + (degrees[-1] >= 2)
    norm = float(exact) if float(exact) >= exact else math.nextafter(float(exact), math.inf)
    # the working-precision sqrt(N), never one rebuilt through the drift m
    pole = np.array([math.sqrt(N) ** n for n in degrees])
    block = np.zeros((len(index), len(parts)))
    for i, g in enumerate(parts):
        for n, coeff in g:
            block[index[n], i] = coeff
    # sum n! |b_n|, raised by 8u over the roundings of n!, of each product and of the sum
    fnorms = tuple(math.fsum((float(math.factorial(n)) if n < 171 else math.inf)
                             * abs(float(c)) for n, c in g) * (1 + 8 * _U) for g in parts)
    for array in (mat, pole, block):
        array.flags.writeable = False
    return mat, norm, fnorms, pole, block


def heat_moment(
    cfg: SphereConfig,
    f: Polynomial,
    route: str = "matexp",
    precision: str = "double",
) -> MomentResult:
    """Heat-kernel moment of a polynomial in the unshifted coordinates.

    Pipeline: reduce f to one-variable parts g_i(y1) of the shifted first
    coordinate, E f = sum_i m^i E[g_i(y1)] (the rotation reduction
    :func:`sphereheat.eigenmethod._first_coordinate_parts`), then evolve the row
    u = pole exp((t/2) D) on the 1-D lattice of degrees D reaches, and recombine
    the parts' compensated sums u b_i; with ``precision="extended"``, sum the
    parts' eigen expansions exactly instead.  The series remainder R_n after
    term n has |pole R_n b| <= ||pole S||_inf tail(a, n) ||S^-1 b||_1 for S =
    diag(1/n!) (C. Moler and C. Van Loan, SIAM Rev. 45, 2003): one stop serves
    every part.  The bounds and the series tolerance scale with sqrt(N)^deg f,
    the largest value a lattice monomial takes at the base point, so no
    result depends on ``cfg.ell``.  A moment whose parts all vanish (the zero
    polynomial, an odd power of a coordinate beyond the first) is 0 with
    bound 0 on every route.  In double precision, a sqrt(N)^deg f past the
    double range, or a value or bound that is not finite, is a ValueError.
    """
    if f.varcount != cfg.k:
        raise ValueError(f"polynomial has {f.varcount} variables, config k={cfg.k}")
    if f.degree() > cfg.ell:
        raise ValueError(f"degree {f.degree()} exceeds basis cap {cfg.ell}")
    if route not in ("matexp", "series"):
        raise ValueError(f"unsupported route {route!r} for the operator pipeline")
    if precision not in ("double", "extended"):
        raise ValueError(f"unknown precision {precision!r}")
    if precision == "extended" and route != "matexp":
        raise ValueError("extended precision is provided for the matexp route")

    alpha = next(iter(f.terms)) if len(f.terms) == 1 else None
    parts = _first_coordinate_parts(cfg.N, cfg.k, tuple(sorted(f.terms.items())))
    if not any(parts):
        return MomentResult(0.0, route, 0.0, cfg, alpha)
    if precision == "extended":
        value, bound = evaluate_exp_sum(eigen_moment_terms(cfg.N, parts), cfg.N, cfg.t)
        return MomentResult(value, route, bound, cfg, alpha)

    try:  # evaluation functional 1-norm bound, the largest base-point value
        scale_out = math.sqrt(cfg.N) ** f.degree()
    except OverflowError:
        raise ValueError(f"sqrt(N)^{f.degree()} at N={cfg.N} exceeds the double range; "
                         "use the exact eigen route") from None
    mat, norm, fnorms, pole, block = _prepare(cfg.N, parts)
    m, abs_block = cfg.m, np.abs(block)
    with np.errstate(over="ignore", invalid="ignore"):  # the refusal below names an overflow
        if route == "matexp":
            exp_mat = expm(0.5 * cfg.t * mat)
            row = pole @ exp_mat
            part_bounds = 1e-13 * scale_out * (np.abs(exp_mat).sum(axis=0) @ abs_block)
        else:
            # one stop for all parts; an infinite weight gives an infinite bound, refused
            weight = scale_out * sum(max(1.0, m) ** i * fn for i, fn in enumerate(fnorms))
            ratio = _SERIES_TOL / weight if weight else math.inf  # 0: parts round to 0
            stop, tail = _series_stop(0.5 * cfg.t, norm, ratio) if ratio else (0, math.inf)
            row, abs_sums = _series_evolve(mat, cfg.t, pole, stop)
            # rounding estimate: u (d + 2) times sum_n |term_n| against |b_i|
            part_bounds = (tail * scale_out * np.array(fnorms)
                           + _U * (len(pole) + 2) * (abs_sums @ abs_block))
        try:
            value = math.fsum(m**i * math.fsum(row * b) for i, b in enumerate(block.T))
            bound = math.fsum(m**i * b for i, b in enumerate(part_bounds))
        except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
            value = bound = math.nan
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise ValueError(f"the {route} moment or its bound is not finite in double precision; "
                         "use the exact eigen route")
    return MomentResult(value, route, bound, cfg, alpha)


def heat_moment_monomial(
    cfg: SphereConfig, alpha: Exponents, route: str = "matexp", precision: str = "double"
) -> MomentResult:
    """Convenience wrapper for a single monomial x^alpha."""
    return heat_moment(cfg, Polynomial.monomial(alpha), route=route, precision=precision)
