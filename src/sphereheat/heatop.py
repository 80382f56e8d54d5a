"""Heat-operator moments of polynomials on the shifted sphere.

The heat-kernel measure is based at the pole and invariant under the
rotations that fix the first axis, so every moment is one-dimensional:
f becomes exact parts g_i of the shifted first coordinate y1 with
E f = sum_i m^i E[g_i(y1)].  The heat operator acts on y1^n through the
one-variable part D of the sphere Laplacian, so the double routes work on
the 1-D lattice of degrees D reaches from the parts, evaluated at sqrt(N):
``series`` runs the truncated power series for all parts at once, with a
proven tail bound in the 1-norm of D scaled by diag(1/n!) plus a rounding
estimate, and ``matexp`` the scaling-and-squaring exponential :func:`expm`.
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

from .eigenmethod import eigen_moment_terms, eigenvalue, evaluate_exp_sum
from .gaussian_limit import even_moment_factor
from .operators import OperatorMatrix, SphereConfig
from .polyalg import Exponents, Polynomial, shift_first_variable_powers


_CHUNK = 64  # series terms buffered between two folds into the running sum
_SERIES_TOL = 1e-12  # absolute error the series route's proven bound must meet
_U = 2.0**-53  # unit roundoff of a double


class SeriesToleranceError(RuntimeError):
    """The power series could not reach the requested tolerance."""


@dataclass(frozen=True)
class MomentResult:
    """A heat-kernel moment with provenance.

    ``error_bound`` is a proven tail bound, in D's 1-norm scaled by diag(1/n!),
    plus a rounding estimate for the series route, a machine-precision estimate
    for matexp, and a standard error for Monte Carlo.  With extended precision
    the value is the double nearest the exact moment and the bound half its ulp,
    rounded up to the smallest positive double (0 only for an identically 0 moment).
    """

    value: float
    route: str
    error_bound: float
    config: SphereConfig
    monomial: Exponents | None

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")


def _series_stops(half_t: float, norm: float, fnorms: tuple[float, ...], tols: list[float],
                  max_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Each column's first n >= 1 with fnorm tail(a, n) <= tol, a = half_t norm, and
    that bound (0 and 0 for a zero column or a = 0), from one upward scan.

    tail(a, n) = a^(n+1)/(n+1)! / (1 - a/(n+2)) majorizes sum_{i>n} a^i/i! once
    n + 2 > a.  In floating point a is rounded up, the lead a^(n+1)/(n+1)! kept as
    mantissa and power of two, and 1 + 4 (n + 4) u covers the 2n + 5 roundings of
    fnorm tail(a, n).  Columns are tried by decreasing tol/fnorm (raised by 4u)
    while that admits the lead, so most terms cost one comparison.
    """
    a = half_t * norm * (1 + 4 * _U)
    stops, tails = np.zeros(len(fnorms), dtype=int), np.zeros(len(fnorms))
    ratio = {j: tols[j] / fn * (1 + 4 * _U) for j, fn in enumerate(fnorms) if fn and a}
    todo = sorted(ratio, key=ratio.get, reverse=True)
    mant, exp2, n = *math.frexp(a), 0  # the lead at n = 0: a
    while todo:
        n += 1
        if n > max_terms:
            raise SeriesToleranceError(f"series did not reach tol={tols[todo[0]]} in {max_terms}"
                                       f" terms at scaled operator 1-norm {norm:.6g}")
        mant, e = math.frexp(mant * (a / (n + 1)))
        exp2 += e
        if n + 2 > a:
            lead = mant * (n + 2) / (n + 2 - a) * (1 + 4 * (n + 4) * _U)
            for j in todo[:]:
                if math.ldexp(lead, exp2) > ratio[j]:
                    break
                bound = math.ldexp(fnorms[j] * lead, exp2)
                if bound <= tols[j]:
                    stops[j], tails[j] = n, bound
                    todo.remove(j)
    return stops, tails


def _series_evolve(mat: np.ndarray, norm: float, fnorms: tuple[float, ...], t: float,
                   block: np.ndarray, tols: list[float], max_terms: int = 20000) -> tuple:
    """Series sums of exp((t/2) mat) on each column b of ``block``, to its own tolerance.

    For a diagonal S with entries in (0, 1], ``norm`` bounds the 1-norm of S^-1 mat S
    and ``fnorms`` bound the ||S^-1 b||_1, so the remainder after term n, S times that of
    S^-1 mat S on S^-1 b, is at most fnorm tail(t/2 norm, n) in 1-norm (C. Moler
    and C. Van Loan, SIAM Rev. 45, 2003).  Each column stops at the first term
    whose bound meets its tolerance; one ``mat @ block`` recursion runs to the
    latest stop.  Returns the sums, each column's bound, and sum_n |term_n| (from
    n = 0) for rounding estimates.  A zero column, or t = 0, takes no term.

    Terms are written in chunks below a row that holds the running sum, and
    each chunk is folded into it by ``np.add.accumulate``, which adds in term
    order: the sums are those of a term-by-term loop, bit for bit.
    """
    half_t = 0.5 * t
    stops, tails = _series_stops(half_t, norm, fnorms, tols, max_terms)
    term = np.where(stops > 0, block, 0.0)
    terms = np.empty((_CHUNK + 1,) + block.shape)  # row 0: the running sum
    abs_terms = np.empty_like(terms)
    terms[0], abs_terms[0] = block, np.abs(block)
    ends = set(stops.tolist())
    last = max(ends, default=0)
    for first in range(1, last + 1, _CHUNK):
        rows = min(_CHUNK, last + 1 - first)
        for j, n in enumerate(range(first, first + rows), 1):
            term = np.matmul(mat, term, out=terms[j])
            term *= half_t / n
            if n in ends:  # a stopped column feeds zeros on, but this term still counts
                term = term.copy()
                term[:, stops == n] = 0.0
        np.abs(terms[1:rows + 1], out=abs_terms[1:rows + 1])
        terms[0] = np.add.accumulate(terms[:rows + 1])[-1]
        abs_terms[0] = np.add.accumulate(abs_terms[:rows + 1])[-1]
    # column-major like the parts block: the layout fixes how BLAS sums pole @ abs_sums
    return terms[0].copy(), tails, np.asfortranarray(abs_terms[0])


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


@functools.lru_cache(maxsize=256)
def _prepare(N: int, parts: tuple) -> tuple:
    """The t-independent part of the double routes, on the 1-D lattice.

    The lattice is every degree D reaches from the parts (n, n - 2, ... >= 0),
    lowest first, and D y1^n = lambda_n y1^n + n (n - 1) y1^(n-2).  Returns D as
    a float matrix; the 1-norm of S^-1 D S, S = diag(1/n!) (D's diagonal and the
    superdiagonal 1), rounded up from its exact value; sqrt(N)^n; the block of the
    parts (columns b); and upper bounds on their ||S^-1 b||_1 (inf past degree 170).
    Memoized per (parts, N), so its arrays are read-only.
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
    block = np.zeros((len(index), len(parts)), order="F")
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
    coordinate, E f = sum_i m^i E[g_i(y1)] (:func:`_first_coordinate_parts`),
    then evolve each part by exp((t/2) D) on the 1-D lattice of degrees D
    reaches, evaluate at sqrt(N), and recombine with compensated summation;
    with ``precision="extended"``, sum the parts' eigen expansions exactly
    instead.  The bounds and the series tolerance scale with sqrt(N)^deg f,
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
    p, m = block.shape[1], cfg.m
    with np.errstate(over="ignore", invalid="ignore"):  # the refusal below names an overflow
        if route == "matexp":
            exp_mat = expm(0.5 * cfg.t * mat)
            evolved = [exp_mat @ block[:, i] for i in range(p)]
            part_bounds = [1e-13 * float(np.sum(np.abs(v))) * scale_out for v in evolved]
        else:
            # Shrink the inner tolerance so the proven truncation bound still
            # meets _SERIES_TOL after the pole evaluation and drift powers.
            tols = [_SERIES_TOL / (p * scale_out * max(1.0, m) ** i) for i in range(p)]
            sums, tails, abs_sums = _series_evolve(mat, norm, fnorms, cfg.t, block, tols)
            evolved = sums.T
            # rounding estimate: u (d + 2) times the pole-weighted sum of |term_n|
            part_bounds = tails * scale_out + _U * (len(pole) + 2) * (pole @ abs_sums)
        try:
            value = math.fsum(m**i * math.fsum(v * pole) for i, v in enumerate(evolved))
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
