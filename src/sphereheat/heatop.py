"""Heat-operator moments of polynomials on the shifted sphere.

The heat operator applied to a polynomial f of the first k coordinates is
computed as (exp((t/2) L) f) evaluated at the base point (first shifted
coordinate sqrt(N), zeros elsewhere), where L is the sphere Laplacian of
:mod:`sphereheat.operators`.  L keeps a monomial on its diagonal and
otherwise lowers one exponent by two, so every route works on the monomials
L reaches from the shifted parts of f, with their closed-form images:

* ``series``: the truncated exponential power series, run for all shifted
  parts at once; its bound is a proven geometric tail bound in the exact
  induced 1-norm plus a rounding estimate;
* ``matexp``: a scaling-and-squaring matrix exponential.  With
  ``precision="extended"`` it is instead the exact moment, solved by a
  triangular recursion and evaluated at the digits its largest term needs.

:func:`heat_apply_series` and :func:`heat_apply_matexp` apply the same
exponentials to polynomials through a dense operator matrix.

A third, closed-form route for pure first-coordinate monomials lives in
:mod:`sphereheat.eigenmethod`, and a stochastic one in
:mod:`sphereheat.sphere_mc`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.linalg import expm

from .eigenmethod import evaluate_exp_sum
from .operators import OperatorMatrix, SphereConfig, _sphere_image
from .polyalg import Exponents, Polynomial, shift_first_variable_powers


class SeriesToleranceError(RuntimeError):
    """The power series could not reach the requested tolerance."""


@dataclass(frozen=True)
class MomentResult:
    """A heat-kernel moment with provenance.

    ``error_bound`` is a proven tail + rounding estimate for the series
    route, a machine-precision estimate for the matexp route, half an ulp
    plus the evaluation error for extended precision, and a standard error
    for Monte Carlo.
    """

    value: float
    route: str
    error_bound: float
    config: SphereConfig
    monomial: Exponents | None

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")


def _series_tail_bound(a: float, n_done: int) -> float:
    """Upper bound for sum_{i > n_done} a^i / i!, valid once a < n_done + 2.

    Geometric majorant: a^(n+1)/(n+1)! * 1/(1 - a/(n+2)).  Computed through
    logarithms so large a cannot overflow.
    """
    if a <= 0:
        return 0.0
    if a >= n_done + 2:
        return math.inf
    log_lead = (n_done + 1) * math.log(a) - math.lgamma(n_done + 2)
    ratio = 1.0 - a / (n_done + 2)
    log_bound = log_lead - math.log(ratio)
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)


def heat_apply_series(
    op: OperatorMatrix,
    t: float,
    f: Polynomial,
    tol: float = 1e-12,
    max_terms: int = 20000,
) -> Polynomial:
    """Evaluate exp((t/2) op) f by the truncated power series.

    Terms are added until the remainder bound ||f||_1 * tail((t/2)||op||_1)
    drops below ``tol``.  Raises :class:`SeriesToleranceError` instead of
    returning a silently unconverged sum.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    start = np.array([[float(c)] for c in op.indexer.to_vector(f)])
    sums, _, _ = _series_evolve(op.to_float(), float(op.one_norm()), t, start, [tol], max_terms)
    return op.indexer.from_vector(sums[:, 0].tolist())


def _series_stop(a: float, fnorm: float, tol: float, max_terms: int) -> int:
    """First n >= 1 with fnorm * tail(a, n) <= tol, found by bisection.

    The tail bound is infinite while n + 2 <= a and strictly decreasing
    after, so once the condition holds it holds for every larger n.
    """
    met = lambda n: fnorm * _series_tail_bound(a, n) <= tol  # noqa: E731
    n = bisect.bisect_left(range(1, max_terms + 1), True, key=met) + 1
    if n > max_terms:
        raise SeriesToleranceError(f"series did not reach tol={tol} within {max_terms} "
                                   f"terms (scaled operator norm {a:.3g})")
    return n


def _series_evolve(
    mat: np.ndarray,
    norm: float,
    t: float,
    block: np.ndarray,
    tols: list[float],
    max_terms: int = 20000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Series sums of exp((t/2) mat) on each column of ``block``, to its own tolerance.

    ``norm`` is ``mat``'s exact 1-norm.  Every column stops at the first term
    whose proven remainder bound meets its tolerance; one ``mat @ block``
    recursion runs to the latest stop.  Returns the sums, each column's
    remainder bound, and sum_n |term_n| (from n = 0) for rounding estimates.
    A zero column, or t = 0, takes no term and has a zero bound.
    """
    half_t = 0.5 * t
    a = half_t * norm
    fnorms = np.sum(np.abs(block), axis=0)
    stops = np.array([0 if t == 0 or fn == 0.0 else _series_stop(a, fn, tol, max_terms)
                      for fn, tol in zip(fnorms, tols)], dtype=int)
    tails = np.array([fn * _series_tail_bound(a, n) if n else 0.0
                      for fn, n in zip(fnorms, stops)])
    term = np.where(stops > 0, block, 0.0)
    total, abs_total = block.astype(float), np.abs(block)
    ends = set(stops.tolist())
    for n in range(1, max(ends, default=0) + 1):
        term = mat @ term
        term *= half_t / n
        total += term
        abs_total += np.abs(term)
        if n in ends:  # a column past its stop adds nothing more
            term[:, stops == n] = 0.0
    return total, tails, abs_total


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


def _lattice(
    N: int, parts: list[Polynomial], include_mixed_term: bool
) -> dict[Exponents, dict[Exponents, Fraction]]:
    """The rule image of every monomial L reaches from the parts, lowest degree first.

    L keeps a monomial's degree on the diagonal and otherwise lowers one
    exponent by two, so these monomials span a subspace that L maps into
    itself, and each image refers only to monomials listed before it.
    """
    images: dict[Exponents, dict[Exponents, Fraction]] = {}
    todo = [beta for g in parts for beta in g.terms]
    while todo:
        c = todo.pop()
        if c not in images:
            images[c] = _sphere_image(N, c, include_mixed_term)
            todo.extend(images[c])
    return dict(sorted(images.items(), key=lambda item: (sum(item[0]), item[0])))


def heat_moment(
    cfg: SphereConfig,
    f: Polynomial,
    route: str = "matexp",
    tol: float = 1e-12,
    precision: str = "double",
    include_mixed_term: bool = True,
) -> MomentResult:
    """Heat-kernel moment of a polynomial in the unshifted coordinates.

    Pipeline: rewrite f(x1, ...) in the shifted frame as a combination of
    rational polynomials times powers of the drift m, evolve each part by
    exp((t/2) L) on the monomials L reaches from the parts, evaluate at the
    base point, and recombine with compensated summation.  The bounds and
    the series tolerance scale with sqrt(N)^deg f, the largest value a
    monomial of that set takes at the base point, so no result depends on
    ``cfg.ell``.  ``include_mixed_term=False`` replaces L by the decoupled
    D + E operator (used to measure the mixed term's 1/N influence).
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
    parts = shift_first_variable_powers(f)
    images = _lattice(cfg.N, parts, include_mixed_term)
    if precision == "extended":
        value, bound = _extended_moment(cfg, parts, images)
        return MomentResult(value, route, bound, cfg, alpha)

    index = {c: i for i, c in enumerate(images)}
    mat = np.zeros((len(index), len(index)))
    for c, image in images.items():
        for beta, w in image.items():
            mat[index[beta], index[c]] = w
    norm = float(max(sum(map(abs, image.values())) for image in images.values()))

    # the base point: only pure first-variable monomials survive, and they
    # see the working-precision sqrt(N), never one rebuilt through the drift m
    sqrt_n = math.sqrt(cfg.N)
    pole = np.array([0.0 if any(c[1:]) else sqrt_n ** c[0] for c in images])
    m = cfg.m
    block = np.zeros((len(index), len(parts)), order="F")  # column i: the part of m^i
    for i, g in enumerate(parts):
        for beta, coeff in g.terms.items():
            block[index[beta], i] = coeff
    scale_out = sqrt_n ** f.degree()  # evaluation functional 1-norm bound
    if route == "matexp":
        exp_mat = expm(0.5 * cfg.t * mat)
        evolved = [exp_mat @ block[:, i] for i in range(len(parts))]
        part_bounds = [1e-13 * float(np.sum(np.abs(v))) * scale_out for v in evolved]
    else:
        # Shrink the inner tolerance so the proven truncation bound still
        # meets tol after the pole evaluation and drift powers.
        tols = [tol / (len(parts) * scale_out * max(1.0, m) ** i) for i in range(len(parts))]
        sums, tails, abs_sums = _series_evolve(mat, norm, cfg.t, block, tols)
        evolved = sums.T
        # rounding estimate: u (d + 2) times the pole-weighted sum of |term_n|
        part_bounds = tails * scale_out + 2.0**-53 * (len(index) + 2) * (pole @ abs_sums)
    values = [m**i * math.fsum(v * pole) for i, v in enumerate(evolved)]
    bounds = [m**i * b for i, b in enumerate(part_bounds)]
    return MomentResult(math.fsum(values), route, math.fsum(bounds), cfg, alpha)


def _extended_moment(cfg, parts, images) -> tuple[float, float]:
    """Exact moment on the reachable lattice, evaluated at the digits it needs.

    h_c, the value of exp((t/2) L) y^c at the base point, solves
    dh_c/dt = (lambda_c h_c + sum_c' L_cc' h_c') / 2, where the sphere rule
    maps y^c to its rate lambda_c times y^c plus lowered y^c' of strictly
    larger rates.  So each e^(r t/2) of a lowered h_c' enters h_c divided by
    r - lambda_c, and e^(lambda_c t/2) takes what remains of h_c(0).  Terms
    are keyed (s, q, p) as in :class:`~sphereheat.eigenmethod.FiniteMomentX1`;
    the drift power m^i shifts a key by (i, i, i).
    """
    N = cfg.N
    at_pole: dict[Exponents, dict[tuple[int, int, int], Fraction]] = {}
    for c, image in images.items():  # lowered monomials come first
        rate = image[c]
        terms: dict[tuple[int, int, int], Fraction] = {}
        for lower, coeff in image.items():
            if lower == c:
                continue
            for (s2, q2, p), w in at_pole[lower].items():
                gap = Fraction(q2, N) - s2 - rate
                terms[s2, q2, p] = terms.get((s2, q2, p), 0) + coeff * w / gap
        start = {} if any(c[1:]) else {c[0]: Fraction(1)}
        for (_, _, p), w in terms.items():
            start[p] = start.get(p, 0) - w
        q = int((rate + sum(c)) * N)
        terms.update(((sum(c), q, p), w) for p, w in start.items())
        at_pole[c] = {key: w for key, w in terms.items() if w}

    terms = {}
    for i, g in enumerate(parts):
        for beta, coeff in g.terms.items():
            for (s, q, p), w in at_pole[beta].items():
                terms[s + i, q + i, p + i] = terms.get((s + i, q + i, p + i), 0) + coeff * w
    return evaluate_exp_sum({k: w for k, w in terms.items() if w}, N, cfg.t)


def heat_moment_monomial(
    cfg: SphereConfig, alpha: Exponents, route: str = "matexp", **kwargs
) -> MomentResult:
    """Convenience wrapper for a single monomial x^alpha."""
    return heat_moment(cfg, Polynomial.monomial(alpha), route=route, **kwargs)
