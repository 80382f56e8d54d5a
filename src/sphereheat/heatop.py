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

What does not depend on t (the parts, that lattice, its float operator, the
base point values) is built once per (polynomial, N) and memoized, so every
t and route shares it; no result depends on whether it was cached.

:func:`heat_apply_series` and :func:`heat_apply_matexp` apply the same
exponentials to polynomials through a dense operator matrix.

A third, closed-form route for pure first-coordinate monomials lives in
:mod:`sphereheat.eigenmethod`, and a stochastic one in
:mod:`sphereheat.sphere_mc`.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import mpmath
import numpy as np
from scipy.linalg import expm

from .eigenmethod import evaluate_exp_sum
from .operators import OperatorMatrix, SphereConfig, _sphere_image
from .polyalg import Exponents, Polynomial, shift_first_variable_powers


_CHUNK = 64  # series terms buffered between two folds into the running sum


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


@functools.lru_cache(maxsize=128)  # a moment's bisections probe fewer n than this
def _series_tail_bound(a: float, n_done: int) -> float:
    """Upper bound for sum_{i > n_done} a^i / i!, valid once a < n_done + 2.

    Geometric majorant: a^(n+1)/(n+1)! * 1/(1 - a/(n+2)).  Computed through
    logarithms so large a cannot overflow.  Memoized, so the stop bisections
    of a moment's columns share their evaluations.
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

    Terms are written in chunks below a row that holds the running sum, and
    each chunk is folded into it by ``np.add.accumulate``, which adds in term
    order: the sums are those of a term-by-term loop, bit for bit.
    """
    half_t = 0.5 * t
    a = half_t * norm
    fnorms = np.sum(np.abs(block), axis=0)
    stops = np.array([0 if t == 0 or fn == 0.0 else _series_stop(a, fn, tol, max_terms)
                      for fn, tol in zip(fnorms, tols)], dtype=int)
    tails = np.array([fn * _series_tail_bound(a, n) if n else 0.0
                      for fn, n in zip(fnorms, stops)])
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


def _lattice(N: int, k: int, terms: tuple, include_mixed_term: bool) -> tuple:
    """Shifted parts (f(x1 - m, ...) = sum_i m^i parts[i]) of sum c x^beta over
    (beta, c) in terms, and the rule image of every monomial L reaches from
    them, lowest degree first: each image refers only to monomials before it."""
    parts = tuple(shift_first_variable_powers(Polynomial(k, dict(terms))))
    images: dict[Exponents, dict[Exponents, Fraction]] = {}
    todo = [beta for g in parts for beta in g.terms]
    while todo:
        c = todo.pop()
        if c not in images:
            images[c] = _sphere_image(N, c, include_mixed_term)
            todo.extend(images[c])
    return parts, dict(sorted(images.items(), key=lambda item: (sum(item[0]), item[0])))


@functools.lru_cache(maxsize=256)
def _prepare(N: int, k: int, terms: tuple, include_mixed_term: bool) -> tuple:
    """The t-independent part of the double routes, on the :func:`_lattice`.

    Returns L as a float matrix on the lattice and its exact 1-norm, the
    lattice's values at the base point, and the block whose column i is
    parts[i].  Memoized per (polynomial, N), so its arrays are read-only.
    """
    parts, images = _lattice(N, k, terms, include_mixed_term)
    index = {c: i for i, c in enumerate(images)}
    mat = np.zeros((len(index), len(index)))
    for c, image in images.items():
        for beta, w in image.items():
            mat[index[beta], index[c]] = w
    norm = float(max(sum(map(abs, image.values())) for image in images.values()))
    # the base point: only pure first-variable monomials survive, and they
    # see the working-precision sqrt(N), never one rebuilt through the drift m
    pole = np.array([0.0 if any(c[1:]) else math.sqrt(N) ** c[0] for c in images])
    block = np.zeros((len(index), len(parts)), order="F")
    for i, g in enumerate(parts):
        for beta, coeff in g.terms.items():
            block[index[beta], i] = coeff
    for array in (mat, pole, block):
        array.flags.writeable = False
    return mat, norm, pole, block


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
    The t-independent preparation is shared per (f, N) across t and routes;
    results do not depend on that cache.
    The zero polynomial has moment 0 with bound 0 on every route.
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
    if not f.terms:
        return MomentResult(0.0, route, 0.0, cfg, None)

    alpha = next(iter(f.terms)) if len(f.terms) == 1 else None
    key = (cfg.N, cfg.k, tuple(sorted(f.terms.items())), include_mixed_term)
    if precision == "extended":
        value, bound = evaluate_exp_sum(_extended_terms(*key), cfg.N, cfg.t)
        return MomentResult(value, route, bound, cfg, alpha)

    mat, norm, pole, block = _prepare(*key)
    p, m = block.shape[1], cfg.m
    scale_out = math.sqrt(cfg.N) ** f.degree()  # evaluation functional 1-norm bound
    if route == "matexp":
        exp_mat = expm(0.5 * cfg.t * mat)
        evolved = [exp_mat @ block[:, i] for i in range(p)]
        part_bounds = [1e-13 * float(np.sum(np.abs(v))) * scale_out for v in evolved]
    else:
        # Shrink the inner tolerance so the proven truncation bound still
        # meets tol after the pole evaluation and drift powers.
        tols = [tol / (p * scale_out * max(1.0, m) ** i) for i in range(p)]
        sums, tails, abs_sums = _series_evolve(mat, norm, cfg.t, block, tols)
        evolved = sums.T
        # rounding estimate: u (d + 2) times the pole-weighted sum of |term_n|
        part_bounds = tails * scale_out + 2.0**-53 * (len(pole) + 2) * (pole @ abs_sums)
    values = [m**i * math.fsum(v * pole) for i, v in enumerate(evolved)]
    bounds = [m**i * b for i, b in enumerate(part_bounds)]
    return MomentResult(math.fsum(values), route, math.fsum(bounds), cfg, alpha)


@functools.lru_cache(maxsize=256)
def _extended_terms(N: int, k: int, poly_terms: tuple, include_mixed_term: bool) -> Mapping:
    """Exact moment on the :func:`_lattice`, as (s, q, p) -> weight terms.

    h_c, the value of exp((t/2) L) y^c at the base point, solves
    dh_c/dt = (lambda_c h_c + sum_c' L_cc' h_c') / 2, where the sphere rule
    maps y^c to its rate lambda_c times y^c plus lowered y^c' of strictly
    larger rates.  So each e^(r t/2) of a lowered h_c' enters h_c divided by
    r - lambda_c, and e^(lambda_c t/2) takes what remains of h_c(0).  Terms
    are keyed (s, q, p) as in :class:`~sphereheat.eigenmethod.FiniteMomentX1`;
    the drift power m^i shifts a key by (i, i, i).  Memoized per
    (polynomial, N), so every t shares the solve; the mapping is read-only.
    """
    parts, images = _lattice(N, k, poly_terms, include_mixed_term)
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
    return MappingProxyType({key: w for key, w in terms.items() if w})


def heat_moment_monomial(
    cfg: SphereConfig, alpha: Exponents, route: str = "matexp", **kwargs
) -> MomentResult:
    """Convenience wrapper for a single monomial x^alpha."""
    return heat_moment(cfg, Polynomial.monomial(alpha), route=route, **kwargs)
