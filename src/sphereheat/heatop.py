"""Heat-operator moments of polynomials on the shifted sphere.

The heat operator applied to a polynomial f of the first k coordinates is
computed as (exp((t/2) L) f) evaluated at the base point, where L is the
exact sphere Laplacian matrix from :mod:`sphereheat.operators` and the base
point has first shifted coordinate sqrt(N) and zeros elsewhere.

Two independent numeric routes are provided and cross-checked:

* ``series``: the truncated exponential power series with a rigorous
  geometric tail bound in the induced 1-norm, and
* ``matexp``: a scaling-and-squaring matrix exponential.  With
  ``precision="extended"`` it is instead the exact moment of the same
  operator, solved without a matrix on the monomials the sphere rule
  reaches from each shifted monomial, and evaluated once at the digits its
  largest term needs.

A third, closed-form route for pure first-coordinate monomials lives in
:mod:`sphereheat.eigenmethod`, and a stochastic one in
:mod:`sphereheat.sphere_mc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy.linalg import expm

from .eigenmethod import evaluate_exp_sum
from .operators import OperatorMatrix, SphereConfig, _sphere_rule, build_sphere_laplacian
from .polyalg import Exponents, Polynomial, shift_first_variable_powers


class SeriesToleranceError(RuntimeError):
    """The power series could not certify the requested tolerance."""


@dataclass(frozen=True)
class MomentResult:
    """A heat-kernel moment with provenance.

    ``error_bound`` is a proven tail majorant for the series route, a
    machine-precision estimate for the matexp route, half an ulp plus the
    evaluation error for extended precision, and a standard error for
    Monte Carlo.
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
    start = np.array([float(c) for c in op.indexer.to_vector(f)])
    vec, _ = _series_evolve(op, t, start, tol, max_terms)
    return op.indexer.from_vector(vec.tolist())


def _series_evolve(
    op: OperatorMatrix,
    t: float,
    vec: np.ndarray,
    tol: float,
    max_terms: int = 20000,
) -> tuple[np.ndarray, float]:
    """Series sum and the certified remainder bound for the result vector."""
    mat = op.to_float()
    half_t = 0.5 * t
    a = half_t * float(op.one_norm())
    fnorm = float(np.sum(np.abs(vec)))
    total = vec.astype(float).copy()
    term = vec.astype(float).copy()
    if t == 0 or fnorm == 0.0:
        return total, 0.0
    for n in range(1, max_terms + 1):
        term = (half_t / n) * (mat @ term)
        total += term
        bound = fnorm * _series_tail_bound(a, n)
        if bound <= tol:
            return total, bound
    raise SeriesToleranceError(
        f"series did not certify tol={tol} within {max_terms} terms "
        f"(scaled operator norm {a:.3g})"
    )


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


def _evaluate_at_pole(indexer, vec, sqrt_n) -> float:
    """Evaluate a basis coefficient vector at (sqrt(N), 0, ..., 0).

    Only pure first-variable monomials survive; the first coordinate is the
    working-precision sqrt(N), never reconstructed through the drift m, so
    small-t cancellation cannot occur here.
    """
    contributions = []
    for i, alpha in enumerate(indexer):
        if any(alpha[1:]):
            continue
        c = vec[i]
        if c != 0:
            contributions.append(float(c) * sqrt_n ** alpha[0])
    return math.fsum(contributions)


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
    exp((t/2) L), evaluate at the base point, and recombine with compensated
    summation.  ``include_mixed_term=False`` replaces L by the decoupled
    D + E operator (used to measure the mixed term's 1/N influence).
    """
    if f.varcount != cfg.k:
        raise ValueError(f"polynomial has {f.varcount} variables, config k={cfg.k}")
    if f.degree() > cfg.ell:
        raise ValueError(f"degree {f.degree()} exceeds basis cap {cfg.ell}")
    if route not in ("matexp", "series"):
        raise ValueError(f"unsupported route {route!r} for the operator pipeline")

    alpha = next(iter(f.terms)) if len(f.terms) == 1 else None
    parts = shift_first_variable_powers(f)
    if precision == "extended":
        if route != "matexp":
            raise ValueError("extended precision is provided for the matexp route")
        value, bound = _extended_moment(cfg, parts, include_mixed_term)
        return MomentResult(value, route, bound, cfg, alpha)
    if precision != "double":
        raise ValueError(f"unknown precision {precision!r}")

    op = build_sphere_laplacian(cfg, include_mixed_term=include_mixed_term)

    sqrt_n = math.sqrt(cfg.N)
    m = cfg.m
    exp_mat = heat_apply_matexp(op, cfg.t) if route == "matexp" else None

    values = []
    bounds = []
    scale_out = sqrt_n**cfg.ell  # evaluation functional 1-norm bound
    for i, g in enumerate(parts):
        vec = np.array([float(c) for c in op.indexer.to_vector(g)])
        if route == "matexp":
            evolved = exp_mat @ vec
            bound = 1e-13 * float(np.sum(np.abs(evolved))) * scale_out
        else:
            # Shrink the inner tolerance so the certified truncation bound
            # still meets tol after the pole evaluation and drift powers.
            inner_tol = tol / (len(parts) * scale_out * max(1.0, m) ** i)
            evolved, tail = _series_evolve(op, cfg.t, vec, inner_tol)
            bound = tail * scale_out
        values.append(m**i * _evaluate_at_pole(op.indexer, evolved, sqrt_n))
        bounds.append(m**i * bound)
    return MomentResult(
        value=math.fsum(values),
        route=route,
        error_bound=math.fsum(bounds),
        config=cfg,
        monomial=alpha,
    )


def _extended_moment(cfg, parts, include_mixed_term) -> tuple[float, float]:
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
    rule = _sphere_rule(N, cfg.k, include_mixed_term)

    @lru_cache(maxsize=None)
    def at_pole(c: Exponents) -> dict[tuple[int, int, int], Fraction]:
        image = dict(rule(Polynomial.monomial(c)).terms)
        rate = image.pop(c, Fraction(0))
        q = (rate + sum(c)) * N
        assert q.denominator == 1, f"rate {rate} is not -s + q/N"
        terms: dict[tuple[int, int, int], Fraction] = {}
        for lower, coeff in image.items():
            for (s2, q2, p), w in at_pole(lower).items():
                gap = Fraction(q2, N) - s2 - rate
                terms[s2, q2, p] = terms.get((s2, q2, p), 0) + coeff * w / gap
        start = {} if any(c[1:]) else {c[0]: Fraction(1)}
        for (_, _, p), w in terms.items():
            start[p] = start.get(p, 0) - w
        terms.update(((sum(c), int(q), p), w) for p, w in start.items())
        return {key: w for key, w in terms.items() if w}

    terms: dict[tuple[int, int, int], Fraction] = {}
    for i, g in enumerate(parts):
        for beta, coeff in g.terms.items():
            for (s, q, p), w in at_pole(beta).items():
                terms[s + i, q + i, p + i] = terms.get((s + i, q + i, p + i), 0) + coeff * w
    return evaluate_exp_sum({k: w for k, w in terms.items() if w}, N, cfg.t)


def heat_moment_monomial(
    cfg: SphereConfig, alpha: Exponents, route: str = "matexp", **kwargs
) -> MomentResult:
    """Convenience wrapper for a single monomial x^alpha."""
    return heat_moment(cfg, Polynomial.monomial(alpha), route=route, **kwargs)
