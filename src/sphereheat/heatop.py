"""Heat-operator moments of polynomials on the shifted sphere.

The heat-kernel measure is based at the pole and invariant under the
rotations that fix the first axis, so every moment is one-dimensional:
the reduction of :mod:`sphereheat.eigenmethod` turns f into exact parts
g_i of the shifted first coordinate y1 with E f = sum_i m^i E[g_i(y1)].
Of the :data:`ROUTES`, ``eigen`` is the exact sum of the parts' eigen
expansions from :mod:`sphereheat.eigenmethod`, a polynomial in the drift m:
sum w m^j exp(-c t/N) with rational w, evaluated by one exp-sum call for all t
of one N.  The heat operator acts on y1^n through the one-variable part D of
the sphere Laplacian, so the double routes work on the 1-D lattice of
degrees D reaches from the parts, and evolve one row, pole exp((t/2) D) with
pole the base point's sqrt(N)^n, dotted with every part: ``series`` sums its
power series, stopped once for all parts by a proven tail bound in the 1-norm
of D scaled by diag(1/n!), and ``matexp`` uses :func:`expm`.  Every route
refuses a cell with a ValueError that gives the reason.  What does not depend on t is memoized
per (polynomial, N), and no result depends on that cache.

:func:`heat_moments` takes one polynomial at many configurations as one
batch: the cells whose lattices have the same size run on a stack of them,
through kernels that take (..., d, d) stacks, :func:`expm`, the stop scan
:func:`_series_stop` and :func:`_series_evolve`; each slice keeps its own
scaling count or stop and comes out bit for bit as it would alone, and a
refused cell carries its exception without touching the others.
:func:`heat_moment` is the one-cell batch.

:func:`heat_apply_matexp` exponentiates a dense operator matrix from
:mod:`sphereheat.operators`; no moment uses it.  A stochastic route lives
in :mod:`sphereheat.sphere_mc`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from .eigenmethod import _eigen_moment_sum, _exp_sums, _first_coordinate_parts
from .operators import OperatorMatrix, SphereConfig
from .polyalg import Exponents, Polynomial


_CHUNK = 64  # series terms buffered between two folds into the running sum
_MAX_TERMS = 20000  # series terms a stop scan may reach
_SERIES_TOL = 1e-12  # absolute error the series route's proven bound must meet
_U = 2.0**-53  # unit roundoff of a double
ROUTES = ("eigen", "matexp", "series")  # the deterministic moment routes


class SeriesToleranceError(ValueError):
    """The power series could not reach the requested tolerance."""


@dataclass(frozen=True)
class MomentResult:
    """A heat-kernel moment with provenance.

    ``route`` is one of :data:`ROUTES`.  ``error_bound`` sums over the parts a
    proven tail bound (D's 1-norm scaled by diag(1/n!)) plus a rounding estimate
    for series, and 1e-13 sqrt(N)^deg times the column sums of |exp((t/2) D)|
    against |b_i| for matexp.  On the eigen route the value is the double
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


def _series_stop(half_t, norm, ratio, max_terms: int = _MAX_TERMS) -> tuple:
    """For each slice, the first n >= 1 with tail(a, n) <= ratio, a = half_t norm,
    and that tail (0 and 0 when a = 0), from one upward scan over all slices;
    stop -1 and tail inf where no n <= max_terms meets it.

    tail(a, n) = a^(n+1)/(n+1)! / (1 - a/(n+2)) majorizes sum_{i>n} a^i/i! once
    n + 2 > a.  In floating point a is rounded up, the lead a^(n+1)/(n+1)! kept as
    mantissa and power of two, and 1 + 4 (n + 4) u covers the 2n + 6 roundings of
    tail(a, n) and of its product with two bounds.  The scan takes up to _CHUNK
    terms at a time: within a chunk the leads are running products of a/(n+1)
    from the chunk's first mantissa, and a chunk is short enough that they stay
    normal, so each rounds as a product renormalized at every term does.
    """
    a = np.atleast_1d(half_t * norm * (1 + 4 * _U)).astype(float)
    ratio = np.broadcast_to(np.asarray(ratio, dtype=float), a.shape)
    stops, tails = np.where(a == 0, 0, -1), np.where(a == 0, 0.0, math.inf)
    scan = np.flatnonzero((a != 0) & (a < max_terms + 2))  # past that, n + 2 > a never holds
    a_s, r_s = a[scan, None], ratio[scan, None]
    mant, exp2 = np.frexp(a_s)  # the lead at n = 0: a
    # |log2| of the largest and the least factor a/(n+1), so 1000 bits bound a chunk's leads
    widest = float(np.max(np.abs(np.log2([a_s / 2, a_s / (max_terms + 1)])), initial=0.0))
    length = max(1, min(_CHUNK, int(1000 // (1 + widest))))
    first = 1
    with np.errstate(all="ignore"):  # tails where n + 2 <= a are never read
        while scan.size and first <= max_terms:
            n = np.arange(first, min(first + length, max_terms + 1))
            lead = np.multiply.accumulate(np.concatenate([mant, a_s / (n + 1)], axis=1), axis=1)
            mant, e = np.frexp(lead[:, 1:])
            e += exp2
            lead = mant * (n + 2) / (n + 2 - a_s) * (1 + 4 * (n + 4) * _U)
            tail = np.ldexp(lead, e) + math.ulp(0.0)  # ulp(0) covers a subnormal
            met = (n + 2 > a_s) & (tail <= r_s)
            hit, at = met.any(axis=1), met.argmax(axis=1)
            stops[scan[hit]], tails[scan[hit]] = n[at[hit]], tail[hit, at[hit]]
            scan, a_s, r_s = scan[~hit], a_s[~hit], r_s[~hit]
            mant, exp2 = mant[~hit, -1:], e[~hit, -1:]
            first += len(n)
    return stops, tails


def _series_evolve(mat: np.ndarray, t, row: np.ndarray, stop) -> tuple:
    """The series of row exp((t/2) mat) through term ``stop``, and sum_n |term_n|
    (from n = 0) for rounding estimates, for each slice of a stack: ``mat`` is
    (..., d, d), ``row`` (..., d), and ``t`` and ``stop`` hold one value a slice.

    Terms are written in chunks below a row that holds the running sum, and
    each chunk is folded into it by ``np.add.accumulate``, which adds in term
    order: the sums are those of a term-by-term loop, bit for bit.  Before a
    chunk is folded, a slice's terms past its own stop are overwritten by -0.0,
    which leaves every sum as it is; until then they may overflow, which
    :func:`_double_moments` runs with its floating-point warnings off.
    """
    half_t, stop = 0.5 * np.asarray(t, dtype=float)[..., None], np.asarray(stop)
    last = int(stop.max(initial=0))
    terms = np.empty((_CHUNK + 1,) + row.shape)  # row 0: the running sum
    abs_terms = np.empty_like(terms)
    terms[0], abs_terms[0] = row, np.abs(row)
    term = row
    for first in range(1, last + 1, _CHUNK):
        n = np.arange(first, min(first + _CHUNK, last + 1))
        factors, rows = half_t / n, len(n)  # term n: the term before, times mat and (t/2)/n
        for j in range(1, rows + 1):
            term = np.matmul(term[..., None, :], mat, out=terms[j, ..., None, :])[..., 0, :]
            term *= factors[..., j - 1, None]
        terms[1:rows + 1][stop < n.reshape((-1,) + (1,) * stop.ndim)] = -0.0
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
    """Matrix exponential of small float matrices, one per slice of a (..., d, d)
    stack: Pade [13/13] scaling and squaring.

    Each slice scales by its own 2^-s, s = max(0, ceil(log2(||a||_1 / theta_13))),
    solves (V - U) r = V + U and squares s times (Higham 2005).  For upper-triangular
    input, as every lattice D is, the approximant and each square of it, those
    of 2^-k a for k = s, ..., 0, get the diagonal exp(2^-k diag a) and the
    superdiagonal 2^-k a_(j,j+1) times the divided difference of exp,
    e^((x+y)/2) sinh(d)/d with d = (y - x)/2 (Al-Mohy and
    Higham, A new scaling and squaring algorithm for the matrix exponential,
    SIAM J. Matrix Anal. Appl. 31, 2009, Code Fragment 2.1).  One degree
    suffices for the few-dozen-row matrices of this package.  The slices run
    in step, aligned at their last squaring, and each comes out as it would alone.
    """
    a = np.asarray(a, dtype=float)
    stack = a.reshape((-1,) + a.shape[-2:])
    norms = np.abs(stack).sum(axis=1).max(axis=1, initial=0.0)
    s = np.array([max(0, math.ceil(math.log2(x / _THETA13))) if x else 0 for x in norms.tolist()],
                 dtype=int)
    x = stack * np.ldexp(1.0, -s)[:, None, None]
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    b = _PADE13
    eye = np.eye(a.shape[-1])
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    j = np.arange(a.shape[-1])
    tri = np.flatnonzero(~stack[:, j[:, None] > j].any(axis=1))
    top = int(s.max(initial=0))
    scales = np.ldexp(1.0, np.arange(-top, 1))[:, None, None]  # step k: 2^-(top - k)
    h = np.diagonal(stack[tri], axis1=1, axis2=2) * scales
    d = (h[..., 1:] - h[..., :-1]) / 2
    sinch = np.divide(np.sinh(d), d, out=np.ones_like(d), where=d != 0)
    sup = np.diagonal(stack[tri], 1, 1, 2) * scales * np.exp(h[..., :-1] + d) * sinch
    exp_h = np.exp(h)
    for k in range(top + 1):  # a slice starts at step top - s and then squares s times
        r = np.where((s > top - k)[:, None, None], r @ r, r)
        # a slice that has not started is not squared, and its first step overwrites these
        r[tri[:, None], j, j] = exp_h[k]
        r[tri[:, None], j[:-1], j[1:]] = sup[k]
    return r.reshape(a.shape)


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

    ``parts`` is (den, parts) from :func:`_first_coordinate_parts`.  The lattice
    is every degree D reaches from the parts (n, n - 2, ... >= 0), lowest first,
    and D y1^n = lambda_n y1^n + n (n - 1) y1^(n-2).  Returns D as a float
    matrix; the 1-norm of S^-1 D S, S = diag(1/n!) (D's diagonal and the
    superdiagonal 1), rounded up from its exact value; upper bounds on the parts'
    ||S^-1 b||_1 (inf past degree 170); the base-point row sqrt(N)^n; and the
    block of the parts (columns b, each coefficient a / den correctly rounded).
    Memoized per (parts, N), so its arrays are read-only.
    """
    den, parts = parts
    degrees = sorted({d for g in parts for n, _ in g for d in range(n % 2, n + 1, 2)})
    index = {n: i for i, n in enumerate(degrees)}
    mat = np.zeros((len(index), len(index)))
    for n in degrees:
        mat[index[n], index[n]] = -n * (N + n - 2) / N  # lambda_n, correctly rounded
        if n >= 2:
            mat[index[n - 2], index[n]] = n * (n - 1)
    # |lambda_n| grows with n: the top degree's column has the largest scaled norm
    exact = abs(Fraction(mat[-1, -1])) + (degrees[-1] >= 2)
    norm = float(exact) if float(exact) >= exact else math.nextafter(float(exact), math.inf)
    # the working-precision sqrt(N), never one rebuilt through the drift m
    pole = np.array([math.sqrt(N) ** n for n in degrees])
    block = np.zeros((len(index), len(parts)))
    for i, g in enumerate(parts):
        for n, a in g:
            block[index[n], i] = a / den
    # sum n! |b_n|, raised by 8u over the roundings of n!, of each product and of the sum
    fnorms = tuple(math.fsum((float(math.factorial(n)) if n < 171 else math.inf)
                             * abs(a / den) for n, a in g) * (1 + 8 * _U) for g in parts)
    for array in (mat, pole, block):
        array.flags.writeable = False
    return mat, norm, fnorms, pole, block


def heat_moments(cfgs: Sequence[SphereConfig], f: Polynomial, route: str = "eigen") -> list:
    """Heat-kernel moments of one polynomial, in the unshifted coordinates, at
    each configuration on one of :data:`ROUTES`: one batch, whose entry i is
    cfgs[i]'s :class:`MomentResult` or the ValueError that refused that cell.

    Pipeline: reduce f to one-variable parts g_i(y1) of the shifted first
    coordinate, E f = sum_i m^i E[g_i(y1)] (the rotation reduction
    :func:`sphereheat.eigenmethod._first_coordinate_parts`), then sum their
    eigen expansions exactly (``eigen``), or evolve the row u = pole exp((t/2) D)
    on the 1-D lattice of degrees D reaches and recombine the parts'
    compensated sums u b_i.  The series remainder R_n after
    term n has |pole R_n b| <= ||pole S||_inf tail(a, n) ||S^-1 b||_1 for S =
    diag(1/n!) (C. Moler and C. Van Loan, SIAM Rev. 45, 2003): one stop serves
    every part.  The bounds and the series tolerance scale with sqrt(N)^deg f,
    the largest value a lattice monomial takes at the base point, so no
    result depends on ``cfg.ell``.  A moment whose parts all vanish (the zero
    polynomial, an odd power of a coordinate beyond the first) is 0 with
    bound 0 on every route.  Refused: on ``eigen``, an exp-sum past its digit
    budget; on a double route, a sqrt(N)^deg f past the double range, a nonzero
    part coefficient that rounds to 0.0, a value or bound that is not finite,
    or a series tail out of reach.

    The cells that share a lattice size are evaluated together, on a stack of
    their lattices: one :func:`expm`, or one stop scan and one series of rows
    of :func:`_series_evolve`.  Each slice is computed as it would be alone,
    and a refused cell leaves every other one as it is.
    """
    degree = f.degree()
    for cfg in cfgs:
        if f.varcount != cfg.k:
            raise ValueError(f"polynomial has {f.varcount} variables, config k={cfg.k}")
        if degree > cfg.ell:
            raise ValueError(f"degree {degree} exceeds basis cap {cfg.ell}")
    if route not in ROUTES:
        raise ValueError(f"unsupported route {route!r} for the operator pipeline")

    alpha = next(iter(f.terms)) if len(f.terms) == 1 else None
    terms = tuple(sorted(f.terms.items()))
    out: list = [None] * len(cfgs)
    by_n: dict[int, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        by_n.setdefault(cfg.N, []).append(i)
    stacks: dict[int, list] = {}  # lattice size -> [(cell, prepared lattice, sqrt(N)^deg f)]
    for N, cells in by_n.items():
        parts = _first_coordinate_parts(N, f.varcount, terms)
        if not any(parts[1]):
            for i in cells:
                out[i] = MomentResult(0.0, route, 0.0, cfgs[i], alpha)
        elif route == "eigen":
            sums = _exp_sums(_eigen_moment_sum(N, parts), N, [cfgs[i].t for i in cells])
            for i, result in zip(cells, sums):
                out[i] = result if isinstance(result, Exception) else MomentResult(
                    result[0], route, result[1], cfgs[i], alpha)
        else:
            try:  # evaluation functional 1-norm bound, the largest base-point value
                scale_out = math.sqrt(N) ** degree
            except OverflowError:
                refusal = ValueError(f"sqrt(N)^{degree} at N={N} exceeds the double range; "
                                     "use the exact eigen route")
                for i in cells:
                    out[i] = refusal
                continue
            prepared = _prepare(N, parts)
            if np.count_nonzero(prepared[4]) < sum(map(len, parts[1])):
                refusal = ValueError(f"a nonzero part coefficient of the moment at N={N} rounds "
                                     "to 0.0 in double precision; use the exact eigen route")
                for i in cells:
                    out[i] = refusal
                continue
            stacks.setdefault(len(prepared[3]), []).extend((i, prepared, scale_out) for i in cells)
    for stack in stacks.values():
        cells, prepared, scale_out = zip(*stack)
        results = _double_moments(route, [cfgs[i] for i in cells], prepared, scale_out, alpha)
        for i, result in zip(cells, results):
            out[i] = result
    return out


def _double_moments(route: str, cfgs: list, prepared: tuple, scale_out: tuple, alpha) -> list:
    """The moment, or the exception that refuses it, of each cell on one stack of
    equal-size lattices."""
    mat, norm, fnorms, pole, block = (np.array(x) for x in zip(*prepared))
    t, m = np.array([cfg.t for cfg in cfgs]), [cfg.m for cfg in cfgs]
    scale = np.array(scale_out)
    abs_block = np.abs(block)
    failed: dict[int, SeriesToleranceError] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # the refusals name an overflow
        if route == "matexp":
            exp_mat = expm(0.5 * t[:, None, None] * mat)
            row = np.matmul(pole[:, None, :], exp_mat)[:, 0, :]
            part_bounds = (1e-13 * scale)[:, None] * np.matmul(
                np.abs(exp_mat).sum(axis=1)[:, None, :], abs_block)[:, 0, :]
        else:
            # one stop for all parts; an infinite weight gives an infinite bound, refused
            weight = [s * sum(max(1.0, mi) ** i * fn for i, fn in enumerate(fns))
                      for s, mi, fns in zip(scale_out, m, fnorms.tolist())]
            ratio = np.array([_SERIES_TOL / w if w else math.inf for w in weight])
            stop, tail = np.zeros(len(cfgs), dtype=int), np.full(len(cfgs), math.inf)
            scan = np.flatnonzero(ratio)  # 0: no tail is small enough
            stop[scan], tail[scan] = _series_stop(0.5 * t[scan], norm[scan], ratio[scan])
            for i in np.flatnonzero(stop < 0):
                failed[i] = SeriesToleranceError(
                    f"series did not reach tail {ratio[i]:.3g} in {_MAX_TERMS} terms at "
                    f"scaled operator 1-norm {norm[i]:.6g}")
            row, abs_sums = _series_evolve(mat, t, pole, np.maximum(stop, 0))
            # rounding estimate: u (d + 2) times sum_n |term_n| against |b_i|
            part_bounds = ((tail * scale)[:, None] * fnorms
                           + _U * (pole.shape[1] + 2)
                           * np.matmul(abs_sums[:, None, :], abs_block)[:, 0, :])
        products = (row[:, :, None] * block).transpose(0, 2, 1).tolist()
    out = []
    for i, (cfg, cell, bounds) in enumerate(zip(cfgs, products, part_bounds.tolist())):
        try:
            value = math.fsum(m[i]**j * math.fsum(p) for j, p in enumerate(cell))
            bound = math.fsum(m[i]**j * b for j, b in enumerate(bounds))
        except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
            value = bound = math.nan
        if i in failed:
            out.append(failed[i])
        elif math.isfinite(value) and math.isfinite(bound):
            out.append(MomentResult(value, route, bound, cfg, alpha))
        else:
            out.append(ValueError(f"the {route} moment or its bound is not finite in double "
                                  "precision; use the exact eigen route"))
    return out


def heat_moment(cfg: SphereConfig, f: Polynomial, route: str = "eigen",
                precision: str = "double") -> MomentResult:
    """Heat-kernel moment of a polynomial in the unshifted coordinates: the
    one-cell batch of :func:`heat_moments`, raising the ValueError that refuses it.
    ``precision="extended"`` with route "matexp" is route "eigen"."""
    if precision != "double" and (precision, route) != ("extended", "matexp"):
        raise ValueError(f"unknown precision {precision!r} for route {route!r}")
    route = "eigen" if precision == "extended" else route  # as benchmarks/tracing.py spells it
    (result,) = heat_moments([cfg], f, route)
    if isinstance(result, Exception):
        raise result
    return result


def heat_moment_monomial(cfg: SphereConfig, alpha: Exponents, route: str = "eigen"
                         ) -> MomentResult:
    """Convenience wrapper for a single monomial x^alpha."""
    return heat_moment(cfg, Polynomial.monomial(alpha), route=route)
