"""Cross-checked numeric routes for the heat-operator moments."""

import inspect
import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from sphereheat.eigenmethod import (
    eigen_moment_terms,
    eigenvalue,
    eigen_poly,
    eigen_poly_at_sqrtN,
    evaluate_exp_sum,
    finite_moment_x1,
    monomial_in_eigenbasis,
)
from sphereheat import eigenmethod, heatop
from sphereheat.heatop import (
    ROUTES,
    MomentResult,
    SeriesToleranceError,
    _first_coordinate_parts,
    _prepare,
    _series_evolve,
    _series_stop,
    expm,
    heat_apply_matexp,
    heat_moment,
    heat_moment_monomial,
    heat_moments,
)
from sphereheat.operators import (
    OperatorMatrix,
    SphereConfig,
    build_D,
    build_sphere_laplacian,
    euler_apply,
    operator_from_rule,
    second_derivative_sum,
)
from sphereheat import operators
from sphereheat.polyalg import BasisIndexer, Polynomial, shift_first_variable_powers

from lattice_reference import canonical, lattice_moment, lattice_terms


def x1sq_closed_form(n: int, t: float) -> float:
    """By hand from the eigen-pairs x^2 - 1 and x: 1 + (N-1)e^-t - N e^(-t(1-1/N))."""
    return 1.0 + (n - 1) * math.exp(-t) - n * math.exp(-t * (1.0 - 1.0 / n))


# ----------------------------------------------------------------------
# series route
# ----------------------------------------------------------------------


@pytest.fixture
def series_scans(monkeypatch):
    """The (stops, tails) arrays of every _series_stop call made while the test runs."""
    scans = []
    monkeypatch.setattr(heatop, "_series_stop",
                        lambda *args: scans.append(_series_stop(*args)) or scans[-1])
    return scans


def stop_of(half_t, norm, ratio, max_terms=20000):
    """The (stop, tail) of one scan; a stop of -1 means the tail is out of reach."""
    (stop,), (tail,) = _series_stop(half_t, norm, ratio, max_terms)
    return int(stop), float(tail)


def plain_series(mat, t, row, tol, max_terms=20000):
    """_series_evolve unscaled (S = I): stopped at the first n with
    ||row||_inf tail(t/2 ||mat||_1, n) <= tol, a bound on ||row R_n||_inf.
    Returns the sum, sum_n |term_n| and that bound."""
    scale = float(np.max(np.abs(row)))
    stop, tail = stop_of(0.5 * t, float(np.max(np.sum(np.abs(mat), axis=0))),
                         tol / scale if scale else math.inf, max_terms)
    if stop < 0:
        raise SeriesToleranceError(f"no tail {tol / scale:.3g} in {max_terms} terms")
    return (*_series_evolve(mat, t, row, stop), scale * tail)


def dense_series(op, t, row, tol, max_terms=20000):
    """plain_series on a builder's dense float matrix."""
    return plain_series(op.to_float(), t, row, tol, max_terms)


def test_series_identity_at_zero_time():
    d_op = build_D(6, 4)
    f = np.array([0.0, -3.0, 0.0, 0.0, 2.0])  # 2 x^4 - 3 x
    sums, _, bound = dense_series(d_op, 0.0, f, 1e-12)
    assert np.array_equal(sums, f) and bound == 0.0


def test_series_on_eigenvector_of_d():
    # the coefficient of the top degree: D adds x^3 only to x^3, times lambda_3
    n, t = 9, 0.7
    d_op = build_D(n, 3)
    top = np.eye(d_op.dimension)[d_op.indexer.index((3,))]
    sums, _, _ = dense_series(d_op, t, top, 1e-14)
    assert np.allclose(sums, math.exp(0.5 * t * -3.0 * (1.0 + 1.0 / n)) * top, rtol=0, atol=1e-13)


def test_series_constant_is_fixed():
    cfg = SphereConfig(N=8, t=1.3, k=2, ell=3)
    one = Polynomial.monomial((0, 0), Fraction(1))
    assert heat_moment(cfg, one, route="series").value == 1.0
    # exp((t/2) L) 1 = 1: every unit row takes exactly its own value on the constant
    lap = build_sphere_laplacian(cfg)
    unit = np.eye(lap.dimension)
    sums = np.array([dense_series(lap, cfg.t, e, 1e-12)[0] for e in unit])
    assert np.array_equal(sums[:, 0], unit[0])


def test_series_unreachable_tolerance_raises():
    d_op = build_D(4, 8)
    x8 = np.eye(d_op.dimension)[d_op.indexer.index((8,))]
    with pytest.raises(SeriesToleranceError):
        dense_series(d_op, 2.0, x8, 1e-12, max_terms=3)
    assert stop_of(0.5, 2.5, 1e-15, max_terms=5) == (-1, math.inf)
    # at t = 3e4, a = t/2 * 3 = 45 000 needs more than the 20 000 terms a scan may take:
    # that cell alone is refused
    cells = [SphereConfig(N=16, t=t, k=1, ell=2) for t in (1.0, 3e4, 2.0)]
    x2 = Polynomial.monomial((2,))
    ok, refused, also_ok = heat_moments(cells, x2, route="series")
    assert isinstance(refused, SeriesToleranceError)
    assert str(refused) == ("series did not reach tail 1.25e-14 in 20000 terms at scaled "
                            "operator 1-norm 3")
    for cfg, res in ((cells[0], ok), (cells[2], also_ok)):
        assert res == heat_moment(cfg, x2, route="series")
    with pytest.raises(SeriesToleranceError, match="scaled operator 1-norm 3"):
        heat_moment(cells[1], x2, route="series")
    # past degree 170, ||S^-1 b||_1 = sum n! |b_n| exceeds every double: no tail
    # meets the tolerance, and the infinite bound is refused
    cfg = SphereConfig(N=5, t=1e-3, k=1, ell=172)
    assert math.isfinite(heat_moment_monomial(cfg, (172,), route="matexp").value)
    with pytest.raises(ValueError, match="not finite"):
        heat_moment_monomial(cfg, (172,), route="series")


def tail_40_digits(a, n):
    """The geometric majorant a^(n+1)/(n+1)! / (1 - a/(n+2)) of the series tail,
    at 40 digits; infinite while n + 2 <= a."""
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        if n + 2 <= a:
            return mpmath.inf
        return a ** (n + 1) / mpmath.factorial(n + 1) / (1 - a / (n + 2))


@pytest.mark.parametrize("fnorm", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize("tol", [1e-16, 1e-12, 1e-6])
def test_series_stop_equals_linear_scan(fnorm, tol):
    # the scan stops at the first n whose tail meets tol / fnorm: checked against
    # the 40-digit majorant, up to the scan's rounding margin
    ratio = tol / fnorm
    for a in np.geomspace(1e-3, 500.0, 40):
        n, tail = stop_of(0.5, 2.0 * a, ratio)
        exact = tail_40_digits(a, n)
        assert exact <= tail <= ratio and tail <= exact * (1 + 1e-9), (a, ratio)
        assert tail_40_digits(a, n - 1) > ratio / (1 + 1e-9) or n == 1, (a, ratio)
    assert stop_of(0.0, 3.0, ratio) == (0, 0.0)


def test_series_block_zero_time_and_zero_columns():
    # one evolved row against a block of parts: at t = 0 each part keeps its value,
    # a zero column has value and rounding estimate 0, and a zero row stays zero
    rng = np.random.default_rng(5)
    mat, row = rng.normal(size=(6, 6)), rng.normal(size=6)
    block = rng.normal(size=(6, 3))
    block[:, 1] = 0.0
    sums, abs_sums, bound = plain_series(mat, 0.0, row, 1e-12)
    assert np.array_equal(sums, row) and np.array_equal(abs_sums, np.abs(row)) and bound == 0.0
    sums, abs_sums, _ = plain_series(mat, 0.8, row, 1e-13)
    assert math.fsum(sums * block[:, 1]) == 0.0 and abs_sums @ np.abs(block[:, 1]) == 0.0
    sums, abs_sums = _series_evolve(mat, 0.8, np.zeros(6), 40)
    assert not sums.any() and not abs_sums.any()


def term_by_term(mat, t, row, stop):
    """The series recursion one term at a time: the sum and sum_n |term_n|."""
    term = row.astype(float)
    total, abs_total = term.copy(), np.abs(term)
    for n in range(1, stop + 1):
        term = term @ mat
        term *= 0.5 * t / n
        total += term
        abs_total += np.abs(term)
    return total, abs_total


@pytest.mark.parametrize("shape", [(1,), (20,)])
@pytest.mark.parametrize("a", [2.5, 60.0])
def test_chunked_series_equals_term_by_term_loop(shape, a):
    # stops on both sides of the 64-term chunk boundaries
    rng = np.random.default_rng(11)
    mat, row = rng.normal(size=shape * 2), rng.normal(size=shape)
    norm = float(np.max(np.sum(np.abs(mat), axis=0)))
    t = 2.0 * a / norm
    for stop in (n for n in (1, 63, 64, 65, 128, 130) if a < n + 2):
        # 1e-9 above the majorant at the wanted stop, far below it one term earlier
        assert stop_of(0.5 * t, norm, float(tail_40_digits(a, stop)) * (1 + 1e-9))[0] == stop
        sums, abs_sums = _series_evolve(mat, t, row, stop)
        ref, abs_ref = term_by_term(mat, t, row, stop)
        assert sums.tobytes() == ref.tobytes() and abs_sums.tobytes() == abs_ref.tobytes()
    # the same stops as one stack: each slice sums only up to its own stop
    stops = [n for n in (1, 63, 64, 65, 128, 130) if a < n + 2]
    sums, abs_sums = _series_evolve(np.array([mat] * len(stops)), np.full(len(stops), t),
                                    np.array([row] * len(stops)), np.array(stops))
    for stop, got, abs_got in zip(stops, sums, abs_sums):
        ref, abs_ref = term_by_term(mat, t, row, stop)
        assert got.tobytes() == ref.tobytes() and abs_got.tobytes() == abs_ref.tobytes()


def exp_times_block_60_digits(N, degrees, block, t):
    """exp((t/2) D) applied to each column of ``block``, at 60 digits, from the
    eigenvectors of D on the lattice ``degrees``: D y^n = lambda_n y^n + n (n - 1)
    y^(n-2), lambda_n = ``eigenvalue(n, N)``.  The eigenvector of lambda_m has
    v_m = 1 and v_n = -(n + 2)(n + 1) v_(n+2) / (lambda_n - lambda_m) below m."""
    index = {n: i for i, n in enumerate(degrees)}
    vecs = {}
    for m in degrees:
        v = {m: Fraction(1)}
        for n in range(m - 2, -1, -2):
            v[n] = -(n + 2) * (n + 1) * v[n + 2] / (eigenvalue(n, N) - eigenvalue(m, N))
        vecs[m] = v
    mp = lambda x: mpmath.mpf(x.numerator) / x.denominator  # noqa: E731
    out = []
    with mpmath.workdps(60):
        modes = {m: (mpmath.exp(mpmath.mpf(t) / 2 * mp(eigenvalue(m, N))),
                     {n: mp(x) for n, x in v.items()}) for m, v in vecs.items()}
        for col in block.T:
            rest = {n: mpmath.mpf(float(col[index[n]])) for n in degrees}
            value = dict.fromkeys(degrees, mpmath.mpf(0))
            for m in reversed(degrees):  # eigenvector coordinates, top degree first
                coeff, (decay, v) = rest[m], modes[m]
                for n, x in v.items():
                    rest[n] -= coeff * x
                    value[n] += coeff * decay * x
            out.append([value[n] for n in degrees])
    return out


@st.composite
def lattice_cases(draw):
    """(N, k, alpha, t, rel_tol): N in [3, 4096], k <= 3 below N, |alpha| <= 24,
    t log-uniform in [1e-3, 4], rel_tol log-uniform in [1e-14, 1e-2]."""
    N = draw(st.integers(3, 4096))
    k = draw(st.integers(1, min(3, N - 1)))
    deg = draw(st.integers(0, 24))
    cuts = sorted(draw(st.lists(st.integers(0, deg), min_size=k - 1, max_size=k - 1)))
    alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
    t = 10 ** draw(st.floats(-3.0, math.log10(4.0)))
    return N, k, alpha, t, 10 ** draw(st.floats(-14.0, -2.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lattice_cases())
def test_series_columns_are_within_tail_plus_rounding(case):
    # each part: |pole series b - pole exp((t/2) D) b| <= ||pole||_inf tail ||S^-1 b||_1
    # + u (d + 2) sum_n |pole term_n| |b|, the reference independent of the series
    # and of heatop's float matrix
    N, k, alpha, t, rel_tol = case
    parts = _first_coordinate_parts(N, k, ((alpha, Fraction(1)),))
    if not any(parts[1]):
        return
    mat, norm, fnorms, pole, block = _prepare(N, parts)
    degrees = sorted({d for g in parts[1] for n, _ in g for d in range(n % 2, n + 1, 2)})
    stop, tail = stop_of(0.5 * t, norm, rel_tol)
    row, abs_row = _series_evolve(mat, t, pole, stop)
    ref = exp_times_block_60_digits(N, degrees, block, t)
    with mpmath.workdps(60):
        for i, column in enumerate(ref):
            exact = mpmath.fsum(mpmath.mpf(float(p)) * r for p, r in zip(pole, column))
            error = abs(mpmath.mpf(math.fsum(row * block[:, i])) - exact)
            rounding = 2.0**-53 * (len(degrees) + 2) * float(abs_row @ np.abs(block[:, i]))
            assert error <= float(np.max(pole)) * tail * fnorms[i] + rounding, (case, i)


@pytest.mark.parametrize("n", [3, 16, 1024, 10**6])
def test_prepare_bounds_the_scaled_norms_from_above(n):
    # the operator norm is the least double at or above its exact value for the
    # float D; each ||S^-1 b||_1 is above its exact value by less than 16 u
    lattices = list(every_lattice()) + [
        _first_coordinate_parts(n, len(alpha), ((alpha, Fraction(1)),))
        for alpha in ((12,), (23,), (4, 2, 2), (6, 2, 0), (3, 4, 6))]
    for parts in lattices:
        mat, norm, fnorms, _, block = _prepare(n, parts)
        degrees = sorted({d for g in parts[1] for m, _ in g for d in range(m % 2, m + 1, 2)})
        exact = max(abs(Fraction(x)) + (d >= 2) for d, x in zip(degrees, mat.diagonal()))
        assert norm >= exact and math.nextafter(norm, -math.inf) < exact, (n, parts)
        for col, fnorm in zip(block.T, fnorms):
            exact = sum(math.factorial(d) * abs(Fraction(x)) for d, x in zip(degrees, col))
            assert exact <= fnorm <= exact * (1 + Fraction(16, 2**53)), (n, parts)


def series_cells():
    """The benchmark's study grids (a) and (b): (alpha, N, t)."""
    for alpha in ((4,), (8,), (12,)):
        for n in (16, 32, 64, 128, 256, 512, 1024):
            for t in (0.5, 1.0, 2.0):
                yield alpha, n, t
    for alpha in ((2, 2, 0), (4, 2, 0), (6, 2, 0), (2, 2, 2), (4, 2, 2)):
        for n in (16, 64, 256):
            for t in (0.5, 2.0):
                yield alpha, n, t


def test_scaled_series_stop_keeps_every_study_value(monkeypatch, series_scans):
    # the factorial-scaled bound stops earlier than the plain 1-norm one (S = I),
    # but every series value of the study grids is the same, bit for bit; on
    # grid (a) (the first 63 cells) it sums under a third of the terms.  Each
    # monomial's cells are one batch, with one scan for all of them
    cells = list(series_cells())
    assert len(cells) == 93

    def series():
        values = []
        for alpha, group in itertools.groupby(cells, key=lambda cell: cell[0]):
            cfgs = [SphereConfig(N=n, t=t, k=len(alpha), ell=sum(alpha)) for _, n, t in group]
            values += [res.value.hex() for res in
                       heat_moments(cfgs, Polynomial.monomial(alpha), route="series")]
        return values

    def unscaled(N, parts):
        mat, _, _, pole, block = _prepare(N, parts)
        return (mat, float(np.max(np.sum(np.abs(mat), axis=0))),
                tuple(np.sum(np.abs(block), axis=0)), pole, block)

    scaled = series()
    monkeypatch.setattr(heatop, "_prepare", unscaled)
    assert series() == scaled
    assert len(series_scans) == 2 * 8
    terms = np.concatenate([stops for stops, _ in series_scans])
    assert len(terms) == 2 * 93 and 3 * terms[:63].sum() <= terms[93:156].sum()


def test_series_of_x1_to_the_12th_stops_within_100_terms(series_scans):
    # the plain 1-norm of D, 144.1, took 480 terms here; the scaled one is 13.1
    heat_moment_monomial(SphereConfig(N=1024, t=2.0, k=1, ell=12), (12,), route="series")
    assert len(series_scans) == 1 and 0 < series_scans[0][0] <= 100


def test_series_moment_evolves_one_row_with_one_stop(monkeypatch, series_scans):
    # thirteen parts m^i g_i(y1), one stop and one evolved row between them for
    # each cell; a batch of six cells takes one scan and one stack of six rows
    cfgs = [SphereConfig(N=n, t=t, k=3, ell=12) for n in (64, 256) for t in (0.5, 1.0, 2.0)]
    assert len(_first_coordinate_parts(64, 3, (((8, 2, 2), Fraction(1)),))[1]) == 13
    rows = []
    monkeypatch.setattr(heatop, "_series_evolve",
                        lambda *args: rows.append(args[2]) or _series_evolve(*args))
    heat_moments(cfgs, Polynomial.monomial((8, 2, 2)), route="series")
    assert len(series_scans) == 1 and series_scans[0][0].shape == (6,)
    assert len(rows) == 1 and rows[0].shape == (6, 13)
    heat_moment_monomial(cfgs[0], (8, 2, 2), route="series")
    assert len(series_scans) == 2 and series_scans[1][0].shape == (1,)
    assert len(rows) == 2 and rows[1].shape == (1, 13)


def test_series_agrees_with_matexp_on_all_basis_monomials():
    # each unit row evolved alone is that row of the exponential
    cfg = SphereConfig(N=10, t=1.0, k=2, ell=4)
    lap = build_sphere_laplacian(cfg)
    exp_mat = heat_apply_matexp(lap, cfg.t)
    sums = np.array([dense_series(lap, cfg.t, e, 1e-13)[0] for e in np.eye(lap.dimension)])
    assert float(np.max(np.abs(sums - exp_mat))) <= 1e-10


# ----------------------------------------------------------------------
# matexp route
# ----------------------------------------------------------------------


def test_matexp_of_zero_operator_is_identity():
    idx = BasisIndexer(2, 2)
    zero = OperatorMatrix([[Fraction(0)] * idx.dimension for _ in range(idx.dimension)], idx)
    assert np.allclose(heat_apply_matexp(zero, 1.7), np.eye(idx.dimension), atol=1e-15)


def test_matexp_diagonal_action_on_eigenvector():
    n, t = 12, 0.9
    d_op = build_D(n, 2)
    exp_mat = heat_apply_matexp(d_op, t)
    col = exp_mat[:, d_op.indexer.index((1,))]
    expect = math.exp(0.5 * t * (-1.0 + 1.0 / n))
    assert col[d_op.indexer.index((1,))] == pytest.approx(expect, rel=1e-13)
    assert np.max(np.abs(np.delete(col, d_op.indexer.index((1,))))) <= 1e-15


def test_matexp_extended_precision_matches_double():
    d_op = build_D(8, 4)
    a = heat_apply_matexp(d_op, 1.0)
    b = heat_apply_matexp(d_op, 1.0, precision="extended")
    worst = max(
        abs(a[i, j] - float(b[i, j]))
        for i in range(d_op.dimension)
        for j in range(d_op.dimension)
    )
    assert worst <= 1e-12


def every_lattice():
    """Parts whose lattices are all those _prepare builds to degree 24: one per pair
    (top even degree, top odd degree), either of them absent."""
    for even in (None, *range(0, 25, 2)):
        for odd in (None, *range(1, 24, 2)):
            if even is not None or odd is not None:
                yield 1, tuple(((n, 1),) for n in (even, odd) if n is not None)


def max_entry_error(value, ref):
    return float(np.max(np.abs(value - ref)) / np.max(np.abs(ref)))


def one_norm_error(value, ref):
    return float(np.linalg.norm(value - ref, 1) / np.linalg.norm(ref, 1))


def expm_60_digits(a):
    with mpmath.workdps(60):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


@pytest.mark.parametrize("n", [2, 3, 16, 1024, 10**6])
def test_expm_matches_scipy_on_every_lattice(n):
    # the worst difference, 1.3e-11 of the largest entry (N = 1024, t = 4), is
    # SciPy's own error: see the next test
    worst = max(max_entry_error(expm(0.5 * t * mat), scipy_expm(0.5 * t * mat))
                for parts in every_lattice() for mat in [_prepare(n, parts)[0]]
                for t in (1e-6, 1e-3, 0.5, 1.0, 2.0, 4.0))
    assert worst <= 5e-11


def test_expm_matches_60_digits_on_the_largest_lattices():
    # the lattices where SciPy strays most: measured worst 6.8e-16
    for n in (16, 1024, 10**6):
        for parts in ((1, (((24, 1),), ((23, 1),))),
                      (1, (((18, 1),), ((9, 1),)))):
            a = 2.0 * _prepare(n, parts)[0]
            assert max_entry_error(expm(a), expm_60_digits(a)) <= 4e-15, (n, parts)


def test_expm_matches_scipy_on_the_split_check_matrices():
    # verify's "commutation-split exponential identity" operands; measured worst 7.8e-16
    basis = BasisIndexer(2, 6)
    sum_d2 = operator_from_rule(basis, lambda p: second_derivative_sum(p, [1])).to_float()
    euler_y = operator_from_rule(basis, lambda p: euler_apply(p, [1])).to_float()
    for t in (0.5, 1.0, 2.0):
        x_mat, y_mat = -0.5 * t * euler_y, 0.5 * t * sum_d2
        for a in (x_mat + y_mat, x_mat, -math.expm1(-t) / t * y_mat):
            assert one_norm_error(expm(a), scipy_expm(a)) <= 4e-15, t


def test_expm_matches_scipy_on_random_matrices():
    # dense and upper triangular, 1 to 30 rows, 1-norm 1e-8 to 100; measured worst 5.2e-13
    rng = np.random.default_rng(19)
    for rows in range(1, 31):
        for norm in np.logspace(-8, 2, 11):
            for a in (rng.standard_normal((rows, rows)), np.triu(rng.standard_normal((rows, rows)))):
                a *= norm / np.linalg.norm(a, 1)
                assert one_norm_error(expm(a), scipy_expm(a)) <= 3e-12, (rows, norm)


def test_expm_edge_cases():
    assert expm(np.array([[-0.75]]))[0, 0] == np.exp(-0.75)
    assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))
    d = np.array([-3.0, 0.0, 0.5, 2.0])
    assert np.array_equal(expm(np.diag(d)), np.diag(np.exp(d)))
    # a repeated diagonal entry: the divided difference at a zero difference is e^x
    a = np.array([[2.7, 40.0, 7.0], [0.0, 2.7, -3.0], [0.0, 0.0, -2.0]])
    got = expm(a)
    assert got[0, 1] == 40.0 * np.exp(2.7)
    assert one_norm_error(got, expm_60_digits(a)) <= 5e-16  # measured 9.3e-17
    assert one_norm_error(got, scipy_expm(a)) <= 3e-15  # measured 6.5e-16
    # 1-norm just below theta_13 (no scaling), just above it and just below
    # 2 theta_13 (one squaring each); measured worst 2.6e-14 against SciPy
    rng = np.random.default_rng(13)
    for factor in (1 - 1e-9, 1 + 1e-9, 2 - 1e-9):
        for rows in (3, 6, 12, 20):
            for a in (rng.standard_normal((rows, rows)),
                      np.triu(rng.standard_normal((rows, rows)))):
                a *= factor * heatop._THETA13 / np.linalg.norm(a, 1)
                assert one_norm_error(expm(a), scipy_expm(a)) <= 1e-13, (factor, rows)
        # a positive rank-one matrix, whose eigenvalue is its 1-norm, where the Pade
        # error peaks (1.8e-7 at 2 theta_13 unscaled); measured worst 1.9e-14
        a = np.full((4, 4), factor * heatop._THETA13 / 4)
        assert one_norm_error(expm(a), expm_60_digits(a)) <= 1e-13, factor


@pytest.mark.parametrize("x,y,b", [(1.0, -1.0, 1e8), (-40.0, -40.0 + 1e-9, 1e3), (-3.0, -3.0, 50.0),
                                   (-20.0, -20.5, 1e6), (2.0, 2.0 + 1e-6, 1e7)])
def test_expm_of_a_two_by_two_triangle_is_its_closed_form(x, y, b):
    # exp [[x, b], [0, y]] = [[e^x, b (e^y - e^x)/(y - x)], [0, e^y]], each entry
    # to a few ulps, where the plain divided difference (e^y - e^x)/(y - x) or
    # squaring without resets loses up to 4e-9; measured worst 3.3e-15
    with mpmath.workdps(60):
        mx, my = mpmath.exp(x), mpmath.exp(y)
        off = b * (my - mx) / (mpmath.mpf(y) - x) if x != y else b * mx
        exact = np.array([[float(mx), float(off)], [0.0, float(my)]])
    got = expm(np.array([[x, b], [0.0, y]]))
    assert np.max(np.abs(got - exact) / np.where(exact == 0, 1.0, np.abs(exact))) <= 1.5e-14


def test_expm_does_no_array_work_at_import():
    assert all(type(c) is float for c in (*heatop._PADE13, heatop._THETA13))
    assert not any(isinstance(value, np.ndarray) for value in vars(heatop).values())


# ----------------------------------------------------------------------
# the moment pipeline
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_first_moment_vanishes(n, t):
    cfg = SphereConfig(N=n, t=t, k=1, ell=1)
    assert abs(heat_moment_monomial(cfg, (1,)).value) <= 1e-12


@pytest.mark.parametrize("route", ["matexp", "series"])
def test_second_moment_of_rest_variable_is_n_free(route):
    for n in (4, 16):
        for t in (0.5, 2.0):
            cfg = SphereConfig(N=n, t=t, k=2, ell=2)
            res = heat_moment_monomial(cfg, (0, 2), route=route)
            assert res.value == pytest.approx(-math.expm1(-t), abs=1e-12)


@pytest.mark.parametrize("route", ["matexp", "series"])
def test_first_variable_second_moment_closed_form(route):
    for n in (4, 16, 64):
        for t in (0.5, 1.0, 2.0):
            cfg = SphereConfig(N=n, t=t, k=1, ell=2)
            res = heat_moment_monomial(cfg, (2,), route=route)
            assert res.value == pytest.approx(x1sq_closed_form(n, t), abs=1e-11)


def test_rest_first_moment_vanishes():
    cfg = SphereConfig(N=8, t=1.0, k=2, ell=1)
    assert heat_moment_monomial(cfg, (0, 1)).value == 0.0


def test_normalization():
    for n in (4, 32):
        for t in (0.5, 2.0):
            for k in (1, 3):
                cfg = SphereConfig(N=n, t=t, k=k, ell=3)
                one = Polynomial.monomial((0,) * k, Fraction(1))
                assert heat_moment(cfg, one).value == pytest.approx(1.0, abs=1e-12)


def test_odd_rest_exponent_moments_vanish():
    cfg = SphereConfig(N=8, t=1.0, k=3, ell=5)
    for alpha in [(0, 1, 0), (0, 0, 3), (1, 1, 0), (2, 1, 2), (0, 3, 1), (1, 0, 1)]:
        assert abs(heat_moment_monomial(cfg, alpha).value) <= 1e-12


def all_alphas(k, deg):
    if k == 1:
        return [(n,) for n in range(deg + 1)]
    return [(n,) + rest for n in range(deg + 1) for rest in all_alphas(k - 1, deg - n)]


def test_route_agreement_all_monomials_to_degree_six():
    worst = 0.0
    for k in (1, 2, 3):
        for n in (8, 16, 32):
            for t in (0.5, 1.0, 2.0):
                cfg = SphereConfig(N=n, t=t, k=k, ell=6)
                for alpha in all_alphas(k, 6):
                    a = heat_moment_monomial(cfg, alpha, route="matexp")
                    b = heat_moment_monomial(cfg, alpha, route="series")
                    assert abs(a.value - b.value) <= a.error_bound + b.error_bound
                    worst = max(worst, abs(a.value - b.value))
    assert worst <= 1e-9


def test_mixed_term_influence_shrinks_like_one_over_n():
    # on x1^2 x2^2 the full-vs-decoupled gap halves when N doubles
    for t in (0.5, 1.0):
        gaps = {}
        for n in (8, 16, 32, 64):
            cfg = SphereConfig(N=n, t=t, k=2, ell=4)
            full = heat_moment_monomial(cfg, (2, 2)).value
            split = lattice_moment(cfg, (2, 2), include_mixed_term=False)[0]
            gaps[n] = abs(full - split)
        for n in (8, 16, 32):
            assert 1.6 <= gaps[n] / gaps[2 * n] <= 2.4


def test_mixed_term_irrelevant_for_odd_parity():
    # x1 x2 is odd in x2, so both routes return zero identically
    for n in (8, 32):
        cfg = SphereConfig(N=n, t=1.0, k=2, ell=2)
        full = heat_moment_monomial(cfg, (1, 1)).value
        split = lattice_moment(cfg, (1, 1), include_mixed_term=False)[0]
        assert abs(full) <= 1e-14 and abs(split) <= 1e-14


def test_small_time_limit_is_point_evaluation():
    # m(0+, N) -> sqrt(N), so every coordinate of the base point goes to zero
    cfg = SphereConfig(N=8, t=1e-8, k=2, ell=4)
    f = Polynomial(2, {(2, 0): Fraction(3), (0, 0): Fraction(5), (1, 1): Fraction(2)})
    assert heat_moment(cfg, f).value == pytest.approx(5.0, abs=1e-6)


def test_moment_result_provenance_fields():
    cfg = SphereConfig(N=8, t=1.0, k=2, ell=2)
    res = heat_moment_monomial(cfg, (2, 0), route="matexp")
    assert res.route == "matexp"
    # the exact route is the default and names itself, under either spelling
    assert heat_moment_monomial(cfg, (2, 0)).route == "eigen"
    assert heat_moment(cfg, Polynomial.monomial((2, 0)), route="matexp",
                       precision="extended").route == "eigen"
    assert res.monomial == (2, 0)
    assert res.error_bound >= 0
    assert res.config == cfg
    with pytest.raises(ValueError):
        MomentResult(1.0, "matexp", -1.0, cfg, None)


def dense_reference_moment(cfg, alpha, exp_mat, indexer):
    """Moment of x^alpha from the 50-digit dense exponential, applied by hand."""
    with mpmath.workdps(50):
        sqrt_n = mpmath.sqrt(cfg.N)
        m = sqrt_n * mpmath.exp(mpmath.mpf(cfg.t) / 2 * (mpmath.mpf(1) / cfg.N - 1))
        total = mpmath.mpf(0)
        for i, g in enumerate(shift_first_variable_powers(Polynomial.monomial(alpha))):
            for beta, coeff in g.terms.items():
                col = indexer.index(beta)
                for row, gamma in enumerate(indexer):
                    if not any(gamma[1:]):
                        weight = mpmath.mpf(coeff.numerator) / coeff.denominator
                        total += m**i * weight * exp_mat[row, col] * sqrt_n ** gamma[0]
        return total


def parity_block_expm(op, t):
    """The 50-digit exp((t/2) op), taken on each block of fixed x2 ... xk parities.

    Every entry of op between two blocks is first asserted to be exactly zero,
    so the blocks are invariant and their exponentials make up the whole one.
    """
    blocks: dict[tuple, list[int]] = {}
    for i, gamma in enumerate(op.indexer):
        blocks.setdefault(tuple(e % 2 for e in gamma[1:]), []).append(i)
    for rows in blocks.values():
        others = [j for j in range(op.dimension) if j not in rows]
        assert all(op.entries[i][j] == 0 for i in rows for j in others)
    with mpmath.workdps(50):
        out = mpmath.matrix(op.dimension, op.dimension)
        for idx in blocks.values():
            sub = mpmath.matrix(len(idx), len(idx))
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    e = op.entries[i][j]
                    sub[a, b] = mpmath.mpf(t) / 2 * mpmath.mpf(e.numerator) / e.denominator
            sub = mpmath.expm(sub)
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    out[i, j] = sub[a, b]
        return out


@pytest.mark.parametrize("include_mixed_term", [True, False])
@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("k", [2, pytest.param(3, marks=pytest.mark.slow)])
def test_extended_moment_matches_dense_reference(k, n, include_mixed_term):
    cfg = SphereConfig(N=n, t=1.0, k=k, ell=6)
    op = build_sphere_laplacian(cfg, include_mixed_term=include_mixed_term)
    exp_mat = parity_block_expm(op, cfg.t)
    if k == 2:  # the blocks against the whole 50-digit exponential
        with mpmath.workdps(50):
            assert mpmath.mnorm(exp_mat - heat_apply_matexp(op, cfg.t, "extended"), 1) < 1e-45
    for alpha in all_alphas(k, 6):
        ref = dense_reference_moment(cfg, alpha, exp_mat, op.indexer)
        if include_mixed_term:
            res = heat_moment_monomial(cfg, alpha, route="eigen")
            value, bound = res.value, res.error_bound
        else:  # the decoupled D + E, which only the lattice solve covers
            value, bound = lattice_moment(cfg, alpha, include_mixed_term=False)
        # 1e-40 covers the reference's own rounding where the moment is exactly zero
        assert abs(value - ref) <= 1e-14 * abs(ref) + 1e-40, alpha
        assert abs(value - ref) <= bound + 1e-40, alpha


def test_extended_moment_builds_no_matrix(monkeypatch):
    # no route of a moment touches the dense degree-ell operator
    def refuse(*args, **kwargs):
        raise AssertionError("moments must not use a dense operator")

    for owner, name in ((OperatorMatrix, "__init__"), (BasisIndexer, "__init__"),
                        (operators, "build_sphere_laplacian"),
                        (operators, "_laplacian_cached"), (mpmath, "expm")):
        monkeypatch.setattr(owner, name, refuse)
    # the correctly rounded exact moments of x1^4 x2^2 at t = 1
    for n, exact in ((32, 0.15434637790695147), (256, 0.13533309216925252)):
        cfg = SphereConfig(N=n, t=1.0, k=2, ell=6)
        assert heat_moment_monomial(cfg, (4, 2), route="eigen").value == exact
        for route in ("matexp", "series"):
            # the matexp bound does not cover rounding yet, so it is not checked here
            assert heat_moment_monomial(cfg, (4, 2), route=route).value == pytest.approx(
                exact, rel=1e-9), route


@pytest.mark.parametrize("route", ["matexp", "series"])
@pytest.mark.parametrize("alpha,n", [((8,), 64), ((4, 2, 2), 16)])
def test_moment_does_not_depend_on_the_degree_cap(alpha, n, route):
    a, b = (
        heat_moment_monomial(SphereConfig(N=n, t=1.0, k=len(alpha), ell=ell), alpha, route=route)
        for ell in (sum(alpha), sum(alpha) + 6)
    )
    assert (a.value, a.error_bound) == (b.value, b.error_bound)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha,n", [((12,), 64), ((4, 2, 2), 16)])
def test_series_bound_covers_rounding(alpha, n, t):
    cfg = SphereConfig(N=n, t=t, k=len(alpha), ell=sum(alpha))
    exact = heat_moment_monomial(cfg, alpha, route="eigen").value
    res = heat_moment_monomial(cfg, alpha, route="series")
    assert abs(res.value - exact) <= res.error_bound


def study_and_small_t_cells():
    """The benchmark's study grids (a) and (b), 93 cells, and the 105-cell small-t
    grid of x1^n: (alpha, N, t)."""
    for alpha in ((4,), (8,), (12,)):
        for n in (16, 32, 64, 128, 256, 512, 1024):
            for t in (0.5, 1.0, 2.0):
                yield alpha, n, t
    for alpha in ((2, 2, 0), (4, 2, 0), (6, 2, 0), (2, 2, 2), (4, 2, 2)):
        for n in (16, 64, 256):
            for t in (0.5, 2.0):
                yield alpha, n, t
    for p in (2, 4, 8, 12, 16, 20, 24):
        for n in (16, 1024, 10**6):
            for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6):
                yield (p,), n, t


def test_matexp_bound_holds_on_the_study_and_small_t_grids():
    # smallest bound/error ratio measured: 17 992, at x1^2, N = 16, t = 0.1
    cells = list(study_and_small_t_cells())
    assert len(cells) == 198
    for alpha, n, t in cells:
        cfg = SphereConfig(N=n, t=t, k=len(alpha), ell=sum(alpha))
        exact = heat_moment_monomial(cfg, alpha, route="eigen").value
        res = heat_moment_monomial(cfg, alpha, route="matexp")
        assert abs(res.value - exact) <= res.error_bound, (alpha, n, t)


def scaling_count(a):
    """The s of expm's 2^-s scaling for the matrix a."""
    norm = float(np.abs(a).sum(axis=0).max())
    return max(0, math.ceil(math.log2(norm / 5.371920351148152))) if norm else 0


def per_matrix_expm(a):
    """expm one matrix at a time, as the package computed it before its stacked form."""
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / 5.371920351148152))) if norm else 0
    x = a * 2.0**-s
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    b = heatop._PADE13
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
    scales = 2.0 ** -np.arange(s, -1, -1.0)[:, None]
    h = a.diagonal() * scales
    d = (h[:, 1:] - h[:, :-1]) / 2
    sinch = np.divide(np.sinh(d), d, out=np.ones_like(d), where=d != 0)
    sup = a.diagonal(1) * scales * np.exp(h[:, :-1] + d) * sinch
    for i, (exp_h, sup_i) in enumerate(zip(np.exp(h), sup)):
        if i:
            r = r @ r
        r[j, j], r[j[:-1], j[1:]] = exp_h, sup_i
    return r


def scalar_series_stop(half_t, norm, ratio, max_terms=20000):
    """The stop scan one term at a time, as the package computed it before its array
    form, which raised OverflowError where a tail passes the double range."""
    a = half_t * norm * (1 + 4 * 2.0**-53)
    if not a:
        return 0, 0.0
    mant, exp2 = math.frexp(a)
    for n in range(1, max_terms + 1):
        mant, e = math.frexp(mant * (a / (n + 1)))
        exp2 += e
        if n + 2 > a:
            lead = mant * (n + 2) / (n + 2 - a) * (1 + 4 * (n + 4) * 2.0**-53)
            try:
                tail = math.ldexp(lead, exp2) + math.ulp(0.0)
            except OverflowError:  # an infinite tail meets no ratio
                continue
            if tail <= ratio:
                return n, tail
    return -1, math.inf


def test_stop_scan_over_arrays_equals_the_scalar_scan():
    # 4 000 slices in one scan, a from 1e-9 to 3000, ratios from 1e-300 to 1: each
    # (stop, tail) is that of the term-by-term scan, bit for bit
    rng = np.random.default_rng(23)
    half_t = 10.0 ** rng.uniform(-9, 3, 4000)
    norm = 10.0 ** rng.uniform(-1, 0.5, 4000)
    ratio = 10.0 ** rng.uniform(-300, 0, 4000)
    stops, tails = _series_stop(half_t, norm, ratio)
    assert [(int(n), float(x).hex()) for n, x in zip(stops, tails)] == [
        (n, x.hex()) for n, x in map(scalar_series_stop, half_t, norm, ratio)]
    # budgets that some slices miss
    stops, tails = _series_stop(half_t[:200], norm[:200], ratio[:200], max_terms=40)
    assert list(zip(stops.tolist(), tails.tolist())) == [
        scalar_series_stop(*args, max_terms=40) for args in zip(half_t, norm, ratio)][:200]


def test_stacked_expm_equals_each_matrix_alone():
    # the lattices of the benchmark's three study grids and of the small-t grid,
    # one stack per lattice size, and verify's split-check operands (dense upper
    # triangles) with their transposes, which take the branch for matrices that are
    # not upper triangular: every slice of a stack is bit for bit the exponential
    # of its matrix alone
    cells = list(study_and_small_t_cells()) + [((4, 2), n, 1.0) for n in (32, 256)]
    stacks = {}
    for alpha, n, t in cells:
        mat = _prepare(n, _first_coordinate_parts(n, len(alpha), ((alpha, Fraction(1)),)))[0]
        stacks.setdefault(len(mat), []).append(0.5 * t * mat)
    basis = BasisIndexer(2, 6)
    sum_d2 = operator_from_rule(basis, lambda p: second_derivative_sum(p, [1])).to_float()
    euler_y = operator_from_rule(basis, lambda p: euler_apply(p, [1])).to_float()
    split = [a for t in (0.5, 1.0, 2.0)
             for x_mat, y_mat in [(-0.5 * t * euler_y, 0.5 * t * sum_d2)]
             for a in (x_mat + y_mat, x_mat, -math.expm1(-t) / t * y_mat)]
    assert not any(np.tril(a, -1).any() for a in split) and np.triu(split[0], 2).any()
    stacks[len(split[0])] = split + [a.T for a in split]
    assert sum(map(len, stacks.values())) == 200 + 18
    assert max(len({scaling_count(a) for a in stack}) for stack in stacks.values()) >= 5
    for stack in stacks.values():
        together = expm(np.array(stack))
        for a, got in zip(stack, together):
            for alone in (expm(a), per_matrix_expm(a)):
                assert [x.hex() for x in got.ravel()] == [x.hex() for x in alone.ravel()]


def test_moment_batch_equals_its_cells():
    # every cell of a batch is the cell computed alone, bit for bit, with its own
    # refusal: x1^160 overflows on matexp at N = 4096 and on series at both N
    cases = [((4,), [16, 64, 1024], [0.5, 1.0, 2.0]), ((4, 2, 2), [16, 256], [0.5, 2.0]),
             ((160,), [16, 4096], [1.0]), ((12,), [16, 10**6], [1e-6, 0.1, 4.0])]
    for alpha, ns, ts in cases:
        cfgs = [SphereConfig(N=n, t=t, k=len(alpha), ell=sum(alpha)) for n in ns for t in ts]
        f = Polynomial.monomial(alpha)
        for route in ROUTES:
            for cfg, res in zip(cfgs, heat_moments(cfgs, f, route)):
                try:
                    alone = heat_moment(cfg, f, route)
                except ValueError as exc:
                    assert type(res) is type(exc) and str(res) == str(exc), (alpha, cfg, route)
                    continue
                assert (res.value.hex(), res.error_bound.hex()) == (
                    alone.value.hex(), alone.error_bound.hex()), (alpha, cfg, route)
    refused = heat_moments([SphereConfig(N=n, t=1.0, k=1, ell=160) for n in (16, 4096)],
                           Polynomial.monomial((160,)), route="matexp")
    assert isinstance(refused[0], MomentResult) and isinstance(refused[1], ValueError)


def random_moment_cases():
    """300 (alpha, cfg): |alpha| <= 12, k <= 3, N in [4, 4096], t in [0.1, 4]."""
    rng = random.Random(7)
    for _ in range(300):
        k, deg = rng.randint(1, 3), rng.randint(0, 12)
        cuts = sorted(rng.randint(0, deg) for _ in range(k - 1))
        alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
        yield alpha, SphereConfig(N=rng.randint(4, 4096), t=rng.uniform(0.1, 4.0), k=k,
                                  ell=max(deg, 1))


def test_series_bound_holds_on_random_moments():
    # against the exact route
    for alpha, cfg in random_moment_cases():
        exact = heat_moment_monomial(cfg, alpha, route="eigen").value
        res = heat_moment_monomial(cfg, alpha, route="series")
        assert abs(res.value - exact) <= res.error_bound, (alpha, cfg)


def test_exp_sum_is_within_its_bound_on_extended_route_terms(within_300_digit_sum):
    for alpha, cfg in random_moment_cases():
        terms = exact_terms(cfg.N, alpha)
        value, bound = evaluate_exp_sum(terms, cfg.N, cfg.t)
        assert within_300_digit_sum(terms, cfg.N, cfg.t, value, bound), (alpha, cfg)


def contract_cells():
    """(alpha, cfg) of the route contract: the study and small-t grids, x1^12 at
    N = 64 and x1^4 x2^2 x3^2 at N = 16 for t in {0.5, 1, 2}, and the random
    moments, each cell once."""
    cells = {(alpha, n, t): SphereConfig(N=n, t=t, k=len(alpha), ell=sum(alpha))
             for alpha, n, t in itertools.chain(
                 study_and_small_t_cells(),
                 ((alpha, n, t) for alpha, n in (((12,), 64), ((4, 2, 2), 16))
                  for t in (0.5, 1.0, 2.0)))}
    for alpha, cfg in random_moment_cases():
        cells.setdefault((alpha, cfg.N, cfg.t), cfg)
    return [(alpha, cfg) for (alpha, _, _), cfg in cells.items()]


def test_every_route_meets_its_bound_or_refuses(sum_300_digits):
    # each route refuses a cell with a reason or has |value - exact| <= bound, the
    # exact value from the independent lattice solve summed at 300 digits; the
    # eigen bound is half an ulp, rounded up to a double
    cells = contract_cells()
    assert len(cells) == 499
    for alpha, cfg in cells:
        exact = sum_300_digits(lattice_terms(cfg.N, cfg.k, ((alpha, Fraction(1)),)), cfg.N, cfg.t)
        for route in ROUTES:
            (res,) = heat_moments([cfg], Polynomial.monomial(alpha), route)
            if isinstance(res, ValueError):
                assert str(res), (alpha, cfg, route)
                continue
            assert res.route == route
            with mpmath.workdps(300):
                assert abs(mpmath.mpf(res.value) - exact) <= res.error_bound, (alpha, cfg, route)
            if route == "eigen":
                assert res.error_bound <= max(0.5 * math.ulp(res.value), math.ulp(0.0)), (alpha, cfg)


def exact_terms(N, alpha):
    """The package's exact moment of x^alpha: its reduction, then the eigen sums."""
    return eigen_moment_terms(N, _first_coordinate_parts(N, len(alpha), ((alpha, Fraction(1)),)))


def test_reduction_equals_lattice_solve_exactly():
    # every monomial with |alpha| <= 12 and k <= 3 (k < N), then the random cases
    cases = [(alpha, N) for N in (3, 5, 64, 4096) for k in (1, 2, 3) if k < N
             for alpha in all_alphas(k, 12)]
    assert len(cases) == 1781
    cases += [(alpha, cfg.N) for alpha, cfg in random_moment_cases()]
    for alpha, N in cases:
        reference = lattice_terms(N, len(alpha), ((alpha, Fraction(1)),))
        assert canonical(exact_terms(N, alpha), N) == canonical(reference, N), (alpha, N)


@pytest.mark.parametrize("alpha", [(0, 1), (2, 3), (1, 0, 1), (4, 2, 5)])
def test_reduced_moment_is_exactly_zero_for_odd_rest_exponents(alpha):
    cfg = SphereConfig(N=16, t=1.0, k=len(alpha), ell=sum(alpha))
    assert not any(_first_coordinate_parts(cfg.N, cfg.k, ((alpha, Fraction(1)),))[1])
    for route in ROUTES:
        res = heat_moment_monomial(cfg, alpha, route)
        assert (res.value, res.error_bound, res.monomial, res.route) == (0.0, 0.0, alpha, route)


def test_heat_moment_has_no_mixed_term_switch():
    assert "include_mixed_term" not in inspect.signature(heat_moment).parameters
    with pytest.raises(TypeError):
        heat_moment_monomial(SphereConfig(N=8, t=1.0, k=2, ell=2), (2, 2),
                             include_mixed_term=False)


def test_two_dimensional_sphere_matches_lattice_solve():
    # N = 2 allows k = 1 only; the eigen expansion has no degenerate factor there
    for n in range(13):
        assert canonical(exact_terms(2, (n,)), 2) == canonical(
            lattice_terms(2, 1, (((n,), Fraction(1)),)), 2), n
        for t in (0.3, 1.0, 2.5):
            cfg = SphereConfig(N=2, t=t, k=1, ell=12)
            res = heat_moment_monomial(cfg, (n,), route="eigen")
            value, bound = lattice_moment(cfg, (n,))
            assert abs(res.value - value) <= res.error_bound + bound, (n, t)


def test_moments_do_not_depend_on_cache_state(clear_caches):
    for alpha, cfg in random_moment_cases():
        for route in ROUTES:
            clear_caches()
            cold, warm = (heat_moment_monomial(cfg, alpha, route) for _ in range(2))
            assert [cold.value.hex(), cold.error_bound.hex()] == [
                warm.value.hex(), warm.error_bound.hex()], (alpha, cfg, route)


@pytest.mark.parametrize("route,precision",
                         [("matexp", "double"), ("series", "double"), ("matexp", "extended")])
def test_zero_polynomial_has_zero_moment_on_every_route(route, precision):
    cfg = SphereConfig(N=16, t=1.0, k=2, ell=2)
    res = heat_moment(cfg, Polynomial.zero(2), route=route, precision=precision)
    assert (res.value, res.error_bound, res.monomial) == (0.0, 0.0, None)
    # a coefficient below the double range: the exact route gives the nearest
    # double, 0.0; a double route would give 0.0 with bound 0, so it refuses
    tiny = Polynomial.monomial((2, 0), Fraction(1, 10**400))
    if precision == "extended":
        assert heat_moment(cfg, tiny, route=route, precision=precision).value == 0.0
    else:
        with pytest.raises(ValueError, match="rounds to 0.0 in double precision"):
            heat_moment(cfg, tiny, route=route, precision=precision)


@pytest.mark.parametrize("route", ["matexp", "series"])
def test_double_route_refuses_a_part_coefficient_that_rounds_to_zero(route):
    cfg = SphereConfig(N=16, t=1.0, k=1, ell=4)
    tiny = Polynomial.monomial((2,), Fraction(1, 10**400))
    exact = heat_moment(cfg, tiny, route="eigen")
    assert (exact.value, exact.error_bound) == (0.0, 5e-324)
    with pytest.raises(ValueError, match="nonzero part coefficient .* N=16 rounds to 0.0"):
        heat_moment(cfg, tiny, route=route)
    # one such coefficient beside ordinary ones is refused as well
    mixed = Polynomial(1, {(2,): Fraction(1), (4,): Fraction(1, 10**400)})
    with pytest.raises(ValueError, match="rounds to 0.0"):
        heat_moment(cfg, mixed, route=route)
    assert heat_moment(cfg, Polynomial.monomial((2,)), route=route).value > 0


def test_shared_memo_results_are_read_only():
    parts = _first_coordinate_parts(16, 2, (((4, 2), Fraction(1)),))
    mat, _, fnorms, pole, block = _prepare(16, parts)
    assert isinstance(fnorms, tuple)
    for array in (mat, pole, block):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(TypeError):
        eigen_moment_terms(16, parts)[0, 0] = Fraction(1)
    with pytest.raises(TypeError):
        finite_moment_x1(4, 16).terms[0, 0] = Fraction(1)


def test_moment_memos_are_bounded(clear_caches):
    # every memo a moment fills is bounded, and emptied by cache_clear
    memos = (_first_coordinate_parts, _prepare, eigenmethod._eigen_coeffs,
             eigenmethod._value_at_sqrtN, eigenmethod._monomial_expansion, finite_moment_x1)
    cfg = SphereConfig(N=16, t=1.0, k=3, ell=8)
    for route in ("eigen", "series"):
        heat_moment_monomial(cfg, (4, 2, 2), route)
    finite_moment_x1(4, 16)
    for memo in memos:
        assert memo.cache_info().maxsize is not None and memo.cache_info().currsize, memo
    clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)


def test_extended_moment_of_three_variables_is_fast():
    cfg = SphereConfig(N=64, t=1.0, k=3, ell=8)
    start = time.perf_counter()
    ext = heat_moment_monomial(cfg, (4, 2, 2), route="eigen")
    assert time.perf_counter() - start < 1.0
    dbl = heat_moment_monomial(cfg, (4, 2, 2), route="matexp")
    assert abs(ext.value - dbl.value) <= dbl.error_bound


def test_extended_precision_matches_double_when_well_conditioned():
    cfg = SphereConfig(N=8, t=1.0, k=1, ell=4)
    a = heat_moment_monomial(cfg, (2,), route="matexp")
    b = heat_moment_monomial(cfg, (2,), route="eigen")
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_degree_and_varcount_validation():
    cfg = SphereConfig(N=8, t=1.0, k=2, ell=2)
    with pytest.raises(ValueError):
        heat_moment(cfg, Polynomial.monomial((3, 0)))
    with pytest.raises(ValueError):
        heat_moment(cfg, Polynomial.monomial((1,)))
    with pytest.raises(ValueError):
        heat_moment(cfg, Polynomial.monomial((1, 0)), route="bogus")
    with pytest.raises(ValueError):
        heat_moment(cfg, Polynomial.monomial((1, 0)), route="series",
                    precision="extended")
    with pytest.raises(ValueError):
        heat_moment(cfg, Polynomial.monomial((1, 0)), precision="single")
    with pytest.raises(TypeError):  # the exact route is route="eigen"
        heat_moment_monomial(cfg, (1, 0), precision="extended")
