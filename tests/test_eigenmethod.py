"""Exact eigen-polynomial machinery and the closed-form moment route."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from sphereheat import eigenmethod
from sphereheat.eigenmethod import (
    DegenerateParameterError,
    ExpSumPrecisionError,
    _apply_d,
    eigen_poly,
    eigen_poly_at_sqrtN,
    eigenvalue,
    eigenvalues_distinct,
    evaluate_exp_sum,
    evaluation_ratio,
    finite_moment_x1,
    monomial_in_eigenbasis,
    pw_product_form,
    t0_exact,
    t0_series,
)
from sphereheat.gaussian_limit import even_moment_factor, gaussian_moment, var_first
from sphereheat.heatop import heat_moment_monomial
from sphereheat.operators import SphereConfig, _first_part_rule
from sphereheat.polyalg import Polynomial, shift_first_variable_powers

from lattice_reference import lattice_moment


def falling(z, j):
    """Falling factorial z (z-1) ... (z-j+1), exact."""
    return math.prod((Fraction(z) - i for i in range(j)), start=Fraction(1))


# ----------------------------------------------------------------------
# eigen-polynomials
# ----------------------------------------------------------------------


def test_low_degree_eigen_polys():
    assert eigen_poly(0, 10).polynomial() == Polynomial.monomial((0,), Fraction(1))
    assert eigen_poly(1, 10).polynomial() == Polynomial.variable(1, 0)
    for n in (3, 5, 10, 100):
        # recurrence a_1 = n(n-1)/(lambda_n - lambda_{n-2}) = 2/(-2) = -1 at n=2
        assert eigen_poly(2, n).polynomial() == Polynomial(
            1, {(2,): Fraction(1), (0,): Fraction(-1)}
        )
        assert eigen_poly(3, n).polynomial() == Polynomial(
            1, {(3,): Fraction(1), (1,): Fraction(-3 * n, n + 2)}
        )


def test_eigen_relation_exact_grid():
    for n_sphere in (3, 5, 10, 100):
        d_rule = _first_part_rule(n_sphere)
        for n in range(13):
            p = eigen_poly(n, n_sphere)  # construction re-verifies D p = lambda p
            poly = p.polynomial()
            assert d_rule(poly) == p.eigenvalue * poly
            assert p.eigenvalue == Fraction(-n * (n_sphere + n - 2), n_sphere)


def test_eigenvalues_distinct_guard():
    assert eigenvalues_distinct(12, 3)
    assert eigenvalues_distinct(12, 100)
    lam = [eigenvalue(n, 5) for n in range(13)]
    assert len(set(lam)) == len(lam)


def test_small_n_rejected_with_diagnostic():
    with pytest.raises(DegenerateParameterError):
        eigen_poly(4, 1)
    with pytest.raises(DegenerateParameterError):
        monomial_in_eigenbasis(4, 1)


def test_sparse_d_matches_the_dense_operator():
    # the eigen-relation check applies N D to coefficient tuples; the rule D to polynomials
    for n_sphere in (2, 3, 17):
        d_rule = _first_part_rule(n_sphere)
        for n in range(10):
            coeffs = [Fraction(3 * j + 1, j + 2) for j in range(n // 2 + 1)]
            poly = Polynomial(1, {(n - 2 * j,): c for j, c in enumerate(coeffs)})
            image = d_rule(poly)
            assert _apply_d(n, n_sphere, coeffs) == [
                n_sphere * image.coefficient((n - 2 * j,)) for j in range(len(coeffs))]
            integers = [3 * j + 1 for j in range(n // 2 + 1)]
            assert all(type(c) is int for c in _apply_d(n, n_sphere, integers))


# ----------------------------------------------------------------------
# values at sqrt(N)
# ----------------------------------------------------------------------


def test_normalized_values_low_degree():
    assert eigen_poly_at_sqrtN(1, 10) == 1
    for n_sphere in (3, 10, 64):
        # p_2 = x^2 - 1 evaluates to N - 1, normalized (N-1)/N
        assert eigen_poly_at_sqrtN(2, n_sphere) == Fraction(n_sphere - 1, n_sphere)


def test_product_form_matches_direct_evaluation():
    # the product form against sum_j c_j N^-j over the coefficients of p_n
    for n_sphere in (2, 3, 10, 100, 4096):
        for n in range(41):
            direct = sum(c / Fraction(n_sphere) ** j
                         for j, c in enumerate(eigen_poly(n, n_sphere).coeffs))
            assert pw_product_form(n, n_sphere) == direct, (n, n_sphere)
    # spot check n=4, N=10 against a hand evaluation of the polynomial
    p4 = eigen_poly(4, 10).polynomial()
    direct = sum(
        c * Fraction(10) ** (sum(a) // 2) for a, c in p4.terms.items()
    ) / Fraction(10) ** 2
    assert direct == eigen_poly_at_sqrtN(4, 10)


def test_simplified_form_mismatch_is_reported():
    # the compact form is t0(n) at j = 0
    assert t0_exact(0, 0, 10) == eigen_poly_at_sqrtN(0, 10)  # n = 0 agrees
    assert t0_exact(0, 1, 10) == Fraction(9, 10) != eigen_poly_at_sqrtN(1, 10) == 1
    assert t0_exact(0, 2, 10) == Fraction(9, 12) != eigen_poly_at_sqrtN(2, 10) == Fraction(9, 10)


def test_simplified_form_is_the_next_degrees_value():
    # the compact form telescopes a ratio shifted by one degree: it equals
    # the direct value at degree n+1 exactly
    for n_sphere in (3, 10, 100):
        for n in range(12):
            assert t0_exact(0, n, n_sphere) == eigen_poly_at_sqrtN(n + 1, n_sphere)


def test_evaluation_ratio_parity_independent():
    for n_sphere in (5, 10, 37, 100):
        for n in range(9):
            assert evaluation_ratio(n, n_sphere) == Fraction(
                n_sphere + n - 2, n_sphere + 2 * n - 2
            )


# ----------------------------------------------------------------------
# change of basis
# ----------------------------------------------------------------------


def test_monomial_expansion_low_degree():
    assert monomial_in_eigenbasis(1, 10) == (Fraction(1),)
    # x^2 = p_2 + p_0 with unit coefficient (N/4) 2 / (N/2) = 1
    assert monomial_in_eigenbasis(2, 10) == (Fraction(1), Fraction(1))


def test_monomial_expansion_round_trip():
    for n_sphere in (5, 10, 100):
        for n in range(11):
            coeffs = monomial_in_eigenbasis(n, n_sphere)
            recon = Polynomial.zero(1)
            for j, c in enumerate(coeffs):
                recon = recon + c * eigen_poly(n - 2 * j, n_sphere).polynomial()
            assert recon == Polynomial.monomial((n,))


def test_expansion_check_catches_a_perturbed_coefficient(monkeypatch, clear_caches):
    # x^8 is checked against the expansion of x^6; one numerator off by one there fails it
    expand = eigenmethod._monomial_expansion
    clear_caches()

    def perturbed(n, N):
        nums, den = expand(n, N)
        return (nums[:1] + (nums[1] + 1,) + nums[2:], den) if n == 6 else (nums, den)

    monkeypatch.setattr(eigenmethod, "_monomial_expansion", perturbed)
    with pytest.raises(AssertionError, match="expansion failed for n=8, N=10"):
        expand(8, 10)
    monkeypatch.undo()
    expand(8, 10)  # the memo holds no perturbed expansion


def test_eigen_relation_check_catches_a_perturbed_numerator(monkeypatch, clear_caches):
    # one numerator of p_6 off by one: N D p = -n (N + n - 2) p fails in integers
    over_one = eigenmethod._over_one_denominator
    clear_caches()

    def perturbed(ratios):
        nums, den = over_one(ratios)
        return nums[:-1] + (nums[-1] + 1,), den

    monkeypatch.setattr(eigenmethod, "_over_one_denominator", perturbed)
    with pytest.raises(AssertionError, match="eigen-relation failed for n=6, N=10"):
        eigen_poly(6, 10)
    monkeypatch.undo()
    assert eigen_poly(6, 10).coeffs[-1] == Fraction(-10, 4) ** 3 * falling(6, 6) / (
        6 * falling(Fraction(10, 2) + 4, 3))


def test_value_check_catches_a_perturbed_numerator(monkeypatch, clear_caches):
    # the direct value of p_5 with one numerator off by one disagrees with the product form
    coeffs = eigenmethod._eigen_coeffs
    clear_caches()
    nums, den = coeffs(5, 10)
    monkeypatch.setattr(eigenmethod, "_eigen_coeffs",
                        lambda n, N: (nums[:1] + (nums[1] + 1,) + nums[2:], den))
    with pytest.raises(AssertionError, match="product form disagrees .* n=5, N=10"):
        eigen_poly_at_sqrtN(5, 10)
    monkeypatch.undo()
    assert eigen_poly_at_sqrtN(5, 10) == pw_product_form(5, 10)


@pytest.mark.parametrize("N", [3, 4, 5, 10, 1024, 10**6])
def test_ratio_recurrences_give_the_falling_factorial_coefficients(N):
    for n in range(31):
        assert eigen_poly(n, N).coeffs == tuple(
            Fraction(-N, 4) ** j * falling(n, 2 * j)
            / (math.factorial(j) * falling(Fraction(N, 2) + n - 2, j))
            for j in range(n // 2 + 1)), n
        assert monomial_in_eigenbasis(n, N) == tuple(
            Fraction(N, 4) ** j * falling(n, 2 * j)
            / (math.factorial(j) * falling(Fraction(N, 2) + n - j - 1, j))
            for j in range(n // 2 + 1)), n


def fraction_eigen_coeffs(n, N):
    """The coefficients of p_n from their falling-factorial formula, in Fractions."""
    return tuple(Fraction(-N, 4) ** j * falling(n, 2 * j)
                 / (math.factorial(j) * falling(Fraction(N, 2) + n - 2, j))
                 for j in range(n // 2 + 1))


def fraction_expansion(n, N):
    """x^n over the eigenbasis from the falling-factorial formula, in Fractions."""
    return tuple(Fraction(N, 4) ** j * falling(n, 2 * j)
                 / (math.factorial(j) * falling(Fraction(N, 2) + n - j - 1, j))
                 for j in range(n // 2 + 1))


def fraction_value(n, N):
    """p_n(sqrt N) / N^(n/2) summed from the Fraction coefficients."""
    return sum((c * Fraction(N) ** -j for j, c in enumerate(fraction_eigen_coeffs(n, N))),
               Fraction(0))


def fraction_parts(N, k, terms):
    """The rotation reduction in Fractions, through the polynomial shift x1 -> x1 - m."""
    even = {alpha: c for alpha, c in terms if not any(e % 2 for e in alpha[1:])}
    parts = []
    for g in shift_first_variable_powers(Polynomial(k, even)):
        part = {}
        for (n, *b), c in g.terms.items():
            h = sum(b) // 2
            c *= Fraction(math.prod(map(even_moment_factor, b)),
                          math.prod(range(N - 1, N - 1 + 2 * h, 2)))
            for l in range(h + 1):
                w = c * math.comb(h, l) * (-1) ** l * N ** (h - l)  # (N - y1^2)^h
                part[n + 2 * l] = part.get(n + 2 * l, 0) + w
        parts.append(tuple(sorted((n, c) for n, c in part.items() if c)))
    return tuple(parts)


def fraction_terms(N, parts):
    """The eigen sums of Fraction parts, one Fraction operation at a time."""
    terms = {}
    for i, g in enumerate(parts):
        for n, coeff in g:
            for k, b in enumerate(fraction_expansion(n, N)):
                d = n - 2 * k
                key = (i + d, d * (d - 1) // 2)
                terms[key] = terms.get(key, 0) + coeff * b * fraction_value(d, N)
    return {key: w for key, w in terms.items() if w}


@pytest.mark.parametrize("N", [2, 3, 5, 16, 1024, 10**9])
def test_integer_exact_layer_equals_the_fraction_formulas(N):
    for n in range(41):
        assert eigen_poly(n, N).coeffs == fraction_eigen_coeffs(n, N), n
        assert monomial_in_eigenbasis(n, N) == fraction_expansion(n, N), n
        assert eigen_poly_at_sqrtN(n, N) == fraction_value(n, N), n
    cases = [((n,), Fraction(1)) for n in range(0, 41, 3)]
    cases += [(alpha, c) for alpha, c in (((6, 2), Fraction(-3, 7)), ((5, 4, 2), Fraction(2, 9)),
                                          ((3, 6, 0), Fraction(5)), ((2, 2, 2), Fraction(1, 3)))
              if len(alpha) < N]
    for alpha, c in cases:
        terms = ((alpha, c),)
        den, parts = eigenmethod._first_coordinate_parts(N, len(alpha), terms)
        reference = fraction_parts(N, len(alpha), terms)
        assert tuple(tuple((n, Fraction(a, den)) for n, a in g) for g in parts) == reference, alpha
        exact = eigenmethod.eigen_moment_terms(N, (den, parts))
        assert dict(exact) == fraction_terms(N, reference), alpha
    # a polynomial of several terms shares one denominator across its monomials
    terms = (((0, 4), Fraction(3)), ((2, 0), Fraction(-5, 4)), ((4, 2), Fraction(1, 6)))
    if N > 2:
        den, parts = eigenmethod._first_coordinate_parts(N, 2, terms)
        assert dict(eigenmethod.eigen_moment_terms(N, (den, parts))) == fraction_terms(
            N, fraction_parts(N, 2, terms))


# ----------------------------------------------------------------------
# finite-N moments
# ----------------------------------------------------------------------


def test_first_moment_is_exactly_zero():
    for n_sphere in (4, 16, 64):
        fm = finite_moment_x1(1, n_sphere)
        assert fm.terms == {}  # the two drift terms cancel symbolically
        for t in (0.5, 1.0, 2.0):
            assert fm.evaluate_extended(t) == 0.0


def test_second_moment_symbolic_terms():
    fm = finite_moment_x1(2, 8)
    # 1 + (N-1) e^{-t} - N e^{-t} e^{t/N} = 1 + (7/8) m^2 e^{-t/N} - m^2
    assert fm.terms == {
        (0, 0): Fraction(1),
        (2, 1): Fraction(7, 8),
        (2, 0): Fraction(-1),
    }


def test_assembly_expands_each_power_once_per_n(clear_caches):
    # x1^12, x1^8 and x1^4 share the expansions and values of degree <= 12
    clear_caches()
    for n in (12, 8, 4):
        finite_moment_x1(n, 64)
    assert eigenmethod._monomial_expansion.cache_info().misses == 13
    assert eigenmethod._value_at_sqrtN.cache_info().misses == 13
    assert eigenmethod._eigen_coeffs.cache_info().misses == 13


@pytest.mark.parametrize("N", [3, 4, 5] + [2**e for e in range(3, 13)] + [10**5, 10**6])
def test_exp_sum_is_within_its_bound_of_a_300_digit_sum(N, within_300_digit_sum):
    for n in range(25):
        terms = finite_moment_x1(n, N).terms
        for t in (0.01, 0.1, 0.5, 1, 2, 3.7, 20, 80):
            assert within_300_digit_sum(terms, N, t, *evaluate_exp_sum(terms, N, t)), (n, t)


def test_exact_route_returns_the_double_nearest_the_exact_sum(sum_300_digits):
    # a few of these sums cancel so far below their largest term that 30 spare
    # digits miss the nearest double: x1^19 at N = 10^6, t = 0.1 needs a re-pass
    for n in range(25):
        for N in (2, 3, 16, 1024, 10**6):
            terms = finite_moment_x1(n, N).terms
            for t in (0.1, 0.5, 1, 2, 4):
                value, _ = evaluate_exp_sum(terms, N, t)
                assert value == float(sum_300_digits(terms, N, t)), (n, N, t)


def _rounded_fraction(x, digits):
    """The mpf x rounded to ``digits`` significant digits, as a Fraction."""
    with mpmath.workdps(digits):
        x = +x
    man, exp = x.man_exp  # of |x|
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("t", [0.1, 4.0])
@pytest.mark.parametrize("N", [2, 3, 10**6])
def test_exp_sum_bound_holds_at_large_powers(N, t, sum_300_digits, within_300_digit_sum):
    # the power error K = (3 + t) j + (1 + t) c + 8 is largest at j = 50, c = 1200.
    # A constant term cancels the others' sum at this t to 20, 40 or 60 digits.  At 60
    # with every term below 1 (N <= 3, t = 4) the first pass, 30 digits below the
    # largest term, gives noise, and one re-pass from it falls short: the passes
    # go on until the truncation is below the value's ulp
    rng = random.Random(f"{N} {t}")
    for i in range(24):
        keys = {(50, 1200), (50, 0), (0, 1200)}
        keys |= {(rng.randint(0, 50), rng.randint(1, 1200)) for _ in range(9)}
        terms = {key: Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
                 for key in keys}
        digits = (None, 20, 40, 60)[i % 4]
        if digits:
            terms[0, 0] = -_rounded_fraction(sum_300_digits(terms, N, t), digits)
        value, bound = evaluate_exp_sum(terms, N, t)
        assert within_300_digit_sum(terms, N, t, value, bound), (i, digits)
        assert value == float(sum_300_digits(terms, N, t)), (i, digits)


def test_exact_route_is_nearest_at_small_t(sum_300_digits):
    # x1^24 at N = 16, t = 1e-6 is 6.6e-132 out of terms near 1e15: the first three
    # passes cannot decide its double, and the fourth takes 261 digits
    for n in (2, 4, 8, 12, 16, 20, 24):
        for N in (16, 1024, 10**6):
            terms = finite_moment_x1(n, N).terms
            for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                value, bound = evaluate_exp_sum(terms, N, t)
                assert value == float(sum_300_digits(terms, N, t, dps=400)), (n, N, t)
                assert bound <= math.ulp(value), (n, N, t)


def test_exact_route_is_nearest_below_the_smallest_subnormal(sum_300_digits):
    # x1^24 at N = 16 is 6.6e-324 at t = 1e-14 and 6.6e-468 at t = 1e-20; a bound
    # taken in floats underflows to 0 there, the integer grid of a pass does not
    terms = finite_moment_x1(24, 16).terms
    for t, nearest in ((1e-14, 5e-324), (1e-20, 0.0)):
        value, bound = evaluate_exp_sum(terms, 16, t)
        assert value.hex() == nearest.hex(), t
        with mpmath.workdps(1500):
            assert 0 < abs(mpmath.mpf(value) - sum_300_digits(terms, 16, t, dps=1500)) <= bound


def test_exp_sum_raises_past_its_digit_budget():
    # the two terms cancel exactly at t = 0; a pass decides that 0 is the nearest
    # double only on a grid below 10^-324, over 2100 digits under terms of 10^1800
    terms = {(0, 0): Fraction(10**1800), (0, 1): Fraction(-(10**1800))}
    with pytest.raises(ExpSumPrecisionError, match="cancels past 2000 digits"):
        evaluate_exp_sum(terms, 16, 0.0)
    terms = {(0, 0): Fraction(10**1500), (0, 1): Fraction(-(10**1500))}
    assert evaluate_exp_sum(terms, 16, 0.0) == (0.0, 5e-324)


def test_exp_sum_at_huge_t():
    # x1^4 at N = 16 tends to the uniform-sphere value 3N/(N+2) = 8/3 and x1^3 to 0;
    # at t = 1e308, (3 + t) j overflows a double and the grid lies far below subnormals
    for t in (1e9, 1e308):
        assert finite_moment_x1(4, 16).evaluate_extended(t) == 8 / 3
        assert finite_moment_x1(3, 16).evaluate_extended(t) == 0.0  # below every double


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_second_moment_closed_form(t):
    for n in (4, 16, 64):
        expect = 1.0 + (n - 1) * math.exp(-t) - n * math.exp(-t * (1 - 1 / n))
        assert finite_moment_x1(2, n).evaluate_extended(t) == pytest.approx(expect, abs=1e-13)


def test_cross_route_agreement():
    worst = 0.0
    for n_sphere in (8, 16, 32, 64, 256, 1024):
        for t in (0.5, 1.0, 2.0):
            cfg = SphereConfig(N=n_sphere, t=t, k=1, ell=12)
            for n in range(13):
                ev = finite_moment_x1(n, n_sphere).evaluate_extended(t)
                # two exact derivations, each rounded once to a double
                value, bound = lattice_moment(cfg, (n,))
                assert abs(ev - value) <= 2 * bound, (n_sphere, t, n)
                # the double-precision operator route hits its conditioning
                # floor ~ m^n * 1e-13 at n >= 6
                if n < 6 and n_sphere <= 64:
                    mv = heat_moment_monomial(cfg, (n,), route="matexp").value
                    worst = max(worst, abs(ev - mv))
    assert worst <= 1e-9


def test_high_power_at_large_n_keeps_its_digits():
    # terms near 1e60 cancel down to about 1e3; the true gap to the limit is 4.4e-4
    limit = gaussian_moment((20,), 1.0)
    assert abs(finite_moment_x1(20, 10**6).evaluate_extended(1.0) - limit) <= 1e-3 * limit


def test_limit_moment_closed_forms():
    t = 1.3
    v = var_first(t)
    assert gaussian_moment((2,), t) == pytest.approx(v)
    assert gaussian_moment((3,), t) == 0.0
    assert gaussian_moment((4,), t) == pytest.approx(3 * v**2)
    assert gaussian_moment((0,), t) == 1.0


def test_convergence_rate_to_limit():
    # error halves when N doubles, for n in {2, 4, 6}
    for n in (2, 4, 6):
        for t in (0.5, 1.0):
            errs = {}
            for n_sphere in (64, 128, 256, 512):
                errs[n_sphere] = abs(
                    finite_moment_x1(n, n_sphere).evaluate_extended(t) - gaussian_moment((n,), t)
                )
            for n_sphere in (64, 128, 256):
                ratio = errs[n_sphere] / errs[2 * n_sphere]
                assert 1.7 <= ratio <= 2.3, (n, t, n_sphere, ratio)


def test_second_moment_error_asymptotics():
    # leading error of the n=2 moment is e^{-t} t^2 / (2N)
    t, n_sphere = 1.0, 512
    err = abs(finite_moment_x1(2, n_sphere).evaluate_extended(t) - gaussian_moment((2,), t))
    predicted = math.exp(-t) * t**2 / (2 * n_sphere)
    assert abs(err - predicted) / predicted <= 0.10


def test_n_large_limit_of_second_moment():
    t = 0.8
    vals = [finite_moment_x1(2, n).evaluate_extended(t) for n in (128, 512, 2048)]
    target = 1 - math.exp(-t) - t * math.exp(-t)
    gaps = [abs(v - target) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-3


# ----------------------------------------------------------------------
# t0(h) and its 1/N series
# ----------------------------------------------------------------------


def test_t0_exact_brute_force():
    # independent oracle: build the rising factorials term by term
    for j in (0, 1, 2):
        for h in (0, 1, 4):
            for n_sphere in (7, 50):
                num = Fraction(1)
                for i in range(h):
                    num *= n_sphere - 1 + i
                den = Fraction(2) ** h
                for i in range(h + j):
                    den *= Fraction(n_sphere, 2) + i
                assert t0_exact(j, h, n_sphere) == num / den


def test_t0_low_order_values():
    assert t0_exact(0, 0, 10) == 1
    assert t0_exact(0, 1, 10) == Fraction(9, 10)
    assert t0_exact(1, 0, 10) == Fraction(1, 5)  # 1/(N/2)


def test_series_constant_term_j0():
    sc = t0_series(0, 3)
    assert sc.u[0] == (Fraction(1),)
    for h in (0, 1, 5, 9):
        assert sc.u_value(0, h) == 1


def test_series_first_correction_j0():
    # t0(1) = (N-1)/N = 1 - 1/N forces u_1(1) = -1
    sc = t0_series(0, 3)
    assert sc.u_value(1, 1) == -1
    assert sc.u_value(1, 0) == 0
    assert sc.u_value(2, 1) == 0


def test_series_leading_coefficients():
    for j in (0, 1, 2):
        sc = t0_series(j, 4)
        for ell in range(5):
            expect = Fraction((-1) ** ell * 2**j, 2**ell * math.factorial(ell))
            assert sc.leading_coefficient(ell) == expect
            assert len(sc.u[ell]) == 2 * ell + 1  # degree exactly 2 ell


def test_series_coefficients_pinned():
    # from t0(h) N^j = 2^j prod_(i<h) (1 + (i-1)/N) / prod_(i<h+j) (1 + 2i/N), expanded
    # in 1/N by hand: the 1/N term is 2^j (sum_(i<h) (i-1) - sum_(i<h+j) 2i)
    for j in range(4):
        u1 = (-j * (j - 1), -Fraction(4 * j + 1, 2), -Fraction(1, 2))
        assert t0_series(j, 1).u[1] == tuple(2**j * c for c in u1)
    u2 = (0, Fraction(-3, 4), Fraction(-1, 8), Fraction(3, 4), Fraction(1, 8))
    assert t0_series(0, 2).u[2] == u2


def test_series_satisfies_t0_recurrence_orderwise():
    # (N + 2h + 2j) t0(h+1) = (N + h - 1) t0(h) order by order in 1/N:
    # u_l(h+1) - u_l(h) = (h-1) u_(l-1)(h) - (2h+2j) u_(l-1)(h+1)
    for j in (0, 1, 2):
        sc = t0_series(j, 4)
        for ell in range(1, 5):
            for h in range(0, 12):
                lhs = sc.u_value(ell, h + 1) - sc.u_value(ell, h)
                rhs = (h - 1) * sc.u_value(ell - 1, h) - (2 * h + 2 * j) * sc.u_value(
                    ell - 1, h + 1
                )
                assert lhs == rhs


def test_series_partial_sums_converge_to_exact():
    # every added order strictly improves the truncation (the N-power of the
    # gain is pinned by test_series_remainder_scales_with_n_power)
    for j in (0, 1, 2):
        sc = t0_series(j, 4)
        for h in (1, 3, 6):
            for n_sphere in (50, 100):
                exact = t0_exact(j, h, n_sphere)
                errs = [
                    abs(sc.partial_sum(h, n_sphere, upto) - exact)
                    for upto in range(5)
                ]
                assert all(a > b for a, b in zip(errs, errs[1:]) if b > 0)


def test_series_remainder_scales_with_n_power():
    # remainder at truncation L decays like N^-(L+1+j): halving from N=100
    # to N=50 multiplies it by ~2^(L+1+j)
    for j in (0, 1, 2):
        sc = t0_series(j, 3)
        for upto in (0, 1, 2):
            for h in (2, 6):
                e50 = abs(sc.partial_sum(h, 50, upto) - t0_exact(j, h, 50))
                e100 = abs(sc.partial_sum(h, 100, upto) - t0_exact(j, h, 100))
                rel = float(e50 / e100) / 2 ** (upto + 1 + j)
                assert 0.5 <= rel <= 1.6, (j, upto, h, rel)
