"""Exactness and indexing tests for the polynomial layer."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereheat.polyalg import (
    BasisIndexer,
    OutOfBasisError,
    Polynomial,
    shift_first_variable,
    shift_first_variable_powers,
    total_degree,
)


def brute_force_graded_lex(k: int, ell: int) -> list[tuple[int, ...]]:
    """Independent enumeration: all exponent tuples, sorted by (degree, lex desc)."""

    def all_tuples(k, cap):
        if k == 0:
            yield ()
            return
        for e in range(cap + 1):
            for rest in all_tuples(k - 1, cap - e):
                yield (e,) + rest

    alphas = [a for a in all_tuples(k, ell)]
    return sorted(alphas, key=lambda a: (sum(a), tuple(-e for e in a)))


# ----------------------------------------------------------------------
# indexer
# ----------------------------------------------------------------------


def test_constant_monomial_is_first():
    idx = BasisIndexer(2, 2)
    assert idx.index((0, 0)) == 0


def test_graded_lex_positions_match_brute_force():
    for k in (1, 2, 3):
        for ell in (0, 1, 2, 4):
            idx = BasisIndexer(k, ell)
            assert list(idx) == brute_force_graded_lex(k, ell)
    idx = BasisIndexer(2, 2)
    assert idx.index((1, 0)) == 1
    assert idx.index((0, 1)) == 2


def test_index_round_trip():
    for k in (1, 2, 3):
        idx = BasisIndexer(k, 4)
        for i, alpha in enumerate(idx):
            assert idx.index(alpha) == i
            assert idx.monomial(i) == alpha


def test_dimension_is_binomial():
    for k in range(1, 5):
        for ell in range(0, 9):
            assert BasisIndexer(k, ell).dimension == math.comb(k + ell, k)


def test_out_of_basis_error():
    idx = BasisIndexer(2, 3)
    with pytest.raises(OutOfBasisError):
        idx.index((4, 0))


def test_vector_round_trip():
    idx = BasisIndexer(2, 3)
    p = Polynomial(2, {(1, 2): Fraction(3, 7), (0, 0): Fraction(-2)})
    vec = idx.to_vector(p)
    assert Polynomial(2, {idx.monomial(i): c for i, c in enumerate(vec)}) == p


# ----------------------------------------------------------------------
# first-variable shift
# ----------------------------------------------------------------------


def test_shift_single_variable():
    x1 = Polynomial.variable(2, 0)
    m = Fraction(5, 3)
    assert shift_first_variable(x1, m) == Polynomial(
        2, {(1, 0): Fraction(1), (0, 0): -m}
    )


def test_shift_square_binomial():
    p = Polynomial(2, {(2, 0): Fraction(1)})
    m = Fraction(2)
    expect = Polynomial(
        2, {(2, 0): Fraction(1), (1, 0): Fraction(-4), (0, 0): Fraction(4)}
    )
    assert shift_first_variable(p, m) == expect


def test_shift_ignores_other_variables():
    p = Polynomial(2, {(0, 3): Fraction(1)})
    assert shift_first_variable(p, Fraction(17, 2)) == p


def test_shift_powers_reassemble():
    p = Polynomial(2, {(3, 1): Fraction(2), (1, 0): Fraction(-1), (0, 2): Fraction(5)})
    m = Fraction(4, 9)
    parts = shift_first_variable_powers(p)
    assembled = Polynomial.zero(2)
    for i, g in enumerate(parts):
        assembled = assembled + g.scale(m**i)
    assert assembled == shift_first_variable(p, m)


# ----------------------------------------------------------------------
# ring axioms (property-based)
# ----------------------------------------------------------------------

coeffs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
).filter(lambda c: c != 0)


def polynomials(k: int, deg: int):
    exponents = st.lists(st.integers(min_value=0, max_value=deg), min_size=k, max_size=k)
    terms = st.dictionaries(
        exponents.map(tuple).filter(lambda a: sum(a) <= deg), coeffs, max_size=6
    )
    return terms.map(lambda t: Polynomial(k, t))


@settings(max_examples=60, deadline=None)
@given(polynomials(3, 5), polynomials(3, 5), polynomials(3, 5))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Polynomial.zero(3)


@settings(max_examples=60, deadline=None)
@given(polynomials(3, 5))
def test_no_zero_coefficients_stored(p):
    assert all(c != 0 for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(polynomials(2, 5), st.fractions(min_value=-6, max_value=6, max_denominator=8))
def test_shift_round_trip(p, m):
    assert shift_first_variable(shift_first_variable(p, m), -m) == p


@settings(max_examples=40, deadline=None)
@given(polynomials(2, 4), polynomials(2, 4))
def test_diff_is_linear_and_leibniz(a, b):
    assert (a + b).diff(0) == a.diff(0) + b.diff(0)
    assert (a * b).diff(1) == a.diff(1) * b + a * b.diff(1)


def test_degree_and_total_degree():
    assert total_degree((2, 3, 1)) == 6
    p = Polynomial(2, {(2, 3): Fraction(1), (4, 0): Fraction(1)})
    assert p.degree() == 5
    assert Polynomial.zero(2).degree() == 0
