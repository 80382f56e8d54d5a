"""Exact identities of the sphere operators, checked on the images of their rules."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from sphereheat.eigenmethod import eigenvalue
from sphereheat.operators import (
    SphereConfig,
    build_D,
    build_E,
    euler_apply,
    operator_from_rule,
    rule_images,
    second_derivative_sum,
    _first_part_rule,
    _hermite_rule,
    _rest_part_rule,
    _sphere_rule,
)
from sphereheat.polyalg import BasisIndexer, Polynomial


def mono(*alpha):
    return Polynomial.monomial(alpha)


def dense_apply(op, p):
    """A builder's exact matrix applied to a polynomial of its basis."""
    vec = op.indexer.to_vector(p)
    return Polynomial(op.indexer.varcount, {
        op.indexer.monomial(i): sum(a * v for a, v in zip(row, vec))
        for i, row in enumerate(op.entries)})


# ----------------------------------------------------------------------
# SphereConfig
# ----------------------------------------------------------------------


def test_config_drift_at_zero_time_is_sqrt_n():
    for n in (2, 5, 64):
        assert SphereConfig(N=n, t=0.0, k=1, ell=1).m == pytest.approx(math.sqrt(n))


def test_config_drift_strictly_decreasing():
    vals = [SphereConfig(N=9, t=t, k=1, ell=1).m for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_config_requires_k_below_n():
    with pytest.raises(ValueError):
        SphereConfig(N=3, t=1.0, k=3, ell=2)
    with pytest.raises(ValueError):
        SphereConfig(N=1, t=1.0, k=1, ell=2)


# ----------------------------------------------------------------------
# first-coordinate operator D
# ----------------------------------------------------------------------


def test_d_kills_constants():
    assert _first_part_rule(7)(Polynomial.monomial((0,), 1)) == Polynomial.zero(1)


def test_d_on_linear_monomial():
    # derivative term vanishes, degree-counting terms give (-1 + 1/N) x
    for n in (2, 5, 10):
        expect = Polynomial(1, {(1,): Fraction(1 - n, n)})
        assert _first_part_rule(n)(mono(1)) == expect


def test_d_on_square_is_n_independent():
    # by hand: d^2 x^2 = 2, -(1-2/N) 2 x^2, -(1/N) 4 x^2 sums to 2 - 2 x^2
    for n in (2, 7, 100):
        expect = Polynomial(1, {(0,): Fraction(2), (2,): Fraction(-2)})
        assert _first_part_rule(n)(mono(2)) == expect


def test_d_general_action_on_powers():
    n_sphere = 11
    d_rule = _first_part_rule(n_sphere)
    for n in range(9):
        expect = Polynomial(
            1,
            {
                (n,): eigenvalue(n, n_sphere),
                **({(n - 2,): Fraction(n * (n - 1))} if n >= 2 else {}),
            },
        )
        assert d_rule(mono(n)) == expect


def test_d_rejects_small_n():
    with pytest.raises(ValueError):
        build_D(1, 3)


# ----------------------------------------------------------------------
# rest operator E and the Hermite limit
# ----------------------------------------------------------------------


def test_e_on_single_variable():
    assert _rest_part_rule(10, 2)(Polynomial.variable(2, 1)) == Polynomial(
        2, {(0, 1): Fraction(-9, 10)}
    )


def test_e_on_square():
    expect = Polynomial(2, {(0, 0): Fraction(2), (0, 2): Fraction(-2)})
    assert _rest_part_rule(10, 2)(mono(0, 2)) == expect


def test_e_on_cross_term_euler_eigenaction():
    # degree two in the rest variables: -(1-2/N) 2 - (1/N) 4 = -2 exactly
    for n in (4, 10, 33):
        assert _rest_part_rule(n, 3)(mono(0, 1, 1)) == Polynomial(
            3, {(0, 1, 1): Fraction(-2)}
        )


def test_e_with_k1_is_zero_operator():
    assert not any(rule_images(_rest_part_rule(8, 1), BasisIndexer(1, 3)))
    assert not any(any(row) for row in build_E(8, 1, 3).entries)


def test_hermite_is_entrywise_limit_of_e():
    h_rule = _hermite_rule(2)
    assert h_rule(Polynomial.variable(2, 1)) == Polynomial(2, {(0, 1): Fraction(-1)})
    expect = Polynomial(2, {(0, 0): Fraction(2), (0, 2): Fraction(-2)})
    assert h_rule(mono(0, 2)) == expect
    # difference to E is exactly (2 Ry - Ry^2)/N: N times it is N-independent
    basis = BasisIndexer(2, 3)
    diffs = {n: rule_images(lambda p: _rest_part_rule(n, 2)(p) - h_rule(p), basis)
             for n in (10, 20, 40)}
    scaled = {n: [n * d for d in diff] for n, diff in diffs.items()}
    assert scaled[10] == scaled[20] == scaled[40]
    # max-coefficient distance itself decays exactly like 1/N
    d10, d20, d40 = (max(abs(c) for d in diffs[n] for c in d.terms.values())
                     for n in (10, 20, 40))
    assert d10 / d20 == 2 and d20 / d40 == 2


# ----------------------------------------------------------------------
# joint Laplacian
# ----------------------------------------------------------------------


def test_laplacian_on_first_variable():
    assert _sphere_rule(10, 2, True)(Polynomial.variable(2, 0)) == Polynomial(
        2, {(1, 0): Fraction(-9, 10)}
    )


def test_laplacian_kills_constants():
    assert _sphere_rule(6, 3, True)(Polynomial.monomial((0, 0, 0), 1)) == Polynomial.zero(3)


def test_laplacian_on_bilinear_monomial():
    # D part and E part each give (-1 + 1/N), mixed term -2/N: total -2
    for n in (5, 10, 40):
        assert _sphere_rule(n, 2, True)(mono(1, 1)) == Polynomial(2, {(1, 1): Fraction(-2)})


@pytest.mark.parametrize("include_mixed_term", [True, False])
@pytest.mark.parametrize("n,k,ell", [(3, 1, 6), (8, 3, 4), (16, 3, 8), (1024, 2, 6)])
def test_laplacian_equals_parts_plus_mixed(n, k, ell, include_mixed_term):
    # the closed-form rule against D + E - (2/N) R1 Ry composed from the part
    # rules behind build_D and build_E and the Euler operators x_j d_j
    d_rule, e_rule = _first_part_rule(n), _rest_part_rule(n, k)

    def composed(p):
        out = d_rule(p) + e_rule(p)
        for j in range(1, k if include_mixed_term else 1):
            out = out - Fraction(2, n) * euler_apply(euler_apply(p, [j]), [0])
        return out

    basis = BasisIndexer(k, ell)
    assert rule_images(_sphere_rule(n, k, include_mixed_term), basis) == rule_images(composed, basis)


def test_closure_block_lower_triangular():
    # no image has a higher degree than its monomial
    for n, k, ell in ((4, 2, 4), (8, 3, 5), (16, 2, 6)):
        basis = BasisIndexer(k, ell)
        for rule in (_sphere_rule(n, k, True), _rest_part_rule(n, k), _first_part_rule(n)):
            assert all(image.degree() <= sum(alpha)
                       for alpha, image in zip(basis, rule_images(rule, basis)))


def test_d_diagonal_eigenvalue_readoff():
    d_op = build_D(10, 6)
    for n in range(7):
        assert d_op.entries[n][n] == eigenvalue(n, 10)


# ----------------------------------------------------------------------
# commutation relations, as compositions of rules
# ----------------------------------------------------------------------


def test_d_and_e_commute_exactly():
    d_rule, e_rule = _first_part_rule(8), _rest_part_rule(8, 3)
    for alpha in BasisIndexer(3, 5):
        p = mono(*alpha)
        assert d_rule(e_rule(p)) == e_rule(d_rule(p)), alpha


def test_second_derivative_euler_commutator():
    # [d^2, x d] = 2 d^2 exactly on every x^n
    d2 = lambda p: second_derivative_sum(p, [0])  # noqa: E731
    xd = lambda p: euler_apply(p, [0])  # noqa: E731
    for n in range(7):
        p = mono(n)
        assert d2(xd(p)) - xd(d2(p)) == 2 * d2(p), n


def test_self_commutator_vanishes():
    # D commutes with its own dense matrix: the builder's columns are the rule
    d_rule, d_op = _first_part_rule(9), build_D(9, 4)
    for n in range(5):
        p = mono(n)
        assert d_rule(dense_apply(d_op, p)) == dense_apply(d_op, d_rule(p)), n


# ----------------------------------------------------------------------
# exponential splitting (commutation-relation consequence)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_exponential_splitting_identity(t):
    # with X = -(t/2) Ry and Y = (t/2) sum d_j^2 one has [X, Y] = t Y, hence
    # exp(X+Y) = exp(X) exp(((1 - e^-t)/t) Y)
    idx = BasisIndexer(2, 6)
    y_mat = 0.5 * t * operator_from_rule(idx, lambda p: second_derivative_sum(p, [1])).to_float()
    x_mat = -0.5 * t * operator_from_rule(idx, lambda p: euler_apply(p, [1])).to_float()
    comm = x_mat @ y_mat - y_mat @ x_mat
    assert np.max(np.abs(comm - t * y_mat)) < 1e-12
    lhs = expm(x_mat + y_mat)
    rhs = expm(x_mat) @ expm((-math.expm1(-t)) / t * y_mat)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10


def test_euler_apply_equals_the_sum_of_x_j_d_j():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 3)
        p = Polynomial(k, {tuple(rng.randint(0, 5) for _ in range(k)):
                           Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(rng.randint(0, 8))})
        variables = [j for j in range(k) if rng.random() < 0.6]
        expect = Polynomial.zero(k)
        for j in variables:
            expect = expect + Polynomial.variable(k, j) * p.diff(j)
        assert euler_apply(p, variables) == expect, (p.terms, variables)
