"""Exact identities of the sphere operators and their matrices."""

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
    build_derivative_squared,
    build_euler_var,
    build_hermite_limit,
    build_sphere_laplacian,
    commutator,
    euler_apply,
    operator_from_rule,
    _first_part_rule,
    _rest_part_rule,
)
from sphereheat.polyalg import BasisIndexer, Polynomial


def mono(*alpha):
    return Polynomial.monomial(alpha)


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
    assert build_D(7, 3).apply(Polynomial.constant(1, 1)) == Polynomial.zero(1)


def test_d_on_linear_monomial():
    # derivative term vanishes, degree-counting terms give (-1 + 1/N) x
    for n in (2, 5, 10):
        d_op = build_D(n, 2)
        expect = Polynomial(1, {(1,): Fraction(1 - n, n)})
        assert d_op.apply(mono(1)) == expect


def test_d_on_square_is_n_independent():
    # by hand: d^2 x^2 = 2, -(1-2/N) 2 x^2, -(1/N) 4 x^2 sums to 2 - 2 x^2
    for n in (2, 7, 100):
        d_op = build_D(n, 2)
        expect = Polynomial(1, {(0,): Fraction(2), (2,): Fraction(-2)})
        assert d_op.apply(mono(2)) == expect


def test_d_general_action_on_powers():
    n_sphere = 11
    d_op = build_D(n_sphere, 8)
    for n in range(9):
        image = d_op.apply(mono(n))
        expect = Polynomial(
            1,
            {
                (n,): eigenvalue(n, n_sphere),
                **({(n - 2,): Fraction(n * (n - 1))} if n >= 2 else {}),
            },
        )
        assert image == expect


def test_d_rejects_small_n():
    with pytest.raises(ValueError):
        build_D(1, 3)


# ----------------------------------------------------------------------
# rest operator E and the Hermite limit
# ----------------------------------------------------------------------


def test_e_on_single_variable():
    e_op = build_E(10, 2, 2)
    assert e_op.apply(Polynomial.variable(2, 1)) == Polynomial(
        2, {(0, 1): Fraction(-9, 10)}
    )


def test_e_on_square():
    e_op = build_E(10, 2, 2)
    expect = Polynomial(2, {(0, 0): Fraction(2), (0, 2): Fraction(-2)})
    assert e_op.apply(mono(0, 2)) == expect


def test_e_on_cross_term_euler_eigenaction():
    # degree two in the rest variables: -(1-2/N) 2 - (1/N) 4 = -2 exactly
    for n in (4, 10, 33):
        e_op = build_E(n, 3, 2)
        assert e_op.apply(mono(0, 1, 1)) == Polynomial(
            3, {(0, 1, 1): Fraction(-2)}
        )


def test_e_with_k1_is_zero_operator():
    assert build_E(8, 1, 3).is_zero()


def test_hermite_is_entrywise_limit_of_e():
    h_op = build_hermite_limit(2, 3)
    assert h_op.apply(Polynomial.variable(2, 1)) == Polynomial(
        2, {(0, 1): Fraction(-1)}
    )
    expect = Polynomial(2, {(0, 0): Fraction(2), (0, 2): Fraction(-2)})
    assert h_op.apply(mono(0, 2)) == expect
    # difference to E is exactly (2 Ry - Ry^2)/N: N times it is N-independent
    scaled = {n: (build_E(n, 2, 3) - h_op).scale(n).entries for n in (10, 20, 40)}
    assert scaled[10] == scaled[20] == scaled[40]
    # max-entry distance itself decays exactly like 1/N
    d10 = (build_E(10, 2, 3) - h_op).max_abs_entry()
    d20 = (build_E(20, 2, 3) - h_op).max_abs_entry()
    d40 = (build_E(40, 2, 3) - h_op).max_abs_entry()
    assert d10 / d20 == 2 and d20 / d40 == 2


# ----------------------------------------------------------------------
# joint Laplacian
# ----------------------------------------------------------------------


def test_laplacian_on_first_variable():
    cfg = SphereConfig(N=10, t=1.0, k=2, ell=2)
    lap = build_sphere_laplacian(cfg)
    assert lap.apply(Polynomial.variable(2, 0)) == Polynomial(
        2, {(1, 0): Fraction(-9, 10)}
    )


def test_laplacian_kills_constants():
    cfg = SphereConfig(N=6, t=1.0, k=3, ell=2)
    lap = build_sphere_laplacian(cfg)
    assert lap.apply(Polynomial.constant(3, 1)) == Polynomial.zero(3)


def test_laplacian_on_bilinear_monomial():
    # D part and E part each give (-1 + 1/N), mixed term -2/N: total -2
    for n in (5, 10, 40):
        cfg = SphereConfig(N=n, t=1.0, k=2, ell=2)
        lap = build_sphere_laplacian(cfg)
        assert lap.apply(mono(1, 1)) == Polynomial(2, {(1, 1): Fraction(-2)})


@pytest.mark.parametrize("include_mixed_term", [True, False])
@pytest.mark.parametrize("n,k,ell", [(3, 1, 6), (8, 3, 4), (16, 3, 8), (1024, 2, 6)])
def test_laplacian_equals_parts_plus_mixed(n, k, ell, include_mixed_term):
    # the closed-form rule against D + E - (2/N) R1 Ry composed from the part
    # rules behind build_D and build_E and the dense x_j d_j matrices
    cfg = SphereConfig(N=n, t=1.0, k=k, ell=ell)
    lap = build_sphere_laplacian(cfg, include_mixed_term=include_mixed_term)
    idx = lap.indexer
    composed = build_D(n, ell, k) + build_E(n, k, ell)
    for j in range(1, k if include_mixed_term else 1):
        mixed = build_euler_var(idx, 0) @ build_euler_var(idx, j)
        composed = composed + mixed.scale(Fraction(-2, n))
    assert lap.entries == composed.entries


def test_closure_block_lower_triangular():
    for n, k, ell in ((4, 2, 4), (8, 3, 5), (16, 2, 6)):
        cfg = SphereConfig(N=n, t=1.0, k=k, ell=ell)
        assert build_sphere_laplacian(cfg).is_degree_graded()
        assert build_E(n, k, ell).is_degree_graded()
        assert build_D(n, ell).is_degree_graded()


def test_d_diagonal_eigenvalue_readoff():
    d_op = build_D(10, 6)
    for n in range(7):
        assert d_op.entries[n][n] == eigenvalue(n, 10)


# ----------------------------------------------------------------------
# commutators
# ----------------------------------------------------------------------


def test_d_and_e_commute_exactly():
    idx = BasisIndexer(3, 5)
    d_op = operator_from_rule(idx, _first_part_rule(8), "D", (8, 3, 5))
    e_op = operator_from_rule(idx, _rest_part_rule(8, 3), "E", (8, 3, 5))
    assert commutator(d_op, e_op).is_zero()


def test_second_derivative_euler_commutator():
    # [d^2, x d] = 2 d^2 exactly as matrices (degree-nonincreasing, so the
    # truncated composition is the composition of truncations)
    idx = BasisIndexer(1, 6)
    dd = build_derivative_squared(idx, 0)
    eu = build_euler_var(idx, 0)
    assert commutator(dd, eu).entries == dd.scale(2).entries


def test_self_commutator_vanishes():
    a = build_D(9, 4)
    assert commutator(a, a).is_zero()


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(build_D(5, 3), build_D(5, 4))


# ----------------------------------------------------------------------
# exponential splitting (commutation-relation consequence)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_exponential_splitting_identity(t):
    # with X = -(t/2) Ry and Y = (t/2) sum d_j^2 one has [X, Y] = t Y, hence
    # exp(X+Y) = exp(X) exp(((1 - e^-t)/t) Y)
    idx = BasisIndexer(2, 6)
    y_mat = 0.5 * t * build_derivative_squared(idx, 1).to_float()
    x_mat = -0.5 * t * build_euler_var(idx, 1).to_float()
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
