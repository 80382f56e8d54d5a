"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The Monte Carlo concordance criterion simulates six full ensembles of 1e5
paths and dominates the runtime (a couple of minutes on two cores).
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from sphereheat.eigenmethod import (
    eigen_poly,
    eigen_poly_at_sqrtN,
    monomial_in_eigenbasis,
    pw_discrepancy_report,
    pw_product_form,
    t0_exact,
    t0_series,
)
from sphereheat.gaussian_limit import (
    LimitKernelParams,
    classical_limit_check,
    density_moment_quadrature,
    gaussian_moment,
)
from sphereheat.heatop import heat_apply_matexp, heat_moment_monomial
from sphereheat.operators import (
    SphereConfig,
    _first_part_rule,
    build_D,
    euler_apply,
    operator_from_rule,
    second_derivative_sum,
)
from sphereheat.pde_appendix import (
    FIRST_COORDINATE,
    OTHER_COORDINATE,
    grid_mass,
    mollified_delta_solution,
    residual,
    spectral_evolve,
)
from sphereheat.polyalg import BasisIndexer
from sphereheat.sphere_mc import McConfig, mc_endpoints, mc_moment, mc_refinement_diffs

N_GRID = (4, 8, 16, 32, 64)
T_GRID = (0.5, 1.0, 2.0)


def report(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def x1sq_closed_form(n: int, t: float) -> float:
    return 1.0 + (n - 1) * math.exp(-t) - n * math.exp(-t * (1.0 - 1.0 / n))


def test_criterion_01_mean_identity():
    start = time.monotonic()
    worst_rel, worst_abs = 0.0, 0.0
    for n in N_GRID:
        for t in T_GRID:
            cfg = SphereConfig(N=n, t=t, k=1, ell=1)
            # shifted-coordinate mean via the matrix exponential alone
            d_op = build_D(n, 1)
            exp_mat = heat_apply_matexp(d_op, t)
            shifted_mean = exp_mat[1, 1] * math.sqrt(n)
            worst_rel = max(worst_rel, abs(shifted_mean - cfg.m) / cfg.m)
            # and the unshifted first moment through the full pipeline
            res = heat_moment_monomial(cfg, (1,))
            worst_abs = max(worst_abs, abs(res.value))
    elapsed = time.monotonic() - start
    ok = worst_rel <= 1e-11 and worst_abs <= 1e-11 and elapsed < 1.0
    report(1, ok, f"shifted mean rel err {worst_rel:.1e}, "
                  f"first moment {worst_abs:.1e}, {elapsed:.2f}s")


def test_criterion_02_zero_odd_moments():
    worst = 0.0
    for n in (8, 32):
        for t in (0.5, 2.0):
            cfg = SphereConfig(N=n, t=t, k=3, ell=5)
            for alpha in [
                (0, 1, 0), (0, 0, 1), (1, 0, 0),
                (0, 3, 0), (1, 1, 0), (2, 1, 0), (0, 1, 1),
                (2, 2, 1), (0, 3, 2), (1, 0, 3),
            ]:
                worst = max(worst, abs(heat_moment_monomial(cfg, alpha).value))
    report(2, worst <= 1e-11,
           f"max |odd moment| = {worst:.1e} over rest-odd monomials and x1")


def test_criterion_03_exact_second_moments():
    worst_rest, worst_first, worst_pair = 0.0, 0.0, 0.0
    for n in N_GRID:
        for t in T_GRID:
            cfg2 = SphereConfig(N=n, t=t, k=2, ell=2)
            rest_vals = [
                heat_moment_monomial(cfg2, (0, 2), route=r).value
                for r in ("matexp", "series")
            ]
            exact_rest = -math.expm1(-t)
            worst_rest = max(worst_rest, *(abs(v - exact_rest) for v in rest_vals))
            worst_pair = max(worst_pair, abs(rest_vals[0] - rest_vals[1]))

            cfg1 = SphereConfig(N=n, t=t, k=1, ell=2)
            first_vals = [
                heat_moment_monomial(cfg1, (2,), route=r).value
                for r in ("matexp", "series")
            ] + [heat_moment_monomial(cfg1, (2,), route="eigen").value]
            exact_first = x1sq_closed_form(n, t)
            worst_first = max(worst_first, *(abs(v - exact_first) for v in first_vals))
            worst_pair = max(
                worst_pair,
                max(abs(a - b) for a in first_vals for b in first_vals),
            )
    ok = worst_rest <= 1e-11 and worst_first <= 1e-10 and worst_pair <= 1e-10
    report(3, ok, f"rest {worst_rest:.1e}, first {worst_first:.1e}, "
                  f"pairwise {worst_pair:.1e}")


def test_criterion_04_limit_convergence_rate():
    start = time.monotonic()
    n_sweep = (16, 32, 64, 128, 256)
    slopes = {}
    for alpha in [(2, 0), (4, 0), (0, 4), (2, 2)]:
        for t in T_GRID:
            errs = []
            for n in n_sweep:
                if any(alpha[1:]):
                    cfg = SphereConfig(N=n, t=t, k=2, ell=4)
                    v = heat_moment_monomial(cfg, alpha).value
                else:
                    cfg = SphereConfig(N=n, t=t, k=1, ell=4)
                    v = heat_moment_monomial(cfg, alpha[:1], route="eigen").value
                errs.append(abs(v - gaussian_moment(alpha, t)))
            slope = float(np.polyfit(np.log(n_sweep), np.log(errs), 1)[0])
            slopes[(alpha, t)] = slope
    slopes_ok = all(abs(s + 1.0) <= 0.15 for s in slopes.values())

    # the rest-coordinate second moment is exact at every finite N
    exact_ok = all(
        abs(
            heat_moment_monomial(
                SphereConfig(N=n, t=t, k=2, ell=2), (0, 2)
            ).value
            - gaussian_moment((0, 2), t)
        )
        <= 1e-12
        for n in n_sweep
        for t in T_GRID
    )

    cfg = SphereConfig(N=512, t=1.0, k=1, ell=2)
    err512 = abs(heat_moment_monomial(cfg, (2,), route="eigen").value
                 - gaussian_moment((2,), 1.0))
    asymptotic = math.exp(-1.0) / 2.0 / 512.0
    asym_ok = abs(err512 - asymptotic) / asymptotic <= 0.10
    elapsed = time.monotonic() - start
    ok = slopes_ok and exact_ok and asym_ok and elapsed < 120.0
    worst = max(abs(s + 1.0) for s in slopes.values())
    report(4, ok, f"12 slope fits within -1 +- {worst:.2f}, (0,2) exact, "
                  f"N=512 error within {abs(err512 - asymptotic) / asymptotic:.1%} "
                  f"of e^-t t^2/(2N), {elapsed:.1f}s")


def test_criterion_05_gaussian_moment_closed_forms():
    worst = 0.0
    for k, t in ((1, 0.5), (2, 1.0), (3, 2.0), (3, 0.5)):
        params = LimitKernelParams(t, k)
        alphas = [
            alpha
            for alpha in _all_alphas(k, 6)
        ]
        for alpha in alphas:
            q = density_moment_quadrature(params, alpha, order=60)
            worst = max(worst, abs(q - gaussian_moment(alpha, t)))
    t_log2 = math.log(2.0)
    val = gaussian_moment((4, 0), t_log2)
    expect = 3.0 * (0.5 - t_log2 / 2.0) ** 2
    symbolic_ok = abs(val - expect) <= 1e-14
    ok = worst <= 1e-7 and symbolic_ok
    report(5, ok, f"quadrature deviation {worst:.1e} (|alpha|<=6, k<=3); "
                  f"fourth moment at t=ln2 matches 3(1/2 - ln2/2)^2")


def _all_alphas(k: int, deg: int):
    if k == 1:
        return [(n,) for n in range(deg + 1)]
    return [
        (n,) + rest
        for n in range(deg + 1)
        for rest in _all_alphas(k - 1, deg - n)
    ]


def test_criterion_06_eigen_machinery():
    start = time.monotonic()
    relation_ok = True
    for n_sphere in (3, 5, 10, 100):
        d_rule = _first_part_rule(n_sphere)
        for n in range(13):
            p = eigen_poly(n, n_sphere)
            poly = p.polynomial()
            relation_ok &= d_rule(poly) == p.eigenvalue * poly
            monomial_in_eigenbasis(n, n_sphere)  # raises if round trip breaks

    product_ok = all(
        eigen_poly_at_sqrtN(n, n_sphere) == pw_product_form(n, n_sphere)
        for n_sphere in range(3, 101)
        for n in range(13)
    )

    report_rows = pw_discrepancy_report(2, 10)
    mismatch_ok = (
        report_rows[0].matches
        and not report_rows[1].matches
        and not report_rows[2].matches
    )
    elapsed = time.monotonic() - start
    ok = relation_ok and product_ok and mismatch_ok and elapsed < 10.0
    report(6, ok, f"eigen relation, basis round trip, product form exact; "
                  f"simplified form mismatch at n=1,2 reported (expected); "
                  f"{elapsed:.1f}s")


def test_criterion_07_t0_power_series():
    lead_ok = True
    from fractions import Fraction

    for j in (0, 1, 2):
        sc = t0_series(j, 4)
        for ell in range(5):
            expect = Fraction((-1) ** ell * 2**j, 2**ell * math.factorial(ell))
            lead_ok &= sc.leading_coefficient(ell) == expect

    scaling_ok = True
    worst = 0.0
    for j in (0, 1, 2):
        sc = t0_series(j, 3)
        for upto in (0, 1, 2):
            for h in (1, 2, 4, 6):
                e50 = abs(sc.partial_sum(h, 50, upto) - t0_exact(j, h, 50))
                e100 = abs(sc.partial_sum(h, 100, upto) - t0_exact(j, h, 100))
                if e50 == 0 and e100 == 0:
                    continue  # expansion terminates: truncation already exact
                rel = float(e50 / e100) / 2 ** (upto + 1 + j)
                worst = max(worst, abs(rel - 1.0))
                scaling_ok &= 0.5 <= rel <= 1.6
    ok = lead_ok and scaling_ok
    report(7, ok, f"leading coefficients exact; remainder gains ~N^(L+1+j) "
                  f"per order (worst ratio deviation {worst:.2f})")


def test_criterion_08_exponential_splitting():
    idx = BasisIndexer(2, 6)
    y_base = operator_from_rule(idx, lambda p: second_derivative_sum(p, [1])).to_float()
    x_base = operator_from_rule(idx, lambda p: euler_apply(p, [1])).to_float()
    worst = 0.0
    for t in T_GRID:
        x_mat = -0.5 * t * x_base
        y_mat = 0.5 * t * y_base
        lhs = expm(x_mat + y_mat)
        rhs = expm(x_mat) @ expm((-math.expm1(-t)) / t * y_mat)
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    report(8, worst <= 1e-10, f"operator-norm defect {worst:.1e} on the "
                              f"degree-6 two-variable space")


@pytest.mark.slow
def test_criterion_09_monte_carlo_concordance():
    start = time.monotonic()
    paths, h = 100_000, 1e-3
    alphas = [a for a in _all_alphas(2, 4)]
    worst_z, fails = 0.0, []
    for n in (4, 8, 16):
        for t in (0.5, 1.0):
            cfg = SphereConfig(N=n, t=t, k=2, ell=4)
            mc = McConfig(cfg=cfg, step_h=h, n_paths=paths, seed=2024)
            ends = mc_endpoints(mc)
            for alpha in alphas:
                est = mc_moment(mc, alpha, endpoints=ends)
                ref = heat_moment_monomial(cfg, alpha, route="eigen").value
                allowance = 3 * est.stderr + 10.0 * h  # documented O(h) bias
                if abs(est.mean - ref) > allowance:
                    fails.append((n, t, alpha, est.mean, ref))
                if est.stderr:
                    worst_z = max(worst_z, abs(est.mean - ref) / est.stderr)

    # confirm the O(h) structure at a resolvable step size (coupled walks)
    mc_bias = McConfig(
        cfg=SphereConfig(N=4, t=1.0, k=2, ell=2),
        step_h=0.1, n_paths=60_000, seed=2024,
    )
    d1, d2 = mc_refinement_diffs(mc_bias, (2, 0))
    bias_ok = (
        abs(d1.mean) > 5 * d1.stderr
        and abs(d2.mean) > 5 * d2.stderr
        and 1.5 <= d1.mean / d2.mean <= 2.5
    )
    elapsed = time.monotonic() - start
    ok = not fails and bias_ok and elapsed < 300.0
    report(9, ok, f"90 moment comparisons within 3 stderr + bias allowance "
                  f"(max z = {worst_z:.2f}); h vs h/2 ratio "
                  f"{d1.mean / d2.mean:.2f}; {elapsed:.0f}s")


def test_criterion_10_parabolic_factors():
    ratio_ok = True
    for variant in (FIRST_COORDINATE, OTHER_COORDINATE):
        for t in (0.1, 1.0, 4.0):
            for x in (0.0, 1.0, -3.0):
                r1 = residual(variant, t, x, 1e-3)
                if r1 <= 1e-13:
                    continue
                ratio = r1 / residual(variant, t, x, 5e-4)
                ratio_ok &= 3.5 <= ratio <= 4.5

    grid = np.linspace(-5.0, 5.0, 101)
    worst_spec = 0.0
    for variant in (FIRST_COORDINATE, OTHER_COORDINATE):
        u = mollified_delta_solution(variant, 1.0, grid, eps=1e-3)
        closed = np.array([variant.closed_form(1.0, float(x)) for x in grid])
        worst_spec = max(worst_spec, float(np.max(np.abs(u - closed))))

    wide = np.linspace(-9.0, 9.0, 1201)
    worst_mass = 0.0
    for variant in (FIRST_COORDINATE, OTHER_COORDINATE):
        masses = [
            grid_mass(spectral_evolve(variant, 1e-3, t, wide), wide)
            for t in (0.3, 1.0, 3.0)
        ]
        worst_mass = max(worst_mass, max(abs(m - 1.0) for m in masses))

    ok = ratio_ok and worst_spec <= 1e-5 and worst_mass <= 1e-8
    report(10, ok, f"residual refinement in [3.5,4.5]; spectral deviation "
                   f"{worst_spec:.1e}; mass drift {worst_mass:.1e}")


def test_criterion_11_classical_limit():
    worst = 0.0
    for k in (1, 2, 3):
        for alpha in _all_alphas(k, 6):
            worst = max(worst, classical_limit_check(alpha))
    report(11, worst <= 1e-7,
           f"max deviation from standard Gaussian moments {worst:.1e} at t=30")
