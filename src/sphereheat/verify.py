"""Self-contained invariant suites behind the ``verify`` CLI subcommand.

Each suite runs a bundle of exact identities and numeric consistency checks
at desk scale and reports one line per check, PASS or FAIL.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import eigenmethod as em
from . import gaussian_limit as gl
from . import pde_appendix as pde
from .heatop import expm, heat_moment_monomial
from .operators import (
    SphereConfig,
    _first_part_rule,
    _hermite_rule,
    _rest_part_rule,
    _sphere_rule,
    euler_apply,
    operator_from_rule,
    rule_images,
    second_derivative_sum,
)
from .polyalg import BasisIndexer, Polynomial
from .sphere_mc import _BATCH, McConfig, mc_endpoints, mc_moment

SUITES = ("operators", "eigen", "gaussian", "pde", "mc")


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS, FAIL
    detail: str

    @property
    def ok(self) -> bool:
        return self.status == "PASS"


def _check(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, "PASS" if ok else "FAIL", detail)


@contextlib.contextmanager
def _check_in(out: list[CheckResult], name: str):
    """Run one check on its own, yielding its ``report(ok, detail)``; an assertion fails it."""
    try:
        yield lambda ok, detail: out.append(_check(name, ok, detail))
    except AssertionError as exc:
        out.append(_check(name, False, f"AssertionError: {exc}"))


# ----------------------------------------------------------------------


def _max_coefficient(polys: list[Polynomial]):
    return max((abs(c) for p in polys for c in p.terms.values()), default=0)


def run_operators_suite() -> list[CheckResult]:
    out = []

    with _check_in(out, "[D,E] = 0 exactly (k=3, l=5, N=8)") as report:
        d_rule, e_rule = _first_part_rule(8), _rest_part_rule(8, 3)
        defect = rule_images(lambda p: d_rule(e_rule(p)) - e_rule(d_rule(p)), BasisIndexer(3, 5))
        report(not any(defect),
               f"max |coefficient| of D(E p) - E(D p) = {_max_coefficient(defect)}")

    with _check_in(out, "closure: sphere operator never raises degree") as report:
        basis = BasisIndexer(2, 4)
        graded = all(
            image.degree() <= sum(alpha)
            for n in (4, 8, 16)
            for alpha, image in zip(basis, rule_images(_sphere_rule(n, 2, True), basis))
        )
        report(graded, "no monomial's image exceeds its degree (k=2, l=4, N in {4,8,16})")

    with _check_in(out, "diagonal of D reads off -n(1+(n-2)/N)") as report:
        diagonal = [image.coefficient((n,)) for n, image in
                    enumerate(rule_images(_first_part_rule(10), BasisIndexer(1, 6)))]
        report(diagonal == [em.eigenvalue(n, 10) for n in range(7)],
               f"diagonal = {[str(x) for x in diagonal]}")

    with _check_in(out, "N * (E_N - Hermite) is N-independent") as report:
        basis = BasisIndexer(2, 3)
        hermite = rule_images(_hermite_rule(2), basis)
        scaled = [[n * (e - h) for e, h in zip(rule_images(_rest_part_rule(n, 2), basis), hermite)]
                  for n in (8, 16, 32, 64)]
        report(all(images == scaled[0] for images in scaled),
               f"equal images for N in {{8,16,32,64}}, max |coefficient| = "
               f"{_max_coefficient(scaled[0])}")

    with _check_in(out, "[d^2, x d] = 2 d^2 as matrices") as report:
        d2 = lambda p: second_derivative_sum(p, [0])  # noqa: E731
        xd = lambda p: euler_apply(p, [0])  # noqa: E731
        basis = BasisIndexer(1, 6)
        relation = rule_images(lambda p: d2(xd(p)) - xd(d2(p)), basis) == rule_images(
            lambda p: 2 * d2(p), basis)
        report(relation, "exact commutation relation (factor two) on x^n, n <= 6")

    with _check_in(out, "commutation-split exponential identity") as report:
        worst = 0.0
        basis = BasisIndexer(2, 6)
        sum_d2 = operator_from_rule(basis, lambda p: second_derivative_sum(p, [1])).to_float()
        euler_y = operator_from_rule(basis, lambda p: euler_apply(p, [1])).to_float()
        for t in (0.5, 1.0, 2.0):
            x_mat = -0.5 * t * euler_y
            y_mat = 0.5 * t * sum_d2
            lhs = expm(x_mat + y_mat)
            rhs = expm(x_mat) @ expm((-math.expm1(-t)) / t * y_mat)
            worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
        report(worst <= 1e-10, f"max 2-norm defect over t = {worst:.3e}")
    return out


def run_eigen_suite() -> list[CheckResult]:
    out = []

    # construction re-verifies D p = lambda p and the basis round trip
    with _check_in(out, "eigen-relation and basis round trip exact (n<=12)") as report:
        for N in (3, 5, 10, 100):
            for n in range(13):
                em.monomial_in_eigenbasis(n, N)  # builds eigen_poly(n, N) as well
        report(True, "N in {3,5,10,100}")

    with _check_in(out, "product form equals direct evaluation (n<=12, N<=100)") as report:
        product_ok = all(
            em.pw_product_form(n, N)
            == sum(c / Fraction(N) ** j for j, c in enumerate(em.eigen_poly(n, N).coeffs))
            for N in range(3, 101)
            for n in range(13)
        )
        report(product_ok, "exact rational identity against sum_j c_j N^-j of p_n")

    with _check_in(out, "compact form t0(n) at j=0 is the degree n+1 value") as report:
        shifted = all(em.t0_exact(0, n, N) == em.eigen_poly_at_sqrtN(n + 1, N)
                      for N in (3, 10, 100) for n in range(13))
        unshifted = all(em.t0_exact(0, n, N) != em.eigen_poly_at_sqrtN(n, N)
                        for N in (3, 10, 100) for n in (1, 2))
        report(shifted and unshifted,
               "n<=12, N in {3,10,100}; at N=10, t0(n) = value(n+1) vs value(n): " + "; ".join(
                   f"n={n}: {em.t0_exact(0, n, 10)} vs {em.eigen_poly_at_sqrtN(n, 10)}"
                   for n in range(1, 5)))

    with _check_in(out, "value ratio parity-independent: (N+n-2)/(N+2n-2)") as report:
        ratio_ok = all(
            em.evaluation_ratio(n, N) == Fraction(N + n - 2, N + 2 * n - 2)
            for N in (5, 10, 37)
            for n in range(9)
        )
        report(ratio_ok, "single rational expression for all n")

    with _check_in(out, "eigenvalues pairwise distinct") as report:
        report(all(em.eigenvalues_distinct(12, N) for N in range(3, 120)),
               "lambda_n distinct for n <= 12, N < 120")

    with _check_in(out, "series leading coefficients (-1)^l 2^(j-l)/l!") as report:
        lead_ok = True
        for j in (0, 1, 2):
            sc = em.t0_series(j, 4)
            for ell in range(5):
                expect = Fraction((-1) ** ell * 2**j, 2**ell * math.factorial(ell))
                lead_ok &= sc.leading_coefficient(ell) == expect
        report(lead_ok, "j <= 2, l <= 4, exact")

    with _check_in(out, "series remainder scales like N^-(L+1+j)") as report:
        scale_ok = True
        worst_rel = 0.0
        for j in (0, 1, 2):
            sc = em.t0_series(j, 3)
            for L in (0, 1, 2):
                for h in (2, 5):
                    e50 = abs(sc.partial_sum(h, 50, L) - em.t0_exact(j, h, 50))
                    e100 = abs(sc.partial_sum(h, 100, L) - em.t0_exact(j, h, 100))
                    ratio = float(e50 / e100)
                    rel = ratio / 2 ** (L + 1 + j)
                    worst_rel = max(worst_rel, abs(rel - 1.0))
                    scale_ok &= 0.5 <= rel <= 1.5
        report(scale_ok, f"worst ratio deviation {worst_rel:.2f} across j,L,h")

    with _check_in(out, "eigen route matches operator route") as report:
        worst = 0.0
        for N in (8, 32):
            for t in (0.5, 2.0):
                cfg = SphereConfig(N=N, t=t, k=1, ell=6)
                for n in range(7):
                    ev = em.finite_moment_x1(n, N).evaluate_extended(t)
                    mv = heat_moment_monomial(cfg, (n,), route="matexp").value
                    worst = max(worst, abs(ev - mv))
        report(worst <= 1e-9, f"max |difference| = {worst:.2e} (n <= 6)")
    return out


def run_gaussian_suite() -> list[CheckResult]:
    out = []

    with _check_in(out, "density integrates to one") as report:
        worst = 0.0
        for t in (0.25, 1.0, 4.0):
            for k in (1, 2, 3):
                mass = gl.density_mass_quadrature(gl.LimitKernelParams(t, k))
                worst = max(worst, abs(mass - 1.0))
        report(worst <= 1e-8, f"max |mass - 1| = {worst:.2e}")

    with _check_in(out, "closed-form moments match quadrature") as report:
        worst = 0.0
        params = gl.LimitKernelParams(1.0, 3)
        for alpha in [(2, 0, 0), (0, 2, 0), (2, 2, 0), (4, 0, 0), (0, 4, 2), (6, 0, 0), (1, 1, 0), (3, 0, 1)]:
            q = gl.density_moment_quadrature(params, alpha)
            worst = max(worst, abs(q - gl.gaussian_moment(alpha, 1.0)))
        report(worst <= 1e-7, f"max deviation {worst:.2e} (|alpha| <= 6, k = 3)")

    with _check_in(out, "variances strictly increasing with var_first < var_rest < 1") as report:
        ts = [0.1 * i for i in range(1, 60)]
        v1 = [gl.var_first(t) for t in ts]
        v2 = [gl.var_rest(t) for t in ts]
        mono = all(a < b for a, b in zip(v1, v1[1:])) and all(a < b for a, b in zip(v2, v2[1:]))
        dominated = all(a < b < 1.0 for a, b in zip(v1, v2))
        report(mono and dominated, "checked on a t-grid up to 6")

    with _check_in(out, "small-t variance expansion t^2/2 - t^3/3 + t^4/8") as report:
        t = 1e-2
        taylor = t**2 / 2 - t**3 / 3 + t**4 / 8
        rel = abs(gl.var_first(t) - taylor) / taylor
        report(rel <= 1e-2, f"relative deviation {rel:.2e} at t = 0.01")

    with _check_in(out, "large-t reduction to the standard Gaussian") as report:
        worst = max(
            gl.classical_limit_check(alpha)
            for alpha in [(2,), (4, 0), (6, 0, 0), (2, 2, 2), (0, 4, 2)]
        )
        report(worst <= 1e-7, f"max deviation {worst:.2e} at t = 30")

    with _check_in(out, "marginalizing trailing coordinates is consistent") as report:
        reports = [
            gl.marginal_compatibility(2, 1, 1.0),
            gl.marginal_compatibility(3, 2, 0.5),
            gl.marginal_compatibility(3, 3, 0.5),
        ]
        report(all(r.passed for r in reports),
               f"max deviations {[f'{r.max_abs_deviation:.1e}' for r in reports]}")
    return out


def run_pde_suite() -> list[CheckResult]:
    out = []

    with _check_in(out, "closed-form residuals refine at O(h^2)") as report:
        ok = True
        for variant in (pde.FIRST_COORDINATE, pde.OTHER_COORDINATE):
            for t in (0.1, 1.0, 4.0):
                for x in (0.0, 1.0, -1.0, 3.0, -3.0):
                    r1 = pde.residual(variant, t, x, 1e-3)
                    if r1 <= 1e-13:
                        continue  # below resolvable magnitude
                    r2 = pde.residual(variant, t, x, 5e-4)
                    ok &= 3.5 <= r1 / r2 <= 4.5
        report(ok, "halving h divides the residual by ~4")

    with _check_in(out, "transported amplitude matches the numeric transform") as report:
        xs = np.linspace(-14.0, 14.0, 50001)
        worst = 0.0
        for variant in (pde.FIRST_COORDINATE, pde.OTHER_COORDINATE):
            g = np.array([variant.closed_form(1.0, float(x)) for x in xs])
            for xi in (0.0, 0.5, 1.0, 2.0):
                numeric = np.trapezoid(g * np.cos(xi * xs), xs) / math.sqrt(2 * math.pi)
                transported = pde.characteristic_transport(
                    variant, xi, 1.0, initial_amplitude=1.0 / math.sqrt(2 * math.pi)
                )
                worst = max(worst, abs(numeric - transported))
        report(worst <= 1e-10, f"max deviation {worst:.2e}")

    with _check_in(out, "mollified evolution extrapolates to the closed form") as report:
        grid = np.linspace(-5.0, 5.0, 101)
        worst = 0.0
        for variant in (pde.FIRST_COORDINATE, pde.OTHER_COORDINATE):
            u = pde.mollified_delta_solution(variant, 1.0, grid, eps=1e-3)
            closed = np.array([variant.closed_form(1.0, float(x)) for x in grid])
            worst = max(worst, float(np.max(np.abs(u - closed))))
        report(worst <= 1e-5, f"max grid deviation {worst:.2e}")

    with _check_in(out, "mass conserved along the evolution") as report:
        wide = np.linspace(-9.0, 9.0, 1201)
        worst = 0.0
        for variant in (pde.FIRST_COORDINATE, pde.OTHER_COORDINATE):
            masses = [
                pde.grid_mass(pde.spectral_evolve(variant, 1e-3, t, wide), wide)
                for t in (0.3, 1.0, 3.0)
            ]
            worst = max(worst, max(abs(m - masses[0]) for m in masses))
        report(worst <= 1e-8, f"max drift {worst:.2e}")

    with _check_in(out, "joint density equals the product of 1-D factors") as report:
        params = gl.LimitKernelParams(0.7, 3)
        pts = [np.array([0.3, -1.1, 0.8]), np.array([0.0, 0.0, 0.0]), np.array([1.5, 0.2, -0.4])]
        worst = max(
            abs(pde.product_kernel(0.7, p) - gl.limit_density(params, p))
            / gl.limit_density(params, p)
            for p in pts
        )
        report(worst <= 1e-12, f"max relative deviation {worst:.2e}")
    return out


def run_mc_suite() -> list[CheckResult]:
    out = []
    cfg = SphereConfig(N=6, t=0.5, k=3, ell=4)
    mc = McConfig(cfg=cfg, step_h=2e-3, n_paths=20000, seed=20240601)  # five batches
    ends = mc_endpoints(mc, workers=1)

    with _check_in(out, "endpoints stay on the sphere") as report:
        radii = np.hypot(ends[:, 0] + cfg.m, np.linalg.norm(ends[:, 1:], axis=1))
        rel = float(np.max(np.abs(radii - math.sqrt(cfg.N)))) / math.sqrt(cfg.N)
        report(rel <= 1e-12, f"max relative radius error {rel:.2e} over {len(ends)} endpoints")

    with _check_in(out, "estimates independent of worker count") as report:
        report(np.array_equal(ends, mc_endpoints(mc, workers=2)),
               f"bitwise identical endpoints over {-(-mc.n_paths // _BATCH)} batches")

    with _check_in(out, "first-coordinate mean is zero") as report:
        est = mc_moment(mc, (1, 0, 0), endpoints=ends)
        z = abs(est.mean) / est.stderr
        report(z <= 4.0, f"estimate {est.mean:+.2e} at {z:.2f} standard errors")

    with _check_in(out, "second moment matches the exact value") as report:
        exact = -math.expm1(-cfg.t)
        est = mc_moment(mc, (0, 2, 0), endpoints=ends)
        report(abs(est.mean - exact) <= 3 * est.stderr + 0.5 * mc.step_h,  # O(h) bias allowance
               f"{est.mean:.5f} vs {exact:.5f} (stderr {est.stderr:.1e})")

    with _check_in(out, "rotational symmetry across coordinates") as report:
        e2 = mc_moment(mc, (0, 2, 0), endpoints=ends)
        e3 = mc_moment(mc, (0, 0, 2), endpoints=ends)
        span = abs(e2.mean - e3.mean)
        report(span <= 3 * (e2.stderr + e3.stderr), f"|x2^2 - x3^2| = {span:.2e}")
    return out


def run_suite(name: str) -> list[CheckResult]:
    """The suite's checks, one line each, every check run on its own."""
    runners = {"operators": run_operators_suite, "eigen": run_eigen_suite,
               "gaussian": run_gaussian_suite, "pde": run_pde_suite,
               "mc": run_mc_suite}
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return runners[name]()
