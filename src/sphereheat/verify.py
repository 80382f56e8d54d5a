"""Self-contained invariant suites behind the ``verify`` CLI subcommand.

Each suite runs a bundle of exact identities and numeric consistency checks
at desk scale and reports one line per check.  A WARN entry marks an
expected mismatch (documented and counted as passing); FAIL means a real
violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from . import eigenmethod as em
from . import gaussian_limit as gl
from . import pde_appendix as pde
from .heatop import heat_moment_monomial
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
from .sphere_mc import _BATCH, McConfig, mc_endpoints, mc_moment, simulate_endpoint

SUITES = ("operators", "eigen", "gaussian", "pde", "mc")


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS, WARN, FAIL
    detail: str

    @property
    def ok(self) -> bool:
        return self.status in ("PASS", "WARN")


def _check(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, "PASS" if ok else "FAIL", detail)


# ----------------------------------------------------------------------


def _max_coefficient(polys: list[Polynomial]):
    return max((abs(c) for p in polys for c in p.terms.values()), default=0)


def run_operators_suite() -> list[CheckResult]:
    out = []

    d_rule, e_rule = _first_part_rule(8), _rest_part_rule(8, 3)
    defect = rule_images(lambda p: d_rule(e_rule(p)) - e_rule(d_rule(p)), BasisIndexer(3, 5))
    out.append(_check("[D,E] = 0 exactly (k=3, l=5, N=8)", not any(defect),
                      f"max |coefficient| of D(E p) - E(D p) = {_max_coefficient(defect)}"))

    basis = BasisIndexer(2, 4)
    graded = all(
        image.degree() <= sum(alpha)
        for n in (4, 8, 16)
        for alpha, image in zip(basis, rule_images(_sphere_rule(n, 2, True), basis))
    )
    out.append(_check("closure: sphere operator never raises degree", graded,
                      "no monomial's image exceeds its degree (k=2, l=4, N in {4,8,16})"))

    diagonal = [image.coefficient((n,)) for n, image in
                enumerate(rule_images(_first_part_rule(10), BasisIndexer(1, 6)))]
    out.append(_check("diagonal of D reads off -n(1+(n-2)/N)",
                      diagonal == [em.eigenvalue(n, 10) for n in range(7)],
                      f"diagonal = {[str(x) for x in diagonal]}"))

    basis = BasisIndexer(2, 3)
    hermite = rule_images(_hermite_rule(2), basis)
    scaled = [[n * (e - h) for e, h in zip(rule_images(_rest_part_rule(n, 2), basis), hermite)]
              for n in (8, 16, 32, 64)]
    out.append(_check("N * (E_N - Hermite) is N-independent",
                      all(images == scaled[0] for images in scaled),
                      f"equal images for N in {{8,16,32,64}}, max |coefficient| = "
                      f"{_max_coefficient(scaled[0])}"))

    d2 = lambda p: second_derivative_sum(p, [0])  # noqa: E731
    xd = lambda p: euler_apply(p, [0])  # noqa: E731
    basis = BasisIndexer(1, 6)
    relation = rule_images(lambda p: d2(xd(p)) - xd(d2(p)), basis) == rule_images(
        lambda p: 2 * d2(p), basis)
    out.append(_check("[d^2, x d] = 2 d^2 as matrices", relation,
                      "exact commutation relation (factor two) on x^n, n <= 6"))

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
    out.append(_check("commutation-split exponential identity", worst <= 1e-10,
                      f"max 2-norm defect over t = {worst:.3e}"))
    return out


def run_eigen_suite() -> list[CheckResult]:
    out = []

    # construction re-verifies D p = lambda p and the basis round trip
    try:
        for N in (3, 5, 10, 100):
            for n in range(13):
                em.eigen_poly(n, N)
                em.monomial_in_eigenbasis(n, N)
        out.append(_check("eigen-relation and basis round trip exact (n<=12)", True,
                          "N in {3,5,10,100}"))
    except AssertionError as exc:
        out.append(_check("eigen-relation and basis round trip exact (n<=12)", False, str(exc)))

    product_ok = all(
        em.eigen_poly_at_sqrtN(n, N) == em.pw_product_form(n, N)
        for N in range(3, 101)
        for n in range(13)
    )
    out.append(_check("product form equals direct evaluation (n<=12, N<=100)",
                      product_ok, "exact rational identity"))

    report = em.pw_discrepancy_report(4, 10)
    mismatch_small = [r.n for r in report if not r.matches and r.n in (1, 2)]
    shifted = all(
        em.pw_simplified_form(n, 10) == em.eigen_poly_at_sqrtN(n + 1, 10)
        for n in range(5)
    )
    detail = "; ".join(
        f"n={r.n}: direct {r.direct} vs simplified {r.simplified}"
        for r in report
        if not r.matches
    )
    if mismatch_small == [1, 2] and shifted:
        out.append(CheckResult(
            "simplified closed form for p_n(sqrt N) disagrees with direct values",
            "WARN",
            "expected mismatch (the compact form equals the degree n+1 value); "
            "computation uses the product form; " + detail,
        ))
    else:
        out.append(_check("simplified-form discrepancy report", False, detail))

    ratio_ok = all(
        em.evaluation_ratio(n, N) == Fraction(N + n - 2, N + 2 * n - 2)
        for N in (5, 10, 37)
        for n in range(9)
    )
    out.append(_check("value ratio parity-independent: (N+n-2)/(N+2n-2)", ratio_ok,
                      "single rational expression for all n"))

    out.append(_check("eigenvalues pairwise distinct",
                      all(em.eigenvalues_distinct(12, N) for N in range(3, 120)),
                      "lambda_n distinct for n <= 12, N < 120"))

    lead_ok = True
    for j in (0, 1, 2):
        sc = em.t0_series(j, 4)
        for ell in range(5):
            expect = Fraction((-1) ** ell * 2**j, 2**ell * math.factorial(ell))
            lead_ok &= sc.leading_coefficient(ell) == expect
    out.append(_check("series leading coefficients (-1)^l 2^(j-l)/l!", lead_ok,
                      "j <= 2, l <= 4, exact"))

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
    out.append(_check("series remainder scales like N^-(L+1+j)", scale_ok,
                      f"worst ratio deviation {worst_rel:.2f} across j,L,h"))

    worst = 0.0
    for N in (8, 32):
        for t in (0.5, 2.0):
            cfg = SphereConfig(N=N, t=t, k=1, ell=6)
            for n in range(7):
                ev = em.heat_moment_x1_eigen(n, cfg)
                mv = heat_moment_monomial(cfg, (n,)).value  # double matexp on the lattice
                worst = max(worst, abs(ev - mv))
    out.append(_check("eigen route matches operator route", worst <= 1e-9,
                      f"max |difference| = {worst:.2e} (n <= 6)"))
    return out


def run_gaussian_suite() -> list[CheckResult]:
    out = []
    worst = 0.0
    for t in (0.25, 1.0, 4.0):
        for k in (1, 2, 3):
            worst = max(worst, abs(gl.density_mass_quadrature(gl.LimitKernelParams(t, k)) - 1.0))
    out.append(_check("density integrates to one", worst <= 1e-8,
                      f"max |mass - 1| = {worst:.2e}"))

    worst = 0.0
    params = gl.LimitKernelParams(1.0, 3)
    for alpha in [(2, 0, 0), (0, 2, 0), (2, 2, 0), (4, 0, 0), (0, 4, 2), (6, 0, 0), (1, 1, 0), (3, 0, 1)]:
        q = gl.density_moment_quadrature(params, alpha)
        worst = max(worst, abs(q - gl.gaussian_moment(alpha, 1.0)))
    out.append(_check("closed-form moments match quadrature", worst <= 1e-7,
                      f"max deviation {worst:.2e} (|alpha| <= 6, k = 3)"))

    ts = [0.1 * i for i in range(1, 60)]
    v1 = [gl.var_first(t) for t in ts]
    v2 = [gl.var_rest(t) for t in ts]
    mono = all(a < b for a, b in zip(v1, v1[1:])) and all(a < b for a, b in zip(v2, v2[1:]))
    dominated = all(a < b < 1.0 for a, b in zip(v1, v2))
    out.append(_check("variances strictly increasing with var_first < var_rest < 1",
                      mono and dominated, "checked on a t-grid up to 6"))

    t = 1e-2
    taylor = t**2 / 2 - t**3 / 3 + t**4 / 8
    rel = abs(gl.var_first(t) - taylor) / taylor
    out.append(_check("small-t variance expansion t^2/2 - t^3/3 + t^4/8", rel <= 1e-2,
                      f"relative deviation {rel:.2e} at t = 0.01"))

    worst = max(
        gl.classical_limit_check(alpha)
        for alpha in [(2,), (4, 0), (6, 0, 0), (2, 2, 2), (0, 4, 2)]
    )
    out.append(_check("large-t reduction to the standard Gaussian", worst <= 1e-7,
                      f"max deviation {worst:.2e} at t = 30"))

    reports = [
        gl.marginal_compatibility(2, 1, 1.0),
        gl.marginal_compatibility(3, 2, 0.5),
        gl.marginal_compatibility(3, 3, 0.5),
    ]
    ok = all(r.passed for r in reports)
    out.append(_check("marginalizing trailing coordinates is consistent", ok,
                      f"max deviations {[f'{r.max_abs_deviation:.1e}' for r in reports]}"))
    return out


def run_pde_suite() -> list[CheckResult]:
    out = []
    ok = True
    worst_ratio = None
    for variant in (pde.FIRST_COORDINATE, pde.OTHER_COORDINATE):
        for t in (0.1, 1.0, 4.0):
            for x in (0.0, 1.0, -1.0, 3.0, -3.0):
                r1 = pde.residual(variant, t, x, 1e-3)
                if r1 <= 1e-13:
                    continue  # below resolvable magnitude
                r2 = pde.residual(variant, t, x, 5e-4)
                ratio = r1 / r2
                ok &= 3.5 <= ratio <= 4.5
                worst_ratio = ratio if worst_ratio is None else worst_ratio
    out.append(_check("closed-form residuals refine at O(h^2)", ok,
                      "halving h divides the residual by ~4"))

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
    out.append(_check("transported amplitude matches the numeric transform", worst <= 1e-10,
                      f"max deviation {worst:.2e}"))

    grid = np.linspace(-5.0, 5.0, 101)
    worst = 0.0
    for variant in (pde.FIRST_COORDINATE, pde.OTHER_COORDINATE):
        u = pde.mollified_delta_solution(variant, 1.0, grid, eps=1e-3)
        closed = np.array([variant.closed_form(1.0, float(x)) for x in grid])
        worst = max(worst, float(np.max(np.abs(u - closed))))
    out.append(_check("mollified evolution extrapolates to the closed form", worst <= 1e-5,
                      f"max grid deviation {worst:.2e}"))

    wide = np.linspace(-9.0, 9.0, 1201)
    worst = 0.0
    for variant in (pde.FIRST_COORDINATE, pde.OTHER_COORDINATE):
        masses = [
            pde.grid_mass(pde.spectral_evolve(variant, 1e-3, t, wide), wide)
            for t in (0.3, 1.0, 3.0)
        ]
        worst = max(worst, max(abs(m - masses[0]) for m in masses))
    out.append(_check("mass conserved along the evolution", worst <= 1e-8,
                      f"max drift {worst:.2e}"))

    params = gl.LimitKernelParams(0.7, 3)
    pts = [np.array([0.3, -1.1, 0.8]), np.array([0.0, 0.0, 0.0]), np.array([1.5, 0.2, -0.4])]
    worst = max(
        abs(pde.product_kernel(0.7, p) - gl.limit_density(params, p))
        / gl.limit_density(params, p)
        for p in pts
    )
    out.append(_check("joint density equals the product of 1-D factors", worst <= 1e-12,
                      f"max relative deviation {worst:.2e}"))
    return out


def run_mc_suite(paths: int = 20000, step_h: float = 2e-3, seed: int = 20240601) -> list[CheckResult]:
    out = []
    cfg = SphereConfig(N=6, t=0.5, k=3, ell=4)
    mc = McConfig(cfg=cfg, step_h=step_h, n_paths=paths, seed=seed)

    end = simulate_endpoint(mc, 0)
    shifted = end.copy()
    shifted[0] += cfg.m
    rel = abs(float(np.linalg.norm(shifted)) - math.sqrt(cfg.N)) / math.sqrt(cfg.N)
    out.append(_check("endpoints stay on the sphere", rel <= 1e-12,
                      f"relative radius error {rel:.2e}"))

    ends = mc_endpoints(mc, workers=1)
    # the pool only runs on two batches or more
    pooled = mc if paths > _BATCH else replace(mc, n_paths=_BATCH + 1)
    serial = ends if pooled is mc else mc_endpoints(pooled, workers=1)
    out.append(_check("estimates independent of worker count",
                      np.array_equal(serial, mc_endpoints(pooled, workers=2)),
                      f"bitwise identical endpoints over {-(-pooled.n_paths // _BATCH)} batches"))

    single = simulate_endpoint(mc, paths // 2)
    out.append(_check("single paths match batched runs",
                      np.array_equal(single, ends[paths // 2]),
                      f"path {paths // 2} reproduced standalone"))

    est = mc_moment(mc, (1, 0, 0), endpoints=ends)
    z = abs(est.mean) / est.stderr
    out.append(_check("first-coordinate mean is zero", z <= 4.0,
                      f"estimate {est.mean:+.2e} at {z:.2f} standard errors"))

    exact = -math.expm1(-cfg.t)
    est = mc_moment(mc, (0, 2, 0), endpoints=ends)
    bias_allowance = 0.5 * step_h
    ok = abs(est.mean - exact) <= 3 * est.stderr + bias_allowance
    out.append(_check("second moment matches the exact value", ok,
                      f"{est.mean:.5f} vs {exact:.5f} (stderr {est.stderr:.1e})"))

    e2 = mc_moment(mc, (0, 2, 0), endpoints=ends)
    e3 = mc_moment(mc, (0, 0, 2), endpoints=ends)
    span = abs(e2.mean - e3.mean)
    ok = span <= 3 * (e2.stderr + e3.stderr)
    out.append(_check("rotational symmetry across coordinates", ok,
                      f"|x2^2 - x3^2| = {span:.2e}"))
    return out


def run_suite(name: str, **mc_kwargs) -> list[CheckResult]:
    """The suite's checks; an identity a constructor asserts and finds broken is a FAIL."""
    runners = {"operators": run_operators_suite, "eigen": run_eigen_suite,
               "gaussian": run_gaussian_suite, "pde": run_pde_suite,
               "mc": lambda: run_mc_suite(**mc_kwargs)}
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    try:
        return runners[name]()
    except AssertionError as exc:
        return [_check(f"{name} suite ran to completion", False, f"AssertionError: {exc}")]
