"""Monte Carlo oracle: determinism, geometry, and statistical agreement."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sphereheat.heatop import heat_moment_monomial
from sphereheat.operators import SphereConfig
from sphereheat.sphere_mc import (
    _BATCH,
    McConfig,
    McEstimate,
    _batch_streams,
    _projected_step,
    _radial_step,
    mc_endpoints,
    mc_moment,
    mc_refinement_diffs,
)

SEED = 20240601


def make_mc(n=6, t=0.5, k=2, paths=2000, h=2e-3, seed=SEED, ell=4):
    return McConfig(
        cfg=SphereConfig(N=n, t=t, k=k, ell=ell), step_h=h, n_paths=paths, seed=seed
    )


# ----------------------------------------------------------------------
# geometry and determinism
# ----------------------------------------------------------------------


def test_zero_time_returns_base_point():
    end = mc_endpoints(make_mc(t=0.0), workers=1)[0]
    assert end[0] == pytest.approx(0.0, abs=1e-14)  # sqrt(N) - m(0, N) = 0
    assert np.all(end[1:] == 0.0)


def test_radius_preserved_after_every_step():
    cfg = SphereConfig(N=5, t=0.2, k=2, ell=2)
    mc = McConfig(cfg=cfg, step_h=1e-2, n_paths=1, seed=3)
    shifted = mc_endpoints(mc, workers=1)[0]
    shifted[0] += cfg.m
    rel = abs(np.linalg.norm(shifted) - math.sqrt(5)) / math.sqrt(5)
    assert rel <= 1e-12


def test_step_sizes_cover_time_exactly():
    mc = make_mc(t=0.5, h=2e-3)
    assert mc.step_sizes().sum() == pytest.approx(0.5, abs=1e-12)
    mc = make_mc(t=0.35, h=0.1)  # non-dividing step: short last step
    steps = mc.step_sizes()
    assert len(steps) == 4 and steps[-1] == pytest.approx(0.05)
    assert steps.sum() == pytest.approx(0.35, abs=1e-12)


def test_bitwise_determinism():
    mc = make_mc(paths=_BATCH + _BATCH // 2)
    assert mc.n_paths > _BATCH  # two batches, so workers=2 runs the pool
    a = mc_endpoints(mc, workers=1)
    b = mc_endpoints(mc, workers=1)
    c = mc_endpoints(mc, workers=2)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    e1 = mc_moment(mc, (0, 2), endpoints=a)
    e2 = mc_moment(mc, (0, 2), endpoints=c)
    assert e1 == e2  # identical McEstimate, bit for bit


@pytest.mark.parametrize("seed, batch", [(SEED, 0), (2**63 + 5, 2**32 - 1), (2**64 - 1, 2**40)])
def test_batch_streams_are_independent(seed, batch):
    # eta, chi and z of one batch differ from each other and from the next batch's
    draws = {tuple(gen.bit_generator.random_raw(8)) for b in (batch, batch + 1)
             for gen in _batch_streams(seed, b)}
    assert len(draws) == 6


@pytest.mark.parametrize("seed, batch", [(SEED, 0), (2**64 + 5, 2**40)])
def test_batch_streams_are_the_documented_sfc64_streams(seed, batch):
    for i, gen in enumerate(_batch_streams(seed, batch)):
        ref = np.random.SFC64(np.random.SeedSequence([seed % 2**64, batch, i]))
        assert np.array_equal(gen.bit_generator.random_raw(4), ref.random_raw(4))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_block_draws_equal_the_step_at_a_time_walk(n):
    # 37 full steps and a short last one: two full blocks of draws and a partial one
    mc = McConfig(cfg=SphereConfig(N=n, t=0.375, k=1, ell=2), step_h=0.01, n_paths=300, seed=SEED)
    steps = mc.step_sizes()
    assert len(steps) == 38 and steps[-1] < mc.step_h
    eta, chi, zs = _batch_streams(mc.seed, 0)
    z = zs.standard_normal((mc.n_paths, n - 1))
    root_n = math.sqrt(n)
    y, r = np.full(mc.n_paths, root_n), np.zeros(mc.n_paths)
    for h in steps:
        s = eta.standard_normal(mc.n_paths) * math.sqrt(h / n)
        h_chi = chi.chisquare(n - 2, mc.n_paths) * h if n > 2 else np.zeros(mc.n_paths)
        _radial_step(y, r, s, h_chi, root_n)
    r /= np.sqrt(np.einsum("ij,ij->i", z, z))
    ref = np.column_stack([y - mc.cfg.m, z * r[:, None]])
    assert np.array_equal(mc_endpoints(mc, workers=1), ref)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_must_be_positive(workers):
    with pytest.raises(ValueError, match="workers"):
        mc_endpoints(make_mc(paths=10), workers=workers)


def test_full_batches_do_not_depend_on_the_path_count():
    short = make_mc(paths=_BATCH + 10)
    a = mc_endpoints(short, workers=1)
    b = mc_endpoints(make_mc(paths=2 * _BATCH), workers=1)
    assert np.array_equal(a[:_BATCH], b[:_BATCH])
    assert np.array_equal(a, mc_endpoints(short, workers=2))


def test_refinement_differences_are_unchanged():
    # values of the coupled full-space walk, one (4, N, count) draw per coarse step
    mc = McConfig(cfg=SphereConfig(N=4, t=1.0, k=2, ell=2), step_h=0.1,
                  n_paths=1100, seed=2**63 + 5)
    d1, d2 = mc_refinement_diffs(mc, (2, 0))
    assert d1.mean == float.fromhex("-0x1.d7936e788673dp-8")
    assert d1.stderr == float.fromhex("0x1.c37dd029adc42p-10")
    assert d2.mean == float.fromhex("-0x1.9b918fdbd3d37p-8")
    assert d2.stderr == float.fromhex("0x1.564fc7ee210a6p-10")


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_flat_in_steps():
    # 256 paths in N = 8: a (paths, steps) buffer would take 39 MiB at 20 000 steps;
    # the refinement's steps are its fine ones, four per coarse step
    cfg = SphereConfig(N=8, t=1.0, k=2, ell=2)
    peaks = []
    for steps in (500, 20_000):
        mc = McConfig(cfg=cfg, step_h=1.0 / steps, n_paths=256, seed=SEED)
        peaks.append(_traced_peak(lambda: mc_endpoints(mc, workers=1)))
    assert peaks[1] < 1.5 * peaks[0], peaks
    peaks = []
    for fine_steps in (500, 20_000):
        mc = McConfig(cfg=cfg, step_h=4.0 / fine_steps, n_paths=256, seed=SEED)
        peaks.append(_traced_peak(lambda: mc_refinement_diffs(mc, (2, 0))))
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_memory_does_not_grow_with_n_times_steps():
    # a (paths, steps, N) draw buffer would take 4 GiB here
    mc = McConfig(cfg=SphereConfig(N=4096, t=0.5, k=2, ell=2), step_h=1e-3,
                  n_paths=256, seed=SEED)
    assert len(mc.step_sizes()) == 500
    tracemalloc.start()
    try:
        ends = mc_endpoints(mc, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ends.shape == (256, 4096)
    assert peak < 4 * ends.nbytes


def test_different_seeds_decorrelate():
    a = mc_endpoints(make_mc(paths=64, seed=1), workers=1)
    b = mc_endpoints(make_mc(paths=64, seed=2), workers=1)
    assert not np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(ValueError):
        make_mc(h=0.0)
    with pytest.raises(ValueError):
        make_mc(t=0.5, h=0.7)
    with pytest.raises(ValueError):
        make_mc(paths=0)
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be finite"):
            SphereConfig(N=6, t=t, k=2, ell=4)
    with pytest.raises(ValueError, match="exceeds the double range"):
        make_mc(t=1e308, h=1e-3)  # t / h overflows to inf
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, stderr=-1.0, n_paths=10)
    with pytest.raises(ValueError):
        mc_moment(make_mc(n=6, k=2), (0,) * 6 + (2,))


# ----------------------------------------------------------------------
# statistical agreement (moderate sizes; three-sigma gates)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def medium_run():
    mc = make_mc(n=8, t=1.0, k=3, paths=20000, h=2e-3, ell=4)
    return mc, mc_endpoints(mc)


def test_first_coordinate_mean_vanishes(medium_run):
    mc, ends = medium_run
    est = mc_moment(mc, (1, 0, 0), endpoints=ends)
    assert abs(est.mean) <= 4 * est.stderr


def test_rest_second_moment(medium_run):
    mc, ends = medium_run
    est = mc_moment(mc, (0, 2, 0), endpoints=ends)
    exact = 1 - math.exp(-1.0)
    assert abs(est.mean - exact) <= 3 * est.stderr + 0.5 * mc.step_h


def test_first_second_moment_matches_eigen_route(medium_run):
    mc, ends = medium_run
    est = mc_moment(mc, (2, 0, 0), endpoints=ends)
    cfg1 = SphereConfig(N=8, t=1.0, k=1, ell=2)
    exact = heat_moment_monomial(cfg1, (2,), route="eigen").value
    assert abs(est.mean - exact) <= 3 * est.stderr + 0.5 * mc.step_h


def test_rotational_symmetry(medium_run):
    mc, ends = medium_run
    e2 = mc_moment(mc, (0, 2, 0), endpoints=ends)
    e3 = mc_moment(mc, (0, 0, 2), endpoints=ends)
    assert abs(e2.mean - e3.mean) <= 3 * (e2.stderr + e3.stderr)


def test_drift_of_shifted_coordinate():
    # E[x1 + m] / sqrt(N) should be exp((t/2)(-1 + 1/N))
    cfg = SphereConfig(N=3, t=1.0, k=2, ell=2)
    mc = McConfig(cfg=cfg, step_h=2e-3, n_paths=20000, seed=SEED)
    ends = mc_endpoints(mc)
    vals = (ends[:, 0] + cfg.m) / math.sqrt(3)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - math.exp(-1 / 3)) <= 3 * stderr + 2e-3


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_radial_step_equals_the_full_projected_step(n):
    # eta and chi are read off one explicit g, so both sides see the same step
    rng = np.random.default_rng(SEED + n)
    root_n, h = math.sqrt(n), 0.05
    for case in range(20):
        if case == 0:
            x = np.zeros(n)
            x[0] = root_n  # the pole, r = 0: any unit u in the tail will do
            u = np.eye(n - 1)[0]
        else:
            x = rng.standard_normal(n)
            x *= root_n / np.linalg.norm(x)
            u = x[1:] / np.linalg.norm(x[1:])
        g = rng.standard_normal(n)
        y, r = x[0], float(np.linalg.norm(x[1:]))
        tau = np.concatenate(([-r], y * u)) / root_n
        eta = g @ tau
        rest = g - (g @ x) * x / n - eta * tau
        chi = rest @ rest
        y_new, r_new = np.array([y]), np.array([r])
        _radial_step(y_new, r_new, np.array([math.sqrt(h / n) * eta]), np.array([h * chi]),
                     root_n)
        full = x[:, None].copy()
        _projected_step(full, g[:, None], h)
        full = full[:, 0]
        assert y_new[0] == pytest.approx(full[0], rel=0, abs=1e-13 * root_n)
        assert r_new[0] == pytest.approx(np.linalg.norm(full[1:]), rel=0, abs=1e-13 * root_n)


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (8, 2), (32, 2), (16, 3)],
                         ids=["3", "4", "8", "32", "16-k3"])
def test_reduced_walk_has_the_projection_walks_law(n, k):
    # same coarse step on both sides, so the O(h) bias must agree too
    paths, chunk = 40_000, 4_000
    cfg = SphereConfig(N=n, t=1.0, k=k, ell=4)
    mc = McConfig(cfg=cfg, step_h=0.05, n_paths=paths, seed=SEED)
    reduced = mc_endpoints(mc, workers=1)
    steps = mc.step_sizes()
    rng = np.random.default_rng(SEED + n)
    full = np.empty((paths, n))
    for lo in range(0, paths, chunk):
        start = np.zeros((chunk, n))
        start[:, 0] = math.sqrt(n)
        normals = rng.standard_normal((chunk, len(steps), n))
        for j, h in enumerate(steps):
            _projected_step(start.T, normals[:, j].T, h)
        full[lo:lo + chunk] = start
    full[:, 0] -= cfg.m
    for alpha in itertools.product(range(5), repeat=k):
        if not 1 <= sum(alpha) <= 4:
            continue
        e1 = mc_moment(mc, alpha, endpoints=reduced)
        e2 = mc_moment(mc, alpha, endpoints=full)
        z = (e1.mean - e2.mean) / math.hypot(e1.stderr, e2.stderr)
        assert abs(z) <= 4, (alpha, e1, e2)


def test_endpoints_do_not_depend_on_k():
    ends = [mc_endpoints(make_mc(n=6, k=k, paths=300), workers=1) for k in (1, 2, 3)]
    assert np.array_equal(ends[0], ends[1])
    assert np.array_equal(ends[0], ends[2])


def test_moment_takes_monomials_longer_than_k():
    # every endpoint carries all N coordinates, so only N limits the monomial
    a, b = (mc_moment(make_mc(n=6, k=k, paths=300), (0, 0, 2), workers=1) for k in (2, 3))
    assert a == b and a.n_paths == 300


def test_shared_ensemble_equals_individual_calls():
    mc = make_mc(paths=1000)
    endpoints = mc_endpoints(mc)
    for alpha in ((1, 0), (0, 2)):
        assert mc_moment(mc, alpha, endpoints=endpoints) == mc_moment(mc, alpha)


def test_discretization_bias_is_first_order():
    # coupled h vs h/2 vs h/4 differences; their means are ~C h/2 and ~C h/4
    mc = McConfig(
        cfg=SphereConfig(N=4, t=1.0, k=2, ell=2),
        step_h=0.1,
        n_paths=60000,
        seed=SEED,
    )
    d1, d2 = mc_refinement_diffs(mc, (2, 0))
    assert abs(d1.mean) > 5 * d1.stderr, "bias difference not resolved"
    assert abs(d2.mean) > 5 * d2.stderr, "bias difference not resolved"
    assert 1.5 <= d1.mean / d2.mean <= 2.5


def test_refinement_requires_divisible_time():
    mc = McConfig(
        cfg=SphereConfig(N=4, t=0.35, k=2, ell=2), step_h=0.1, n_paths=16, seed=1
    )
    with pytest.raises(ValueError):
        mc_refinement_diffs(mc, (2, 0))


def test_estimate_fields(medium_run):
    mc, ends = medium_run
    est = mc_moment(mc, (0, 2, 0), endpoints=ends)
    assert est.n_paths == mc.n_paths
    assert est.stderr > 0
    assert "O(step_h)" in est.bias_note
