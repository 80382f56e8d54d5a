"""Monte Carlo simulation of Brownian motion on the shifted sphere.

Independent stochastic oracle for the heat-kernel moments: paths start at
the base point (first shifted coordinate sqrt(N), rest zero) and evolve by
the tangential-projection walk, i.e. each step adds sqrt(h) times a
standard Gaussian vector projected onto the tangent space and rescales back
to radius sqrt(N).  The scheme's weak discretization bias is O(h).

The heat kernel based at the pole is invariant under the rotations that
fix the x1 axis, so the walk runs on the 1-D state (y, r), y = x1 and
r = |x_(2..N)|, and a step costs O(1) whatever N and k are.  Let
tau = (-r, y) / sqrt(N) be the unit tangent in the plane of e1 and the
current point, and split the step's Gaussian vector into its component
along the point (which the projection removes), eta = g . tau ~ N(0, 1),
and the rest, orthogonal to both e1 and the point, whose squared length is
chi ~ chi^2_(N-2), independent of eta.  With s = sqrt(h/N) eta, one step of
length h is

    y'  = y - s r
    r'2 = (r + s y)^2 + h chi

followed by rescaling y' and r' by sqrt(N) / sqrt(y'^2 + r'2).  This is
the full walk's law for (x1, |x_(2..N)|) exactly, also at the pole r = 0;
that law is invariant under rotations of the tail block, so the tail's
direction is uniform and independent of (y, r), and the endpoint's tail is
built once per path as r z / |z| with z ~ N(0, I_(N-1)).  The walk does
not depend on k, and :func:`mc_moment` takes any monomial in at most N
coordinates.

Randomness is counter-based: path p of a run seeded with s draws from a
Philox stream keyed by (s, p), in a fixed order: the steps' normals eta,
then chisquare(N-2, steps) (skipped when N = 2), then the N-1 normals of
z.  Estimates are therefore bitwise reproducible no matter how paths are
batched or distributed over workers.  The coupled refinement
(:func:`mc_refinement_diffs`) still walks in the full space, because its
coarse increments are sums of fine N-dimensional ones.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .operators import SphereConfig

_BATCH = 1024  # paths per draw buffer; fixed so batching never affects results


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo run: sphere/time parameters, step size, paths, seed."""

    cfg: SphereConfig
    step_h: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.step_h <= 0:
            raise ValueError("step_h must be positive")
        if self.cfg.t > 0 and self.step_h > self.cfg.t:
            raise ValueError("step_h must not exceed t")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")

    def step_sizes(self) -> np.ndarray:
        """Step lengths summing exactly to t (last one possibly shorter)."""
        t, h = self.cfg.t, self.step_h
        if t == 0:
            return np.zeros(0)
        n_full = int(t / h + 1e-9)
        rem = t - n_full * h
        if rem > 1e-9 * h:
            return np.array([h] * n_full + [rem])
        return np.full(n_full, h)


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of an observable with its standard error."""

    mean: float
    stderr: float
    n_paths: int
    bias_note: str = field(
        default="tangential-projection walk, weak discretization bias O(step_h)"
    )

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream for one path, keyed by (seed, path_index)."""
    key = (int(seed) % 2**64) * 2**64 + int(path_index)
    return np.random.Generator(np.random.Philox(key=key))


def _walk(start: np.ndarray, normals: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Evolve (P, N) starting points by the projection walk, in place."""
    x = start
    radius = float(np.linalg.norm(start[0]))  # sqrt(N)
    nsq = radius * radius
    for s, h in enumerate(steps):
        g = normals[:, s, :]
        coef = np.einsum("ij,ij->i", x, g)
        coef /= nsq
        step = g - coef[:, None] * x
        step *= math.sqrt(h)
        x += step
        scale = np.einsum("ij,ij->i", x, x)
        np.sqrt(scale, out=scale)
        x *= (radius / scale)[:, None]
    return x


def _path_streams(seed: int, lo: int, hi: int):
    """The streams of paths lo..hi-1, equal bit for bit to :func:`path_generator`.

    One Philox is built and its state reset to each key with a zero counter,
    which is several times cheaper than building a keyed Philox per path.
    The same generator object is yielded each time, so use each stream up
    before advancing.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    high = (int(seed) % 2**64) * 2**64
    for p in range(lo, hi):
        key = high + p
        state["state"]["key"] = np.array([key % 2**64, key >> 64], dtype=np.uint64)
        bitgen.state = state
        yield gen


def _radial_step(y: np.ndarray, r: np.ndarray, s: np.ndarray, h_chi: np.ndarray,
                 root_n: float) -> None:
    """One step of the 1-D walk on (y, r), in place; ``s`` is overwritten.

    ``s`` holds sqrt(h/N) eta and ``h_chi`` holds h chi, as in the module
    docstring.
    """
    a = s * y
    a += r
    s *= r
    y -= s
    a *= a
    a += h_chi  # r'^2
    scale = y * y
    scale += a
    np.sqrt(scale, out=scale)
    np.divide(root_n, scale, out=scale)
    y *= scale
    np.sqrt(a, out=r)
    r *= scale


def _reduced_endpoints(mc: McConfig, streams, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the endpoints of the paths drawn from ``streams``.

    Row i of ``out`` (shape (paths, N)) gets the unshifted endpoint of the
    walk driven by the i-th stream, read in the layout the module docstring
    gives.  Every operation is elementwise across paths, so a row does not
    depend on how many paths share the call.
    """
    cfg = mc.cfg
    n = cfg.N
    steps = mc.step_sizes()
    count = out.shape[0]
    # path-major, as drawn; step j reads column j, so nothing is transposed
    s = np.empty((count, len(steps)))
    h_chi = np.zeros((count, len(steps)))
    for i, gen in enumerate(streams):
        gen.standard_normal(out=s[i])  # eta
        if n > 2:
            h_chi[i] = gen.chisquare(n - 2, len(steps))
        z = out[i, 1:]
        gen.standard_normal(out=z)
        z /= math.sqrt(np.sum(z * z))
    s *= np.sqrt(steps / n)
    h_chi *= steps

    root_n = math.sqrt(n)
    y = np.full(count, root_n)
    r = np.zeros(count)
    for j in range(len(steps)):
        _radial_step(y, r, s[:, j], h_chi[:, j], root_n)
    out[:, 0] = y - cfg.m
    out[:, 1:] *= r[:, None]
    return out


def simulate_endpoint(mc: McConfig, rng_stream: np.random.Generator) -> np.ndarray:
    """Endpoint of one path, in unshifted coordinates.

    ``rng_stream`` should come from :func:`path_generator` so the result
    matches the corresponding path of a batched run bit for bit.  After the
    walk the first coordinate is translated by -m(t, N).
    """
    return _reduced_endpoints(mc, [rng_stream], np.empty((1, mc.cfg.N)))[0]


def _endpoint_batch(mc: McConfig, lo: int, hi: int) -> np.ndarray:
    out = np.empty((hi - lo, mc.cfg.N))
    return _reduced_endpoints(mc, _path_streams(mc.seed, lo, hi), out)


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("SPHEREHEAT_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def mc_endpoints(mc: McConfig, workers: int | None = None) -> np.ndarray:
    """(n_paths, N) endpoints in unshifted coordinates.

    Work is split into fixed-size batches processed in index order (or by a
    process pool); per-path streams make the output independent of the
    worker count.
    """
    ranges = [
        (lo, min(lo + _BATCH, mc.n_paths)) for lo in range(0, mc.n_paths, _BATCH)
    ]
    out = np.empty((mc.n_paths, mc.cfg.N))
    nworkers = _worker_count(workers)
    if nworkers <= 1 or len(ranges) <= 1:
        for lo, hi in ranges:
            _reduced_endpoints(mc, _path_streams(mc.seed, lo, hi), out[lo:hi])
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            futures = [pool.submit(_endpoint_batch, mc, lo, hi) for lo, hi in ranges]
            for (lo, hi), f in zip(ranges, futures):
                out[lo:hi] = f.result()
    return out


def _monomial_values(points: np.ndarray, alpha: Sequence[int]) -> np.ndarray:
    vals = np.ones(points.shape[0])
    for j, n in enumerate(alpha):
        if n:
            vals = vals * points[:, j] ** n
    return vals


def _estimate(vals: np.ndarray) -> McEstimate:
    n = len(vals)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, n_paths=n)


def mc_moment(
    mc: McConfig,
    alpha: Sequence[int],
    workers: int | None = None,
    endpoints: np.ndarray | None = None,
) -> McEstimate:
    """Estimate the heat-kernel moment of x^alpha from endpoint samples.

    Deterministic for a fixed (mc, alpha); precomputed ``endpoints`` from
    :func:`mc_endpoints` may be passed to share one ensemble across several
    observables.
    """
    if len(alpha) > mc.cfg.N:
        raise ValueError("monomial uses more coordinates than the sphere has")
    if endpoints is None:
        endpoints = mc_endpoints(mc, workers=workers)
    return _estimate(_monomial_values(endpoints, alpha))


def mc_refinement_diffs(
    mc: McConfig, alpha: Sequence[int]
) -> tuple[McEstimate, McEstimate]:
    """Coupled estimates of f(X_h) - f(X_(h/2)) and f(X_(h/2)) - f(X_(h/4)).

    All three walks are driven by the same Brownian increments (coarse
    Gaussians are renormalized sums of fine ones), which shrinks the
    variance of the differences enough to resolve the O(h) bias at modest
    path counts.  The mean ratio of the two differences is ~2 for a
    first-order scheme.  Requires t to be an integer multiple of step_h.
    """
    cfg = mc.cfg
    h = mc.step_h
    n0 = round(cfg.t / h)
    if abs(n0 * h - cfg.t) > 1e-9 * max(1.0, cfg.t):
        raise ValueError("refinement requires t to be a multiple of step_h")
    n_fine = 4 * n0

    diffs_coarse = np.empty(mc.n_paths)
    diffs_mid = np.empty(mc.n_paths)
    start0 = np.zeros(cfg.N)
    start0[0] = math.sqrt(cfg.N)

    ranges = [
        (lo, min(lo + _BATCH, mc.n_paths)) for lo in range(0, mc.n_paths, _BATCH)
    ]
    for lo, hi in ranges:
        count = hi - lo
        fine = np.empty((count, n_fine, cfg.N))
        for i, gen in enumerate(_path_streams(mc.seed, lo, hi)):
            gen.standard_normal(out=fine[i])
        # renormalized pairwise sums keep unit variance at coarser levels
        mid = (fine[:, 0::2, :] + fine[:, 1::2, :]) / math.sqrt(2.0)
        coarse = (mid[:, 0::2, :] + mid[:, 1::2, :]) / math.sqrt(2.0)
        ends = {}
        for label, normals, step in (
            ("h", coarse, h),
            ("h/2", mid, h / 2),
            ("h/4", fine, h / 4),
        ):
            start = np.tile(start0, (count, 1))
            e = _walk(start, normals, np.full(normals.shape[1], step))
            e[:, 0] -= cfg.m
            ends[label] = _monomial_values(e, alpha)
        diffs_coarse[lo:hi] = ends["h"] - ends["h/2"]
        diffs_mid[lo:hi] = ends["h/2"] - ends["h/4"]
    return _estimate(diffs_coarse), _estimate(diffs_mid)
