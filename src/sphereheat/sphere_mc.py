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

Randomness is drawn per batch, in blocks of steps.  Path p is row
p mod _BATCH of batch b = p // _BATCH, and batch b of a run seeded with s
reads three SFC64 streams seeded by ``SeedSequence([s mod 2^64, b, i])``:
i = 0 for eta (:func:`path_generator`), 1 for chi and 2 for z.  It draws z
as one (count, N-1) block, then, per block of up to ``_BLOCK`` steps, one
(steps, count) ``standard_normal`` for eta and one
``standard_gamma((N-2)/2)`` times 2h for chi (none when N = 2), equal bit
for bit to ``chisquare(N-2, count)`` drawn step by step.  No buffer grows
with the step count.  Estimates are bitwise reproducible however batches
are scheduled over workers, and a full batch does not depend on n_paths;
a path's values do depend on the rest of its batch.  The coupled
refinement (:func:`mc_refinement_diffs`) walks in the full space, because
its coarse increments are sums of fine N-dimensional ones, on
coordinate-major (N, count) arrays; each coarse step draws a (4, N, count)
block of fine normals from stream 0.  Only a run on more than one worker
imports the process pool.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .operators import SphereConfig

_BATCH = 4096  # paths per batch of streams; fixed, so results never depend on scheduling
_BLOCK = 16  # steps per draw call; the draw buffers are (_BLOCK, count)


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
        if not math.isfinite(self.cfg.t / self.step_h):
            raise ValueError(f"t / step_h = {self.cfg.t} / {self.step_h} exceeds the double range")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")

    def steps(self) -> Iterator[float]:
        """Step lengths summing exactly to t (last one possibly shorter), one at a time."""
        t, h = self.cfg.t, self.step_h
        if t == 0:
            return iter(())
        n_full = int(t / h + 1e-9)
        rem = t - n_full * h
        return itertools.chain(itertools.repeat(h, n_full), [rem] if rem > 1e-9 * h else [])

    def step_sizes(self) -> np.ndarray:
        """The step lengths of :meth:`steps` as an array."""
        return np.fromiter(self.steps(), dtype=float)


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of an observable with its standard error."""

    mean: float
    stderr: float
    n_paths: int
    bias_note: ClassVar[str] = "tangential-projection walk, weak discretization bias O(step_h)"

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def path_generator(seed: int, batch_index: int, stream: int = 0) -> np.random.Generator:
    """Stream ``stream`` of one batch, keyed by (seed, batch_index): 0 eta, 1 chi, 2 z."""
    entropy = [int(seed) % 2**64, int(batch_index), stream]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


def _batch_streams(seed: int, batch: int) -> tuple[np.random.Generator, ...]:
    """The eta, chi and z streams of one batch, as the module docstring gives them."""
    return tuple(path_generator(seed, batch, i) for i in range(3))


def _projected_step(x: np.ndarray, g: np.ndarray, h: float) -> None:
    """One projection-walk step of length h for the (N, P) points x, in place."""
    n = x.shape[0]
    coef = np.einsum("ij,ij->j", x, g)
    coef /= n
    step = g - coef * x
    step *= math.sqrt(h)
    x += step
    scale = np.einsum("ij,ij->j", x, x)
    np.sqrt(scale, out=scale)
    x *= math.sqrt(n) / scale


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


def _reduced_endpoints(mc: McConfig, batch: int, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the unshifted endpoints of the paths of one batch.

    ``out`` has one row per path of the batch, and the draws follow the
    layout the module docstring gives.
    """
    n = mc.cfg.N
    count = out.shape[0]
    eta, chi, zs = _batch_streams(mc.seed, batch)
    z = zs.standard_normal((count, n - 1))
    root_n = math.sqrt(n)
    y = np.full(count, root_n)
    r = np.zeros(count)
    s = np.empty((_BLOCK, count))
    h_chi = np.zeros((_BLOCK, count))
    steps = mc.steps()
    while block := list(itertools.islice(steps, _BLOCK)):
        nsteps = len(block)
        h = np.array(block)[:, None]  # one step length per row
        eta.standard_normal(out=s[:nsteps])
        s[:nsteps] *= np.sqrt(h / n)
        if n > 2:
            chi.standard_gamma((n - 2) / 2, out=h_chi[:nsteps])
            h_chi[:nsteps] *= 2 * h
        for j in range(nsteps):
            _radial_step(y, r, s[j], h_chi[j], root_n)
    r /= np.sqrt(np.einsum("ij,ij->i", z, z))
    out[:, 0] = y - mc.cfg.m
    np.multiply(z, r[:, None], out=out[:, 1:])
    return out


def _endpoint_batch(mc: McConfig, batch: int) -> np.ndarray:
    count = min(_BATCH, mc.n_paths - batch * _BATCH)
    return _reduced_endpoints(mc, batch, np.empty((count, mc.cfg.N)))


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be a positive integer, not {workers!r}")
        return workers
    env = os.environ.get("SPHEREHEAT_THREADS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"SPHEREHEAT_THREADS must be a positive integer, not {env!r}")
        return int(env)
    return os.cpu_count() or 1


def mc_endpoints(mc: McConfig, workers: int | None = None) -> np.ndarray:
    """(n_paths, N) endpoints in unshifted coordinates.

    Batches run in index order, or on a process pool; per-batch streams
    make the output independent of the worker count.
    """
    batches = range(-(-mc.n_paths // _BATCH))
    out = np.empty((mc.n_paths, mc.cfg.N))
    nworkers = _worker_count(workers)
    if nworkers <= 1 or len(batches) <= 1:
        for b in batches:
            _reduced_endpoints(mc, b, out[b * _BATCH:(b + 1) * _BATCH])
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            for b, block in zip(batches, pool.map(_endpoint_batch, itertools.repeat(mc), batches)):
                out[b * _BATCH:(b + 1) * _BATCH] = block
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
    diffs_coarse = np.empty(mc.n_paths)
    diffs_mid = np.empty(mc.n_paths)
    root2 = math.sqrt(2.0)
    for b, lo in enumerate(range(0, mc.n_paths, _BATCH)):
        count = min(_BATCH, mc.n_paths - lo)
        gen = path_generator(mc.seed, b)
        coarse, mid, fine = (np.zeros((cfg.N, count)) for _ in range(3))
        for x in (coarse, mid, fine):
            x[0] = math.sqrt(cfg.N)
        normals = np.empty((4, cfg.N, count))
        for _ in range(n0):
            gen.standard_normal(out=normals)
            # renormalized pairwise sums keep unit variance at coarser levels
            halves = (normals[0::2] + normals[1::2]) / root2
            for g in normals:
                _projected_step(fine, g, h / 4)
            for g in halves:
                _projected_step(mid, g, h / 2)
            _projected_step(coarse, (halves[0] + halves[1]) / root2, h)
        ends = []
        for x in (coarse, mid, fine):
            x[0] -= cfg.m
            ends.append(_monomial_values(x.T, alpha))
        diffs_coarse[lo:lo + count] = ends[0] - ends[1]
        diffs_mid[lo:lo + count] = ends[1] - ends[2]
    return _estimate(diffs_coarse), _estimate(diffs_mid)
