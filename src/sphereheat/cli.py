"""Command-line front end: moments, convergence studies, verification.

Subcommands:

* ``moment``  one monomial at one (N, t), any subset of routes
* ``study``   grid over monomials x N values x t values x routes, CSV out
* ``verify``  run the invariant suites, nonzero exit on failure
* ``mc``      one cell on routes mc and eigen: an estimate and the exact moment
* ``pde``     residual and spectral checks of the 1-D parabolic factors

Flags may also be supplied through ``--config FILE`` holding one
``key=value`` assignment per line (UTF-8, ``#`` comments), read as the
subcommand's own flag ``--key=value``; explicit flags win, and a key that is
not a flag of the subcommand is a usage error, as is an abbreviated flag or
key.  A grid has as many coordinates as its longest monomial.  A study
evaluates each (monomial, route) as one batch over its (N, t) cells, one
:func:`sphereheat.heatop.heat_moments` call under the route's own name,
and each cell comes out as it would alone; ``mc`` cells run one after
another, and ``SPHEREHEAT_THREADS`` sizes only the process pool of an
``mc`` cell.  Floats are printed with 17 significant digits, a fixed
seed makes reruns byte-identical, and a cell refused by a ValueError keeps
its reason, which ``moment`` and ``study`` print (the latter on stderr, so
the CSV does not change) and ``mc`` reports as an error.  A study takes each
limit once per (monomial, t), and fits each rate in closed form.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import verify as verify_mod
from .gaussian_limit import gaussian_moment
from .heatop import heat_moments
from .operators import SphereConfig
from .pde_appendix import (
    FIRST_COORDINATE,
    OTHER_COORDINATE,
    grid_mass,
    mollified_delta_solution,
    residual,
    spectral_evolve,
)
from .polyalg import Polynomial
from .sphere_mc import McConfig, McEstimate, mc_moment

CSV_HEADER = [
    "monomial", "N", "t", "route", "value", "limit", "abs_error", "stderr", "fitted_rate",
]
ALL_ROUTES = ("matexp", "series", "eigen", "mc")
DEFAULT_ROUTES = ("eigen",)  # of moment and study: the exact route


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class StudySpec:
    """One study grid; every (monomial, N, t, route) cell becomes a CSV row."""

    monomials: list[tuple[int, ...]]
    n_values: list[int]
    t_values: list[float]
    routes: list[str]
    paths: int = 20000
    step: float = 1e-3
    seed: int = 0
    out: str | None = None
    precision: str = "double"  # or "extended", for the benchmark's study grid (c)

    def __post_init__(self):
        if not self.monomials:
            raise ValueError("at least one monomial is required")
        for r in self.routes:
            if r not in ALL_ROUTES:
                raise ValueError(f"unknown route {r!r}")
        if not all(0 < t < math.inf for t in self.t_values):
            raise ValueError("t values must be positive and finite")
        if self.precision not in ("double", "extended"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.precision == "extended" and "series" in self.routes:
            raise ValueError("extended precision is provided for the matexp route")
        k = max(len(a) for a in self.monomials)
        self.monomials = [tuple(a) + (0,) * (k - len(a)) for a in self.monomials]
        for name, values in (("monomial", self.monomials), ("N", self.n_values),
                             ("t", self.t_values), ("route", self.routes)):
            for i, v in enumerate(values):
                if v in values[:i]:  # a repeated value would repeat rows and skew the fits
                    raise ValueError(f"{name} {v} is listed twice")
        for n in self.n_values:
            if n <= k:
                raise ValueError(f"N={n} must exceed the monomial length {k}")


@dataclass
class StudyRow:
    monomial: tuple[int, ...]
    N: int
    t: float
    route: str
    value: float | None
    limit: float
    stderr: float | None = None
    fitted_rate: float | None = field(default=None)
    reason: str | None = None  # why value is None; never written to the CSV

    @property
    def abs_error(self) -> float | None:
        if self.value is None:
            return None
        return abs(self.value - self.limit)

    def to_csv(self) -> list[str]:
        return [
            ",".join(str(e) for e in self.monomial),
            str(self.N),
            _fmt(self.t),
            self.route,
            _fmt(self.value) if self.value is not None else "failed",
            _fmt(self.limit),
            _fmt(self.abs_error) if self.value is not None else "",
            _fmt(self.stderr) if self.stderr is not None else "",
            _fmt(self.fitted_rate) if self.fitted_rate is not None else "",
        ]


def _route_values(
    spec: StudySpec, alpha: tuple[int, ...], route: str, cells: list[tuple[int, float]]
) -> list[tuple[float | None, float | None, str | None]]:
    """(value, stderr, reason) of each (N, t) cell of one monomial on one route;
    value None marks a failed cell, reason says why.  The cells of a
    deterministic route are one :func:`heat_moments` batch."""
    ell = max(map(sum, spec.monomials))
    cfgs = [SphereConfig(N=n, t=t, k=len(alpha), ell=ell) for n, t in cells]
    if route == "mc":
        out = []
        for cfg in cfgs:
            try:
                est = mc_moment(McConfig(cfg=cfg, step_h=spec.step, n_paths=spec.paths,
                                         seed=spec.seed), alpha)
                out.append((est.mean, est.stderr, None))
            except ValueError as exc:
                out.append((None, None, str(exc)))
        return out
    # precision "extended" runs the matexp rows on the eigen route; they keep the label matexp
    route = "eigen" if route == "matexp" and spec.precision == "extended" else route
    try:
        results = heat_moments(cfgs, Polynomial.monomial(alpha), route)
    except ValueError as exc:
        results = [exc] * len(cfgs)
    return [(None, None, str(r)) if isinstance(r, Exception) else (r.value, None, None)
            for r in results]


def run_study(spec: StudySpec) -> list[StudyRow]:
    """Compute all grid cells, each (monomial, route) as one batch over its
    (N, t) cells, in canonical row order."""
    rows = []
    cells = list(itertools.product(spec.n_values, spec.t_values))
    limits = {(alpha, t): gaussian_moment(alpha, t) for alpha in spec.monomials
              for t in spec.t_values}
    for alpha, route in itertools.product(spec.monomials, spec.routes):
        for (n, t), (value, stderr, reason) in zip(cells, _route_values(spec, alpha, route, cells)):
            rows.append(StudyRow(alpha, n, t, route, value, limits[alpha, t],
                                 stderr=stderr, reason=reason))
    rows.sort(key=lambda r: (r.monomial, r.N, r.t, r.route))
    _fill_rates(rows)
    return rows


def _fill_rates(rows: list[StudyRow]) -> None:
    """Fit err ~ C N^(-rate) per (monomial, t, route) to the rows of finite positive
    err, least squares in closed form over math.fsum sums; annotate the largest N."""
    groups: dict[tuple, list[StudyRow]] = {}
    for r in rows:
        if r.abs_error is not None and 0 < r.abs_error < math.inf:
            groups.setdefault((r.monomial, r.t, r.route), []).append(r)
    for group in groups.values():
        if len({r.N for r in group}) < 2:
            continue
        x = [math.log(r.N) for r in group]
        y = [math.log(r.abs_error) for r in group]
        x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
        dx = [a - x_mean for a in x]
        slope = (math.fsum(d * (b - y_mean) for d, b in zip(dx, y))
                 / math.fsum(d * d for d in dx))
        max(group, key=lambda r: r.N).fitted_rate = -slope


def write_csv(rows: list[StudyRow], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(r.to_csv())


# ----------------------------------------------------------------------
# argument handling
# ----------------------------------------------------------------------


def _parse_monomial(text: str) -> tuple[int, ...]:
    try:
        alpha = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad monomial {text!r}; use e.g. 2,0")
    if not alpha or any(e < 0 for e in alpha):
        raise argparse.ArgumentTypeError(f"bad monomial {text!r}")
    return alpha


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def _parse_float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def _read_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill the flags the command line left unset from ``args.config``, each
    ``key=value`` line parsed as the subcommand's flag ``--key=value``."""
    tokens = []
    with open(args.config, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}; expected key=value")
            key, _, val = line.partition("=")
            tokens.append(f"--{key.strip()}={val.strip()}")
    from_file = parser.parse_args([args.command, *tokens])
    if from_file.config is not None:
        parser.error("a config file cannot name another config file")
    for key, value in vars(from_file).items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereheat", allow_abbrev=False,
        description="heat-kernel moments on shifted spheres and their Gaussian limit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    command = functools.partial(sub.add_parser, allow_abbrev=False)
    def grid_flags(p, one_cell=False):  # one_cell: one cell on fixed routes, as mc
        p.add_argument("--monomial", type=_parse_monomial, action="append",
                       help="comma-separated exponents, e.g. 2,0"
                            + ("" if one_cell else " (repeatable)"))
        values, mc_only = ("one value", "") if one_cell else ("comma list", " (mc route only)")
        p.add_argument("--N", type=_parse_int_list, help=f"sphere parameter N, {values}")
        p.add_argument("--t", type=_parse_float_list, help=f"time t, {values}")
        if not one_cell:
            p.add_argument("--routes", type=lambda s: s.split(","), help=f"subset of "
                           f"{','.join(ALL_ROUTES)} (default: {','.join(DEFAULT_ROUTES)})")
        p.add_argument("--paths", type=int, help="Monte Carlo path count" + mc_only)
        p.add_argument("--step", type=float, help="Monte Carlo time step" + mc_only)
        p.add_argument("--seed", type=int, help="Monte Carlo random seed" + mc_only)

    grid_flags(command("moment", help="one moment at one configuration"))
    p_study = command("study", help="convergence study over a grid")
    grid_flags(p_study)
    p_study.add_argument("--out", help="output CSV path")

    p_verify = command("verify", help="run invariant suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=verify_mod.SUITES + ("all",))

    grid_flags(command("mc", help="Monte Carlo estimate with reference value"), one_cell=True)

    p_pde = command("pde", help="checks of the 1-D parabolic factors")
    p_pde.add_argument("--t", type=_parse_float_list, help="time value(s)")

    for p in sub.choices.values():
        p.add_argument("--config", help="key=value config file")
    return parser


def _make_spec(args, **defaults) -> StudySpec:
    """The grid of the flags given, over ``defaults``, over N = 16 and t = 1,
    and over StudySpec's own defaults."""
    fields = {"monomial": "monomials", "N": "n_values", "t": "t_values"}
    given = {fields.get(key, key): value for key, value in vars(args).items()
             if value is not None and key not in ("command", "config")}
    return StudySpec(**{"monomials": [], "n_values": [16], "t_values": [1.0],
                        **defaults, **given})


def cmd_moment(args) -> int:
    spec = _make_spec(args, routes=list(DEFAULT_ROUTES))
    rows = run_study(spec)
    for r in rows:
        if r.value is None:
            print(f"{r.route:7s} monomial=({','.join(map(str, r.monomial))}) "
                  f"N={r.N} t={_fmt(r.t)}  FAILED ({r.reason})")
            continue
        extra = f"  stderr={_fmt(r.stderr)}" if r.stderr is not None else ""
        print(f"{r.route:7s} monomial=({','.join(map(str, r.monomial))}) "
              f"N={r.N} t={_fmt(r.t)}  value={_fmt(r.value)}  "
              f"limit={_fmt(r.limit)}  abs_error={_fmt(r.abs_error)}{extra}")
    return 0


def cmd_study(args) -> int:
    spec = _make_spec(args, routes=list(DEFAULT_ROUTES))
    rows = run_study(spec)
    if spec.out:
        with open(spec.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, fh)
        print(f"wrote {len(rows)} rows to {spec.out}")
    else:
        write_csv(rows, sys.stdout)
    failed = [r for r in rows if r.value is None]
    for r in failed:
        print(f"failed: ({','.join(map(str, r.monomial))}) N={r.N} t={_fmt(r.t)} "
              f"{r.route}: {r.reason}", file=sys.stderr)
    fitted = [r.fitted_rate for r in rows if r.fitted_rate is not None]
    if fitted:
        print(f"fitted decay rates: {', '.join(_fmt(x) for x in fitted)}")
    if failed:
        print(f"{len(failed)} route cells failed")
    return 0


def cmd_verify(args) -> int:
    suites = verify_mod.SUITES if args.suite == "all" else (args.suite,)
    all_ok = True
    for name in suites:
        results = verify_mod.run_suite(name)
        print(f"[{name}]")
        for r in results:
            print(f"  {r.status:4s} {r.name}  ({r.detail})")
            all_ok &= r.ok
    print("verification:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def cmd_mc(args) -> int:
    spec = _make_spec(args, monomials=[(0, 2)], n_values=[8], routes=["mc", "eigen"])
    if len(spec.monomials) * len(spec.n_values) * len(spec.t_values) > 1:
        raise ValueError("mc estimates one cell: give one monomial, one N and one t")
    ref, est = run_study(spec)  # rows sort by route: eigen, then mc
    for r in (ref, est):
        if r.value is None:
            raise ValueError(r.reason)
    z = abs(est.value - ref.value) / est.stderr if est.stderr else float("inf")
    print(f"monomial=({','.join(map(str, est.monomial))}) N={est.N} t={_fmt(est.t)} "
          f"paths={spec.paths} step={_fmt(spec.step)} seed={spec.seed}")
    print(f"estimate = {_fmt(est.value)} +- {_fmt(est.stderr)}")
    print(f"exact    = {_fmt(ref.value)}   (eigen route, exact exp-sum; "
          f"{z:.2f} standard errors away)")
    print(f"note: {McEstimate.bias_note}")
    return 0


def cmd_pde(args) -> int:
    times = args.t or [0.1, 1.0, 4.0]
    grid = np.linspace(-5.0, 5.0, 101)
    wide = np.linspace(-9.0, 9.0, 1201)
    for variant, name in ((FIRST_COORDINATE, "first-coordinate"),
                          (OTHER_COORDINATE, "other-coordinate")):
        print(f"[{name}]")
        for t in times:
            res = max(residual(variant, t, x, 1e-3) for x in (0.0, 1.0, -3.0))
            print(f"  t={_fmt(t)}: max residual (h=1e-3) = {res:.3e}")
        u = mollified_delta_solution(variant, 1.0, grid)
        closed = np.array([variant.closed_form(1.0, float(x)) for x in grid])
        print(f"  spectral-vs-closed max deviation at t=1: {np.max(np.abs(u - closed)):.3e}")
        masses = [grid_mass(spectral_evolve(variant, 1e-3, t, wide), wide)
                  for t in (0.3, 1.0, 3.0)]
        print(f"  mass drift: {max(abs(m - masses[0]) for m in masses):.3e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"moment": cmd_moment, "study": cmd_study, "verify": cmd_verify,
                "mc": cmd_mc, "pde": cmd_pde}
    try:
        if args.config:
            _read_config(args, parser)
        return commands[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
