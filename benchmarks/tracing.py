"""Spans around the calls into each sphereheat layer, for the traced run.

The package itself carries no tracing.  ``instrument`` replaces selected
public functions of its modules by wrappers that record a span (name, start,
end, parent span, attributes) and restores them afterwards.  A function that
other modules imported by name is replaced under every name that refers to
it, so ``cli``'s own reference to ``gaussian_moment`` or ``verify``'s
reference to ``mc_endpoints`` is traced as well.  Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

import oracle

SUITES = ("operators", "eigen", "gaussian", "pde", "mc")

# (module, function, span name, attributes taken from (arguments, result))
TRACED = [
    ("cli", "run_study", "cli.run_study", lambda a, r: {"rows": len(r)}),
    ("cli", "write_csv", "cli.write_csv", None),
    ("heatop", "heat_moment", "heatop.moment", lambda a, r: {
        "route": a["route"], "precision": a["precision"], "alpha": list(r.monomial or ()),
        "N": r.config.N, "t": r.config.t, "value": r.value, "bound": r.error_bound}),
    ("heatop", "heat_apply_matexp", "heatop.expm", lambda a, r: {"precision": a["precision"]}),
    ("eigenmethod", "finite_moment_x1", "eigenmethod.assemble", lambda a, r: {"n": a["n"], "N": a["N"]}),
    ("gaussian_limit", "gaussian_moment", "gaussian_limit.moment", None),
    ("gaussian_limit", "integrate_gaussian_decay", "gaussian_limit.quadrature", None),
    ("sphere_mc", "mc_moment", "sphere_mc.estimate", None),
    ("sphere_mc", "mc_refinement_diffs", "sphere_mc.refine", None),
    ("pde_appendix", "spectral_evolve", "pde_appendix.spectral", None),
    ("pde_appendix", "residual", "pde_appendix.residual", None),
    ("polyalg", "shift_first_variable_powers", "polyalg.shift", None),
] + [
    ("verify", f"run_{suite}_suite", f"verify.{suite}", lambda a, r: {"checks": len(r)})
    for suite in SUITES
]

# memoized operator constructors: a call that misses the cache is a cold build
MEMOIZED_OPERATORS = ["_laplacian_cached", "build_D", "build_E", "build_hermite_limit"]


class Tracer:
    """In-memory span recorder for one thread of work."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh, default=str)


def _replace_everywhere(modules, original, replacement, undo) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def _spanned(tracer: Tracer, name: str, fn, describe):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["attrs"].update(describe(bound.arguments, result))
        return result

    return wrapper


def _build_spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        misses = fn.cache_info().misses
        with tracer.span("operators.build", constructor=name) as rec:
            result = fn(*args, **kwargs)
            rec["attrs"].update(cold=fn.cache_info().misses > misses, dim=result.dimension)
        return result

    return wrapper


def _endpoints_spanned(tracer: Tracer, fn):
    """mc_endpoints, with the configuration needed to replay its draws."""

    @functools.wraps(fn)
    def wrapper(mc, workers=None):
        with tracer.span("sphere_mc.endpoints") as rec:
            result = fn(mc, workers=workers)
            cfg = mc.cfg
            rec["attrs"].update(
                N=cfg.N, t=cfg.t, k=cfg.k, ell=cfg.ell, step_h=mc.step_h, paths=mc.n_paths,
                steps=len(mc.step_sizes()), seed=mc.seed, workers=workers)
        return result

    return wrapper


def instrument(tracer: Tracer, package):
    """Wrap the traced functions of ``package``; returns a function that undoes it."""
    modules = [getattr(package, m) for m in (
        "cli", "eigenmethod", "gaussian_limit", "heatop", "operators",
        "pde_appendix", "polyalg", "sphere_mc", "verify")]
    undo: list = []
    for mod_name, attr, span_name, describe in TRACED:
        fn = getattr(getattr(package, mod_name), attr)
        _replace_everywhere(modules, fn, _spanned(tracer, span_name, fn, describe), undo)
    for attr in MEMOIZED_OPERATORS:
        fn = getattr(package.operators, attr)
        _replace_everywhere(modules, fn, _build_spanned(tracer, attr, fn), undo)
    fn = package.sphere_mc.mc_endpoints
    _replace_everywhere(modules, fn, _endpoints_spanned(tracer, fn), undo)

    cls = package.eigenmethod.FiniteMomentX1
    evaluate = cls.evaluate_extended
    cls.evaluate_extended = _spanned(
        tracer, "eigenmethod.evaluate", evaluate, lambda a, r: {"terms": len(a["self"].terms)})

    def restore():
        cls.evaluate_extended = evaluate
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return restore


def replay(package, endpoint_spans: list[dict]) -> tuple[float, float]:
    """(seconds to draw again, peak MiB) for the traced mc_endpoints calls.

    The draws happen inside the private batch routine of ``sphere_mc``, so
    they cannot be wrapped.  Instead the same ``path_generator`` streams are
    drawn again into buffers of the same shape (batches of at most 1024
    paths, as the batch routine uses); walk time is the endpoints time minus
    this.  The memory peak comes from running the largest call once more on
    one worker under ``tracemalloc``.  Both happen after the traced round,
    so neither slows a traced span.
    """
    sm = package.sphere_mc
    draw_s = 0.0
    for rec in endpoint_spans:
        a = rec["attrs"]
        t0 = time.perf_counter()
        for lo in range(0, a["paths"], 1024):
            count = min(1024, a["paths"] - lo)
            normals = np.empty((count, a["steps"], a["N"]))
            for i in range(count):
                normals[i] = sm.path_generator(a["seed"], lo + i).standard_normal((a["steps"], a["N"]))
            del normals
        draw_s += time.perf_counter() - t0
    if not endpoint_spans:
        return draw_s, 0.0
    a = max((rec["attrs"] for rec in endpoint_spans), key=lambda a: a["paths"] * a["steps"] * a["N"])
    mc = sm.McConfig(cfg=package.operators.SphereConfig(N=a["N"], t=a["t"], k=a["k"], ell=a["ell"]),
                     step_h=a["step_h"], n_paths=a["paths"], seed=a["seed"])
    tracemalloc.start()
    try:
        sm.mc_endpoints(mc, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return draw_s, peak / 2**20


def _durations(spans):
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"], s["end"] - s["start"] - children.get(s["id"], 0.0))
            for s in spans}


def layer_metrics(spans: list[dict], draw_s: float, peak_mib: float, target: float) -> dict[str, float]:
    """Per-layer metrics of one traced round and its replayed draws.

    heatop moments are compared with the oracle; ``target`` is the relative
    accuracy a moment must meet.
    """
    dur = _durations(spans)

    def total(name, pred=lambda a: True, self_time=False):
        return sum(dur[s["id"]][1 if self_time else 0]
                   for s in spans if s["name"] == name and pred(s["attrs"]))

    def of(name):
        return [s["attrs"] for s in spans if s["name"] == name]

    builds = [a for a in of("operators.build") if a["cold"]]
    moments = of("heatop.moment")
    violations = off_target = 0
    for a in moments:
        ref = oracle.moment(a["alpha"], a["N"], a["t"])
        violations += abs(a["value"] - ref) > a["bound"]
        off_target += not oracle.on_target(a["value"], ref, target)
    endpoints = of("sphere_mc.endpoints")
    endpoints_s = total("sphere_mc.endpoints")
    path_steps = sum(a["paths"] * a["steps"] for a in endpoints)
    double = lambda a: a["precision"] == "double"  # noqa: E731
    extended = lambda a: a["precision"] == "extended"  # noqa: E731
    return {
        "cli.study_s": total("cli.run_study"),
        "cli.self_s": total("cli.run_study", self_time=True),
        "cli.write_csv_s": total("cli.write_csv"),
        "cli.rows": sum(a["rows"] for a in of("cli.run_study")),
        "operators.build_s": total("operators.build", lambda a: a["cold"]),
        "operators.builds": len(builds),
        "operators.entries": sum(a["dim"] ** 2 for a in builds),
        "operators.dim_max": max((a["dim"] for a in builds), default=0),
        "heatop.matexp_s": total("heatop.expm", double),
        "heatop.series_s": total("heatop.moment", lambda a: a["route"] == "series" and double(a), True),
        "heatop.extended_s": total("heatop.moment", extended, True) + total("heatop.expm", extended),
        "heatop.moment_self_s": total("heatop.moment", lambda a: a["route"] == "matexp" and double(a), True),
        "heatop.moments": len(moments),
        "heatop.bound_violations": violations,
        "heatop.off_target": off_target,
        "eigenmethod.assemble_s": total("eigenmethod.assemble"),
        "eigenmethod.assemblies": len(of("eigenmethod.assemble")),
        "eigenmethod.evaluate_s": total("eigenmethod.evaluate"),
        "eigenmethod.terms": sum(a["terms"] for a in of("eigenmethod.evaluate")),
        "gaussian_limit.moment_s": total("gaussian_limit.moment"),
        "gaussian_limit.quadrature_s": total("gaussian_limit.quadrature"),
        "sphere_mc.endpoints_s": endpoints_s,
        "sphere_mc.draw_s": draw_s,
        "sphere_mc.walk_s": endpoints_s - draw_s,
        "sphere_mc.estimate_s": total("sphere_mc.estimate", self_time=True),
        "sphere_mc.refine_s": total("sphere_mc.refine"),
        "sphere_mc.path_steps": path_steps,
        "sphere_mc.path_steps_per_s": path_steps / endpoints_s if endpoints_s else 0.0,
        "sphere_mc.buffer_peak_mib": peak_mib,
        "pde_appendix.spectral_s": total("pde_appendix.spectral"),
        "pde_appendix.residual_s": total("pde_appendix.residual"),
        **{f"verify.{suite}_s": total(f"verify.{suite}") for suite in SUITES},
        "verify.checks": sum(a["checks"] for suite in SUITES for a in of(f"verify.{suite}")),
        "polyalg.shift_s": total("polyalg.shift"),
    }


MAXED = ("operators.dim_max", "sphere_mc.buffer_peak_mib")


def merge(per_workload: list[dict[str, float]]) -> dict[str, float]:
    """Layer metrics over several workloads: sums, except peaks and the path rate."""
    out: dict[str, float] = {}
    for metrics in per_workload:
        for name, value in metrics.items():
            out[name] = max(out.get(name, value), value) if name in MAXED else out.get(name, 0) + value
    endpoints_s = out.get("sphere_mc.endpoints_s", 0.0)
    out["sphere_mc.path_steps_per_s"] = out.get("sphere_mc.path_steps", 0) / endpoints_s if endpoints_s else 0.0
    return out
