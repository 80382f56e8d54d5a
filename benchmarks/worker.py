"""One workload in one process; started by run.py, which pins every pool to one thread.

    worker.py --workload NAME --seed N (--setup-only | --seconds S | --trace) [--tiny]

It prints ``ready`` once sphereheat is imported and the inputs are built.
With ``--setup-only`` it exits there.  Otherwise it computes the
references, runs whole rounds of the workload, each from cold caches, and
prints one JSON line with the round figures.  With ``--trace`` it runs one
untraced and one traced round and reports the per-layer figures instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _cpu_s() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)))


def _timed_round(workload, clear_caches):
    """(wall seconds, CPU seconds of the process and its children, output)."""
    clear_caches()
    gc.collect()
    c0, t0 = _cpu_s(), time.perf_counter()
    output = workload.body()
    t1, c1 = time.perf_counter(), _cpu_s()
    return t1 - t0, c1 - c0, output


def _peak_rss_mib() -> float:
    """Peak RSS of this process or of its largest waited-for child (ru_maxrss is KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def ninth_decile(values: list[float]) -> float:
    """The 90th percentile: bursts in which the host runs faster than usual move it least."""
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def measure(workload, clear_caches, seconds: float) -> dict:
    """Whole rounds until the next one would end after ``seconds``; at least one."""
    walls, cpus, attempted, failed, errors = [], [], 0, 0, []
    start = time.perf_counter()
    while True:
        wall, cpu, output = _timed_round(workload, clear_caches)
        outcome = workload.check(output)
        del output
        walls.append(wall)
        cpus.append(cpu)
        attempted += outcome.attempted
        failed += outcome.failed
        errors += outcome.errors
        if time.perf_counter() - start + wall > seconds:
            break
    return {
        "rounds": len(walls),
        "wall_s": ninth_decile(walls),
        "cpu_s": ninth_decile(cpus),
        "walls": walls,
        "peak_rss_mib": _peak_rss_mib(),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def trace(workload, clear_caches, package, name: str) -> dict:
    """One untraced round, then one traced round; per-layer figures of the latter."""
    import tracing
    from workloads import TARGET

    wall, _, output = _timed_round(workload, clear_caches)
    outcomes = [workload.check(output)]
    del output

    tracer = tracing.Tracer()
    clear_caches()
    gc.collect()
    restore = tracing.instrument(tracer, package)
    try:
        with tracer.span(f"workload.{name}") as root:
            output = workload.body()
    finally:
        restore()
    outcomes.append(workload.check(output))
    del output
    traced_wall = root["end"] - root["start"]
    top = [s for s in tracer.spans if s["parent"] == root["id"]]
    remainder = traced_wall - sum(s["end"] - s["start"] for s in top)

    endpoints = [s for s in tracer.spans if s["name"] == "sphere_mc.endpoints"]
    draw_s, peak_mib = tracing.replay(package, endpoints)
    layers = tracing.layer_metrics(tracer.spans, draw_s, peak_mib, TARGET)
    layers["trace.overhead_s"] = traced_wall - wall
    layers["trace.remainder_s"] = remainder
    summary = {"untraced_wall_s": wall, "traced_wall_s": traced_wall, "layers": layers}
    tracer.write(os.path.join(OUT_DIR, f"trace-{name}.json"), workload=name, **summary)
    return {
        **summary,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "errors": [e for o in outcomes for e in o.errors],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import sphereheat
    import workloads

    if not os.path.abspath(sphereheat.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"sphereheat was imported from {sphereheat.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR, tiny=args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload.references()
    if args.trace:
        result = trace(workload, workloads.clear_caches, sphereheat, args.workload)
    else:
        result = measure(workload, workloads.clear_caches, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
