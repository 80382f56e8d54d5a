"""Benchmark of sphereheat: study, mc-ensemble and verify on one worker.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports sphereheat from ``src/``.
Every process it starts has one worker everywhere: SPHEREHEAT_THREADS=1
and the BLAS/OpenMP pools at one thread.  The last line of its output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics of the workload: set-up time as
the median of several fresh processes, then the 90th percentile of the wall
and CPU times of the whole rounds that fit in ``--seconds``, and the peak
memory.
``--trace 1`` gives the per-layer metrics: every workload is run once
untraced and once traced, each in a fresh process, and the layer figures
are summed over the three; attempted and failed are those of ``--workload``.
The spans go to ``.bench_out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study", "mc-ensemble", "verify")
SETUP_SAMPLES = 8
DEADLINE_S = 170.0
ONE_WORKER = {
    "SPHEREHEAT_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _env() -> dict:
    env = dict(os.environ, **ONE_WORKER)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run worker.py; (seconds from start to its ``ready`` line, its stdout lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return ready, rest.splitlines()


def _last_json(lines: list[str]) -> dict:
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    ident = ["--workload", workload, "--seed", str(seed)]
    _worker(ident + ["--setup-only"], deadline)  # compiles bytecode, warms the file cache
    # half the set-up samples before the rounds and half after, so that a burst
    # of host speed at one end of the run does not set the median alone
    setups = [_worker(ident + ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES // 2)]
    result = _last_json(_worker(ident + ["--seconds", str(seconds)], deadline)[1])
    setups += [_worker(ident + ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES // 2)]
    result["setup_s"] = statistics.median(setups)
    print(f"{workload}: {result['rounds']} rounds of {[round(w, 3) for w in result['walls']]} s; "
          f"set-up samples {[round(s, 3) for s in setups]} s", file=sys.stderr)
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "metrics": {k: {"value": result[k], "unit": u} for k, u in _units("end_to_end").items()},
    }


def traced(workload: str, seed: int, deadline: float) -> dict:
    import tracing

    order = [workload] + [w for w in WORKLOADS if w != workload]
    runs = {w: _last_json(_worker(["--workload", w, "--seed", str(seed), "--trace"], deadline)[1])
            for w in order}
    for w, r in runs.items():
        print(f"{w}: untraced {r['untraced_wall_s']:.3f} s, traced {r['traced_wall_s']:.3f} s, "
              f"outside spans {r['layers']['trace.remainder_s']:.4f} s", file=sys.stderr)
    layers = tracing.merge([r["layers"] for r in runs.values()])
    return {
        "correct": not any(r["errors"] for r in runs.values()),
        "attempted": runs[workload]["attempted"],
        "failed": runs[workload]["failed"],
        "errors": [e for r in runs.values() for e in r["errors"]],
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in _units("per_layer").items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sphereheat", "__init__.py")):
        print(f"no sphereheat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            result = traced(args.workload, args.seed, deadline)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for err in result.pop("errors")[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
