"""Tiny-size runs of each workload, and how failed operations are counted."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import worker
import workloads
from sphereheat.sphere_mc import McEstimate

ROOT = run.ROOT


def _benchmark_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.fixture
def tiny_worker(monkeypatch):
    worker = run._worker
    monkeypatch.setattr(run, "_worker", lambda args, deadline: worker(args + ["--tiny"], deadline))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_end_to_end_run(tiny_worker, name):
    result = run.end_to_end(name, seed=3, seconds=0.1, deadline=time.perf_counter() + 120)
    assert list(result["metrics"]) == _benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"], result["errors"]
    # one round each: the study's x1^12 fails on matexp and series at N = 16 and 1024
    expected = {"study": (15, 4), "mc-ensemble": (15, 0), "verify": (8, 0)}[name]
    assert (result["attempted"], result["failed"]) == expected


def test_tiny_traced_run(tiny_worker):
    result = run.traced("study", seed=3, deadline=time.perf_counter() + 170)
    assert list(result["metrics"]) == _benchmark_names("per_layer")
    assert result["correct"], result["errors"]
    assert (result["attempted"], result["failed"]) == (30, 8)  # an untraced and a traced round
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["cli.rows"] == 15
    assert values["heatop.off_target"] == 4
    assert values["eigenmethod.assemblies"] == 4 + 28  # study's eigen cells, then verify eigen
    assert values["verify.checks"] == 8
    assert values["sphere_mc.path_steps"] == 256 * 100
    for name in ("cli.study_s", "operators.build_s", "heatop.matexp_s", "eigenmethod.assemble_s",
                 "sphere_mc.endpoints_s", "sphere_mc.draw_s", "sphere_mc.refine_s",
                 "verify.eigen_s", "sphere_mc.buffer_peak_mib"):
        assert values[name] > 0, name


def test_failed_rounds_scale_with_rounds(tmp_path):
    study = workloads.Study(seed=5, workdir=str(tmp_path), tiny=True)
    study.references()
    result = worker.measure(study, workloads.clear_caches, seconds=0.0)
    assert (result["rounds"], result["attempted"], result["failed"]) == (1, 15, 4)
    assert result["errors"] == []


def test_study_row_outside_the_known_fault_is_an_error(tmp_path):
    study = workloads.Study(seed=5, workdir=str(tmp_path), tiny=True)
    study.references()
    output = study.body()
    eigen = next(r for r in output[0] if r.route == "eigen")
    eigen.value *= 1 + 1e-6
    outcome = study.check(output)
    assert (outcome.attempted, outcome.failed) == (15, 5)
    assert len(outcome.errors) == 2  # the eigen row, and the CSV that no longer reads back


def test_mc_estimate_off_the_oracle_fails(tmp_path):
    mc = workloads.McEnsemble(seed=5, workdir=str(tmp_path), tiny=True)
    mc.references()
    ensembles, diffs = mc.body()
    ends, estimates = ensembles[0]
    est = estimates[0]
    estimates[0] = McEstimate(mean=est.mean + 6 * est.stderr + 0.02, stderr=est.stderr,
                              n_paths=est.n_paths)
    outcome = mc.check((ensembles, diffs))
    assert (outcome.attempted, outcome.failed) == (15, 1)
    assert outcome.errors


def test_verify_counts_fail_and_unexpected_warn(tmp_path):
    v = workloads.Verify(seed=0, workdir=str(tmp_path))
    text = "\n".join([
        "[eigen]",
        "  PASS a  (x)",
        f"  WARN {workloads.DOCUMENTED_WARN}  (expected)",
        "  WARN something new  (y)",
        "  FAIL broken  (z)",
        "verification: FAIL",
    ])
    outcome = v.check((1, text))
    assert (outcome.attempted, outcome.failed) == (4, 2)
    assert len(outcome.errors) == 2
    assert v.check((0, text)).errors[-1].startswith("verify exited 0")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "benchmarks"), tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
