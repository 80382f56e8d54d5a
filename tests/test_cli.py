"""Command-line interface: schema, determinism, exit codes."""

import csv
import importlib
import io
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sphereheat import eigenmethod
from sphereheat.cli import CSV_HEADER, StudySpec, main, run_study, write_csv
from sphereheat.heatop import heat_moment_monomial
from sphereheat.operators import SphereConfig
from sphereheat.polyalg import Polynomial


def render_csv(rows) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


def test_csv_header_schema_is_stable():
    assert CSV_HEADER == [
        "monomial", "N", "t", "route", "value", "limit",
        "abs_error", "stderr", "fitted_rate",
    ]


def test_study_rows_canonical_order_and_rate():
    spec = StudySpec(
        monomials=[(2, 0)],
        n_values=[8, 16, 32, 64],
        t_values=[1.0],
        routes=["eigen"],
    )
    rows = run_study(spec)
    assert [r.N for r in rows] == [8, 16, 32, 64]
    rates = [r.fitted_rate for r in rows if r.fitted_rate is not None]
    assert len(rates) == 1 and rows[-1].fitted_rate == rates[0]
    assert abs(rates[0] - 1.0) <= 0.15  # first-order decay of the error
    # errors roughly halve as N doubles
    errs = [r.abs_error for r in rows]
    for a, b in zip(errs, errs[1:]):
        assert 1.6 <= a / b <= 2.4
    # the closed-form fit of the benchmark's grid (a) against np.polyfit, over the
    # rows of each (monomial, t, route) with a finite positive error
    rows = run_study(StudySpec(monomials=[(4,), (8,), (12,)],
                               n_values=[16, 32, 64, 128, 256, 512, 1024],
                               t_values=[0.5, 1.0, 2.0], routes=["matexp", "series", "eigen"]))
    groups = {}
    for r in rows:
        if r.abs_error is not None and 0 < r.abs_error < math.inf:
            groups.setdefault((r.monomial, r.t, r.route), []).append(r)
    assert len(groups) == 27
    for group in groups.values():
        want = -np.polyfit(np.log([r.N for r in group]), np.log([r.abs_error for r in group]),
                           1)[0]
        assert math.isclose(group[-1].fitted_rate, want, rel_tol=1e-13), group[-1]
    assert sum(r.fitted_rate is not None for r in rows) == 27


def test_a_failed_row_carries_no_rate():
    # x1^160 on matexp overflows at N = 4096: the rate of the N = 16 and 64 errors
    # goes on the N = 64 row, the largest N that was fitted
    rows = run_study(StudySpec(monomials=[(160,)], n_values=[16, 64, 4096], t_values=[1.0],
                               routes=["matexp"]))
    assert [(r.N, r.value is None, r.fitted_rate is None) for r in rows] == [
        (16, False, True), (64, False, False), (4096, True, True)]


def test_study_rate_is_one_half_when_only_the_first_exponent_is_odd():
    spec = StudySpec(
        monomials=[(3,), (1, 2), (2,)],
        n_values=[256, 1024, 4096],
        t_values=[1.0],
        routes=["eigen"],
    )
    rates = {r.monomial: r.fitted_rate for r in run_study(spec) if r.fitted_rate is not None}
    assert rates.keys() == {(3, 0), (1, 2), (2, 0)}
    assert abs(rates[3, 0] - 0.5) <= 0.02
    assert abs(rates[1, 2] - 0.5) <= 0.02
    assert abs(rates[2, 0] - 1.0) <= 0.02


def test_study_exact_rest_moment_has_zero_error():
    spec = StudySpec(
        monomials=[(0, 2)],
        n_values=[8, 32, 128],
        t_values=[0.5],
        routes=["matexp"],
    )
    for row in run_study(spec):
        assert row.abs_error <= 1e-12


def test_study_zero_mean_column():
    spec = StudySpec(
        monomials=[(1, 0)], n_values=[8, 64], t_values=[0.5, 2.0], routes=["matexp"]
    )
    for row in run_study(spec):
        assert abs(row.value) <= 1e-12


def test_eigen_route_covers_rest_monomials():
    spec = StudySpec(
        monomials=[(0, 2)], n_values=[8], t_values=[1.0], routes=["eigen"]
    )
    rows = run_study(spec)
    cfg = SphereConfig(N=8, t=1.0, k=2, ell=2)
    assert rows[0].value == heat_moment_monomial(cfg, (0, 2), route="eigen").value
    assert rows[0].reason is None


def test_extended_study_runs_its_matexp_rows_on_the_eigen_route():
    # the benchmark's study grid (c) spells the exact route this way
    grid = dict(monomials=[(4, 2)], n_values=[32, 256], t_values=[0.5, 1.0])
    extended = run_study(StudySpec(**grid, routes=["matexp"], precision="extended"))
    eigen = run_study(StudySpec(**grid, routes=["eigen"]))
    assert [r.route for r in extended] == ["matexp"] * 4
    assert [r.value.hex() for r in extended] == [r.value.hex() for r in eigen]


def test_csv_rerun_is_byte_identical():
    spec = dict(
        monomials=[(2, 0), (0, 2)],
        n_values=[8, 16],
        t_values=[1.0],
        routes=["matexp", "mc"],
        paths=2000,
        step=2e-3,
        seed=7,
    )
    a = render_csv(run_study(StudySpec(**spec)))
    b = render_csv(run_study(StudySpec(**spec)))
    assert a == b
    assert a.splitlines()[0] == ",".join(CSV_HEADER)


def test_study_csv_does_not_depend_on_cache_state(clear_caches):
    grids = [  # the three grids of the benchmark's study workload
        dict(monomials=[(4,), (8,), (12,)], n_values=[16, 32, 64, 128, 256, 512, 1024],
             t_values=[0.5, 1.0, 2.0], routes=["matexp", "series", "eigen"]),
        dict(monomials=[(2, 2, 0), (4, 2, 0), (6, 2, 0), (2, 2, 2), (4, 2, 2)],
             n_values=[16, 64, 256], t_values=[0.5, 2.0], routes=["matexp", "series"]),
        dict(monomials=[(4, 2)], n_values=[32, 256], t_values=[1.0], routes=["matexp"],
             precision="extended"),
    ]
    clear_caches()
    cold = [render_csv(run_study(StudySpec(**g))) for g in grids]
    warm = [render_csv(run_study(StudySpec(**g))) for g in grids]
    assert cold == warm


@pytest.mark.parametrize("grid", [
    dict(monomials=[(4,), (8,), (12,)], n_values=[16, 64, 1024], t_values=[0.5, 2.0],
         routes=["matexp", "series", "eigen"]),
    dict(monomials=[(4, 2, 0), (2, 2, 2)], n_values=[16, 256], t_values=[0.5, 2.0],
         routes=["matexp", "series"]),
    # refused cells share their batch with good ones: series at N = 16, and
    # matexp and series at N = 4096
    dict(monomials=[(160,)], n_values=[16, 4096], t_values=[1.0],
         routes=["matexp", "series", "eigen"]),
])
def test_study_batch_equals_its_cells_run_alone(grid):
    rows = run_study(StudySpec(**grid))
    alone = [row for alpha in grid["monomials"] for n in grid["n_values"]
             for t in grid["t_values"] for route in grid["routes"]
             for row in run_study(StudySpec(monomials=[alpha], n_values=[n], t_values=[t],
                                            routes=[route]))]
    alone.sort(key=lambda r: (r.monomial, r.N, r.t, r.route))
    def key(r):
        return r.monomial, r.N, r.t, r.route, r.value, r.limit, r.stderr, r.reason

    assert [key(r) for r in rows] == [key(r) for r in alone]
    assert [r.to_csv()[:7] for r in rows] == [r.to_csv()[:7] for r in alone]
    if grid["monomials"] == [(160,)]:
        assert [(r.N, r.route) for r in rows if r.value is None] == [
            (16, "series"), (4096, "matexp"), (4096, "series")]


def test_csv_independent_of_thread_count(monkeypatch):
    spec = dict(
        monomials=[(2, 0)], n_values=[8, 16], t_values=[1.0],
        routes=["matexp", "eigen"],
    )
    monkeypatch.setenv("SPHEREHEAT_THREADS", "1")
    a = render_csv(run_study(StudySpec(**spec)))
    monkeypatch.setenv("SPHEREHEAT_THREADS", "4")
    b = render_csv(run_study(StudySpec(**spec)))
    assert a == b


def test_floats_printed_with_17_significant_digits():
    spec = StudySpec(
        monomials=[(0, 2)], n_values=[8], t_values=[1.0], routes=["matexp"]
    )
    line = render_csv(run_study(spec)).splitlines()[1]
    assert "0.63212055882855767" in line


def test_spec_validation():
    with pytest.raises(ValueError):
        StudySpec(monomials=[], n_values=[8], t_values=[1.0], routes=["matexp"])
    with pytest.raises(ValueError):
        StudySpec(monomials=[(2, 0)], n_values=[2], t_values=[1.0], routes=["matexp"])
    with pytest.raises(ValueError):
        StudySpec(monomials=[(2, 0)], n_values=[8], t_values=[-1.0], routes=["matexp"])
    with pytest.raises(ValueError):
        StudySpec(monomials=[(2, 0)], n_values=[8], t_values=[1.0], routes=["x"])
    with pytest.raises(ValueError, match="extended precision is provided for the matexp route"):
        StudySpec(monomials=[(2, 0)], n_values=[8], t_values=[1.0], routes=["matexp", "series"],
                  precision="extended")


def test_spec_pads_monomials_to_the_longest():
    spec = StudySpec(monomials=[(2,), (2, 2)], n_values=[16], t_values=[1.0], routes=["matexp"])
    assert spec.monomials == [(2, 0), (2, 2)]
    with pytest.raises(TypeError):  # the grid's coordinate count is the longest monomial's
        StudySpec(monomials=[(2,)], n_values=[16], t_values=[1.0], routes=["matexp"], k=2)


# ----------------------------------------------------------------------
# entry point behavior
# ----------------------------------------------------------------------


def test_moment_command_prints_routes(capsys):
    rc = main(["moment", "--monomial", "2,0", "--N", "8", "--t", "1",
               "--routes", "matexp,eigen"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "matexp" in out and "eigen" in out and "abs_error" in out


def test_moment_past_the_double_range_fails_only_on_the_double_routes(capsys):
    assert main(["moment", "--monomial", "172", "--N", "4096", "--t", "1",
                 "--routes", "matexp,series,eigen"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    for route in ("matexp", "series"):
        assert lines[route].endswith("FAILED (sqrt(N)^172 at N=4096 exceeds the double range; "
                                     "use the exact eigen route)")
    assert "value=1.722671120125303e+110" in lines["eigen"]


@pytest.mark.filterwarnings("error")
def test_moment_that_overflows_inside_a_double_route_fails_with_a_reason(capsys):
    # sqrt(4096)^160 is a double, but the pole-weighted sums pass the double range;
    # the refusal names the overflow, and NumPy warns of nothing
    assert main(["moment", "--monomial", "160", "--N", "4096", "--t", "1",
                 "--routes", "matexp,series"]) == 0
    for route, line in zip(("matexp", "series"), capsys.readouterr().out.splitlines()):
        assert line.endswith(f"FAILED (the {route} moment or its bound is not finite "
                             "in double precision; use the exact eigen route)")
    # x1^60 at N = 16, t = 10: the series stop scan passes tails beyond the double
    # range (a = 1390) on its way to a stop; the cell is refused, not a traceback
    assert main(["moment", "--monomial", "60", "--N", "16", "--t", "10",
                 "--routes", "series"]) == 0
    assert capsys.readouterr().out.endswith(
        "FAILED (the series moment or its bound is not finite in double precision; "
        "use the exact eigen route)\n")


def test_study_names_the_reason_of_each_failed_cell(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["study", "--monomial", "172", "--N", "4096", "--t", "1",
               "--routes", "eigen,series", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ("failed: (172) N=4096 t=1 series: sqrt(N)^172 at N=4096 "
                            "exceeds the double range; use the exact eigen route\n")
    assert "1 route cells failed" in captured.out
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [r[3] for r in rows[1:]] == ["eigen", "series"]
    assert rows[2][4:7] == ["failed", rows[1][5], ""]
    assert rows[1][4] == "1.722671120125303e+110"


def test_moment_names_an_exp_sum_past_its_digit_budget(monkeypatch, capsys):
    # x1^24 at N = 16, t = 1e-6 takes four passes, the last at 261 digits; moment
    # runs the exact eigen route alone by default (double matexp reads 213633.09375)
    argv = ["moment", "--monomial", "24", "--N", "16", "--t", "1e-6"]
    assert main(argv) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("eigen ") and "value=6.6079866393869562e-132" in line
    monkeypatch.setattr(eigenmethod, "_MAX_DPS", 150)
    assert main(argv) == 0
    assert "FAILED (exp-sum at N=16, t=1e-06 cancels past 150 digits)" in capsys.readouterr().out


def test_study_command_writes_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["study", "--monomial", "2,0", "--N", "8,16", "--t", "1",
               "--routes", "matexp", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert len(text.splitlines()) == 3


def test_study_defaults_to_the_exact_route(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["study", "--monomial", "4", "--N", "16,64", "--t", "0.5,1",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert len(rows) == 4 and {row[3] for row in rows} == {"eigen"}


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("N=8,16\nt=1\nroutes=matexp\nmonomial=2,0\n# comment\n")
    out = tmp_path / "rows.csv"
    rc = main(["study", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_explicit_flags_override_config(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("N=8,16\nt=1\nroutes=matexp\nmonomial=2,0\n")
    out = tmp_path / "rows.csv"
    rc = main(["study", "--config", str(cfg), "--N", "32", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith('"2,0",32,')


def test_config_precision_is_checked_like_the_flag(tmp_path, capsys):
    # the exact value is the eigen route; neither moment nor study takes a precision
    cfg = tmp_path / "run.cfg"
    cfg.write_text("monomial=2,0\nprecision=extended\n")
    for command in ("moment", "study"):
        for argv in (["--config", str(cfg)], ["--monomial", "2,0", "--precision", "extended"]):
            with pytest.raises(SystemExit) as exc:
                main([command, *argv])
            assert exc.value.code == 2
            assert "unrecognized arguments: --precision" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [
    ("pde", "N=4"), ("verify", "monomial=2"), ("mc", "routes=eigen"), ("study", "config=x.cfg"),
    ("study", "N=x"),
    # k is the length of the longest monomial; verify's Monte Carlo suite has fixed inputs
    ("moment", "k=2"), ("study", "k=2"), ("mc", "k=2"), ("verify", "paths=100"),
])
def test_config_key_that_is_not_a_flag_of_the_command_is_usage_error(tmp_path, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("N 8\n")
    for path in (bad, tmp_path / "missing.cfg"):
        assert main(["study", "--monomial", "2", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["moment", "--monomial", "2", "--out", "x.csv"],
    ["mc", "--precision", "extended"],
    ["mc", "--out", "x.txt"],
    ["moment", "--monomial", "2", "--k", "2"],
    ["study", "--monomial", "2", "--k", "2"],
    ["mc", "--k", "2"],
    ["verify", "mc", "--paths", "100"],
])
def test_flags_a_command_would_ignore_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_abbreviated_flags_are_usage_errors(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mono=2\n")
    for argv in (["moment", "--mono", "2"], ["moment", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("command,values,mc_only", [
    ("mc", "one value", False), ("moment", "comma list", True), ("study", "comma list", True),
])
def test_help_says_how_many_values_and_which_flags_only_mc_reads(command, values, mc_only,
                                                                 monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")  # one line per flag
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for flag in ("--N", "--t"):
        assert next(l for l in lines if l.strip().startswith(flag + " ")).endswith(values)
    for flag in ("--paths", "--step", "--seed"):
        line = next(l for l in lines if l.strip().startswith(flag + " "))
        assert line.endswith("(mc route only)") == mc_only


def test_mc_estimates_one_cell(capsys):
    for extra in (["--monomial", "0,2", "--monomial", "2,0"], ["--N", "6,8"], ["--t", "0.5,1"]):
        assert main(["mc", "--paths", "10", *extra]) == 2
        assert "mc estimates one cell" in capsys.readouterr().err
    assert main(["mc", "--paths", "10", "--t", "0"]) == 2
    assert "t values must be positive" in capsys.readouterr().err


def test_config_file_drives_mc(tmp_path, capsys):
    flags = ["--monomial", "0,2", "--N", "6", "--t", "0.5", "--paths", "200", "--step", "0.05"]
    assert main(["mc", *flags, "--seed", "5"]) == 0
    by_flags = capsys.readouterr().out
    cfg = tmp_path / "mc.cfg"
    cfg.write_text("".join(f"{key[2:]}={value}\n" for key, value in zip(flags[::2], flags[1::2])))
    assert main(["mc", "--config", str(cfg), "--seed", "5"]) == 0
    assert capsys.readouterr().out == by_flags


def test_degree_option_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["study", "--monomial", "2,0", "--degree", "6"])
    assert exc.value.code == 2
    cfg = tmp_path / "study.cfg"
    cfg.write_text("monomial=2,0\ndegree=6\n")
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(cfg)])
    assert exc.value.code == 2


def test_verify_subcommand_exit_zero(capsys):
    rc = main(["verify", "operators"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "verification: PASS" in out


def test_verify_reports_a_broken_constructor_identity_as_fail(monkeypatch, capsys,
                                                              clear_caches):
    # the product-form check fails by its own comparison with the direct sum, and
    # eigen_poly_at_sqrtN asserts that its product form agrees with direct evaluation;
    # each check runs on its own, so the checks that do not call it still pass
    product_form = eigenmethod.pw_product_form
    monkeypatch.setattr(eigenmethod, "pw_product_form", lambda n, N: product_form(n, N) + 1)
    clear_caches()
    try:
        rc = main(["verify", "eigen"])
    finally:
        monkeypatch.undo()
        clear_caches()
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "product form disagrees" in out and "verification: FAIL" in out
    assert [line.split("  (")[0].split(None, 1) for line in out.splitlines()[1:-1]] == [
        ["PASS", "eigen-relation and basis round trip exact (n<=12)"],
        ["FAIL", "product form equals direct evaluation (n<=12, N<=100)"],
        ["FAIL", "compact form t0(n) at j=0 is the degree n+1 value"],
        ["FAIL", "value ratio parity-independent: (N+n-2)/(N+2n-2)"],
        ["PASS", "eigenvalues pairwise distinct"],
        ["PASS", "series leading coefficients (-1)^l 2^(j-l)/l!"],
        ["PASS", "series remainder scales like N^-(L+1+j)"],
        ["FAIL", "eigen route matches operator route"],
    ]
    assert "FAIL product form equals direct evaluation (n<=12, N<=100)  (exact" in out
    assert out.count("AssertionError: product form disagrees") == 3


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["study", "--monomial", "not-a-monomial"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_invalid_grid_is_usage_error(capsys):
    rc = main(["study", "--monomial", "2,0", "--N", "2", "--t", "1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    for command in ("moment", "study"):
        for t in ("inf", "nan"):
            assert main([command, "--monomial", "2", "--t", t]) == 2
            assert "t values must be positive and finite" in capsys.readouterr().err
    # t / step overflows: the mc cell fails with its reason, and mc reports it as an error
    assert main(["moment", "--monomial", "2", "--t", "1e308", "--routes", "mc"]) == 0
    assert "FAILED (t / step_h = 1e+308 / 0.001 exceeds the double" in capsys.readouterr().out
    assert main(["mc", "--monomial", "2", "--t", "1e308"]) == 2
    assert "exceeds the double range" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--N", "16,16"], "N 16 is listed twice"),
    (["--monomial", "2,0"], "monomial (2, 0) is listed twice"),
    (["--t", "1,1.0"], "t 1.0 is listed twice"),
    (["--routes", "eigen,eigen"], "route eigen is listed twice"),
])
def test_repeated_grid_value_is_usage_error(argv, message, capsys):
    # a repeated value would write its rows twice and fit the decay rate over the copies
    assert main(["study", "--monomial", "2", "--routes", "eigen", *argv]) == 2
    assert message in capsys.readouterr().err
    with pytest.raises(ValueError, match="listed twice"):
        StudySpec(monomials=[(2,), (2, 0)], n_values=[16], t_values=[1.0], routes=["eigen"])


def test_mc_command(capsys):
    rc = main(["mc", "--monomial", "0,2", "--N", "6", "--t", "0.5",
               "--paths", "2000", "--step", "2e-3", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "estimate" in out and "exact" in out and "O(step_h)" in out
    # the printed values are the mc and eigen cells of the same one-cell study
    lines = out.splitlines()
    estimate, stderr = lines[1].split("=")[1].split("+-")
    exact = lines[2].split("=")[1].split()[0]
    ref, est = run_study(StudySpec(monomials=[(0, 2)], n_values=[6], t_values=[0.5],
                                   routes=["mc", "eigen"], paths=2000, step=2e-3, seed=5))
    assert (float(estimate), float(stderr), float(exact)) == (est.value, est.stderr, ref.value)


def test_mc_reports_the_reason_of_a_failed_cell_as_a_usage_error(monkeypatch, capsys):
    # the exact cell of x1^24 at N = 16, t = 1e-6 needs 261 digits
    monkeypatch.setattr(eigenmethod, "_MAX_DPS", 150)
    assert main(["mc", "--monomial", "24", "--N", "16", "--t", "1e-6", "--step", "1e-6",
                 "--paths", "10"]) == 2
    assert capsys.readouterr().err == "error: exp-sum at N=16, t=1e-06 cancels past 150 digits\n"


def test_mc_reference_names_the_exact_eigen_route(capsys):
    # the reference is the eigen route's exact exp-sum; no matrix exponential runs
    rc = main(["mc", "--monomial", "0,2", "--N", "8", "--t", "1",
               "--paths", "200", "--step", "0.05", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    line = next(l for l in out.splitlines() if not l.startswith(("monomial", "estimate", "note")))
    assert line.startswith("exact    = ") and "eigen route" in line
    assert "matexp" not in out


def test_mc_reference_is_exact_at_large_n(capsys):
    # the double-precision matexp value here is -3948.5; the moment is 3.8257
    rc = main(["mc", "--monomial", "12", "--N", "1024", "--t", "1",
               "--paths", "2000", "--step", "1e-2", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    line = next(l for l in out.splitlines() if l.startswith("exact"))
    assert float(line.split("=")[1].split()[0]) == pytest.approx(3.82567147215084, rel=1e-13)


def test_thread_count_must_be_a_positive_integer(monkeypatch, capsys):
    for value in ("abc", "0", "-2"):
        monkeypatch.setenv("SPHEREHEAT_THREADS", value)
        assert main(["mc", "--N", "4", "--paths", "10", "--step", "0.5"]) == 2
        assert capsys.readouterr().err == (
            f"error: SPHEREHEAT_THREADS must be a positive integer, not {value!r}\n")


def test_pde_command(capsys):
    rc = main(["pde", "--t", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "first-coordinate" in out and "residual" in out


def test_benchmark_trace_finds_every_name_it_wraps(monkeypatch):
    # the traced benchmark run looks these names up; a missing one fails it
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
    import tracing

    import sphereheat
    for name in ("cli", "eigenmethod", "gaussian_limit", "heatop", "operators",
                 "pde_appendix", "polyalg", "sphere_mc", "verify"):
        importlib.import_module(f"sphereheat.{name}")
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, sphereheat)
    try:  # the moment span reads heat_moment's route and precision arguments
        cfg, f = SphereConfig(N=16, t=1.0, k=1, ell=4), Polynomial.monomial((4,))
        sphereheat.heatop.heat_moment(cfg, f, route="matexp")
        sphereheat.heatop.heat_moment(cfg, f, route="matexp", precision="extended")
    finally:
        restore()
    spans = [s["attrs"] for s in tracer.spans if s["name"] == "heatop.moment"]
    assert [(a["route"], a["precision"]) for a in spans] == [
        ("matexp", "double"), ("matexp", "extended")]
    assert spans[1]["value"] == heat_moment_monomial(cfg, (4,), route="eigen").value
    assert SphereConfig(N=4, t=1.0, k=2, ell=2).ell == 2


def test_cold_start_imports_scipy_and_the_process_pool_only_where_used(capsys):
    # a fresh interpreter, since this one has imported SciPy already (the tests
    # use it as a reference); no command loads SciPy, and 5000 paths make two
    # Monte Carlo batches, which one worker walks without a pool
    script = """
import contextlib, io, sys
from sphereheat import cli
def heavy():
    return [name for name in ("scipy", "concurrent.futures.process") if name in sys.modules]
assert heavy() == [], heavy()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["mc", "--N", "8", "--paths", "5000", "--step", "0.25", "--seed", "1"]) == 0
    assert cli.main(["moment", "--monomial", "4", "--N", "16", "--routes", "eigen,series"]) == 0
    assert cli.main(["pde", "--t", "1"]) == 0
assert heavy() == [], heavy()
assert cli.main(["moment", "--monomial", "4", "--N", "16"]) == 0
assert "scipy" not in sys.modules
assert cli.main(["study", "--monomial", "4", "--N", "16,64", "--t", "1",
                 "--routes", "matexp,series,eigen"]) == 0
assert "scipy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify"]) == 0
assert "scipy" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, SPHEREHEAT_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert main(["moment", "--monomial", "4", "--N", "16"]) == 0
    assert main(["study", "--monomial", "4", "--N", "16,64", "--t", "1",
                 "--routes", "matexp,series,eigen"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "sphereheat.cli", "moment", "--monomial", "1,0",
         "--N", "8", "--t", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "value=0" in proc.stdout
