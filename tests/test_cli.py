import argparse
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import statwintgen.cli as cli
import statwintgen.legendrian as lg
import statwintgen.statistical_geometry as sg
from statwintgen.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    SCHEMA,
    dump_json,
    format_float,
    main,
    sweep_csv_lines,
)
import statwintgen.warped_contact as wc
import statwintgen.wintgen as wg

from helpers import counted_warping, stacked, warped_points


def test_schema_version_constant():
    assert SCHEMA == "statwintgen-report/1"


def test_format_float_seventeen_digits_roundtrip():
    values = [1.0 / 3.0, 2.0**-52, -1.2345678901234567e17, 7.0]
    for v in values:
        assert float(format_float(v)) == v
        mantissa = format_float(v).split("e")[0].replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) <= 17


def test_dump_json_parses_and_preserves_floats():
    obj = {"a": 1.0 / 3.0, "b": [1, True, None, "x"], "c": {"nested": -0.1}}
    text = dump_json(obj)
    back = json.loads(text)
    assert back["a"] == 1.0 / 3.0
    assert back["b"] == [1, True, None, "x"]
    assert back["c"]["nested"] == -0.1


def test_reproduce_r2_exit_zero(capsys):
    assert main(["reproduce", "example-r2"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_reproduce_h3_exit_zero(capsys):
    assert main(["reproduce", "example-h3"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_axioms_pass_and_perturbed_fail(tmp_path, capsys):
    assert main(["axioms", "--chart", "h3", "--samples", "10", "--seed", "3"]) == EXIT_OK
    # a corrupted connection table must be caught and exit 1
    code = main(
        ["axioms", "--chart", "h3", "--samples", "10", "--seed", "3", "--perturb-gamma", "0.01"]
    )
    assert code == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_axioms_writes_schema_report(tmp_path):
    out = tmp_path / "ax.json"
    assert main(["axioms", "--chart", "r2", "--samples", "5", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["schema"] == SCHEMA
    assert data["passed"] is True


def test_curvature_command(capsys):
    assert main(["curvature", "--chart", "r2", "--samples", "3"]) == EXIT_OK
    assert main(["curvature", "--chart", "h3", "--samples", "2"]) == EXIT_OK


def test_classify_command(capsys):
    assert main(["classify", "--warp", "exp", "--fiber", "flat", "--samples", "2"]) == EXIT_OK
    assert main(["classify", "--warp", "const", "--fiber", "flat", "--samples", "2"]) == EXIT_OK
    assert main(["classify", "--warp", "exp", "--fiber", "twisted", "--samples", "2"]) == EXIT_OK


@pytest.mark.parametrize("fiber, warping_calls, j_rows", [
    # 5 samples of the 5-dim total chart: J once per row of the points' jet (5 x 6 rows); each of f, f' and f''
    # is called at most once per Warping.at, on a whole stack: f once on the jet, whose complex step gives f',
    # then f by the chart's gamma, metric and metric_partial fields at the points (3) and f' by gamma and
    # metric_partial (2), and f'' never
    ("twisted", (4, 2, 0), 30),
    # the same on the 3-dim total chart of a 2-dim fiber: 5 x 4 jet rows
    ("flat", (4, 2, 0), 20),
    ("r2", (4, 2, 0), 20),
])
def test_classify_evaluates_f_and_j_once_per_grid_row(monkeypatch, tmp_path, fiber, warping_calls, j_rows):
    calls, rows = [0, 0, 0], []
    cosh, build = wc.cosh_warping(), cli.FIBERS[fiber]

    def counted_fiber(warping, epsilon):
        spec = build(warping, epsilon)

        def complex_structure(x):
            rows.extend(x)
            return spec.complex_structure(x)

        return spec._replace(complex_structure=complex_structure)

    monkeypatch.setattr(wc, "cosh_warping", lambda: counted_warping(cosh, calls))
    monkeypatch.setitem(cli.FIBERS, fiber, counted_fiber)
    argv = ["classify", "--warp", "cosh", "--fiber", fiber, "--samples", "5", "--out", str(tmp_path / "c.json")]
    assert main(argv) == EXIT_OK
    assert (tuple(calls), len(rows)) == (warping_calls, j_rows)


@pytest.fixture
def h3_warping_calls(monkeypatch) -> list:
    """The number of calls of f, f' and f'' of the h3 chart's warping."""
    calls, exp = [0, 0, 0], wc.exp_warping()
    monkeypatch.setattr(wc, "exp_warping", lambda: counted_warping(exp, calls))
    return calls


@pytest.mark.parametrize("argv, counts", [
    # each of f, f' and f'' at most once per Warping.at, on a whole stack, whatever its number of samples; a
    # holomorphic f' carries its own complex step, so f'' is called only where f'' itself is read.
    # axioms: the Levi-Civita pass on the jet (f by metric, f and f' by metric_partial) and both
    # connections on the jet (f and f' by each); nothing is shared across the chart's fields
    (["axioms", "--chart", "h3", "--samples", "100"], (4, 3, 0)),
    # one pass (2, 1) for the sectional curvature and the axioms, the connections (2, 2), the connection
    # table at one point (1, 1) and one classified point's jet (1, 0)
    (["reproduce", "example-h3"], (6, 4, 0)),
    # the pass (2, 1) with g at the points taken from it, both connections on the jet (2, 2) and the closed
    # forms (1, 1, 1)
    (["curvature", "--chart", "h3", "--samples", "20"], (5, 4, 1)),
])
def test_h3_commands_evaluate_the_warping_once_per_field_and_point(h3_warping_calls, tmp_path, argv, counts):
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert tuple(h3_warping_calls) == counts


def test_reproduce_h3_evaluates_metric_partial_once_per_chunk(monkeypatch, tmp_path):
    calls = []
    original = wc.build_warped_chart

    def counting(spec):
        chart = original(spec)

        def metric_partial(x):
            calls.append(len(x))
            return chart.metric_partial(x)

        return chart._replace(metric_partial=metric_partial)

    monkeypatch.setattr(wc, "build_warped_chart", counting)
    assert main(["reproduce", "example-h3", "--out", str(tmp_path / "report.json")]) == EXIT_OK
    assert calls == [4 * 50]  # one chunk of 50 samples, each with its 3 jet shifts


@pytest.mark.parametrize("chart", ["r2", "h3"])
def test_a_connection_perturbed_by_1e_9_fails_the_axioms_at_the_default_tolerance(chart, tmp_path):
    # the complex step leaves the residuals of the unperturbed charts near 1e-15, so the default
    # --residual-tol of 1e-12 catches a corrupted coefficient far below the 1e-7 that used to pass
    out = tmp_path / "report.json"
    assert main(["axioms", "--chart", chart, "--out", str(out)]) == EXIT_OK
    assert main(["axioms", "--chart", chart, "--perturb-gamma", "1e-9", "--out", str(out)]) == EXIT_VIOLATION
    assert json.loads(out.read_text())["residual_tol"] == 1e-12


@pytest.mark.parametrize("example, module, builder", [("example-r2", sg, "builtin_r2_example"),
                                                      ("example-h3", wc, "build_warped_chart")])
def test_reproduce_fails_the_axiom_residuals_of_a_connection_perturbed_by_1e_9(example, module, builder,
                                                                                 monkeypatch, tmp_path):
    # the axiom-residual rows are held at axioms' default 1e-12, so they catch what axioms catches
    original = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *spec: cli._perturbed_chart(original(*spec), 1e-9))
    out = tmp_path / "report.json"
    assert main(["reproduce", example, "--out", str(out)]) == EXIT_VIOLATION
    residuals = [c for c in json.loads(out.read_text())["checks"] if c["check"] == "axiom residual"]
    assert residuals and {c["tol"] for c in residuals} == {1e-12}
    assert not all(c["ok"] for c in residuals)


def test_unknown_command_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_wintgen_verify_umbilic(tmp_path):
    path = tmp_path / "umbilic.json"
    path.write_text(lg.umbilic_instance().to_json())
    assert main(["wintgen", "verify", str(path)]) == EXIT_OK


def test_wintgen_verify_violating_instance(tmp_path):
    path = tmp_path / "z.json"
    path.write_text(lg.umbilic_instance(n=2, c=4.0, f_val=1.0, f_prime=0.0).to_json())
    assert main(["wintgen", "verify", str(path)]) == EXIT_VIOLATION


def test_wintgen_verify_missing_file():
    assert main(["wintgen", "verify", "/nonexistent/instance.json"]) == EXIT_USAGE


def test_wintgen_verify_invalid_instance(tmp_path, capsys):
    inst = lg.umbilic_instance(n=2)
    data = inst.to_dict()
    data["h"][2][0][1] = 0.5
    data["h"][2][1][0] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    errors = [_assert_one_line_usage_error(main(["wintgen", sub, str(path)]), capsys)
              for sub in ("verify", "chain")]
    assert errors[0] == errors[1]


def test_wintgen_chain_command(tmp_path, capsys):
    path = tmp_path / "umbilic.json"
    path.write_text(lg.umbilic_instance().to_json())
    assert main(["wintgen", "chain", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("cauchy_schwarz", "s_operator_bound", "lu_bound", "substitution_bound", "final_bound"):
        assert name in out


def test_verify_and_chain_agree_on_rounded_equality(tmp_path, capsys):
    # c = f' = 0 and h = h* umbilic: rhs = 0 exactly, but the plain sum rounds to -1.86e-9
    h = np.zeros((4, 3, 3))
    h[:3] = np.multiply.outer([886.1122111447353, 22.65510562872319, 952.4874114154082], np.eye(3))
    path = tmp_path / "eq.json"
    path.write_text(lg.LegendrianPointInstance(n=3, c=0.0, f_val=1.0, f_prime=0.0, h=h, h_star=h).to_json())
    out = tmp_path / "chain.json"
    assert main(["wintgen", "verify", str(path)]) == EXIT_OK
    assert main(["wintgen", "chain", str(path), "--out", str(out)]) == EXIT_OK
    assert "VIOLATED" not in capsys.readouterr().out
    data = json.loads(out.read_text())
    final = {s["step"]: s for s in data["chain"]}["final_bound"]
    assert (final["rhs"], final["holds"]) == (data["rhs"], data["holds"]) == (0.0, True)


def test_chain_is_not_homothety_invariant(tmp_path, capsys):
    # the RP^2 instance (c = 4, f = 1) under the homothety lambda = 0.1: (c, f, f') -> (0.04, 0.1, 0);
    # lhs stays 1, but the c-terms of step 2 on scale with lambda (a known negative result)
    path = tmp_path / "rp2-homothety.json"
    path.write_text(lg.umbilic_instance(n=2, c=0.04, f_val=0.1, f_prime=0.0).to_json())
    out = tmp_path / "chain.json"
    assert main(["wintgen", "chain", str(path), "--out", str(out)]) == EXIT_VIOLATION
    assert capsys.readouterr().out.count("VIOLATED") == 5
    steps = {s["step"]: s for s in json.loads(out.read_text())["chain"]}
    assert steps.pop("cauchy_schwarz")["holds"]
    assert not any(s["holds"] for s in steps.values())
    assert all(s["lhs"] == pytest.approx(1.0, abs=1e-12) for s in steps.values())
    expected = {"s_operator_bound": 0.4, "lu_bound": 0.2, "substitution_bound": 0.2, "final_bound_rederived": 0.2}
    assert {name: steps[name]["rhs"] for name in expected} == pytest.approx(expected, abs=1e-12)


NEGATIVE_FLAGS = {
    "sharpness --c": (["wintgen", "sharpness", "--iterations", "5"], "--c", "-4e0"),
    "sweep --c-min": (["wintgen", "sweep", "--count", "5"], "--c-min", "-1e-1"),
    "axioms --perturb-gamma": (["axioms", "--samples", "2"], "--perturb-gamma", "-1E-2"),
}


@pytest.mark.parametrize("argv, flag, value", NEGATIVE_FLAGS.values(), ids=NEGATIVE_FLAGS)
def test_negative_exponent_value_reads_as_the_flag_value(argv, flag, value, tmp_path):
    spaced, joined = tmp_path / "spaced.out", tmp_path / "joined.out"
    code = main([*argv, flag, value, "--out", str(spaced)])
    assert code == main([*argv, f"{flag}={value}", "--out", str(joined)]) != EXIT_USAGE
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("argv", [["wintgen", "sweep", "--count", "2"], ["reproduce", "example-r2"]], ids=" ".join)
def test_empty_out_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", ""]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--out" in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_sweep_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["wintgen", "sweep", "--n", "2", "--count", "30", "--seed", "11",
            "--c-min", "-4", "--c-max", "0"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_csv_layout(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["wintgen", "sweep", "--n", "2", "--count", "5", "--seed", "1",
                 "--c-min", "-1", "--c-max", "0", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,n,c,f,f_prime,lhs,rhs,slack,holds"
    assert len(lines) == 6
    assert lines[1].startswith("1-0,2,")


def test_sweep_violations_exit_one(tmp_path):
    out = tmp_path / "v.csv"
    # a positive-c, zero-magnitude sweep concentrates on the violating corner
    code = main(["wintgen", "sweep", "--n", "2", "--count", "10", "--seed", "2",
                 "--c-min", "3.9", "--c-max", "4.0", "--f-min", "1.0", "--f-max", "1.0",
                 "--fprime-min", "0.0", "--fprime-max", "0.0",
                 "--magnitude", "0.0", "--out", str(out)])
    assert code == EXIT_VIOLATION
    assert "false" in out.read_text()


@pytest.mark.parametrize(
    "extra", [["--magnitude", "1000"], ["--fprime-min", "500", "--fprime-max", "600"]], ids=" ".join
)
def test_large_scale_sweep_completes(extra, tmp_path, capsys):
    # the terms of rho cancel by ~1e6 here; no absolute-tolerance check may trip
    code = main(["wintgen", "sweep", "--n", "3", "--count", "300", "--seed", "7", *extra,
                 "--out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert ": 0 violations," in captured.out
    assert captured.err == ""


def test_sweep_json_format(tmp_path):
    out = tmp_path / "s.json"
    assert main(["wintgen", "sweep", "--n", "2", "--count", "3", "--seed", "1",
                 "--c-min", "-1", "--c-max", "0", "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["schema"] == SCHEMA
    assert len(data["rows"]) == 3
    row = data["rows"][0]
    assert list(row.keys()) == ["seed", "n", "c", "f", "f_prime", "lhs", "rhs_terms",
                                "rhs", "slack", "holds", "chain"]


def test_sweep_rows_match_library(tmp_path):
    out = tmp_path / "s.csv"
    main(["wintgen", "sweep", "--n", "3", "--count", "4", "--seed", "9",
          "--out", str(out)])
    reports = wg.sweep(n=3, count=4, seed=9)
    lines = sweep_csv_lines(reports)
    assert out.read_text().splitlines() == lines


def test_sharpness_command(tmp_path):
    out = tmp_path / "sharp.json"
    assert main(["wintgen", "sharpness", "--n", "2", "--c", "0", "--f", "1",
                 "--fprime", "0", "--iterations", "500", "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["hard_violation"] is False
    assert data["schema"] == SCHEMA


def test_config_file_defaults_and_flag_priority(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 3, "n": 2, "seed": 8, "c_max": 0.0}))
    out = tmp_path / "c.csv"
    assert main(["--config", str(cfg), "wintgen", "sweep", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 4  # header + 3 rows from config
    # explicit flag beats the config value
    out2 = tmp_path / "c2.csv"
    assert main(["--config", str(cfg), "wintgen", "sweep", "--count", "5",
                 "--out", str(out2)]) == EXIT_OK
    assert len(out2.read_text().splitlines()) == 6


def test_config_file_malformed_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    for text in ("{not json", "[" * 100_000 + "]" * 100_000):  # the second is nested too deeply
        cfg.write_text(text)
        assert main(["--config", str(cfg), "reproduce", "example-r2"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")


def test_chain_report_step_order(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(lg.umbilic_instance().to_json())
    out = tmp_path / "chain.json"
    assert main(["wintgen", "chain", str(path), "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert [s["step"] for s in data["chain"]] == [
        "cauchy_schwarz",
        "s_operator_bound",
        "lu_bound",
        "substitution_bound",
        "final_bound",
        "final_bound_rederived",
    ]


def test_outdir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("STATWINTGEN_OUTDIR", str(tmp_path))
    assert main(["wintgen", "sweep", "--n", "2", "--count", "2", "--seed", "4",
                 "--c-min", "-1", "--c-max", "0"]) == EXIT_OK
    assert (tmp_path / "sweep-4.csv").exists()


# Both write sites of the report writer: a JSON report through ``_finish``, and the sweep's CSV and JSON.
WRITE_SITES = [
    ["wintgen", "verify", "umbilic.json"],
    ["wintgen", "sweep", "--n", "2", "--count", "3", "--c-min", "-1", "--c-max", "0"],
    ["wintgen", "sweep", "--n", "2", "--count", "3", "--c-min", "-1", "--c-max", "0", "--format", "json"],
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """``tmp_path`` as the working directory, holding the n = 2 umbilic instance file ``umbilic.json``."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    (tmp_path / "umbilic.json").write_text(lg.umbilic_instance(n=2).to_json())
    return tmp_path


def _fresh_report(argv, capsys) -> bytes:
    """The report ``argv`` writes to a path that does not exist yet."""
    path = Path("fresh.out")
    path.unlink(missing_ok=True)
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    return path.read_bytes()


@pytest.mark.parametrize("argv", WRITE_SITES, ids=" ".join)
def test_a_short_report_over_a_longer_file_leaves_exactly_its_bytes(argv, workdir, capsys):
    want = _fresh_report(argv, capsys)
    out = workdir / "report.out"
    out.write_bytes(b"\xff" * (4 * len(want)))
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == want


@pytest.mark.parametrize("argv", WRITE_SITES, ids=" ".join)
def test_a_rewritten_report_keeps_its_inode_and_hard_links_see_it(argv, workdir, capsys):
    want = _fresh_report(argv, capsys)
    out, link = workdir / "report.out", workdir / "link.out"
    out.write_bytes(b"\xff" * 65536)
    os.link(out, link)
    inode = out.stat().st_ino
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.stat().st_ino == inode
    assert link.read_bytes() == out.read_bytes() == want


@pytest.mark.parametrize("argv", WRITE_SITES, ids=" ".join)
def test_a_symlinked_out_rewrites_the_links_target(argv, workdir, capsys):
    want = _fresh_report(argv, capsys)
    target, link = workdir / "target.out", workdir / "link.out"
    target.write_bytes(b"\xff" * 65536)
    link.symlink_to(target)
    assert main([*argv, "--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and link.readlink() == target
    assert target.read_bytes() == want


@pytest.mark.parametrize("argv", WRITE_SITES, ids=" ".join)
def test_out_dev_null_is_written_without_truncation(argv, workdir, capsys):
    # ftruncate on a character device or a pipe fails with EINVAL: only regular files are cut to length
    assert main([*argv, "--out", os.devnull]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.endswith(f" -> {os.devnull}\n") and captured.err == ""


@pytest.mark.parametrize("argv", WRITE_SITES, ids=" ".join)
def test_a_directory_as_out_is_a_usage_error(argv, workdir, capsys):
    (workdir / "reports").mkdir()
    line = _assert_one_line_usage_error(main([*argv, "--out", "reports"]), capsys)
    assert line == "error: [Errno 21] Is a directory: 'reports'"
    assert list((workdir / "reports").iterdir()) == []


@pytest.mark.parametrize("argv", WRITE_SITES, ids=" ".join)
def test_missing_parent_directories_are_created_and_a_file_in_the_way_is_refused(argv, workdir, capsys):
    want = _fresh_report(argv, capsys)
    assert main([*argv, "--out", "new/dir/report.out"]) == EXIT_OK
    assert (workdir / "new" / "dir" / "report.out").read_bytes() == want
    capsys.readouterr()
    (workdir / "file.txt").write_text("kept")
    line = _assert_one_line_usage_error(main([*argv, "--out", "file.txt/report.out"]), capsys)
    assert line == "error: [Errno 17] File exists: 'file.txt'"  # mkdir(parents=True, exist_ok=True)'s own error
    assert (workdir / "file.txt").read_text() == "kept"


@pytest.mark.parametrize("umask", [0o022, 0o007], ids=oct)
@pytest.mark.parametrize("argv", WRITE_SITES, ids=" ".join)
def test_a_new_report_gets_the_mode_of_open_w(argv, umask, workdir, capsys):
    previous = os.umask(umask)
    try:
        assert main([*argv, "--out", "report.out"]) == EXIT_OK
    finally:
        os.umask(previous)
    assert stat.S_IMODE((workdir / "report.out").stat().st_mode) == 0o666 & ~umask


def _poisoned_sharpness(monkeypatch):
    search = wg.sharpness_search
    monkeypatch.setattr(wg, "sharpness_search", lambda *a, **k: search(*a, **k)._replace(min_slack=math.inf))


def _poisoned_sweep(monkeypatch):
    sweep = wg.sweep
    monkeypatch.setattr(wg, "sweep", lambda *a, **k: [r._replace(slack=math.nan) for r in sweep(*a, **k)])


@pytest.mark.parametrize(
    "argv, poison",
    [
        (["wintgen", "sharpness", "--iterations", "5"], _poisoned_sharpness),  # dump_json refuses the report
        (["wintgen", "sweep", "--n", "2", "--count", "3", "--format", "json"], _poisoned_sweep),
        (["wintgen", "sweep", "--n", "2", "--count", "3", "--f-min", "1e200", "--f-max", "1e200"], None),
        (["classify", "--warp", "const", "--const-value", "1e200", "--samples", "2"], None),
        (["wintgen", "sweep", "--format", "xml"], None),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v.__name__.strip("_") if v else "as-is",
)
def test_a_failing_command_leaves_an_existing_report_untouched(argv, poison, workdir, monkeypatch, capsys):
    out = workdir / "report.out"
    old = bytes(range(256)) * 256
    out.write_bytes(old)
    if poison is not None:
        poison(monkeypatch)
    _assert_one_line_usage_error(main([*argv, "--out", str(out)]), capsys)
    assert out.read_bytes() == old


def _malformed_instance(tmp_path, name, **changes):
    data = lg.umbilic_instance(n=2).to_dict()
    data.update(changes)
    for key in [k for k, v in changes.items() if v is None]:
        del data[key]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def _assert_one_line_usage_error(code, capsys):
    """Assert exit 2 with one ``error:`` line on stderr and nothing on stdout; return that line."""
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    return lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["wintgen", "sweep", "--out", ""],
        ["wintgen", "sharpness", "--c", "-inf"],
        ["axioms", "--samples", "0"],
        ["classify", "--residual-tol", "-1"],
        ["wintgen", "sweep", "--format", "xml"],
        ["wintgen", "sweep", "--bogus", "1"],
        ["wintgen", "frobnicate"],
    ],
    ids=" ".join,
)
def test_rejected_flag_value_is_one_error_line(argv, tmp_path, monkeypatch, capsys):
    # argparse used to print its usage block before the error line
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    line = _assert_one_line_usage_error(main(argv), capsys)
    assert line.startswith("error: argument ") or line.startswith("error: unrecognized arguments")
    assert list(tmp_path.iterdir()) == []


def test_help_still_prints_usage(capsys):
    assert main(["wintgen", "sweep", "--help"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ") and "--magnitude" in captured.out
    assert captured.err == ""


def test_verify_nan_field_is_usage_error(tmp_path, capsys):
    path = _malformed_instance(tmp_path, "nan", f=float("nan"))
    _assert_one_line_usage_error(main(["wintgen", "verify", str(path)]), capsys)


def test_verify_missing_key_is_usage_error(tmp_path, capsys):
    path = _malformed_instance(tmp_path, "missing", f_prime=None)
    _assert_one_line_usage_error(main(["wintgen", "verify", str(path)]), capsys)


def test_verify_dimension_one_is_usage_error(tmp_path, capsys):
    zero = [[[0.0]], [[0.0]]]
    path = _malformed_instance(tmp_path, "n1", n=1, f_prime=0.0, h=zero, h_star=zero)
    _assert_one_line_usage_error(main(["wintgen", "verify", str(path)]), capsys)


def _n2_file(path, h_leaf=0, c=0):
    """An n = 2 instance file with f = 1, f' = 0, h* = 0 and h = 0 but h[0][0][0] = ``h_leaf``, as JSON writes them."""
    zero = [[0, 0], [0, 0]]
    path.write_text(json.dumps({"n": 2, "c": c, "f": 1, "f_prime": 0, "h": [[[h_leaf, 0], [0, 0]], zero, zero],
                                "h_star": [zero] * 3}))
    return path


@pytest.mark.parametrize("sub", ["verify", "chain"])
@pytest.mark.parametrize("leaf", [True, False], ids=str)
def test_a_bool_in_a_form_is_refused_as_it_is_for_c(sub, leaf, tmp_path, capsys):
    # numpy read a JSON true in h as 1.0: verify exited 0 with holds=True
    path = tmp_path / "i.json"
    line = _assert_one_line_usage_error(main(["wintgen", sub, str(_n2_file(path, h_leaf=leaf))]), capsys)
    assert line == "error: instance key 'h' must be a nested list of numbers"
    line = _assert_one_line_usage_error(main(["wintgen", sub, str(_n2_file(path, c=leaf))]), capsys)
    assert line == f"error: instance key 'c' must be a number, got {leaf}"


@pytest.mark.parametrize("sub", ["verify", "chain"])
@pytest.mark.parametrize("leaf", [10**20, 2**63, 2**64], ids=["1e20", "2^63", "2^64"])
def test_an_integer_in_a_form_is_read_as_a_float_as_it_is_for_c(sub, leaf, tmp_path, capsys):
    # numpy's integer inference refused 10^20 and 2^64 in h but took 2^63; c took them all as floats
    path, out = tmp_path / "i.json", tmp_path / "r.json"
    runs = []
    for value in (leaf, float(leaf)):
        code = main(["wintgen", sub, str(_n2_file(path, h_leaf=value)), "--out", str(out)])
        runs.append((code, out.read_bytes(), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == EXIT_OK and runs[0][2].err == ""


@pytest.mark.parametrize("sub", ["verify", "chain"])
def test_an_integer_beyond_double_range_overflows_in_a_form_as_in_c(sub, tmp_path, capsys):
    path = tmp_path / "i.json"
    lines = [_assert_one_line_usage_error(main(["wintgen", sub, str(_n2_file(path, **{key: 10**400}))]), capsys)
             for key in ("h_leaf", "c")]
    assert lines == ["error: arithmetic overflow: int too large to convert to float"] * 2


def test_sharpness_dimension_one_is_usage_error(capsys):
    code = main(["wintgen", "sharpness", "--n", "1", "--iterations", "10"])
    _assert_one_line_usage_error(code, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        *(["axioms", "--chart", chart, "--samples", "2", "--perturb-gamma", bad]
          for chart in ("r2", "h3") for bad in ("nan", "inf")),
        ["axioms", "--samples", "2", "--residual-tol", "nan"],
        ["axioms", "--samples", "2", "--residual-tol", "-1"],
        ["classify", "--samples", "2", "--residual-tol", "-1"],
        ["classify", "--fiber", "twisted", "--samples", "1", "--epsilon", "nan"],
        ["classify", "--samples", "0"],
        ["axioms", "--samples", "0"],
        ["curvature", "--samples", "0"],
        ["wintgen", "sweep", "--count", "0"],
    ],
    ids=" ".join,
)
def test_out_of_domain_number_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # no --out: a report would reject a non-finite value itself and hide the defect
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


def _sweep_config(tmp_path, **values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 8, "c_max": 0.0, **values}))
    return cfg


def _sweep_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("config_form", ["joined", "separate"])
def test_config_applies_and_explicit_joined_flag_wins(tmp_path, config_form):
    cfg = _sweep_config(tmp_path, count=5)
    config_args = [f"--config={cfg}"] if config_form == "joined" else ["--config", str(cfg)]
    out = tmp_path / "s.csv"
    assert main(config_args + ["wintgen", "sweep", "--count=7", "--out", str(out)]) == EXIT_OK
    rows = _sweep_rows(out)
    assert len(rows) == 7  # the explicit flag beats the config's count
    assert {row[1] for row in rows} == {"2"}  # the config's n still applies
    assert rows[0][0] == "8-0"


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"bogus": 1}, ["reproduce", "example-r2"]),
        ({"chart": "bogus"}, ["axioms"]),
        ({"count": "many"}, ["wintgen", "sweep"]),
        ({"count": 0}, ["wintgen", "sweep"]),
    ],
)
def test_config_unknown_key_or_bad_value_is_usage_error(tmp_path, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg)] + argv + ["--out", str(tmp_path / "r")]) == EXIT_USAGE


@pytest.mark.parametrize("value", [None, True, [1], {"a": 1}])
def test_config_value_neither_string_nor_number_is_usage_error(tmp_path, monkeypatch, capsys, value):
    # str() of these would reach argparse as "--out=None", "--out=True", ... and name a file
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": value}))
    assert main(["--config", str(cfg), "reproduce", "example-r2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("config error: ") and "'out'" in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_missing_file_is_usage_error(tmp_path, capsys):
    assert main([f"--config={tmp_path / 'absent.json'}", "reproduce", "example-r2"]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "3", "--count", "3", "--seed", "1", "--magnitude", "1e150"],
        ["sweep", "--n", "3", "--count", "3", "--seed", "1", "--magnitude", "1e160"],
        ["sweep", "--n", "2", "--count", "3", "--c-min", "1e308", "--c-max", "1.7e308"],
        # finite f and f' whose ratio leaves double precision: the error used to blame the inputs as non-finite
        ["sweep", "--n", "2", "--count", "3", "--f-min", "1e-320", "--f-max", "1e-320"],
        ["sharpness", "--n", "2", "--c", "1e308", "--iterations", "5"],
        ["sharpness", "--n", "2", "--f", "1e-200", "--iterations", "5"],
        ["sharpness", "--n", "2", "--fprime", "1e200", "--iterations", "5"],
        ["sharpness", "--n", "2", "--f", "1e-320", "--fprime", "1"],
    ],
    ids=" ".join,
)
def test_arithmetic_overflow_is_usage_error(argv, tmp_path, capsys):
    # the sweeps used to report "violations" computed from inf and NaN
    out = tmp_path / "report.out"
    line = _assert_one_line_usage_error(main(["wintgen", *argv, "--out", str(out)]), capsys)
    assert line.startswith("error: arithmetic overflow: ")
    if "1e-320" in argv:
        assert line == "error: arithmetic overflow: non-finite xi = -f'/f"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--f", "1e-200"], "error: arithmetic overflow: float division by zero"),
        (["--fprime", "1e200"], "error: arithmetic overflow: Numerical result out of range"),
        (["--c", "1e308", "--f", "1e-10"], "error: arithmetic overflow: non-finite bound (lhs=inf, rhs=nan)"),
        (["--c", "1e308"], "error: arithmetic overflow: non-finite bound (lhs=inf, rhs=nan)"),
        # every value finite, but xi = -f'/f overflows
        (["--f", "1e-320", "--fprime", "1"], "error: arithmetic overflow: non-finite xi = -f'/f"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
@pytest.mark.parametrize("iterations", ["1", "150"])
def test_sharpness_overflow_lines_are_pinned(flags, line, iterations, tmp_path, capsys):
    # the stacked passes raise where the one-trial-at-a-time climb raised, with its message
    out = tmp_path / "report.out"
    argv = ["wintgen", "sharpness", "--n", "2", "--iterations", iterations, *flags, "--out", str(out)]
    assert _assert_one_line_usage_error(main(argv), capsys) == line
    assert not out.exists()


UNBOUNDED_RANGE = "error: arithmetic overflow: high - low range exceeds valid bounds"


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--seed", "-1"], "error: expected non-negative integer"),
        (["--magnitude", "1e308"], UNBOUNDED_RANGE),
        (["--c-min", "-1e308", "--c-max", "1e308"], UNBOUNDED_RANGE),
        (["--seed", "-1", "--magnitude", "1e308"], "error: expected non-negative integer"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_sweep_draw_refusals_are_numpys_lines(flags, line, tmp_path, capsys):
    # the chunk draws raise numpy's own refusals themselves, in numpy's order: the seed, then the range
    out = tmp_path / "report.out"
    argv = ["wintgen", "sweep", "--n", "3", "--count", "3", *flags, "--out", str(out)]
    assert _assert_one_line_usage_error(main(argv), capsys) == line
    assert not out.exists()


@pytest.mark.parametrize("sub", ["verify", "chain"])
def test_instance_xi_overflow_is_named(sub, tmp_path, capsys):
    # finite f and f' whose xi = -f'/f overflows: the error used to blame the file's xi-slice entries
    data = lg.umbilic_instance(n=2).to_dict()
    data["f"], data["f_prime"] = 1e-320, 1
    path, out = tmp_path / "xi.json", tmp_path / "report.out"
    path.write_text(json.dumps(data))
    line = _assert_one_line_usage_error(main(["wintgen", sub, str(path), "--out", str(out)]), capsys)
    assert line == "error: arithmetic overflow: non-finite xi = -f'/f"
    assert not out.exists()


OUT_OF_RANGE = "error: arithmetic overflow: Numerical result out of range"
DIVISION_BY_ZERO = "error: arithmetic overflow: float division by zero"


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--f-min", "1e200", "--f-max", "1e200"], OUT_OF_RANGE),  # f**2 overflows; f**2 = 0.0 below
        (["--f-min", "1e-200", "--f-max", "1e-200", "--fprime-min", "0", "--fprime-max", "0"], DIVISION_BY_ZERO),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_sweep_overflow_lines_are_pinned(flags, line, tmp_path, capsys):
    # every field finite, but the terms over 4f^2 leave double precision: no rows and no file, not finite rows
    out = tmp_path / "report.out"
    argv = ["wintgen", "sweep", "--n", "2", "--count", "3", *flags, "--out", str(out)]
    assert _assert_one_line_usage_error(main(argv), capsys) == line
    assert not out.exists()


@pytest.mark.parametrize("f, fprime, line", [(1e200, 0.5, OUT_OF_RANGE), (1e-200, 0.0, DIVISION_BY_ZERO)])
@pytest.mark.parametrize("sub", ["verify", "chain"])
def test_instance_overflow_lines_are_pinned(sub, f, fprime, line, tmp_path, capsys):
    path, out = tmp_path / "umbilic.json", tmp_path / "report.out"
    path.write_text(lg.umbilic_instance(n=2, f_val=f, f_prime=fprime).to_json())
    assert _assert_one_line_usage_error(main(["wintgen", sub, str(path), "--out", str(out)]), capsys) == line
    assert not out.exists()


@pytest.mark.parametrize("cells", [[(0, 1), (1, 0)], [(0, 0)], [(0, 0), (1, 1)]],
                         ids=["off-diagonal", "diagonal", "trace"])
@pytest.mark.parametrize("sub", ["verify", "chain"])
def test_overflowing_operators_are_refused_by_the_bound(sub, cells, tmp_path, capsys):
    # tensor_core.commutator checks nothing: operators that overflow (A0 = (A + A*)/2 here, and its trace in
    # the last case) already make main_inequality's bound non-finite, and _slack refuses it before the chain
    phi = np.zeros((2, 2, 2))
    phi[0][tuple(zip(*cells))] = 1.7e308
    forms = [*phi.tolist(), [[-1.0, 0.0], [0.0, -1.0]]]  # the forced xi-slice -(f'/f) I
    path, out = tmp_path / "overflow.json", tmp_path / "report.out"
    path.write_text(json.dumps({"n": 2, "c": 0.0, "f": 1.0, "f_prime": 1.0, "h": forms, "h_star": forms}))
    out.write_bytes(b"previous report\n")
    line = _assert_one_line_usage_error(main(["wintgen", sub, str(path), "--out", str(out)]), capsys)
    assert line == "error: arithmetic overflow: non-finite bound (lhs=nan, rhs=nan)"
    assert out.read_bytes() == b"previous report\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--warp", "const", "--const-value", "1e200", "--samples", "2"],
        ["axioms", "--perturb-gamma", "1e200", "--samples", "2"],
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("out", [[], ["--out", "report.json"]], ids=["no-out", "out"])
def test_non_finite_geometry_residual_is_usage_error(argv, out, tmp_path, monkeypatch, capsys):
    # f^2 = inf and a 1e200 coefficient give NaN residuals; max(0.0, nan) dropped them
    # and the verdict came from the rest (classify "consistent", axioms "max 0")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    line = _assert_one_line_usage_error(main([*argv, *out]), capsys)
    assert line.startswith("error: arithmetic overflow: non-finite ")
    assert list(tmp_path.iterdir()) == []


def test_unwritten_report_with_non_finite_float_is_refused(monkeypatch, capsys):
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    with pytest.raises(ValueError, match="non-finite float"):
        cli._finish(argparse.Namespace(out=None), "axioms", True, {"worst": float("nan")}, "r.json", "summary")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--n", "100000", "--count", "1"], ["sharpness", "--n", "100000", "--iterations", "1"]],
    ids=" ".join,
)
def test_unallocatable_dimension_is_usage_error(argv, tmp_path, capsys):
    # n = 100000 asks for 7 PiB (sharpness) or 14 PiB (sweep), beyond a 128 TiB address space,
    # so the allocation fails at once
    out = tmp_path / "report.out"
    line = _assert_one_line_usage_error(main(["wintgen", *argv, "--out", str(out)]), capsys)
    assert line.startswith("error: out of memory: ")
    assert not out.exists()


def _run(argv, capsys, out):
    """Exit code, stdout and report bytes of one ``main`` call writing to ``out``."""
    out.unlink(missing_ok=True)
    code = main([*argv, "--out", str(out)])
    return code, capsys.readouterr().out, out.read_bytes()


def test_parser_reuse_keeps_no_config_value(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 5}))
    out = tmp_path / "s.csv"
    sweep_argv = ["wintgen", "sweep", "--n", "2", "--seed", "3", "--c-max", "0"]
    assert main(["--config", str(cfg), *sweep_argv, "--out", str(out)]) == EXIT_OK
    assert len(_sweep_rows(out)) == 5
    assert main([*sweep_argv, "--out", str(out)]) == EXIT_OK
    assert len(_sweep_rows(out)) == 1000  # the default count, not the config's


def test_parser_reuse_keeps_no_explicit_flag(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["wintgen", "sweep", "--n", "2", "--count", "3", "--seed", "3", "--magnitude", "0",
                 "--c-min", "-1", "--c-max", "0", "--format", "json",
                 "--out", str(tmp_path / "a.json")]) == EXIT_OK
    assert main(["wintgen", "sweep", "--n", "2", "--count", "3", "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines() == sweep_csv_lines(wg.sweep(n=2, count=3, seed=3))


@pytest.mark.parametrize("bad", [["--format", "xml"], ["--bogus", "1"]], ids=" ".join)
def test_usage_error_leaves_next_call_unchanged(bad, tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(wg.random_instance(3, seed=4).to_json())
    good = ["wintgen", "chain", str(path)]
    alone = _run(good, capsys, tmp_path / "r.json")
    assert main(["wintgen", "sweep", "--count", "2", *bad]) == EXIT_USAGE
    capsys.readouterr()
    assert _run(good, capsys, tmp_path / "r.json") == alone


def test_handler_is_looked_up_when_the_command_runs(tmp_path, monkeypatch):
    path = tmp_path / "u.json"
    path.write_text(lg.umbilic_instance().to_json())
    assert main(["wintgen", "chain", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_wintgen_chain", lambda args: seen.append(args.instance) or 7)
    assert main(["wintgen", "chain", str(path)]) == 7
    assert seen == [str(path)]


def test_repeated_calls_build_the_parser_at_most_once(monkeypatch, capsys):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(3):
        assert main(["reproduce", "example-r2"]) == EXIT_OK
    assert len(built) <= 1


# Malformed instance files: each used to end in a traceback (TypeError or
# RecursionError), or in a verdict for a silently truncated n.
UMBILIC = lg.umbilic_instance(n=2).to_dict()
MALFORMED_FILES = {
    "c-null": json.dumps({**UMBILIC, "c": None}),
    "h-object": json.dumps({**UMBILIC, "h": {"a": 1}}),
    "top-level-number": "5",
    "n-fractional": json.dumps({**UMBILIC, "n": 2.7}),
    "nested-too-deeply": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("sub", ["verify", "chain"])
@pytest.mark.parametrize("text", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_malformed_instance_file_is_usage_error(text, sub, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(text)
    out = tmp_path / "report.out"
    line = _assert_one_line_usage_error(main(["wintgen", sub, str(path), "--out", str(out)]), capsys)
    assert not out.exists()
    assert "instance" in line


def test_integral_float_dimension_is_accepted(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({**UMBILIC, "n": 2.0}))
    assert main(["wintgen", "verify", str(path)]) == EXIT_OK


# Out-of-domain flags are checked once per command, and the message names the
# parameter; they used to surface as numpy's or Python's own messages.
BAD_FLAGS = {
    "sharpness --n 0": ("n must be >= 2", ["sharpness", "--n", "0"]),
    "sharpness --n -1": ("n must be >= 2", ["sharpness", "--n", "-1"]),
    "sharpness --f 0": ("f must be positive", ["sharpness", "--f", "0"]),
    "sweep --magnitude -1": ("magnitude must be >= 0", ["sweep", "--magnitude", "-1"]),
    "sweep --c-min 3 --c-max -3": ("c_range must have low <= high", ["sweep", "--c-min", "3", "--c-max", "-3"]),
    "sweep --f-min 2 --f-max 1": ("f_range must have low <= high", ["sweep", "--f-min", "2", "--f-max", "1"]),
    "sweep --n 1": ("n must be >= 2", ["sweep", "--n", "1"]),
    "sweep --f-min 0 --f-max 1": ("f_range must be positive", ["sweep", "--f-min", "0", "--f-max", "1"]),
}
SMALL_RUN = {"sharpness": ["--iterations", "5"], "sweep": ["--count", "5"]}


@pytest.mark.parametrize("message, argv", BAD_FLAGS.values(), ids=BAD_FLAGS)
def test_out_of_domain_flag_names_the_parameter(message, argv, tmp_path, capsys):
    out = tmp_path / "report.out"
    code = main(["wintgen", *argv, *SMALL_RUN[argv[0]], "--out", str(out)])
    line = _assert_one_line_usage_error(code, capsys)
    assert line.startswith(f"error: {message}, got ")
    assert not out.exists()


# Out-of-domain instance fields are refused as the flags are, naming the value;
# f used to be refused as "f_val must be positive", with no value.
ZERO_FORM = [[[0.0]], [[0.0]]]
BAD_INSTANCE_FIELDS = {
    "n 1": ("n must be >= 2, got 1", {"n": 1, "f_prime": 0.0, "h": ZERO_FORM, "h_star": ZERO_FORM}),
    "f 0": ("f must be positive, got 0.0", {"f": 0.0}),
    "f -1.5": ("f must be positive, got -1.5", {"f": -1.5}),
}


@pytest.mark.parametrize("sub", ["verify", "chain"])
@pytest.mark.parametrize("message, changes", BAD_INSTANCE_FIELDS.values(), ids=BAD_INSTANCE_FIELDS)
def test_out_of_domain_instance_field_names_the_value(message, changes, sub, tmp_path, capsys):
    path = _malformed_instance(tmp_path, "bad", **changes)
    out = tmp_path / "report.out"
    line = _assert_one_line_usage_error(main(["wintgen", sub, str(path), "--out", str(out)]), capsys)
    assert ", got " in line and line.endswith(message)
    assert not out.exists()


def test_equal_bounds_and_zero_magnitude_stay_valid(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["wintgen", "sweep", "--n", "2", "--count", "4", "--magnitude", "0", "--f-min", "1", "--f-max", "1",
            "--c-min", "0", "--c-max", "0", "--fprime-min", "0.5", "--fprime-max", "0.5", "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = _sweep_rows(out)
    assert len(rows) == 4 and {tuple(r[2:5]) for r in rows} == {("0", "1", "0.5")}


# ---------------------------------------------------------------------------
# stacked geometry commands
# ---------------------------------------------------------------------------


GEOMETRY_COMMANDS = {  # argv -> (chart dimension, samples)
    ("axioms", "--chart", "r2"): (2, 100),
    ("axioms", "--chart", "h3"): (3, 100),
    ("axioms", "--chart", "h3", "--perturb-gamma", "0.01"): (3, 100),
    ("reproduce", "example-r2"): (2, 20),
    ("reproduce", "example-h3"): (3, 50),
    ("curvature", "--chart", "r2", "--samples", "100"): (2, 100),
    ("curvature", "--chart", "h3", "--samples", "30"): (3, 30),
    ("classify", "--fiber", "twisted", "--samples", "30"): (5, 30),
}


def _report_and_stdout(argv, path, capsys):
    code = main([*argv, "--seed", "4", "--out", str(path)])
    return code, path.read_bytes(), capsys.readouterr().out.replace(str(path), "OUT")


@pytest.mark.parametrize("budget", [1, 2000])
@pytest.mark.parametrize("argv", list(GEOMETRY_COMMANDS), ids=" ".join)
def test_geometry_chunks_leave_reports_byte_identical(argv, budget, tmp_path, monkeypatch, capsys):
    dim, samples = GEOMETRY_COMMANDS[argv]
    monkeypatch.setattr(sg, "GEOMETRY_CHUNK_FLOATS", 1 << 24)  # classify's 30 points are two chunks by default
    assert samples <= sg.geometry_chunk(dim)  # one chunk: one rng.uniform call
    one_chunk = _report_and_stdout(argv, tmp_path / "one.json", capsys)
    monkeypatch.setattr(sg, "GEOMETRY_CHUNK_FLOATS", budget)
    assert samples >= 3 * sg.geometry_chunk(dim)
    assert _report_and_stdout(argv, tmp_path / "chunked.json", capsys) == one_chunk


def _sequential_draws(argv, seed, rng=None):
    """Each sample's draws in the order of one sample at a time: point first, then probes.

    ``rng`` (default: a fresh generator seeded with ``seed``) is left just past the draws.
    """
    rng = np.random.default_rng(seed) if rng is None else rng
    spec = wc.builtin_h3_example()
    draws = {
        ("axioms", "r2"): lambda: [rng.uniform([-1.0] * 2, [1.0] * 2), *(rng.uniform(-1.0, 1.0, 2) for _ in range(4))],
        ("axioms", "h3"): lambda: [rng.uniform(*np.array(wc.default_sample_box(3)).T),
                                   *(rng.uniform(-1.0, 1.0, 3) for _ in range(4))],
        ("curvature", "r2"): lambda: [rng.uniform(-1.0, 1.0, 2)],
        ("curvature", "h3"): lambda: [warped_points(spec, 1, rng)[0],
                                      *(rng.uniform(-1.0, 1.0, 3) for _ in range(2)),
                                      *(rng.uniform(-1.0, 1.0, 2) for _ in range(3))],
        ("reproduce", "example-r2"): lambda: [rng.uniform(-1.0, 1.0, 2), *(rng.uniform(-1, 1, 2) for _ in range(4))],
        ("reproduce", "example-h3"): lambda: [warped_points(spec, 1, rng)[0],
                                              *(rng.uniform(-1, 1, 3) for _ in range(6))],
    }[argv[0], argv[-1]]
    count = {"axioms": 10, "curvature": 20, "reproduce": 20 if argv[-1] == "example-r2" else 50}[argv[0]]
    return [draws() for _ in range(count)]


@pytest.mark.parametrize("budget", [None, 1000])
@pytest.mark.parametrize(
    "argv",
    [["axioms", "--samples", "10", "--chart", "r2"], ["axioms", "--samples", "10", "--chart", "h3"],
     ["curvature", "--chart", "r2"], ["curvature", "--chart", "h3"],
     ["reproduce", "example-r2"], ["reproduce", "example-h3"]],
    ids=" ".join,
)
def test_one_call_chunk_draws_equal_the_per_sample_draws(argv, budget, tmp_path, monkeypatch):
    # each chunk is one rng.uniform call; the doubles and the generator state must be those of
    # the old draw loop, one sample and one array at a time
    chunks, states, rngs = [], [], []
    chunked = cli._chunks

    def recording(count, dim, rng, *boxes):
        rngs.append(rng)
        for chunk in chunked(count, dim, rng, *boxes):
            chunks.append(chunk)
            states.append(rng.bit_generator.state)
            yield chunk

    closed_form, probes = wc.warped_curvature_closed_form, []

    def recording_probes(spec, points, U, V, W):
        probes.extend(zip(U, V, W))
        return closed_form(spec, points, U, V, W)

    monkeypatch.setattr(cli, "_chunks", recording)
    monkeypatch.setattr(wc, "warped_curvature_closed_form", recording_probes)
    if budget is not None:
        monkeypatch.setattr(sg, "GEOMETRY_CHUNK_FLOATS", budget)  # chunks of 1 or 2 samples
    assert main([*argv, "--seed", "9", "--out", str(tmp_path / "r.json")]) == EXIT_OK
    oracle = np.random.default_rng(9)
    want = _sequential_draws(argv, 9, rng=oracle)
    if argv[-1] == "example-h3":  # then the classification point, one more _chunks draw
        want.append([warped_points(wc.builtin_h3_example(), 1, oracle)[0]])
    if argv[-1] == "h3" and argv[0] == "curvature":  # drawn V, U, W; handed over as U, V, W
        assert len(probes) == len(want)
        for (u, v, w), (*_, vf, uf, wf) in zip(probes, want):
            assert np.array_equal(u, uf) and np.array_equal(v, vf) and np.array_equal(w, wf)
    assert (len(chunks) == len(rngs)) is (budget is None)
    got = [sample for chunk in chunks for sample in zip(*chunk)]
    assert len(got) == len(want)
    for sample, expected in zip(got, want):
        for a, b in zip(sample, expected, strict=True):
            assert np.array_equal(a, b)
    assert states[-1] == oracle.bit_generator.state  # after the last chunk
    assert all(rng is rngs[0] for rng in rngs)


@pytest.mark.parametrize(
    "argv",
    [["axioms", "--samples", "10", "--chart", "r2"], ["axioms", "--samples", "10", "--chart", "h3"],
     ["reproduce", "example-r2"], ["reproduce", "example-h3"]],
    ids=" ".join,
)
def test_geometry_samples_keep_the_one_sample_at_a_time_stream(argv, tmp_path, monkeypatch):
    seen = []

    def recording(chart, points, *probes):
        seen.extend(zip(points, *probes))
        return residuals(chart, points, *probes)

    def recording_pair(chart, points, u, v, probes):  # reproduce example-h3: the sectional pair, then the probes
        seen.extend(zip(points, u, v, *probes))
        return pair(chart, points, u, v, probes)

    residuals, pair = sg.axiom_residuals, sg.levi_civita_sectional_and_axioms
    monkeypatch.setattr(sg, "GEOMETRY_CHUNK_FLOATS", 3000)  # several chunks
    monkeypatch.setattr(sg, "axiom_residuals", recording)
    monkeypatch.setattr(sg, "levi_civita_sectional_and_axioms", recording_pair)
    assert main([*argv, "--seed", "6", "--out", str(tmp_path / "r.json")]) == EXIT_OK
    want = _sequential_draws(argv, 6)
    assert len(seen) == len(want)
    for got, expected in zip(seen, want):
        for a, b in zip(got, expected, strict=True):
            npt.assert_array_equal(a, b)


@pytest.mark.parametrize("budget", [None, 1])
def test_singular_metric_names_the_first_singular_sample(budget, monkeypatch, capsys):
    points = [draw[0] for draw in _sequential_draws(["axioms", "r2"], 8)][:5]
    bad = points[3].astype(complex).tobytes()  # the point row of sample 3's jet
    base = sg.builtin_r2_example()
    chart = base._replace(metric=stacked(lambda x: np.zeros((2, 2)) if np.asarray(x, dtype=complex).tobytes() == bad
                                         else np.eye(2)), label="singular-at-sample-3")
    monkeypatch.setitem(cli.CHARTS, "r2", lambda: chart)
    if budget is not None:
        monkeypatch.setattr(sg, "GEOMETRY_CHUNK_FLOATS", budget)
    line = _assert_one_line_usage_error(main(["axioms", "--chart", "r2", "--samples", "5", "--seed", "8"]), capsys)
    assert line == f"error: singular metric at {points[3].tolist()} on singular-at-sample-3"


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("chart_name", ["r2", "h3"])
def test_non_finite_residual_names_the_first_sample_and_residual(chart_name, budget, monkeypatch, capsys):
    draws = _sequential_draws(["axioms", chart_name], 2)[:4]
    chart = cli._perturbed_chart(cli.CHARTS[chart_name](), 1e200)
    want = None
    with np.errstate(all="ignore"):
        for point, *probes in draws:  # one sample at a time, residuals in report order
            for name, value in sg.axiom_residuals(chart, point[None], *(q[None] for q in probes)).items():
                if want is None and not np.isfinite(value[0]):
                    want = f"error: arithmetic overflow: non-finite {name} check at {point.tolist()}"
    assert want is not None
    if budget is not None:
        monkeypatch.setattr(sg, "GEOMETRY_CHUNK_FLOATS", budget)
    argv = ["axioms", "--chart", chart_name, "--samples", "4", "--seed", "2", "--perturb-gamma", "1e200"]
    assert _assert_one_line_usage_error(main(argv), capsys) == want


@pytest.mark.parametrize("budget", [None, 1])
def test_non_finite_residual_order_is_sample_first(budget, monkeypatch, capsys):
    # sample 2 has a NaN in a later residual than sample 3's inf: sample order wins over residual order
    residuals = sg.axiom_residuals
    offset = []

    def crafted(chart, points, *probes):
        out = residuals(chart, points, *probes)
        for key, sample, value in (("k_symmetry", 2, np.nan), ("duality", 3, np.inf)):
            index = sample - sum(offset)
            if 0 <= index < len(points):
                out[key][index] = value
        offset.append(len(points))
        return out

    monkeypatch.setattr(sg, "axiom_residuals", crafted)
    if budget is not None:
        monkeypatch.setattr(sg, "GEOMETRY_CHUNK_FLOATS", budget)
    point = _sequential_draws(["axioms", "r2"], 5)[2][0]
    line = _assert_one_line_usage_error(main(["axioms", "--chart", "r2", "--samples", "5", "--seed", "5"]), capsys)
    assert line == f"error: arithmetic overflow: non-finite k_symmetry check at {point.tolist()}"


@pytest.mark.parametrize(
    "argv, function, check",
    [
        (["curvature", "--chart", "r2"], "sectional_curvature", "nabla sectional"),
        # row 90 of 180: past the 50 reported rows, where max() dropped the NaN and the command exited 1
        (["curvature", "--chart", "h3"], "sectional_curvature", "levi-civita sectional"),
        (["reproduce", "example-r2"], "sectional_curvature", "curvature(nabla)"),
        (["reproduce", "example-h3"], "levi_civita_sectional_and_axioms", "hyperbolic sectional"),
    ],
    ids=["curvature r2", "curvature h3", "reproduce example-r2", "reproduce example-h3"],
)
def test_non_finite_check_value_names_the_first_check_and_sample(argv, function, check, tmp_path, monkeypatch, capsys):
    original = getattr(sg, function)

    def nan_at_sample_10(*args):
        out = original(*args)
        (out[0] if isinstance(out, tuple) else out)[10] = np.nan
        return out

    monkeypatch.setattr(sg, function, nan_at_sample_10)
    point = _sequential_draws(argv, 0)[10][0]
    out = tmp_path / "report.json"
    line = _assert_one_line_usage_error(main([*argv, "--seed", "0", "--out", str(out)]), capsys)
    assert line == f"error: arithmetic overflow: non-finite {check} check at {point.tolist()}"
    assert not out.exists()


def test_non_finite_check_value_comes_before_a_later_chunks_error(monkeypatch, capsys):
    # chunks are folded as they are drawn: an error raised for the second chunk (of 173 + 127 samples)
    # used to hide the first chunk's NaN, when every chunk was evaluated before any was judged
    original, calls = sg.sectional_curvature, []

    def nan_then_error(*args):
        calls.append(args)
        if len(calls) > 1:
            raise ValueError("second chunk")
        out = original(*args)
        out[10] = np.nan
        return out

    monkeypatch.setattr(sg, "sectional_curvature", nan_then_error)
    point = _sequential_draws(["curvature", "h3"], 0)[10][0]
    line = _assert_one_line_usage_error(main(["curvature", "--chart", "h3", "--samples", "300", "--seed", "0"]), capsys)
    assert line == f"error: arithmetic overflow: non-finite levi-civita sectional check at {point.tolist()}"
    assert len(calls) == 1


def _loads_numpy_random(tmp_path, code: str) -> bool:
    """Whether ``numpy.random`` is imported after ``code`` runs in a fresh interpreter on the package sources."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = f"import sys\n{code}\nprint('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


def test_numpy_random_is_imported_only_by_a_command_that_draws(tmp_path):
    instance = tmp_path / "instance.json"
    instance.write_text(wg.random_instance(3, seed=5, index=1).to_json())
    commands = [["wintgen", "chain", str(instance), "--out", str(tmp_path / "chain.json")],
                ["wintgen", "verify", str(instance), "--out", str(tmp_path / "verify.json")]]
    runs = "".join(f"statwintgen.cli.main({argv!r})\n" for argv in commands)
    assert not _loads_numpy_random(tmp_path, "import statwintgen.cli")
    assert not _loads_numpy_random(tmp_path, "import statwintgen.cli\n" + runs)
    sweep = ["wintgen", "sweep", "--n", "2", "--count", "3", "--out", str(tmp_path / "sweep.csv")]
    assert _loads_numpy_random(tmp_path, f"import statwintgen.cli\nstatwintgen.cli.main({sweep!r})")
