import argparse
import json
from dataclasses import replace

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

from helpers import stacked


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


def test_classify_evaluates_each_sample_point_once(monkeypatch, capsys):
    calls = []
    original = wc._d_phi_and_omega

    def counting(spec, points):
        calls.extend(points)
        return original(spec, points)

    monkeypatch.setattr(wc, "_d_phi_and_omega", counting)
    assert main(["classify", "--warp", "cosh", "--fiber", "twisted", "--samples", "5"]) == EXIT_OK
    assert len(calls) == 5


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
        ["sharpness", "--n", "2", "--c", "1e308", "--iterations", "5"],
        ["sharpness", "--n", "2", "--f", "1e-200", "--iterations", "5"],
        ["sharpness", "--n", "2", "--fprime", "1e200", "--iterations", "5"],
    ],
    ids=" ".join,
)
def test_arithmetic_overflow_is_usage_error(argv, tmp_path, capsys):
    # the sweeps used to report "violations" computed from inf and NaN
    out = tmp_path / "report.out"
    line = _assert_one_line_usage_error(main(["wintgen", *argv, "--out", str(out)]), capsys)
    assert line.startswith("error: arithmetic overflow: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--f", "1e-200"], "error: arithmetic overflow: float division by zero"),
        (["--fprime", "1e200"], "error: arithmetic overflow: Numerical result out of range"),
        (["--c", "1e308", "--f", "1e-10"], "error: arithmetic overflow: non-finite bound (lhs=inf, rhs=nan)"),
        (["--c", "1e308"], "error: arithmetic overflow: non-finite bound (lhs=inf, rhs=nan)"),
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
}
SMALL_RUN = {"sharpness": ["--iterations", "5"], "sweep": ["--count", "5"]}


@pytest.mark.parametrize("message, argv", BAD_FLAGS.values(), ids=BAD_FLAGS)
def test_out_of_domain_flag_names_the_parameter(message, argv, tmp_path, capsys):
    out = tmp_path / "report.out"
    code = main(["wintgen", *argv, *SMALL_RUN[argv[0]], "--out", str(out)])
    line = _assert_one_line_usage_error(code, capsys)
    assert line.startswith(f"error: {message}, got ")
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
}


def _report_and_stdout(argv, path, capsys):
    code = main([*argv, "--seed", "4", "--out", str(path)])
    return code, path.read_bytes(), capsys.readouterr().out.replace(str(path), "OUT")


@pytest.mark.parametrize("budget", [1, 2000])
@pytest.mark.parametrize("argv", list(GEOMETRY_COMMANDS), ids=" ".join)
def test_geometry_chunks_leave_reports_byte_identical(argv, budget, tmp_path, monkeypatch, capsys):
    dim, samples = GEOMETRY_COMMANDS[argv]
    assert samples <= sg.geometry_chunk(dim)  # the default budget: one chunk
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
        ("curvature", "h3"): lambda: [wc.sample_warped_points(spec, 1, rng)[0],
                                      *(rng.uniform(-1.0, 1.0, 3) for _ in range(2)),
                                      *(rng.uniform(-1.0, 1.0, 2) for _ in range(3))],
        ("reproduce", "example-r2"): lambda: [rng.uniform(-1.0, 1.0, 2), *(rng.uniform(-1, 1, 2) for _ in range(4))],
        ("reproduce", "example-h3"): lambda: [wc.sample_warped_points(spec, 1, rng)[0],
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
            yield chunk
        states.append(rng.bit_generator.state)

    closed_form, probes = wc.warped_curvature_closed_form, []

    def recording_probes(spec, points, case, U=None, V=None, W=None):
        if case == "a":
            probes.extend(zip(U, V, W))
        return closed_form(spec, points, case, U=U, V=V, W=W)

    monkeypatch.setattr(cli, "_chunks", recording)
    monkeypatch.setattr(wc, "warped_curvature_closed_form", recording_probes)
    if budget is not None:
        monkeypatch.setattr(sg, "GEOMETRY_CHUNK_FLOATS", budget)  # chunks of 1 or 2 samples
    assert main([*argv, "--seed", "9", "--out", str(tmp_path / "r.json")]) == EXIT_OK
    oracle = np.random.default_rng(9)
    want = _sequential_draws(argv, 9, rng=oracle)
    if argv[-1] == "h3" and argv[0] == "curvature":  # drawn V, U, W; handed over as U, V, W
        assert len(probes) == len(want)
        for (u, v, w), (*_, vf, uf, wf) in zip(probes, want):
            assert np.array_equal(u, uf) and np.array_equal(v, vf) and np.array_equal(w, wf)
    assert (len(chunks) == 1) is (budget is None)
    got = [sample for chunk in chunks for sample in zip(*chunk)]
    assert len(got) == len(want)
    for sample, expected in zip(got, want):
        for a, b in zip(sample, expected, strict=True):
            assert np.array_equal(a, b)
    assert states == [oracle.bit_generator.state]  # after the last chunk
    if argv[-1] == "example-h3":
        wc.sample_warped_points(wc.builtin_h3_example(), 1, oracle)  # the classification point after the chunks
    assert rngs[0].bit_generator.state == oracle.bit_generator.state


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

    residuals = sg.axiom_residuals
    monkeypatch.setattr(sg, "GEOMETRY_CHUNK_FLOATS", 3000)  # several chunks
    monkeypatch.setattr(sg, "axiom_residuals", recording)
    assert main([*argv, "--seed", "6", "--out", str(tmp_path / "r.json")]) == EXIT_OK
    want = _sequential_draws(argv, 6)
    if argv[0] == "reproduce" and argv[-1] == "example-h3":
        want = [[p, *probes] for p, _, _, *probes in want]  # the sectional pair u, v comes before the probes
    assert len(seen) == len(want)
    for got, expected in zip(seen, want):
        for a, b in zip(got, expected, strict=True):
            npt.assert_array_equal(a, b)


@pytest.mark.parametrize("budget", [None, 1])
def test_singular_metric_names_the_first_singular_sample(budget, monkeypatch, capsys):
    points = [draw[0] for draw in _sequential_draws(["axioms", "r2"], 8)][:5]
    bad = points[3].tobytes()
    base = sg.builtin_r2_example()
    chart = replace(base, metric=stacked(lambda x: np.zeros((2, 2)) if np.asarray(x).tobytes() == bad else np.eye(2)),
                    label="singular-at-sample-3")
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
            for name, value in sg.axiom_residuals(chart, point, *probes).items():
                if want is None and not np.isfinite(value):
                    want = f"error: arithmetic overflow: non-finite {name} residual at {point.tolist()}"
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
    assert line == f"error: arithmetic overflow: non-finite k_symmetry residual at {point.tolist()}"
