"""The check rows of ``curvature`` and ``reproduce`` against the per-sample ``add`` loop.

The commands keep their checks as columns (``cli._check_table``) and build
report dicts only for the rows a report holds.  Their reports and summary
lines must equal what ``check_oracle.py`` builds one row at a time: every
row's ``check``, ``value``, ``target``, ``tol`` and ``ok``, ``check_count``,
``passed``, the worst deviation and the 50-row slice of ``curvature``.
"""

import json
from dataclasses import replace

import pytest

import check_oracle as oracle
import statwintgen.statistical_geometry as sg
import statwintgen.warped_contact as wc
from statwintgen.cli import EXIT_OK, EXIT_VIOLATION, format_float, main

COMMANDS = {
    "curvature r2": ["curvature", "--chart", "r2"],
    "curvature h3": ["curvature", "--chart", "h3", "--samples", "300"],  # two chunks: 186 and 114 samples
    "reproduce example-r2": ["reproduce", "example-r2"],
    "reproduce example-h3": ["reproduce", "example-h3"],
}
SAMPLES = {"curvature r2": 20, "curvature h3": 300, "reproduce example-r2": 20, "reproduce example-h3": 50}


@pytest.mark.parametrize("shift", [0.0, 1e-3], ids=["builtin", "shifted"])
@pytest.mark.parametrize("name", COMMANDS)
def test_report_equals_the_per_sample_rows(name, shift, tmp_path, monkeypatch, capsys):
    if shift:  # every connection coefficient of the r2 chart (the h3 fiber) and f'' of exp move: some rows fail
        builtin, exp = sg.builtin_r2_example(), wc.exp_warping()
        chart = replace(builtin, gamma=lambda x: builtin.gamma(x) + shift)
        warping = replace(exp, f_double_prime=lambda t: exp.f_double_prime(t) + shift)
        monkeypatch.setattr(sg, "builtin_r2_example", lambda: chart)
        monkeypatch.setattr(wc, "builtin_r2_example", lambda: chart)
        monkeypatch.setattr(wc, "exp_warping", lambda: warping)
    rows = oracle.checks(*name.split(), 4, SAMPLES[name])
    want = oracle.summary(rows)
    assert want["passed"] == (not shift)
    out = tmp_path / "report.json"
    code = main([*COMMANDS[name], "--seed", "4", "--out", str(out)])
    assert code == (EXIT_OK if want["passed"] else EXIT_VIOLATION)
    report = json.loads(out.read_text())
    stdout = capsys.readouterr().out
    assert report["passed"] == want["passed"]
    assert report["check_count"] == want["check_count"]
    if name.startswith("curvature"):
        assert report["worst_deviation"] == want["worst_deviation"]
        keys = ["check", "value", "target", "ok"]
        assert [list(row) for row in report["checks"]] == [keys] * 50
        assert report["checks"] == [{k: row[k] for k in keys} for row in rows[:50]]
        assert f"{want['check_count']} checks, worst deviation {format_float(want['worst_deviation'])} " in stdout
    else:
        assert [list(row) for row in report["checks"]] == [list(row) for row in rows]
        assert report["checks"] == rows
        assert f"{'PASS' if want['passed'] else 'FAIL'} (worst {want['worst_in_tol']:.3g}x tol)" in stdout
