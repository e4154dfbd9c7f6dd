"""The reports of ``axioms``, ``curvature`` and ``reproduce`` against the oracles of ``check_oracle.py``.

The commands fold their checks chunk by chunk (``cli._fold``) and keep only
what a report holds.  Their reports and summary lines must equal what
``check_oracle.py`` builds one row at a time: every row's ``check``,
``value``, ``target``, ``tol`` and ``ok``, ``check_count``, ``passed``, the
worst deviation and the 50-row slice of ``curvature``; and for ``axioms``
what its per-chunk loop kept: each residual's worst value, the first 20
breaches and the breach count.  The fold's traced memory peak does not grow
with ``--samples``.
"""

import json
import tracemalloc

import pytest

import check_oracle as oracle
import statwintgen.statistical_geometry as sg
import statwintgen.warped_contact as wc
from statwintgen.cli import EXIT_OK, EXIT_VIOLATION, format_float, main

COMMANDS = {
    "curvature r2": ["curvature", "--chart", "r2"],
    "curvature h3": ["curvature", "--chart", "h3", "--samples", "300"],  # two chunks: 173 and 127 samples
    "reproduce example-r2": ["reproduce", "example-r2"],
    "reproduce example-h3": ["reproduce", "example-h3"],
}
SAMPLES = {"curvature r2": 20, "curvature h3": 300, "reproduce example-r2": 20, "reproduce example-h3": 50}


@pytest.mark.parametrize("shift", [0.0, 1e-3], ids=["builtin", "shifted"])
@pytest.mark.parametrize("name", COMMANDS)
def test_report_equals_the_per_sample_rows(name, shift, tmp_path, monkeypatch, capsys):
    if shift:  # every connection coefficient of the r2 chart (the h3 fiber) and f'' of exp move: some rows fail
        builtin, exp = sg.builtin_r2_example(), wc.exp_warping()
        chart = builtin._replace(gamma=lambda x: builtin.gamma(x) + shift)
        warping = exp._replace(f_double_prime=lambda t: exp.f_double_prime(t) + shift)
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
        assert [list(row) for row in report["checks"]] == [keys] * min(50, len(rows))  # r2: 20 x 2 rows
        assert report["checks"] == [{k: row[k] for k in keys} for row in rows[:50]]
        assert f"{want['check_count']} checks, worst deviation {format_float(want['worst_deviation'])} " in stdout
    else:
        assert [list(row) for row in report["checks"]] == [list(row) for row in rows]
        assert report["checks"] == rows
        assert f"{'PASS' if want['passed'] else 'FAIL'} (worst {want['worst_in_tol']:.3g}x tol)" in stdout


AXIOMS = {  # chart, --perturb-gamma, --samples, --seed
    "r2": ("r2", 0.0, 100, 4),
    "r2 perturbed": ("r2", 0.01, 100, 4),
    "h3": ("h3", 0.0, 100, 4),
    "h3 perturbed": ("h3", 0.01, 100, 4),
    # three chunks (819, 819 and 362 samples) and a breach at every sample: the 20-row cap and the count
    # span chunks
    "r2 perturbed 3 chunks": ("r2", 0.01, 2000, 0),
}


@pytest.mark.parametrize("name", AXIOMS)
def test_axioms_report_equals_the_per_chunk_loop(name, tmp_path, capsys):
    chart, perturb, samples, seed = AXIOMS[name]
    want = oracle.axioms(chart, seed, samples, perturb)
    assert want["passed"] == (not perturb)
    out = tmp_path / "report.json"
    argv = ["--chart", chart, "--perturb-gamma", str(perturb), "--samples", str(samples), "--seed", str(seed)]
    code = main(["axioms", *argv, "--out", str(out)])
    assert code == (EXIT_OK if want["passed"] else EXIT_VIOLATION)
    report = json.loads(out.read_text())
    assert report["passed"] == want["passed"]
    assert report["worst"] == want["worst"]
    assert report["breaches"] == want["breaches"][:20]
    assert report["breach_count"] == len(want["breaches"])
    if samples == 2000:
        assert report["breach_count"] == 2000
    lines = [f"axioms[{chart}] {r:<16} max {format_float(v)}" for r, v in want["worst"].items()]
    lines.append(f"axioms[{chart}] {'PASS' if want['passed'] else 'FAIL'} ({len(want['breaches'])} breaches)")
    assert capsys.readouterr().out == "\n".join(lines) + f" -> {out}\n"


def _traced_peak(argv: list[str], out) -> int:
    tracemalloc.start()
    try:
        main([*argv, "--out", str(out)])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "argv, samples",
    [
        (["curvature", "--chart", "h3"], 372),  # three chunks: 173, 173 and 26
        (["curvature", "--chart", "r2"], 1820),  # three chunks: 819, 819 and 182
        (["axioms", "--chart", "r2", "--perturb-gamma", "0.01"], 1820),  # a breach at every sample
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_traced_peak_does_not_grow_with_samples(argv, samples, tmp_path, capsys):
    out = tmp_path / "report.json"
    main([*argv, "--samples", str(samples), "--out", str(out)])  # warm-up: imports and caches
    small = _traced_peak([*argv, "--samples", str(samples)], out)
    large = _traced_peak([*argv, "--samples", str(10 * samples)], out)
    assert large - small <= 0.25 * 2**20, (small, large)
