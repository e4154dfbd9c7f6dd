"""Tests of the benchmark itself: oracle, tracer transparency, failure counting."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads
from statwintgen import cli, legendrian, statistical_geometry, tensor_core, warped_contact, wintgen

PKG = SimpleNamespace(cli=cli, wintgen=wintgen, legendrian=legendrian, tensor_core=tensor_core,
                      statistical_geometry=statistical_geometry, warped_contact=warped_contact)


def _instances():
    yield from (wintgen.random_instance(n, seed=41, index=k) for n in (2, 3, 5, 8) for k in range(3))
    yield legendrian.umbilic_instance(3, c=0.0, f_val=1.5, f_prime=1.5)
    yield wintgen.random_instance(3, c_range=(3.5, 4.0), fprime_range=(-0.1, 0.1), seed=7, index=0)


@pytest.mark.parametrize("inst", list(_instances()), ids=lambda i: f"n{i.n}")
def test_oracle_agrees_with_main_inequality(inst):
    report = wintgen.main_inequality(inst, include_chain=False)
    want = oracle.wintgen_bound(inst.n, inst.c, inst.f_val, inst.f_prime, inst.h, inst.h_star)
    assert oracle.close(want.lhs, report.lhs)
    assert oracle.close(want.rhs, report.rhs)
    assert oracle.close(want.slack, report.slack)


def test_oracle_reproduces_rp2_counterexample():
    zero = np.zeros((3, 2, 2))
    want = oracle.wintgen_bound(2, 4.0, 1.0, 0.0, zero, zero)
    assert (want.lhs, want.rhs) == (1.0, -5.0)
    inst = legendrian.LegendrianPointInstance(n=2, c=4.0, f_val=1.0, f_prime=0.0, h=zero, h_star=zero)
    report = wintgen.main_inequality(inst, include_chain=False)
    assert oracle.close(report.lhs, 1.0) and oracle.close(report.rhs, -5.0) and not report.holds


def _package_outputs(tmp_path: Path) -> list:
    reports = [wintgen.main_inequality(inst, include_chain=True).as_dict() for inst in _instances()]
    sharp = wintgen.sharpness_search(2, 4.0, 1.0, 0.0, iterations=60, seed=3)
    csv = tmp_path / "sweep.csv"
    assert cli.main(["wintgen", "sweep", "--n", "3", "--count", "4", "--seed", "9", "--out", str(csv)]) in (0, 1)
    geometry = tmp_path / "axioms.json"
    assert cli.main(["axioms", "--chart", "h3", "--samples", "3", "--out", str(geometry)]) == 0
    return [reports, sharp.min_slack, sharp.trace, csv.read_bytes(), geometry.read_bytes()]


def test_wrappers_leave_results_bit_identical(tmp_path):
    before = _package_outputs(tmp_path)
    originals = {name: fn for name, fn in tracing.layer_functions().items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wintgen.require_valid is not originals["legendrian.require_valid"]
        assert legendrian.require_valid is not originals["legendrian.require_valid"]
        traced = _package_outputs(tmp_path)
    finally:
        tracer.restore()
    assert traced == before
    assert tracer.spans, "the wrappers recorded nothing"
    assert wintgen.require_valid is originals["legendrian.require_valid"]
    assert tracing.layer_functions() == originals


def _measure(workload, tmp_path, seed=5, tracer=None):
    workload.setup(PKG, tmp_path, seed)
    return run.measure(workload, PKG, 0.0, tracer)


def test_correct_sweep_counts_no_failure(tmp_path):
    m = _measure(workloads.SweepN3Csv(), tmp_path)
    assert (m.attempted, m.failed) == (1, 0), m.failures


def test_wrong_verdict_is_counted_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(wintgen, "_holds_with_compensation", lambda terms, lhs, slack: slack < 0.0)
    m = _measure(workloads.SweepN3Csv(), tmp_path)
    assert m.attempted == 1 and m.failed == 1
    assert "oracle slack" in m.failures[0]


@pytest.mark.parametrize(
    "workload, validations, commutators",
    [(workloads.SweepN3Csv(), 7, {2: 0, 3: 0, 5: 0, 8: 0}),
     (workloads.ChainFilesMixed(), 9, {2: 21, 3: 45, 5: 120, 8: 300})],
    ids=lambda v: getattr(v, "name", ""),
)
def test_traced_counts_are_exact(tmp_path, workload, validations, commutators):
    untraced = _measure(workload, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.measure(workload, PKG, 0.0, tracer)
    finally:
        tracer.restore()
    assert traced.failed == 0, traced.failures
    metrics = run.per_layer_metrics(tracing.Profile(tracer.spans), traced, untraced)
    assert metrics["legendrian.validate.calls_per_eval"][0] == validations
    assert {n: metrics[f"tensor_core.commutator.calls_per_eval.n{n}"][0] for n in run.DIMS} == commutators


def test_benchmark_json_matches_the_code(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    m = _measure(workloads.SweepN3Csv(), tmp_path)
    for key, metrics in (("end_to_end", run.end_to_end_metrics(m, [1.0])),
                         ("per_layer", run.per_layer_metrics(tracing.Profile([]), m, m))):
        assert {e["name"]: e["unit"] for e in spec[key]} == {k: unit for k, (_, unit) in metrics.items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep-n3-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
