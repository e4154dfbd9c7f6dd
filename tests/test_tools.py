"""The scripts under ``tools/`` run against the package as it is."""

import importlib.util
import json
import math
import warnings
from pathlib import Path

from statwintgen import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_timings_times_every_geometry_stage_one_point_at_a_time(capsys):
    stage_timings = _load("stage_timings")
    assert stage_timings.main(["--count", "2", "--repeats", "1", "--json"]) == 0
    timings = json.loads(capsys.readouterr().out)
    keys = [f"{stage}.n{n}"
            for stage in (*stage_timings.STAGES, "draw", "draw.b1", "sharpness", "sharpness.passes",
                          "sharpness.pass.b1", "sharpness.pass.wide", "kernel.b1", "kernel.wide", "kernel.chunk")
            for n in stage_timings.DIMS]
    for key in keys:
        assert math.isfinite(timings[key]) and timings[key] > 0.0, key
    assert {"warping_h3", "reproduce_h3", "axioms_d5", "classify_d5"} <= set(stage_timings.GEOMETRY_STAGES)
    for stage in stage_timings.GEOMETRY_STAGES:
        value = timings[f"geometry.{stage}.point"]
        assert math.isfinite(value) and value > 0.0, stage
    for stage in ("warping_h3", "reproduce_h3", "axioms_d5", "classify_d5"):
        value = timings[f"geometry.{stage}.stack"]
        assert math.isfinite(value) and value > 0.0, stage
    assert stage_timings.COMMANDS == (
        "reproduce example-r2", "reproduce example-h3", "axioms --chart r2", "axioms --chart h3",
        "curvature --chart r2", "curvature --chart h3", "classify --warp exp --fiber flat",
        "classify --warp cosh --fiber twisted")
    for command in stage_timings.COMMANDS:
        value = timings[f"command.{command}"]
        assert math.isfinite(value) and value > 0.0, command
    assert stage_timings.REPORTS == {
        "reproduce_h3": "reproduce example-h3", "classify": "classify",
        "sharpness": "wintgen sharpness --iterations 150", "sweep_json": "wintgen sweep --n 3 --count 2000 --format json"}
    for name in stage_timings.REPORTS:
        value = timings[f"report.{name}"]
        assert math.isfinite(value) and value > 0.0, name
    assert stage_timings.WRITES == {"chain_n8": "wintgen chain n8.json", "sweep_csv_n3": "wintgen sweep --n 3 --count 50"}
    for name in stage_timings.WRITES:
        value = timings[f"write_report.{name}"]
        assert math.isfinite(value) and value > 0.0, name


def test_every_geometry_command_of_the_digest_battery_runs_without_a_warning(monkeypatch, tmp_path, capsys):
    # with warnings raised as errors, a warning escapes cli.main as an exception: a cast of a jet's complex
    # values to float, for one, would raise numpy's ComplexWarning where it drops their imaginary parts
    digests = _load("report_digests")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STATWINTGEN_OUTDIR", raising=False)
    for name, config in digests.CONFIGS.items():
        Path(name).write_text(json.dumps(config))
    words = {"reproduce", "axioms", "curvature", "classify"}
    commands = [argv for argv in digests.battery() if words & set(argv)]
    assert len(commands) == 27
    for argv in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv + ["--out", digests.OUT])
        # the refusals: a non-finite residual or warp, and a null config value
        expected = 2 if {"1e200", "out-null.json"} & set(argv) else 1 if "--perturb-gamma" in argv else 0
        assert code == expected, argv
        assert "Warning" not in capsys.readouterr().err, argv
