"""Print microseconds per instance for each stage of one Wintgen evaluation.

Run from the repository root as

    PYTHONPATH=src python tools/stage_timings.py [--count 200] [--repeats 5] [--json]

The first seven stages run in pipeline order on the same batch of fresh
seeded instances, each instance on its own (the B = 1 path), so each figure
is the cost that stage adds on top of the ones before it (derived data is
memoized on the instance):

    generate   wintgen.random_instance
    validate   legendrian.validate (first call on a fresh instance)
    means      legendrian.means_and_traceless (the whole derivation where
               it holds rho_perp too; the ``ShapeOperators`` only where
               the derivation builds them, before they were built on demand)
    rho        legendrian.rho_statistical
    rho_perp   legendrian.rho_perp_statistical (shape operators included
               where the derivation does not hold it)
    chain      wintgen.inequality_chain, scalars given (including the first
               ``shape_operators`` call, which builds the ``ShapeOperators``
               where they are built on demand)
    csv        cli.sweep_csv_lines, per row

and ``sweep`` is ``wintgen.sweep`` of a batch of the same size, per
instance: generation and report included, on whatever path the sweep takes
(stacked chunks where it has them), for n in {2, 3, 5, 8}.  Each figure is
the median over ``--repeats`` batches of ``--count`` instances (a quarter as
many at n = 8).  Keys are ``<stage>.n<n>``; ``--json`` prints them as one
JSON object.

The draw stages time one sweep chunk's instances, ``wintgen.sweep_chunk(n)``
of them at seed 0, 1, ..., in microseconds per instance, median over
``--repeats`` chunks: ``draw.n<n>`` draws them as ``sweep`` does, with one
``wintgen._random_instances`` call for the chunk, and ``draw.b1.n<n>`` with
one ``wintgen.random_instance`` call per index (B = 1).

The sharpness stages (``sharpness.n<n>``) time one ``wintgen.sharpness_search``
of ``SHARPNESS_BUDGET`` evaluations (c = 0, f = 1, f' = 0, seed 5), in
microseconds per evaluation, median over ``--repeats`` runs.  The budget
covers the climb's first descent and its later sweeps at halved steps, as
the sharpness runs of ``tools/report_digests.py`` (1500 and 3000) do.
``sharpness.passes.n<n>`` counts the kernel passes of the same climb per 1000
evaluations, restart draws included: calls of the scorer that
``wintgen._bound_scorer`` returns.  The count wraps the scorer from this
script, in a run of its own.  ``sharpness.pass.b1.n<n>`` and
``sharpness.pass.wide.n<n>`` time one pass of that scorer (c = 0, f = 1,
f' = 0) on one row and on ``wintgen._sharpness_pass_rows(n)`` rows, in
microseconds per pass, median over ``--repeats`` runs of ``PASS_CALLS`` passes.

The geometry stages time ``GEOMETRY_SAMPLES`` seeded sample points of the
built-in charts, in microseconds per sample:

    axioms_r2       statistical_geometry.axiom_residuals on the r2 chart
    axioms_h3       the same on the warped h3 chart
    lc_curvature    statistical_geometry.curvature of the Levi-Civita connection (h3)
    sectional       statistical_geometry.sectional_curvature, Levi-Civita (h3)
    fields_h3       the h3 chart's fields (metric, both connections and the
                    metric partials)
    warping_h3      warped_contact.Warping.at(t, 1) of the h3 chart on the t column
                    of the rows the Levi-Civita pass evaluates the metric on,
                    the samples' complex-step jet; in microseconds per t
    reproduce_h3    the Levi-Civita sectional curvature and axiom_residuals
                    (h3), as ``reproduce example-h3`` computes them: from one
                    pass with ``levi_civita_sectional_and_axioms``
    axioms_d5       statistical_geometry.axiom_residuals on the dim-5 chart of
                    ``twisted_j_spec(0.4, cosh_warping())``, as ``classify
                    --warp cosh --fiber twisted`` builds it
    classify_d5     warped_contact.contact_classification of that spec

each once per point, as an N = 1 stack (``geometry.<stage>.point``), and as
one stacked call over all samples (``geometry.<stage>.stack``), as the
``axioms``, ``curvature`` and ``reproduce`` commands do.

The script calls only functions that this checkout and its parent commit
both have, so it runs unchanged against both for before/after tables; an
older checkout may lack some of them.

The command stages (``command.<command>``) time whole geometry commands in
process, in milliseconds per ``cli.main`` call: ``COMMANDS``, each writing
its report to a temporary file with stdout discarded.  After one warm-up
round, ``--repeats`` rounds run every command once in turn, and each figure
is the minimum over the rounds.  These commands and flags exist in every
checkout since the benchmark was added.  About half of ``classify --warp
cosh --fiber twisted`` (0.87 ms in process, 2-core host) is
``warped_contact.kenmotsu_theorem_check`` on its five points, a third the
contact classification; the fiber's J, one numpy call on the points' jet, is
about 5 % of the command.

The report stages (``report.<name>``) time ``cli.dump_json`` alone on the
report object of each of ``REPORTS``, captured from one in-process run of the
command: the minimum over ``10 * --repeats`` calls, in microseconds per
report, and for ``sweep_json`` (a ``SWEEP_ROWS``-row n = 3 JSON sweep) per
row.

The write stages (``write_report.<name>``) time ``cli._write_report`` alone,
rewriting an existing file with the text of each of ``WRITES``, captured
from one in-process run of the command: an n = 8 chain report and a
50-row n = 3 CSV sweep, the sizes the benchmark's chain and
sweep workloads write.  Each figure is the minimum over ``--repeats`` runs
of ``WRITE_CALLS`` rewrites, in microseconds per rewrite, on the file system
that holds the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from statwintgen import cli, legendrian, wintgen
from statwintgen import statistical_geometry as sg
from statwintgen import tensor_core
from statwintgen import warped_contact as wc

DIMS = (2, 3, 5, 8)
STAGES = ("generate", "validate", "means", "rho", "rho_perp", "chain", "csv", "sweep")
GEOMETRY_STAGES = ("axioms_r2", "axioms_h3", "lc_curvature", "sectional", "fields_h3", "warping_h3", "reproduce_h3",
                   "axioms_d5", "classify_d5")
CHART_FIELDS = ("metric", "gamma", "gamma_star", "metric_partial")
GEOMETRY_SAMPLES = 100
SHARPNESS_BUDGET = 1000
PASS_CALLS = 200
DRAW_RANGES = ((-4.0, 4.0), (0.5, 3.0), (-2.0, 2.0), 1.0)  # random_instance's c, f, f' ranges and magnitude
COMMANDS = ("reproduce example-r2", "reproduce example-h3", "axioms --chart r2", "axioms --chart h3",
            "curvature --chart r2", "curvature --chart h3", "classify --warp exp --fiber flat",
            "classify --warp cosh --fiber twisted")
SWEEP_ROWS = 2000
REPORTS = {"reproduce_h3": "reproduce example-h3", "classify": "classify",
           "sharpness": "wintgen sharpness --iterations 150",
           "sweep_json": f"wintgen sweep --n 3 --count {SWEEP_ROWS} --format json"}
WRITES = {"chain_n8": "wintgen chain n8.json", "sweep_csv_n3": "wintgen sweep --n 3 --count 50"}
WRITE_CALLS = 200


def _timed(fn, items) -> tuple[float, list]:
    start = time.perf_counter()
    out = [fn(x) for x in items]
    return time.perf_counter() - start, out


def batch(n: int, count: int, seed: int) -> dict[str, float]:
    """Seconds spent in each stage on ``count`` fresh instances of dimension ``n``."""
    t = {}
    t["generate"], insts = _timed(lambda k: wintgen.random_instance(n, seed=seed, index=k), range(count))
    t["validate"], _ = _timed(legendrian.validate, insts)
    t["means"], _ = _timed(legendrian.means_and_traceless, insts)
    t["rho"], _ = _timed(legendrian.rho_statistical, insts)
    t["rho_perp"], _ = _timed(legendrian.rho_perp_statistical, insts)
    scalars = [legendrian.curvature_scalars(inst) for inst in insts]
    t["chain"], _ = _timed(lambda pair: wintgen.inequality_chain(*pair), list(zip(insts, scalars)))
    reports = [wintgen.main_inequality(inst, seed=f"{seed}-{k}", include_chain=False)
               for k, inst in enumerate(insts)]
    t["csv"], _ = _timed(cli.sweep_csv_lines, [reports])
    t["sweep"], _ = _timed(lambda s: wintgen.sweep(n, count, s), [seed])
    return t


def stage_timings(count: int, repeats: int) -> dict[str, float]:
    """``<stage>.n<n>`` -> median microseconds per instance."""
    out = {}
    for n in DIMS:
        size = count if n < 8 else max(1, count // 4)
        runs = [batch(n, size, seed) for seed in range(repeats)]
        for stage in STAGES:
            out[f"{stage}.n{n}"] = 1e6 * statistics.median(r[stage] for r in runs) / size
    return out


def draw_timings(repeats: int) -> dict[str, float]:
    """``draw.n<n>`` and ``draw.b1.n<n>`` -> median microseconds per instance of one sweep chunk's draws."""
    out = {}
    for n in DIMS:
        indices = range(wintgen.sweep_chunk(n))
        chunk = [_timed(lambda s: wintgen._random_instances(n, *DRAW_RANGES, s, indices), [seed])[0]
                 for seed in range(repeats)]
        alone = [_timed(lambda k: wintgen.random_instance(n, seed=seed, index=k), indices)[0]
                 for seed in range(repeats)]
        out[f"draw.n{n}"] = 1e6 * statistics.median(chunk) / len(indices)
        out[f"draw.b1.n{n}"] = 1e6 * statistics.median(alone) / len(indices)
    return out


def sharpness_timings(repeats: int) -> dict[str, float]:
    """``sharpness.n<n>`` -> median microseconds per evaluation of a fixed-budget, fixed-seed climb, with its
    ``sharpness.passes.n<n>`` and the ``sharpness.pass.b1.n<n>`` and ``sharpness.pass.wide.n<n>`` pass times."""
    out = {}
    for n in DIMS:
        runs = [_timed(lambda _: wintgen.sharpness_search(n, 0.0, 1.0, 0.0, SHARPNESS_BUDGET, 5), [None])[0]
                for _ in range(repeats)]
        out[f"sharpness.n{n}"] = 1e6 * statistics.median(runs) / SHARPNESS_BUDGET
        out[f"sharpness.passes.n{n}"] = 1000.0 * sharpness_passes(n) / SHARPNESS_BUDGET
        columns, nparams = wintgen._bound_scorer(n, 0.0, 1.0, 0.0), 2 * n * (n * (n + 1) // 2)
        for key, rows in (("b1", 1), ("wide", wintgen._sharpness_pass_rows(n))):
            params = [np.random.default_rng(n).uniform(-1.0, 1.0, (rows, nparams))] * PASS_CALLS
            runs = [_timed(columns, params)[0] for _ in range(repeats)]
            out[f"sharpness.pass.{key}.n{n}"] = 1e6 * statistics.median(runs) / PASS_CALLS
    return out


def sharpness_passes(n: int) -> int:
    """Kernel passes of one ``sharpness.n<n>`` climb, counted by wrapping the scorers ``_bound_scorer`` returns."""
    calls = 0

    def counted(columns):
        def counting(*args):
            nonlocal calls
            calls += 1
            return columns(*args)

        return counting

    original = wintgen._bound_scorer
    wintgen._bound_scorer = lambda *constants: counted(original(*constants))
    try:
        wintgen.sharpness_search(n, 0.0, 1.0, 0.0, SHARPNESS_BUDGET, 5)
    finally:
        wintgen._bound_scorer = original
    return calls


def geometry_batch(seed: int, stacked: bool) -> dict[str, float]:
    """Seconds per geometry stage on ``GEOMETRY_SAMPLES`` fresh points, one at a time or stacked."""
    h3, d5 = wc.builtin_h3_example(), wc.twisted_j_spec(0.4, wc.cosh_warping())
    charts = {"r2": sg.builtin_r2_example(), "h3": wc.build_warped_chart(h3), "d5": wc.build_warped_chart(d5)}
    rng = np.random.default_rng(seed)
    samples = {}
    for name, chart in charts.items():
        lo, hi = np.array(wc.default_sample_box(chart.dim)).T
        samples[name] = (rng.uniform(lo, hi, (GEOMETRY_SAMPLES, chart.dim)),
                         rng.uniform(-1.0, 1.0, (4, GEOMETRY_SAMPLES, chart.dim)))
    calls = {
        "axioms_r2": ("r2", lambda chart, x, p: sg.axiom_residuals(chart, x, *p)),
        "axioms_h3": ("h3", lambda chart, x, p: sg.axiom_residuals(chart, x, *p)),
        "lc_curvature": ("h3", lambda chart, x, p: sg.curvature(chart, "levi_civita", x)),
        "sectional": ("h3", lambda chart, x, p: sg.sectional_curvature(chart, "levi_civita", x, p[0], p[1])),
        "fields_h3": ("h3", lambda chart, x, p: [getattr(chart, f)(x) for f in CHART_FIELDS]),
        "warping_h3": ("h3", lambda chart, x, p: h3.warping.at(tensor_core.jet(x)[:, 0], 1)),
        "reproduce_h3": ("h3", lambda chart, x, p: sg.levi_civita_sectional_and_axioms(chart, x, p[0], p[1], p)),
        "axioms_d5": ("d5", lambda chart, x, p: sg.axiom_residuals(chart, x, *p)),
        "classify_d5": ("d5", lambda chart, x, p: wc.contact_classification(d5, x)),
    }
    t = {}
    for stage, (name, call) in calls.items():
        chart, (points, probes) = charts[name], samples[name]
        if stacked:
            t[stage], _ = _timed(lambda _: call(chart, points, probes), [None])
        else:
            t[stage], _ = _timed(lambda i: call(chart, points[i:i + 1], probes[:, i:i + 1]), range(GEOMETRY_SAMPLES))
    return t


def geometry_timings(repeats: int) -> dict[str, float]:
    """``geometry.<stage>.point`` and ``.stack`` -> median us per sample (per t for ``warping_h3``)."""
    out = {}
    for mode in ("point", "stack"):
        runs = [geometry_batch(seed, mode == "stack") for seed in range(repeats)]
        for stage in GEOMETRY_STAGES:
            units = GEOMETRY_SAMPLES * (len(tensor_core.jet(np.zeros((1, 3)))) if stage == "warping_h3" else 1)
            out[f"geometry.{stage}.{mode}"] = 1e6 * statistics.median(r[stage] for r in runs) / units
    return out


def command_timings(repeats: int) -> dict[str, float]:
    """``command.<command>`` -> min milliseconds per in-process ``cli.main`` call over ``repeats`` rounds."""
    runs = {command: [] for command in COMMANDS}
    with tempfile.TemporaryDirectory() as work:
        out = ["--out", str(Path(work) / "report.json")]
        for round_index in range(repeats + 1):  # round 0 warms up
            for command in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    code = cli.main(command.split() + out)
                    elapsed = time.perf_counter() - start
                if code not in (0, 1):
                    raise RuntimeError(f"{command} exited {code}")
                if round_index:
                    runs[command].append(elapsed)
    return {f"command.{command}": 1e3 * min(times) for command, times in runs.items()}


def report_timings(repeats: int) -> dict[str, float]:
    """``report.<name>`` -> min microseconds of one ``cli.dump_json`` call on the report of ``REPORTS[name]``,
    per row for ``sweep_json``."""
    writer, reports = cli.dump_json, {}

    def capture(name):
        def capturing(obj):
            reports.setdefault(name, obj)  # the outermost call comes first, in a recursive writer too
            return writer(obj)

        return capturing

    with tempfile.TemporaryDirectory() as work:
        try:
            for name, command in REPORTS.items():
                cli.dump_json = capture(name)
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(command.split() + ["--out", str(Path(work) / "report.json")])
        finally:
            cli.dump_json = writer
    runs = {name: min(_timed(writer, [obj])[0] for _ in range(10 * repeats)) for name, obj in reports.items()}
    return {f"report.{name}": 1e6 * t / (SWEEP_ROWS if name == "sweep_json" else 1) for name, t in runs.items()}


def write_timings(repeats: int) -> dict[str, float]:
    """``write_report.<name>`` -> min microseconds of one ``cli._write_report`` call rewriting an existing file
    with the report of ``WRITES[name]``."""
    out = {}
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        Path("n8.json").write_text(wintgen.random_instance(8, seed=11, index=8).to_json())
        for name, command in WRITES.items():
            path = Path(f"{name}.out")
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main([*command.split(), "--out", str(path)]) not in (0, 1):
                    raise RuntimeError(f"{command} failed")
            text = path.read_text()
            runs = [_timed(lambda _: cli._write_report(path, text), range(WRITE_CALLS))[0] for _ in range(repeats)]
            out[f"write_report.{name}"] = 1e6 * min(runs) / WRITE_CALLS
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, help="instances per batch")
    parser.add_argument("--repeats", type=int, default=5, help="batches per dimension")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    timings = stage_timings(args.count, args.repeats)
    timings.update(draw_timings(args.repeats))
    timings.update(sharpness_timings(args.repeats))
    timings.update(geometry_timings(args.repeats))
    timings.update(command_timings(args.repeats))
    timings.update(report_timings(args.repeats))
    timings.update(write_timings(args.repeats))
    if args.json:
        print(json.dumps({k: round(v, 2) for k, v in timings.items()}))
        return 0
    print(f"{'stage':<10}" + "".join(f"{f'n={n}':>10}" for n in DIMS) + "   (us per instance)")
    for stage in STAGES:
        print(f"{stage:<10}" + "".join(f"{timings[f'{stage}.n{n}']:>10.1f}" for n in DIMS))
    print(f"{'draw':<10}" + "".join(f"{timings[f'draw.n{n}']:>10.1f}" for n in DIMS)
          + "   (us per instance of one sweep chunk)")
    print(f"{'draw B=1':<10}" + "".join(f"{timings[f'draw.b1.n{n}']:>10.1f}" for n in DIMS))
    print(f"{'sharpness':<10}" + "".join(f"{timings[f'sharpness.n{n}']:>10.1f}" for n in DIMS)
          + f"   (us per evaluation, {SHARPNESS_BUDGET} evaluations)")
    print(f"{'passes':<10}" + "".join(f"{timings[f'sharpness.passes.n{n}']:>10.1f}" for n in DIMS)
          + "   (kernel passes per 1000 evaluations)")
    print(f"{'pass B=1':<10}" + "".join(f"{timings[f'sharpness.pass.b1.n{n}']:>10.1f}" for n in DIMS)
          + "   (us per scorer pass of one row)")
    print(f"{'pass wide':<10}" + "".join(f"{timings[f'sharpness.pass.wide.n{n}']:>10.1f}" for n in DIMS)
          + "   (us per scorer pass of _sharpness_pass_rows(n) rows)")
    print(f"\n{'geometry':<14}{'point':>10}{'stack':>10}   (us per sample, {GEOMETRY_SAMPLES} samples)")
    for stage in GEOMETRY_STAGES:
        print(f"{stage:<14}" + "".join(f"{timings[f'geometry.{stage}.{mode}']:>10.1f}" for mode in ("point", "stack")))
    print(f"\n{'command':<40}{'ms':>10}   (in process, min of {args.repeats} rounds)")
    for command in COMMANDS:
        print(f"{command:<40}{timings['command.' + command]:>10.2f}")
    print(f"\n{'report':<40}{'us':>10}   (cli.dump_json alone, per report; sweep_json per row)")
    for name, command in REPORTS.items():
        print(f"{command:<40}{timings['report.' + name]:>10.2f}")
    print(f"\n{'write':<40}{'us':>10}   (cli._write_report alone, per rewrite of an existing file)")
    for name, command in WRITES.items():
        print(f"{command:<40}{timings['write_report.' + name]:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
