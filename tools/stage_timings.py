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
               it holds rho_perp too)
    rho        legendrian.rho_statistical
    rho_perp   legendrian.rho_perp_statistical (shape operators included
               where the derivation does not hold it)
    chain      wintgen.inequality_chain, scalars given
    csv        cli.sweep_csv_lines, per row

and ``sweep`` is ``wintgen.sweep`` of a batch of the same size, per
instance: generation and report included, on whatever path the sweep takes
(stacked chunks where it has them), for n in {2, 3, 5, 8}.  Each figure is
the median over ``--repeats`` batches of ``--count`` instances (a quarter as
many at n = 8).  Keys are ``<stage>.n<n>``; ``--json`` prints them as one
JSON object.

The sharpness stages (``sharpness.n<n>``) time one ``wintgen.sharpness_search``
of ``SHARPNESS_BUDGET`` evaluations (c = 0, f = 1, f' = 0, seed 5), in
microseconds per evaluation, median over ``--repeats`` runs.  The budget
covers the climb's first descent and its later sweeps at halved steps, as
the sharpness runs of ``tools/report_digests.py`` (1500 and 3000) do.

The geometry stages time ``GEOMETRY_SAMPLES`` seeded sample points of the
built-in charts, in microseconds per sample:

    axioms_r2       statistical_geometry.axiom_residuals on the r2 chart
    axioms_h3       the same on the warped h3 chart
    lc_curvature    statistical_geometry.curvature of the Levi-Civita connection (h3)
    sectional       statistical_geometry.sectional_curvature, Levi-Civita (h3)
    fields_h3       the h3 chart's six fields (metric, both connections and
                    their analytic partials)

each once per point (``geometry.<stage>.point``) and, where the checkout
evaluates stacks of points (it has ``statistical_geometry.geometry_chunk``;
for ``fields_h3``, chart fields that take a stack of points), as one
stacked call over all samples (``geometry.<stage>.stack``), as the
``axioms``, ``curvature`` and ``reproduce`` commands do.  The script uses
only public functions that have existed since the benchmark was added and
skips the stacked stages where they are absent, so it runs unchanged
against older checkouts for before/after tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from statwintgen import cli, legendrian, wintgen
from statwintgen import statistical_geometry as sg
from statwintgen import warped_contact as wc

DIMS = (2, 3, 5, 8)
STAGES = ("generate", "validate", "means", "rho", "rho_perp", "chain", "csv", "sweep")
GEOMETRY_STAGES = ("axioms_r2", "axioms_h3", "lc_curvature", "sectional", "fields_h3")
CHART_FIELDS = ("metric", "gamma", "gamma_star", "metric_partial", "gamma_partial", "gamma_star_partial")
GEOMETRY_SAMPLES = 100
SHARPNESS_BUDGET = 1000


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


def sharpness_timings(repeats: int) -> dict[str, float]:
    """``sharpness.n<n>`` -> median microseconds per evaluation of a fixed-budget, fixed-seed climb."""
    out = {}
    for n in DIMS:
        runs = [_timed(lambda _: wintgen.sharpness_search(n, 0.0, 1.0, 0.0, SHARPNESS_BUDGET, 5), [None])[0]
                for _ in range(repeats)]
        out[f"sharpness.n{n}"] = 1e6 * statistics.median(runs) / SHARPNESS_BUDGET
    return out


def geometry_batch(seed: int, stacked: bool) -> dict[str, float]:
    """Seconds per geometry stage on ``GEOMETRY_SAMPLES`` fresh points, one at a time or stacked."""
    charts = {"r2": sg.builtin_r2_example(), "h3": wc.build_warped_chart(wc.builtin_h3_example())}
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
    }
    t = {}
    for stage, (name, call) in calls.items():
        chart, (points, probes) = charts[name], samples[name]
        if stacked and stage == "fields_h3" and not _fields_take_stacks(chart, points):
            continue
        if stacked:
            t[stage], _ = _timed(lambda _: call(chart, points, probes), [None])
        else:
            t[stage], _ = _timed(lambda i: call(chart, points[i], probes[:, i]), range(GEOMETRY_SAMPLES))
    return t


def _fields_take_stacks(chart, points) -> bool:
    """Whether the chart's fields map an (N, dim) stack of points to one value per point."""
    try:
        return np.shape(chart.metric(points[:2])) == (2, chart.dim, chart.dim)
    except (TypeError, ValueError):  # a single-point field given a stack
        return False


def geometry_timings(repeats: int) -> dict[str, float]:
    """``geometry.<stage>.point`` and, where stacks are evaluated, ``.stack`` -> median us per sample."""
    modes = ("point", "stack") if hasattr(sg, "geometry_chunk") else ("point",)
    out = {}
    for mode in modes:
        runs = [geometry_batch(seed, mode == "stack") for seed in range(repeats)]
        for stage in GEOMETRY_STAGES:
            if stage in runs[0]:
                out[f"geometry.{stage}.{mode}"] = 1e6 * statistics.median(r[stage] for r in runs) / GEOMETRY_SAMPLES
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, help="instances per batch")
    parser.add_argument("--repeats", type=int, default=5, help="batches per dimension")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    timings = stage_timings(args.count, args.repeats)
    timings.update(sharpness_timings(args.repeats))
    timings.update(geometry_timings(args.repeats))
    if args.json:
        print(json.dumps({k: round(v, 2) for k, v in timings.items()}))
        return 0
    print(f"{'stage':<10}" + "".join(f"{f'n={n}':>10}" for n in DIMS) + "   (us per instance)")
    for stage in STAGES:
        print(f"{stage:<10}" + "".join(f"{timings[f'{stage}.n{n}']:>10.1f}" for n in DIMS))
    print(f"{'sharpness':<10}" + "".join(f"{timings[f'sharpness.n{n}']:>10.1f}" for n in DIMS)
          + f"   (us per evaluation, {SHARPNESS_BUDGET} evaluations)")
    print(f"\n{'geometry':<14}{'point':>10}{'stack':>10}   (us per sample, {GEOMETRY_SAMPLES} samples)")
    for stage in GEOMETRY_STAGES:
        cells = (timings.get(f"geometry.{stage}.{mode}") for mode in ("point", "stack"))
        print(f"{stage:<14}" + "".join(f"{c:>10.1f}" if c is not None else f"{'-':>10}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
