"""Batch command-line harness.

Commands
--------
axioms        dualistic-axiom residual suite on a built-in chart
curvature     curvature checks (sectional curvature, closed forms), one complex-step route
classify      almost-contact classification of a warped product
reproduce     full reproduction battery for the built-in examples
wintgen       verify / sweep / chain / sharpness on Legendrian instances

Exit codes: 0 all checks passed, 1 at least one property or inequality
violation, 2 usage or configuration error.  Every JSON report embeds the
schema string and holds plain values only (dicts with str keys, lists, str,
int, float, bool and None); ``dump_json`` renders it in one pass: two-space
indent, one element per line, ``",\n"`` between elements, ``[]`` and ``{}``
when empty, and floats at 17 significant digits (``.17g``), so reports
round-trip exactly; a NaN or infinity anywhere in it is refused, and so is a
value of any other type.  An optional JSON config file provides defaults for
any long flag (flags win); the environment variable STATWINTGEN_OUTDIR sets the
default output directory.  A flag or value the parser rejects ends in one
``error:`` line and exit 2, without the usage block.  Arithmetic that leaves
double precision (a non-finite bound, geometry residual or check value, a
float overflow or a division by an underflowed zero) is a usage error too:
exit 2 with one ``error:`` line, and no report is written; so is a problem
size whose arrays cannot be allocated.
One function, ``_write_report``, writes every report file, JSON or CSV, after
the report is rendered, so a command that fails writes nothing and leaves an
existing file as it was.  It rewrites the file in place: over the old bytes,
then cut to the new length, keeping the inode, so hard links and symlink
targets see the new report.  A target that is not a regular file (/dev/null,
a pipe) is written but not truncated.  The write is not atomic, just as a
truncating open is not: a reader can see a mix of old and new bytes.
The argument parser is built once per process, on the first ``main`` call.
The geometry commands' sample points are drawn here and nowhere else:
``axioms``, ``curvature``, ``classify`` and ``reproduce`` draw their points
and probes through ``_chunks``, one ``uniform`` call per chunk of
``statistical_geometry.geometry_chunk`` samples, which gives the doubles of a
sample-by-sample draw in the same order, and pass them to the geometry
modules, which draw nothing.  ``classify`` checks all its points as one stack.
``axioms``, ``curvature`` and ``reproduce`` evaluate each chunk as one stack
and yield its check columns to one fold, ``_fold``, which keeps only what a
report holds, so the memory of all three stays bounded at any ``--samples``.
They share its verdict, |value - target| <= tol, and its
one error for a non-finite value: ``non-finite <check> check at <point>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from itertools import accumulate, cycle
from json.encoder import encode_basestring_ascii as _json_string
from math import isfinite
from pathlib import Path
from typing import Iterator

import numpy as np

from . import legendrian as lg
from . import statistical_geometry as sg
from . import warped_contact as wc
from . import wintgen as wg

SCHEMA = "statwintgen-report/1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def format_float(x: float) -> str:
    """17 significant digits: enough for exact double round-trips."""
    return format(x, ".17g")


def dump_json(obj) -> str:
    """``obj`` as report JSON, rendered in one pass over an explicit stack instead of one call per value.

    Reports hold plain values: dicts with str keys, lists, str, int, float, bool and None.  Two spaces
    of indent per level, one element per line, ``",\n"`` between elements and ``[]`` or ``{}`` when
    empty.  Strings are ASCII-escaped as by ``json.dumps`` and floats are ``format(x, ".17g")`` (17
    significant digits).  A NaN or infinity at any depth raises ValueError("non-finite float in
    report"); a value or key of any other type, a subclass of a plain type included, raises TypeError.
    """
    parts: list[str] = []
    keys: dict[str, str] = {}  # key -> its JSON string and ": "
    stack: list[tuple] = []  # per open container: (its elements, whether a dict's, separator, closer)
    value, first = obj, False
    while True:
        kind = type(value)
        if kind is float:
            if not isfinite(value):
                raise ValueError("non-finite float in report")
            parts.append(f"{value:.17g}")
        elif kind is str:
            parts.append(_json_string(value))
        elif kind is bool:
            parts.append("true" if value else "false")
        elif kind is int:
            parts.append(str(value))
        elif value is None:
            parts.append("null")
        elif kind is not dict and kind is not list:
            raise TypeError(f"cannot serialize {kind!r}")
        elif not value:
            parts.append("{}" if kind is dict else "[]")
        else:
            pad = "  " * (len(stack) + 1)
            if kind is not dict and {*map(type, value)} == _FLOAT:
                if not all(map(isfinite, value)):
                    raise ValueError("non-finite float in report")
                parts += ("[\n", pad, (",\n" + pad).join([f"{x:.17g}" for x in value]), "\n", pad[2:], "]")
            else:
                is_dict = kind is dict
                parts.append(("{\n" if is_dict else "[\n") + pad)
                stack.append((iter(value.items() if is_dict else value), is_dict, ",\n" + pad,
                              "\n" + pad[2:] + ("}" if is_dict else "]")))
                first = True
        while stack:  # the next element of the innermost open container, closing the finished ones
            items, is_dict, separator, closer = stack[-1]
            if (value := next(items, _END)) is _END:
                parts.append(closer)
                stack.pop()
                continue
            if not first:
                parts.append(separator)
            first = False
            if is_dict:
                key, value = value
                if type(key) is not str:
                    raise TypeError(f"cannot serialize {type(key)!r} as a key")
                if (text := keys.get(key)) is None:
                    text = keys[key] = _json_string(key) + ": "
                parts.append(text)
            break
        else:
            return "".join(parts)


_FLOAT, _END = {float}, object()  # the type set of a list of plain floats; past a container's last element


def _output_dir() -> Path:
    return Path(os.environ.get("STATWINTGEN_OUTDIR", "."))


def _base_report(command: str, passed: bool, body: dict) -> dict:
    return {"schema": SCHEMA, "command": command, "passed": passed, **body}


def _write_report(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` in place: over the old bytes, then cut a regular file to the new length.

    The file keeps its inode, as with a truncating open, but is not first cut to zero, which on ext4
    costs far more than the write.  Report text is ASCII (``dump_json`` escapes every string, and CSV
    rows hold numbers), so its UTF-8 bytes are those of a text-mode write under any ASCII-compatible
    locale.  A target that is not a regular file (``/dev/null``, a pipe) is not truncated.  A missing
    parent directory is created, with the errors of ``mkdir(parents=True, exist_ok=True)``.  The write
    is not atomic: a reader can see a mix of old and new bytes, as it could see a partly written file
    with the truncating open.
    """
    data = text.encode()
    flags = os.O_WRONLY | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except (FileNotFoundError, NotADirectoryError):
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _finish(args, command: str, passed: bool, body: dict, default_name: str, summary: str) -> int:
    """Epilogue of every report-writing command except the sweep.

    Writes the report to --out when given, else to $STATWINTGEN_OUTDIR when
    set, prints ``summary`` with a ``-> path`` suffix on its last line and
    returns the exit code: 0 when passed, else 1.  The report is rendered
    even when it is not written, so a non-finite float in it is the same
    usage error with or without a path.
    """
    text = dump_json(_base_report(command, passed, body)) + "\n"
    path = Path(args.out) if args.out is not None else None
    if path is None and "STATWINTGEN_OUTDIR" in os.environ:
        path = _output_dir() / default_name
    if path is not None:
        _write_report(path, text)
    print(summary + (f" -> {path}" if path else ""))
    return EXIT_OK if passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# chart / spec selection helpers
# ---------------------------------------------------------------------------

# Name -> factory; the parser's choices are these keys.
CHARTS = {
    "r2": sg.builtin_r2_example,
    "h3": lambda: wc.build_warped_chart(wc.builtin_h3_example()),
}
WARPS = {
    "exp": lambda const_value: wc.exp_warping(),
    "const": wc.const_warping,
    "cosh": lambda const_value: wc.cosh_warping(),
}
FIBERS = {
    "flat": lambda warping, epsilon: wc.flat_kaehler_spec(1, warping),
    "r2": lambda warping, epsilon: wc.builtin_h3_example()._replace(warping=warping, label="r2-fiber warp"),
    "twisted": lambda warping, epsilon: wc.twisted_j_spec(epsilon, warping),
}


def _perturbed_chart(chart: sg.DualisticChart, eps: float) -> sg.DualisticChart:
    """Corrupt one primal connection coefficient, in the coefficients' dtype; negative-path testing aid."""
    base_gamma = chart.gamma

    def gamma(x):
        g = np.array(base_gamma(x))
        g[..., 0, 0, 0] += eps
        return g

    return chart._replace(gamma=gamma, label=chart.label + f"+perturbed({eps})")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _chunks(count: int, dim: int, rng: np.random.Generator, *boxes) -> Iterator[tuple[np.ndarray, ...]]:
    """Uniform samples in consecutive chunks of at most ``sg.geometry_chunk(dim)``.

    A sample is one vector per box of per-axis (low, high) pairs.  Each chunk
    is one ``rng.uniform`` call with per-column bounds, yielded as the boxes'
    (size, width) stacks: the doubles of a sample-by-sample draw, in order.
    """
    low, high = np.array([pair for box in boxes for pair in box], dtype=float).T
    edges = [0, *accumulate(map(len, boxes))]
    size = sg.geometry_chunk(dim)
    for start in range(0, count, size):
        draws = rng.uniform(low, high, size=(min(size, count - start), len(low)))
        yield tuple(np.ascontiguousarray(draws[:, a:b]) for a, b in zip(edges, edges[1:]))


def _fold(chunks, rows: float = 0, failures: int = 0) -> tuple[int, int, dict[str, float], list, list]:
    """One pass over a command's checks that keeps only what its report holds.

    ``chunks`` yields (points, columns) pairs, a column being one check's
    (name, values, target, tol) with a value per point; each sample's rows
    follow its chunk's columns, and a row is ok when |value - target| <= tol.
    Returns the row and failing-row counts, each check's worst |value -
    target| (from 0.0), the first ``rows`` rows (``math.inf``: all) as (name,
    value, target, tol, ok) and the first ``failures`` failing rows as (name,
    value, point).  A non-finite value raises OverflowError naming the first
    such sample, then its first such check.
    """
    count, failed, worst, head, fails = 0, 0, {}, [], []
    for points, columns in chunks:
        names, values, targets, tols = zip(*columns)
        values = np.stack(values, axis=1)
        if not (finite := np.isfinite(values)).all():
            i, j = np.argwhere(~finite)[0]
            raise OverflowError(f"non-finite {names[j]} check at {points[i].tolist()}")
        deviation = np.abs(values - targets)
        ok = deviation <= tols
        for name, value in zip(names, deviation.max(axis=0).tolist()):
            worst[name] = max(worst.get(name, 0.0), value)
        take, failing = min(rows - len(head), ok.size), np.flatnonzero(~ok)
        head += zip(cycle(names), values.ravel()[:take].tolist(), cycle(targets), cycle(tols),
                    ok.ravel()[:take].tolist())
        fails += [(names[q % len(names)], values.item(q), points[q // len(names)])
                  for q in failing[:failures - len(fails)].tolist()]
        count, failed = count + ok.size, failed + failing.size
    return count, failed, worst, head, fails


def cmd_axioms(args) -> int:
    chart = CHARTS[args.chart]()
    if args.perturb_gamma:
        chart = _perturbed_chart(chart, args.perturb_gamma)
    cube = [(-1.0, 1.0)] * chart.dim
    box = wc.default_sample_box(chart.dim) if args.chart == "h3" else cube
    draws = _chunks(args.samples, chart.dim, np.random.default_rng(args.seed), box, *[cube] * 4)
    _, failed, worst, _, breaches = _fold(
        ((points, [(name, r, 0.0, args.residual_tol) for name, r in sg.axiom_residuals(chart, points, *probes).items()])
         for points, *probes in draws), failures=20)
    lines = [f"axioms[{args.chart}] {name:<16} max {format_float(value)}" for name, value in worst.items()]
    lines.append(f"axioms[{args.chart}] {'FAIL' if failed else 'PASS'} ({failed} breaches)")
    return _finish(
        args, "axioms", not failed,
        {"chart": args.chart, "seed": args.seed, "samples": args.samples, "residual_tol": args.residual_tol,
         "worst": worst, "breaches": [{"residual": c, "value": v, "point": p.tolist()} for c, v, p in breaches],
         "breach_count": failed},
        f"axioms-{args.chart}-{args.seed}.json",
        "\n".join(lines),
    )


def _curvature_checks(chart_name: str, samples: int, rng: np.random.Generator):
    """``curvature``'s (points, columns) chunks, one per ``_chunks`` draw."""
    if chart_name == "r2":
        chart = sg.builtin_r2_example()
        ex, ey = np.eye(2)
        for (points,) in _chunks(samples, 2, rng, [(-1.0, 1.0)] * 2):
            # ex, ey are g-orthonormal on this chart: the sectional curvature is g(R(ex,ey)ey, ex)
            yield points, [(f"{which} sectional", sg.sectional_curvature(chart, which, points, ex, ey), -1.0, 1e-10)
                           for which in ("nabla", "nabla_star")]
        return
    spec = wc.builtin_h3_example()
    chart = wc.build_warped_chart(spec)
    boxes = wc.default_sample_box(3), *[[(-1.0, 1.0)] * 3] * 2, *[[(-1.0, 1.0)] * 2] * 3
    for points, u, v, vf, uf, wf in _chunks(samples, 3, rng, *boxes):
        sectional = sg.sectional_curvature(chart, "levi_civita", points, u, v)
        curvature = {which: sg.curvature(chart, which, points) for which in ("nabla", "nabla_star")}
        closed = wc.warped_curvature_closed_form(spec, points, uf, vf, wf)
        probes = wc.closed_form_probes(uf, vf, wf)
        columns = [("levi-civita sectional", sectional, -1.0, 1e-6)]
        for case in wc.CLOSED_FORM_CASES:
            r = curvature["nabla_star" if case.endswith("*") else "nabla"]
            deviation = np.max(np.abs(closed[case] - r.vector(*probes[case])), axis=-1)
            columns.append((f"closed-form {case}", deviation, 0.0, 1e-6))
        yield points, columns


def cmd_curvature(args) -> int:
    count, failed, worst, rows, _ = _fold(
        _curvature_checks(args.chart, args.samples, np.random.default_rng(args.seed)), rows=50)
    worst = max(worst.values(), default=0.0)
    checks = [{"check": c, "value": v, "target": t, "ok": o} for c, v, t, _, o in rows]
    return _finish(
        args, "curvature", not failed,
        {"chart": args.chart, "seed": args.seed, "samples": args.samples,
         "worst_deviation": worst, "checks": checks, "check_count": count},
        f"curvature-{args.chart}-{args.seed}.json",
        f"curvature[{args.chart}] {count} checks, worst deviation {format_float(worst)} "
        f"{'FAIL' if failed else 'PASS'}",
    )


def cmd_classify(args) -> int:
    spec = FIBERS[args.fiber](WARPS[args.warp](args.const_value), args.epsilon)
    draws = _chunks(args.samples, spec.dim, np.random.default_rng(args.seed), wc.default_sample_box(spec.dim))
    points = np.concatenate([chunk for (chunk,) in draws])
    check = wc.kenmotsu_theorem_check(spec, points, args.residual_tol)
    rows = [
        {"point": p, "alpha": cls.alpha, "d_eta_residual": cls.d_eta_residual,
         "d_phi_residual": cls.d_phi_residual,
         "contact_identity_residual": cls.contact_identity_residual,
         "d_omega_residual": cls.d_omega_residual, "tag": cls.structure_tag}
        for p, cls in zip(points.tolist(), check.classifications)
    ]
    tags = sorted({r["tag"] for r in rows})
    return _finish(
        args, "classify", check.consistent,
        {"warp": args.warp, "fiber": args.fiber, "seed": args.seed, "samples": args.samples,
         "fiber_almost_kaehler": check.fiber_almost_kaehler,
         "total_almost_kenmotsu": check.total_almost_kenmotsu,
         "consistent": check.consistent,
         "k_tilde_xi_residual": check.k_tilde_xi_residual,
         "classifications": rows},
        f"classify-{args.warp}-{args.fiber}.json",
        f"classify[{args.warp}/{args.fiber}] tags={tags} alpha={format_float(rows[0]['alpha'])} "
        f"consistent={check.consistent}",
    )


def _reproduce_checks(example: str, rng: np.random.Generator):
    """``reproduce``'s (points, columns) chunks: 20 samples of example-r2, or 50 of example-h3 between
    its connection-table check and its contact-classification checks."""
    if example == "example-r2":
        chart = sg.builtin_r2_example()
        ex, ey = np.eye(2)
        for points, *probes in _chunks(20, 2, rng, *[[(-1.0, 1.0)] * 2] * 5):
            # ex, ey are g-orthonormal on this chart: the sectional curvature is g(R(ex,ey)ey, ex)
            nabla, nabla_star = (sg.sectional_curvature(chart, which, points, ex, ey)
                                 for which in ("nabla", "nabla_star"))
            residual = np.max(list(sg.axiom_residuals(chart, points, *probes).values()), axis=0)
            k = sg.difference_tensor(chart, points)
            yield points, [
                ("curvature(nabla)", nabla, -1.0, 1e-10), ("curvature(nabla_star)", nabla_star, -1.0, 1e-10),
                ("axiom residual", residual, 0.0, 1e-12),
                ("K^y_xx", k[:, 1, 0, 0], 1.0, 1e-12), ("K^x_xy", k[:, 0, 0, 1], 1.0, 1e-12)]
        return
    spec = wc.builtin_h3_example()
    chart = wc.build_warped_chart(spec)
    p = np.array([0.37, 0.41, -0.58])
    table = float(np.max(np.abs(chart.gamma(p) - wc.h3_connection_table(p[0]))))
    yield p[None], [("connection table", [table], 0.0, 1e-12)]
    for points, u, v, *probes in _chunks(50, 3, rng, wc.default_sample_box(3), *[[(-1.0, 1.0)] * 3] * 6):
        sectional, residuals = sg.levi_civita_sectional_and_axioms(chart, points, u, v, probes)
        residual = np.max(list(residuals.values()), axis=0)
        yield points, [("hyperbolic sectional", sectional, -1.0, 1e-6), ("axiom residual", residual, 0.0, 1e-12)]
    (point,) = next(_chunks(1, 3, rng, wc.default_sample_box(3)))
    (cls,) = wc.contact_classification(spec, point)
    yield point, [("alpha", [cls.alpha], -1.0, 1e-12), ("d_phi residual", [cls.d_phi_residual], 0.0, 1e-8)]


def cmd_reproduce(args) -> int:
    count, failed, _, rows, _ = _fold(_reproduce_checks(args.example, np.random.default_rng(args.seed)), rows=math.inf)
    worst = max((abs(v - t) / max(tol, 1e-300) for _, v, t, tol, _ in rows), default=0.0)
    checks = [{"check": c, "value": v, "target": t, "tol": tol, "ok": o} for c, v, t, tol, o in rows]
    return _finish(
        args, "reproduce", not failed,
        {"example": args.example, "seed": args.seed, "checks": checks, "check_count": count},
        f"reproduce-{args.example}.json",
        f"reproduce[{args.example}] {count} checks {'FAIL' if failed else 'PASS'} (worst {worst:.3g}x tol)",
    )


def _load_instance(path: str) -> lg.LegendrianPointInstance:
    return lg.LegendrianPointInstance.from_json(Path(path).read_text())


def cmd_wintgen_verify(args) -> int:
    rep = wg.main_inequality(_load_instance(args.instance), seed=args.instance)
    return _finish(
        args, "wintgen-verify", rep.holds, rep.as_dict(), "wintgen-verify.json",
        f"wintgen verify lhs={format_float(rep.lhs)} rhs={format_float(rep.rhs)} "
        f"slack={format_float(rep.slack)} holds={rep.holds}",
    )


CSV_COLUMNS = ("seed", "n", "c", "f", "f_prime", "lhs", "rhs", "slack", "holds")


def sweep_csv_lines(reports: list[wg.WintgenReport]) -> list[str]:
    """The ``CSV_COLUMNS`` header, then one row per report with its floats at 17 significant digits."""
    return [",".join(CSV_COLUMNS)] + [
        f"{r.seed},{r.n},{r.c:.17g},{r.f:.17g},{r.f_prime:.17g},{r.lhs:.17g},{r.rhs:.17g},{r.slack:.17g},"
        f"{'true' if r.holds else 'false'}" for r in reports]


def cmd_wintgen_sweep(args) -> int:
    reports = wg.sweep(n=args.n, count=args.count, seed=args.seed, c_range=(args.c_min, args.c_max),
                       f_range=(args.f_min, args.f_max), fprime_range=(args.fprime_min, args.fprime_max),
                       magnitude=args.magnitude)
    failures = [r for r in reports if not r.holds]
    if args.format == "csv":
        text = "\n".join(sweep_csv_lines(reports)) + "\n"
    else:
        body = {"seed": args.seed, "n": args.n, "count": args.count, "rows": [r.as_dict() for r in reports]}
        text = dump_json(_base_report("wintgen-sweep", not failures, body)) + "\n"
    out = Path(args.out) if args.out is not None else _output_dir() / f"sweep-{args.seed}.{args.format}"
    _write_report(out, text)
    min_slack = min((r.slack for r in reports), default=0.0)
    print(f"wintgen sweep n={args.n} count={args.count} seed={args.seed}: "
          f"{len(failures)} violations, min slack {format_float(min_slack)} -> {out}")
    if failures:
        worst = min(failures, key=lambda r: r.slack)
        print(f"  worst: seed={worst.seed} c={format_float(worst.c)} f={format_float(worst.f)} "
              f"f'={format_float(worst.f_prime)} slack={format_float(worst.slack)}")
    return EXIT_OK if not failures else EXIT_VIOLATION


def cmd_wintgen_chain(args) -> int:
    inst = _load_instance(args.instance)
    rep = wg.main_inequality(inst, seed=args.instance, include_chain=True)
    required = [s for s in rep.chain if s.step != "final_bound_rederived"]
    passed = all(s.holds for s in required)
    lines = [f"  {s.step:<24} lhs={format_float(s.lhs)} rhs={format_float(s.rhs)} "
             f"{'ok' if s.holds else 'VIOLATED'}" for s in rep.chain]
    lines.append(f"wintgen chain {'PASS' if passed else 'FAIL'}")
    return _finish(args, "wintgen-chain", passed, rep.as_dict(), "wintgen-chain.json", "\n".join(lines))


def cmd_wintgen_sharpness(args) -> int:
    result = wg.sharpness_search(n=args.n, c=args.c, f=args.f, fprime=args.fprime, iterations=args.iterations,
                                 seed=args.seed)
    return _finish(
        args, "wintgen-sharpness", not result.hard_violation,
        {"n": args.n, "c": args.c, "f": args.f, "f_prime": args.fprime, "seed": args.seed,
         "iterations": args.iterations, "min_slack": result.min_slack, "evaluations": result.evaluations,
         "restarts": result.restarts, "trace": result.trace, "hard_violation": result.hard_violation,
         "best_instance": result.best_instance.to_dict()},
        f"sharpness-{args.seed}.json",
        f"wintgen sharpness min slack {format_float(result.min_slack)} "
        f"({result.evaluations} evals, {result.restarts} restarts, "
        f"hard_violation={result.hard_violation})",
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def nonnegative_float(text: str) -> float:
    value = finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0: {text!r}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def nonempty_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


class _Parser(argparse.ArgumentParser):
    """A parser whose rejected flags and values exit 2 with one ``error:`` line on stderr.

    argparse's own ``error`` prints the usage block first; subparsers are built
    from this class too, so every command word gets the one-line form.
    """

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=nonempty_path, default=None, help="report output path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="statwintgen",
                     description="Numerical checks for dualistic warped-product geometry and the Wintgen bound.")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file with default values for any long flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="dualistic axiom residual suite")
    p.add_argument("--chart", choices=tuple(CHARTS), default="r2")
    p.add_argument("--samples", type=positive_int, default=100)
    p.add_argument("--residual-tol", type=nonnegative_float, default=1e-12)
    p.add_argument("--perturb-gamma", type=finite_float, default=0.0,
                   help="corrupt one connection coefficient by EPS (negative-path testing)")
    _add_common(p)

    p = sub.add_parser("curvature", help="curvature cross-checks")
    p.add_argument("--chart", choices=tuple(CHARTS), default="r2")
    p.add_argument("--samples", type=positive_int, default=20)
    _add_common(p)

    p = sub.add_parser("classify", help="almost-contact classification")
    p.add_argument("--warp", choices=tuple(WARPS), default="exp")
    p.add_argument("--const-value", type=finite_float, default=1.0)
    p.add_argument("--fiber", choices=tuple(FIBERS), default="flat")
    p.add_argument("--epsilon", type=finite_float, default=0.4, help="twist size for the twisted fiber")
    p.add_argument("--samples", type=positive_int, default=5)
    p.add_argument("--residual-tol", type=nonnegative_float, default=1e-8)
    _add_common(p)

    p = sub.add_parser("reproduce", help="reproduce a built-in example end to end")
    p.add_argument("example", choices=("example-r2", "example-h3"))
    _add_common(p)

    pw = sub.add_parser("wintgen", help="Legendrian instance checks")
    wsub = pw.add_subparsers(dest="subcommand", required=True)

    p = wsub.add_parser("verify", help="verify the bound on an instance file")
    p.add_argument("instance", type=str)
    _add_common(p)

    p = wsub.add_parser("sweep", help="seeded random-instance sweep")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--count", type=positive_int, default=1000)
    p.add_argument("--c-min", type=finite_float, default=-4.0)
    p.add_argument("--c-max", type=finite_float, default=4.0)
    p.add_argument("--f-min", type=finite_float, default=0.5)
    p.add_argument("--f-max", type=finite_float, default=3.0)
    p.add_argument("--fprime-min", type=finite_float, default=-2.0)
    p.add_argument("--fprime-max", type=finite_float, default=2.0)
    p.add_argument("--magnitude", type=finite_float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    p = wsub.add_parser("chain", help="per-step inequality chain on an instance file")
    p.add_argument("instance", type=str)
    _add_common(p)

    p = wsub.add_parser("sharpness", help="hill-climb slack minimization")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--c", type=finite_float, default=0.0)
    p.add_argument("--f", type=finite_float, default=1.0)
    p.add_argument("--fprime", type=finite_float, default=0.0)
    p.add_argument("--iterations", type=positive_int, default=2000)
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call of this process shares; parsing leaves it unchanged."""
    return build_parser()


def _handler(args: argparse.Namespace):
    """The ``cmd_*`` function named by the command words, looked up in this module
    when the command runs, so a rebound ``cli.cmd_*`` attribute is the one called."""
    words = (args.command, getattr(args, "subcommand", None))
    return globals()["cmd_" + "_".join(w for w in words if w)]


def _is_negative_number(token: str) -> bool:
    if not token.startswith("-"):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with every ``--flag -4e0`` written as ``--flag=-4e0``.

    argparse takes a token that starts with '-' for an option unless it looks
    like ``-4`` or ``-1.5``, so a negative number in exponent notation would
    leave the flag before it without a value.  Tokens after ``--`` stay as given.
    """
    out: list[str] = []
    for i, token in enumerate(argv):
        if token == "--":
            return out + argv[i:]
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _is_negative_number(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _with_config(args: argparse.Namespace, argv: list[str]) -> list[str]:
    """argv with the --config file's keys as flags right after the command words.

    Explicit flags come later in argv, so argparse's last-wins rule lets them win.
    """
    try:
        data = json.loads(Path(args.config).read_text())
    except RecursionError:
        raise ValueError("config file is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in data.items():
        # str() of anything else would pass as a flag value: null would become the file name "None"
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r} must hold a string or a number")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in data.items()]
    i = 0
    while argv[i].startswith("-"):  # only --config precedes the command words
        i += 1 if "=" in argv[i] else 2
    i += 2 if args.command == "wintgen" else 1
    return argv[:i] + flags + argv[i:]


def main(argv: list[str] | None = None) -> int:
    argv = _join_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(_with_config(args, argv))
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize other codes
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # numpy's overflow warnings would only add stderr lines: a non-finite
        # bound raises OverflowError, caught below, and reports refuse non-finite floats
        with np.errstate(all="ignore"):
            return _handler(args)(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # Python's float overflow carries (errno, text)
        print(f"error: arithmetic overflow: {exc.args[-1] if exc.args else exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
