"""The check rows of ``axioms``, ``curvature`` and ``reproduce``, computed without ``cli._fold`` (test oracle).

``checks(command, target, seed, samples)`` repeats a command's draws and geometry calls and
appends each check as a dict, sample by sample, in report order, with the
tolerance and verdict of that one row: the loop ``curvature`` and
``reproduce`` ran before they kept their checks as columns.  ``summary``
gives the report fields that are read off the rows.  ``axioms(chart, seed,
samples, perturb_gamma)`` is the per-chunk loop ``axioms`` ran before the
fold: the worst value of each residual, and every breach, uncapped.  The
module name has no ``test_`` prefix, so pytest imports it without
collecting it.
"""

from __future__ import annotations

import numpy as np

import statwintgen.cli as cli
import statwintgen.statistical_geometry as sg
import statwintgen.warped_contact as wc


def checks(command: str, target: str, seed: int, samples: int) -> list[dict]:
    """Every check row of ``curvature --chart r2|h3 --samples N`` or ``reproduce example-r2|h3``."""
    rng = np.random.default_rng(seed)
    rows: list[dict] = []

    def add(name: str, value: float, target: float, tol: float):
        value = float(value)
        rows.append({"check": name, "value": value, "target": target, "tol": tol, "ok": abs(value - target) <= tol})

    if (command, target) == ("curvature", "r2"):
        chart = sg.builtin_r2_example()
        fd = chart.without_analytic()
        ex, ey = np.eye(2)
        cases = [(f"{label}:{w}", ch, w, tol) for label, ch, tol in
                 (("analytic", chart, 1e-10), ("finite-difference", fd, 1e-6)) for w in ("nabla", "nabla_star")]
        for (points,) in cli._chunks(samples, 2, rng, [(-1.0, 1.0)] * 2):
            values = [sg.sectional_curvature(ch, w, points, ex, ey) for _, ch, w, _ in cases]
            for i in range(len(points)):
                for (name, _, _, tol), vals in zip(cases, values):
                    add(name, vals[i], -1.0, tol)
    elif (command, target) == ("curvature", "h3"):
        spec = wc.builtin_h3_example()
        chart = wc.build_warped_chart(spec)
        fd = chart.without_analytic()
        boxes = wc.default_sample_box(3), *[[(-1.0, 1.0)] * 3] * 2, *[[(-1.0, 1.0)] * 2] * 3
        for points, u, v, vf, uf, wf in cli._chunks(samples, 3, rng, *boxes):
            sectional = sg.sectional_curvature(chart, "levi_civita", points, u, v)
            fd_curvature = {w: sg.curvature(fd, w, points) for w in ("nabla", "nabla_star")}
            closed = wc.warped_curvature_closed_form(spec, points, uf, vf, wf)
            probes = wc.closed_form_probes(uf, vf, wf)
            deviations = []
            for case in wc.CLOSED_FORM_CASES:
                r = fd_curvature["nabla_star" if case.endswith("*") else "nabla"]
                deviations.append(np.max(np.abs(closed[case] - r.vector(*probes[case])), axis=-1))
            for i in range(len(points)):
                add("levi-civita sectional", sectional[i], -1.0, 1e-6)
                for case, dev in zip(wc.CLOSED_FORM_CASES, deviations):
                    add(f"closed-form {case}", dev[i], 0.0, 1e-6)
    elif (command, target) == ("reproduce", "example-r2"):
        chart = sg.builtin_r2_example()
        fd = chart.without_analytic()
        ex, ey = np.eye(2)
        for points, *probes in cli._chunks(20, 2, rng, *[[(-1.0, 1.0)] * 2] * 5):
            nabla, nabla_star, fd_nabla = (sg.sectional_curvature(ch, w, points, ex, ey) for ch, w in
                                           ((chart, "nabla"), (chart, "nabla_star"), (fd, "nabla")))
            residual = np.max(list(sg.axiom_residuals(chart, points, *probes).values()), axis=0)
            k = sg.difference_tensor(chart, points)
            for i in range(len(points)):
                add("curvature(nabla)", nabla[i], -1.0, 1e-10)
                add("curvature(nabla_star)", nabla_star[i], -1.0, 1e-10)
                add("fd curvature(nabla)", fd_nabla[i], -1.0, 1e-6)
                add("axiom residual", residual[i], 0.0, 1e-8)
                add("K^y_xx", k[i, 1, 0, 0], 1.0, 1e-12)
                add("K^x_xy", k[i, 0, 0, 1], 1.0, 1e-12)
    elif (command, target) == ("reproduce", "example-h3"):
        spec = wc.builtin_h3_example()
        chart = wc.build_warped_chart(spec)
        p = np.array([0.37, 0.41, -0.58])
        add("connection table", float(np.max(np.abs(chart.gamma(p) - wc.h3_connection_table(p[0])))), 0.0, 1e-12)
        for points, u, v, *probes in cli._chunks(50, 3, rng, wc.default_sample_box(3), *[[(-1.0, 1.0)] * 3] * 6):
            sectional, residuals = sg.levi_civita_sectional_and_axioms(chart, points, u, v, probes)
            residual = np.max(list(residuals.values()), axis=0)
            for i in range(len(points)):
                add("hyperbolic sectional", sectional[i], -1.0, 1e-6)
                add("axiom residual", residual[i], 0.0, 1e-6)
        (cls,) = wc.contact_classification(spec, wc.sample_warped_points(spec, 1, rng))
        add("alpha", cls.alpha, -1.0, 1e-12)
        add("d_phi residual", cls.d_phi_residual, 0.0, 1e-8)
    else:
        raise ValueError(f"no check rows for {command} {target}")
    return rows


def summary(rows: list[dict]) -> dict:
    """passed, check_count, the worst absolute deviation and the worst deviation in tolerances."""
    return {
        "passed": all(r["ok"] for r in rows),
        "check_count": len(rows),
        "worst_deviation": max((abs(r["value"] - r["target"]) for r in rows), default=0.0),
        "worst_in_tol": max((abs(r["value"] - r["target"]) / max(r["tol"], 1e-300) for r in rows), default=0.0),
    }


def axioms(chart_name: str, seed: int, samples: int, perturb_gamma: float, residual_tol: float = 1e-6) -> dict:
    """``worst``, every breach and ``passed`` of ``axioms --chart r2|h3``, one residual table per chunk."""
    chart = cli.CHARTS[chart_name]()
    if perturb_gamma:
        chart = cli._perturbed_chart(chart, perturb_gamma)
    rng = np.random.default_rng(seed)
    cube = [(-1.0, 1.0)] * chart.dim
    box = wc.default_sample_box(chart.dim) if chart_name == "h3" else cube
    worst = dict.fromkeys(sg.AXIOM_RESIDUALS, 0.0)
    breaches = []
    for points, *probes in cli._chunks(samples, chart.dim, rng, box, *[cube] * 4):
        table = np.stack(list(sg.axiom_residuals(chart, points, *probes).values()), axis=1)
        assert np.isfinite(table).all()
        for name, column in zip(sg.AXIOM_RESIDUALS, table.T):
            worst[name] = max(worst[name], float(column.max()))
        breaches += [{"residual": sg.AXIOM_RESIDUALS[j], "value": float(table[i, j]), "point": points[i].tolist()}
                     for i, j in np.argwhere(table > residual_tol)]
    return {"worst": worst, "breaches": breaches, "passed": not breaches}
