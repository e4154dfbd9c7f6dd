"""The check rows of ``axioms``, ``curvature`` and ``reproduce``, computed without ``cli._fold`` (test oracle).

``checks(command, target, seed, samples)`` repeats a command's draws and geometry calls and
appends each check as a dict, sample by sample, in report order, with the
tolerance and verdict of that one row: the loop ``curvature`` and
``reproduce`` ran before they kept their checks as columns.  ``summary``
gives the report fields that are read off the rows.  ``axioms(chart, seed,
samples, perturb_gamma)`` is the per-chunk loop ``axioms`` ran before the
fold: the worst value of each residual, and every breach, uncapped.
``contact_classification`` and ``kenmotsu_theorem_check`` are the
multi-jet frame pipeline, the one ``classify`` ran before its one grid pass
with the jet in place of the grid: f, g_N and J evaluated at the points (as
complex points, as the jet's point rows are), again on the total jet, and
again on a second jet over the fiber coordinates.  The module name has no
``test_`` prefix, so pytest imports it without collecting it.
"""

from __future__ import annotations

import math

import numpy as np

import statwintgen.cli as cli
import statwintgen.statistical_geometry as sg
import statwintgen.warped_contact as wc
from statwintgen.tensor_core import jet, jet_partials

from paper_checks import phi_matrix


def checks(command: str, target: str, seed: int, samples: int) -> list[dict]:
    """Every check row of ``curvature --chart r2|h3 --samples N`` or ``reproduce example-r2|h3``."""
    rng = np.random.default_rng(seed)
    rows: list[dict] = []

    def add(name: str, value: float, target: float, tol: float):
        value = float(value)
        rows.append({"check": name, "value": value, "target": target, "tol": tol, "ok": abs(value - target) <= tol})

    if (command, target) == ("curvature", "r2"):
        chart = sg.builtin_r2_example()
        ex, ey = np.eye(2)
        for (points,) in cli._chunks(samples, 2, rng, [(-1.0, 1.0)] * 2):
            values = [sg.sectional_curvature(chart, w, points, ex, ey) for w in ("nabla", "nabla_star")]
            for i in range(len(points)):
                for w, vals in zip(("nabla", "nabla_star"), values):
                    add(f"{w} sectional", vals[i], -1.0, 1e-10)
    elif (command, target) == ("curvature", "h3"):
        spec = wc.builtin_h3_example()
        chart = wc.build_warped_chart(spec)
        boxes = wc.default_sample_box(3), *[[(-1.0, 1.0)] * 3] * 2, *[[(-1.0, 1.0)] * 2] * 3
        for points, u, v, vf, uf, wf in cli._chunks(samples, 3, rng, *boxes):
            sectional = sg.sectional_curvature(chart, "levi_civita", points, u, v)
            curvature = {w: sg.curvature(chart, w, points) for w in ("nabla", "nabla_star")}
            closed = wc.warped_curvature_closed_form(spec, points, uf, vf, wf)
            probes = wc.closed_form_probes(uf, vf, wf)
            deviations = []
            for case in wc.CLOSED_FORM_CASES:
                r = curvature["nabla_star" if case.endswith("*") else "nabla"]
                deviations.append(np.max(np.abs(closed[case] - r.vector(*probes[case])), axis=-1))
            for i in range(len(points)):
                add("levi-civita sectional", sectional[i], -1.0, 1e-6)
                for case, dev in zip(wc.CLOSED_FORM_CASES, deviations):
                    add(f"closed-form {case}", dev[i], 0.0, 1e-6)
    elif (command, target) == ("reproduce", "example-r2"):
        chart = sg.builtin_r2_example()
        ex, ey = np.eye(2)
        for points, *probes in cli._chunks(20, 2, rng, *[[(-1.0, 1.0)] * 2] * 5):
            nabla, nabla_star = (sg.sectional_curvature(chart, w, points, ex, ey) for w in ("nabla", "nabla_star"))
            residual = np.max(list(sg.axiom_residuals(chart, points, *probes).values()), axis=0)
            k = sg.difference_tensor(chart, points)
            for i in range(len(points)):
                add("curvature(nabla)", nabla[i], -1.0, 1e-10)
                add("curvature(nabla_star)", nabla_star[i], -1.0, 1e-10)
                add("axiom residual", residual[i], 0.0, 1e-12)
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
                add("axiom residual", residual[i], 0.0, 1e-12)
        (point,) = next(cli._chunks(1, 3, rng, wc.default_sample_box(3)))
        (cls,) = wc.contact_classification(spec, point)
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


def axioms(chart_name: str, seed: int, samples: int, perturb_gamma: float, residual_tol: float = 1e-12) -> dict:
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


def frame_invariant_residual(spec: wc.WarpedProductSpec, points: np.ndarray) -> np.ndarray:
    """Worst violation of the almost-contact-metric frame identities, one value per point of a stack.

    phi xi = 0, eta o phi = 0, phi^2 = -Id + eta (x) xi,
    <phi u, phi v> = <u,v> - eta(u) eta(v).
    """
    points = np.asarray(points)
    d = spec.dim
    g = wc.warped_metric(spec, points).real
    phi = phi_matrix(spec, points).real
    xi = eta = np.eye(d)[0]
    res = np.stack([
        np.max(np.abs(phi @ xi), axis=-1),
        np.max(np.abs(eta @ phi), axis=-1),
        np.max(np.abs(phi @ phi + np.eye(d) - np.outer(xi, eta)), axis=(-2, -1)),
        np.max(np.abs(np.swapaxes(phi, -1, -2) @ g @ phi - g + np.outer(eta, eta)), axis=(-2, -1)),
    ])
    return np.max(res, axis=0)


def fundamental_two_form(spec: wc.WarpedProductSpec, point: np.ndarray) -> np.ndarray:
    """Phi_ab = <phi d_a, d_b> on the total chart, at each point of a (..., 2n+1) stack."""
    return np.swapaxes(phi_matrix(spec, point), -1, -2) @ wc.warped_metric(spec, point)


def fiber_fundamental_form(spec: wc.WarpedProductSpec, fiber_point: np.ndarray) -> np.ndarray:
    """Omega_ab = g_N(J d_a, d_b) on the fiber, at each point of a (..., 2n) stack."""
    fiber_point = np.asarray(fiber_point)
    g_n = np.asarray(spec.fiber.metric(fiber_point))
    return np.swapaxes(spec.j_at(fiber_point), -1, -2) @ g_n


def almost_complex_residual(g: np.ndarray, J: np.ndarray) -> float:
    """Residual of J^2 = -Id and g(J.,J.) = g at one (g, J) pair."""
    return max(float(np.max(np.abs(J @ J + np.eye(J.shape[-1])))),
               float(np.max(np.abs(np.swapaxes(J, -1, -2) @ g @ J - g))))


def contact_classification(spec: wc.WarpedProductSpec, points: np.ndarray, tol: float = 1e-8,
                           frame_tol: float = 1e-9) -> tuple[wc.ContactClassification, ...]:
    """The records of ``wc.contact_classification``: Phi and dPhi from one jet of the points,
    dOmega from a second jet of their fiber coordinates, the rest evaluated at the points as complex
    points with zero imaginary parts, whose real parts are kept."""
    points = np.asarray(points, dtype=float)
    at_points = points.astype(complex)
    frame_res = frame_invariant_residual(spec, at_points)
    for res in frame_res:
        if res > frame_tol:
            raise ValueError(f"contact frame invariants violated (residual {res:.3e})")
    f, fp, _ = spec.warping.at(points[:, 0])
    kappa = fp / f
    phi, d_phi = jet_partials(fundamental_two_form(spec, jet(points)), len(points))
    d_phi = wc.exterior_derivative_2form(d_phi)
    d_omega_fiber = wc.exterior_derivative_2form(
        jet_partials(fiber_fundamental_form(spec, jet(points[:, 1:])), len(points))[1])
    d_omega = np.zeros(d_phi.shape)
    d_omega[:, 1:, 1:, 1:] = d_omega_fiber
    wedge = wc.wedge_eta_form(phi)
    g_n = np.asarray(spec.fiber.metric(at_points[:, 1:])).real
    j = spec.j_at(at_points[:, 1:]).real

    records = []
    for i in range(len(points)):
        k, ff = kappa[i], f[i] * f[i]
        phi_res = float(np.max(np.abs(d_phi[i] - 2.0 * k * wedge[i])))
        tag = "unclassified"
        if phi_res <= tol:
            tag = "almost cosymplectic" if abs(k) <= 1e-12 else "almost alpha-kenmotsu"
        records.append(wc.ContactClassification(
            alpha=float(-k) if k != 0.0 else 0.0,
            d_eta_residual=0.0,
            d_phi_residual=phi_res,
            contact_identity_residual=float(np.max(np.abs(d_phi[i] - ff * d_omega[i] - 2.0 * k * wedge[i]))),
            d_omega_residual=float(np.max(np.abs(d_omega_fiber[i]))),
            frame_residual=float(frame_res[i]),
            almost_complex_residual=almost_complex_residual(g_n[i], j[i]),
            structure_tag=tag,
        ))
    return tuple(records)


def kenmotsu_theorem_check(spec: wc.WarpedProductSpec, pts: np.ndarray, tol: float = 1e-8) -> wc.KenmotsuCheck:
    """``wc.kenmotsu_theorem_check`` with the fiber's almost-complex check evaluated apart from the records."""
    classifications = contact_classification(spec, pts, tol, math.inf)
    fiber_res = [max(almost_complex_residual(g, j) for g, j in
                     zip(spec.fiber.metric(pts[:, 1:]), spec.j_at(pts[:, 1:])))]
    fiber_res += [cls.d_omega_residual for cls in classifications]
    total_res = [r for cls in classifications for r in (cls.frame_residual, cls.d_phi_residual)]
    k_tilde = sg.difference_tensor(wc.build_warped_chart(spec), pts)
    k_xi_res = [np.abs(k_tilde[:, :, :, 0]), np.abs(k_tilde[:, :, 0, :])]
    worst_fiber, worst_total, k_xi = (float(np.max(r, initial=0.0)) for r in (fiber_res, total_res, k_xi_res))
    if not all(map(math.isfinite, (worst_fiber, worst_total, k_xi))):
        raise OverflowError(f"non-finite residual on {spec.label}")
    fiber_ok, total_ok = worst_fiber <= wc.KENMOTSU_TOL, worst_total <= wc.KENMOTSU_TOL
    return wc.KenmotsuCheck(fiber_ok, total_ok, fiber_ok == total_ok, k_xi, classifications)
