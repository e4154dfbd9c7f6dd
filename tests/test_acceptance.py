"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.

Criterion 8 (sweep of the stated bound) fails by design of the check, not by
accident: the stated curvature constant is smaller than the one obtained by
redoing the final substitution of the bound's derivation whenever
c/4f^2 > (f'/f)^2, and instances in that regime violate the stated bound
while satisfying every earlier chain step and the rederived constant.  The
test asserts the criterion as written and reports the violating instances.
"""

import math
import time

import numpy as np
import pytest

import draw_oracle
import frame_oracle
import paper_checks as pc
import statwintgen.legendrian as lg
import statwintgen.statistical_geometry as sg
import statwintgen.warped_contact as wc
import statwintgen.wintgen as wg
from statwintgen.cli import main as cli_main

from derivative_oracle import FD_TOL, fd_curvature
from helpers import stacked, warped_points

EX, EY = np.eye(2)


def _line(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name:<28} {status}  {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep_instances():
    """The shared 10^4 validated instances (n cycling 2..5, master seed 7), drawn from the
    ``default_rng([7, i])`` streams that criterion 8 has always read."""
    return [draw_oracle.hashed_instance(2 + i % 4, 7, i) for i in range(10_000)]


def test_criterion_1_r2_reproduction():
    start = time.perf_counter()
    chart = sg.builtin_r2_example()
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(20):
        p = rng.uniform(-1, 1, 2)
        g = chart.metric(p)
        for which in ("nabla", "nabla_star"):
            ok &= abs(sg.curvature(chart, which, p[None]).scalar(g, EX, EY, EY, EX)[0] + 1.0) <= 1e-10
            ok &= abs(fd_curvature(chart, which, p[None]).scalar(g, EX, EY, EY, EX)[0] + 1.0) <= FD_TOL
        probes = [rng.uniform(-1, 1, 2) for _ in range(4)]
        ok &= max(v[0] for v in sg.axiom_residuals(chart, p[None], *probes).values()) < 1e-8
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert _line(1, "r2 example reproduction", ok, f"runtime {elapsed:.2f}s")


def test_criterion_2_h3_reproduction():
    start = time.perf_counter()
    spec = wc.builtin_h3_example()
    chart = wc.build_warped_chart(spec)
    rng = np.random.default_rng(2)
    # nine-identity connection table, componentwise
    t = 0.41
    p = np.array([t, -0.3, 0.7])
    gam = chart.gamma(p)
    e2t = math.exp(2 * t)
    expected = np.zeros((3, 3, 3))
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0
    expected[2, 0, 2] = expected[2, 2, 0] = 1.0
    expected[2, 1, 1] = 1.0
    expected[0, 1, 1] = -e2t
    expected[0, 2, 2] = -e2t
    expected[1, 1, 2] = expected[1, 2, 1] = 1.0
    # componentwise equality at double precision: the builder evaluates
    # f(t) f'(t) while the table states e^{2t}, one rounding apart
    ok = bool(np.max(np.abs(gam - expected)) <= 1e-13)
    worst = 0.0
    for _ in range(50):
        q = warped_points(spec, 1, rng)[0]
        u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        worst = max(worst, abs(sg.sectional_curvature(chart, "levi_civita", q[None], u, v)[0] + 1.0))
    ok &= worst <= 1e-6
    ok &= worst <= 1.39e-11  # the complex-step jet: a hundredth of the central difference's 1.39e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    assert _line(2, "hyperbolic warped model", ok, f"worst |K+1| {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_3_closed_form_curvature():
    start = time.perf_counter()
    worst = fd_worst = 0.0
    samples = 0
    for warp in (wc.exp_warping(), wc.const_warping(2.0), wc.cosh_warping()):
        for fiber_name in ("flat", "r2"):
            if fiber_name == "flat":
                spec = wc.flat_kaehler_spec(1, warp)
            else:
                spec = wc.WarpedProductSpec(
                    fiber=sg.builtin_r2_example(),
                    complex_structure=stacked(lambda x: wc.standard_complex_structure(1)),
                    warping=warp,
                )
            chart = wc.build_warped_chart(spec)
            rng = np.random.default_rng(3)
            for _ in range(20):
                p = warped_points(spec, 1, rng)[0]
                vf, uf, wf = (rng.uniform(-1, 1, 2) for _ in range(3))
                closed = wc.warped_curvature_closed_form(spec, p[None], uf[None], vf[None], wf[None])
                probes = wc.closed_form_probes(uf, vf, wf)
                for case in wc.CLOSED_FORM_CASES:
                    which = "nabla_star" if case.endswith("*") else "nabla"
                    num = sg.curvature(chart, which, p[None]).vector(*probes[case])[0]
                    worst = max(worst, float(np.max(np.abs(closed[case][0] - num))))
                    fd = fd_curvature(chart, which, p[None]).vector(*probes[case])[0]
                    fd_worst = max(fd_worst, float(np.max(np.abs(closed[case][0] - fd))))
                    samples += 1
    elapsed = time.perf_counter() - start
    # the jet at a hundredth of the central difference's worst deviation, 1.19e-10; that one at its tolerance
    ok = worst <= 1e-6 and worst <= 1.19e-12 and fd_worst <= FD_TOL and samples >= 100 and elapsed < 30.0
    assert _line(3, "closed-form warp curvature", ok,
                 f"{samples} case evaluations, worst dev {worst:.2e} (central difference {fd_worst:.2e}), "
                 f"runtime {elapsed:.1f}s")


def test_criterion_4_space_form_curvature():
    spec = wc.flat_kaehler_spec(1, wc.exp_warping())
    chart = wc.build_warped_chart(spec)
    rng = np.random.default_rng(4)
    worst = {sg.curvature: 0.0, fd_curvature: 0.0}  # the jet, and the central-difference oracle
    for _ in range(100):
        p = warped_points(spec, 1, rng)[0]
        x, y, z, w = (rng.uniform(-1, 1, 3) for _ in range(4))
        closed = pc.space_form_warped_curvature(spec, 0.0, p, x, y, z, w)
        g = wc.warped_metric(spec, p)
        for r in worst:
            for which in ("nabla", "nabla_star"):
                worst[r] = max(worst[r], abs(closed - r(chart, which, p[None]).scalar(g, x, y, z, w)[0]))
    ok = max(worst.values()) <= 1e-6
    anti = 0.0
    for c in (-3.0, 1.5, 4.0):
        spec_c = wc.flat_kaehler_spec(2, wc.cosh_warping())
        for _ in range(20):
            p = warped_points(spec_c, 1, rng)[0]
            x, y, z, w = (rng.uniform(-1, 1, 5) for _ in range(4))
            a = pc.space_form_warped_curvature(spec_c, c, p, x, y, z, w)
            b = pc.space_form_warped_curvature(spec_c, c, p, y, x, z, w)
            anti = max(anti, abs(a + b))
    ok &= anti <= 1e-12
    assert _line(4, "space-form four-slot tensor", ok,
                 f"worst numeric dev {worst[sg.curvature]:.2e} (central difference {worst[fd_curvature]:.2e}), "
                 f"antisymmetry residual {anti:.2e}")


def test_criterion_5_contact_classification():
    const_spec = wc.flat_kaehler_spec(1, wc.const_warping(2.0))
    cls_const = wc.contact_classification(const_spec, np.array([[0.2, 0.4, -0.1]]))[0]
    ok = cls_const.structure_tag == "almost cosymplectic" and cls_const.d_phi_residual < 1e-8

    exp_spec = wc.flat_kaehler_spec(1, wc.exp_warping())
    cls_exp = wc.contact_classification(exp_spec, np.array([[0.3, -0.2, 0.5]]))[0]
    ok &= abs(abs(cls_exp.alpha) - 1.0) <= 1e-12
    ok &= cls_exp.contact_identity_residual < 1e-8

    twisted = wc.twisted_j_spec(0.4, wc.exp_warping())
    positive = wc.kenmotsu_theorem_check(exp_spec, warped_points(exp_spec, 5, 23))
    negative = wc.kenmotsu_theorem_check(twisted, warped_points(twisted, 5, 23))
    ok &= positive.consistent and positive.fiber_almost_kaehler
    ok &= negative.consistent and not negative.fiber_almost_kaehler
    assert _line(5, "contact classification", ok,
                 f"alpha {cls_exp.alpha:+.1f}, identity residual {cls_exp.contact_identity_residual:.2e}")


def test_criterion_6_lu_inequality():
    rng = np.random.default_rng(6)
    ok = True
    for trial in range(10_000):
        dim = int(rng.integers(1, 7))
        count = int(rng.integers(1, 6))
        mats = pc.random_symmetric_traceless(dim, count, seed=trial)
        if not pc.lu_inequality(mats).holds:
            ok = False
            break
    pair = pc.lu_inequality([np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    ok &= pair.lhs == 16.0 and pair.rhs == 16.0
    assert _line(6, "Lu commutator inequality", ok, "10^4 sets, equality pair exact")


def test_criterion_7_two_path_agreement(sweep_instances):
    start = time.perf_counter()
    worst = 0.0
    for inst in sweep_instances:
        worst = max(worst, abs(lg.rho_statistical(inst) - frame_oracle.rho(inst)))
        worst = max(worst, abs(lg.rho_perp_statistical(inst) - frame_oracle.rho_perp(inst)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    assert _line(7, "two-path oracle equivalence", ok,
                 f"worst gap {worst:.2e} over 10^4 instances, runtime {elapsed:.1f}s")


def test_criterion_8_main_theorem_sweep(sweep_instances):
    umbilic = wg.main_inequality(lg.umbilic_instance())
    umbilic_ok = umbilic.lhs == 0.0 and abs(umbilic.rhs - 7.0) <= 1e-12

    violations = []
    early_step_failures = 0
    final_step_failures = 0
    rederived_failures = 0
    for i, inst in enumerate(sweep_instances):
        rep = wg.main_inequality(inst, seed=f"7-{i}", include_chain=True)
        if not rep.holds:
            violations.append(rep)
        for step in rep.chain:
            if step.step == "final_bound_rederived":
                rederived_failures += not step.holds
            elif step.step == "final_bound":
                final_step_failures += not step.holds
            elif not step.holds:
                early_step_failures += 1
    ok = umbilic_ok and not violations and early_step_failures == 0 and final_step_failures == 0
    detail = (
        f"umbilic rhs {umbilic.rhs:.0f}; {len(violations)} of 10^4 instances violate the "
        f"stated constant (worst slack {min((r.slack for r in violations), default=0.0):.3f}); "
        f"steps 1-4 failures {early_step_failures}; rederived-constant failures "
        f"{rederived_failures} (the stated and rederived constants differ by exactly "
        f"-7(c/4f^2 - (f'/f)^2))"
    )
    _line(8, "main theorem sweep", ok, detail)
    assert ok, detail


def test_criterion_9_corollary_specialization():
    ok = True
    kengold = pc.corollary_reports(lg.umbilic_instance(), "kenmotsu")
    ok &= abs(kengold.rhs - 7.0) <= 1e-12
    for i, c in enumerate((4.0, -4.0)):
        base = wg.random_instance(n=2, seed=90, index=i, f_range=(1.0, 1.0), fprime_range=(0.0, 0.0))
        inst = lg.LegendrianPointInstance(n=2, c=c, f_val=1.0, f_prime=0.0, h=base.h, h_star=base.h_star)
        rep = pc.corollary_reports(inst, "cosymplectic")
        main_rep = wg.main_inequality(inst, include_chain=False)
        ok &= abs(rep.rhs - main_rep.rhs) <= 1e-12
    ok &= pc.corollary_constant("cosymplectic", 4.0) == 1.0
    ok &= pc.corollary_constant("cosymplectic", -4.0) == 3.0
    assert _line(9, "corollary specialization", ok, "constants 1 and 3 at c = +/-4")


def test_criterion_10_deterministic_csv(tmp_path):
    args = ["wintgen", "sweep", "--n", "3", "--count", "200", "--seed", "12"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli_main(args + ["--out", str(out1)])
    cli_main(args + ["--out", str(out2)])
    ok = out1.read_bytes() == out2.read_bytes()
    assert _line(10, "deterministic sweeps", ok, f"{out1.stat().st_size} bytes, identical reruns")
