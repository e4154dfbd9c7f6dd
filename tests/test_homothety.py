"""Homothety covariance: the quantities the geometry fixes do not move.

R x_f N(c) and R x_{lambda f} N(lambda^2 c) are the same statistical manifold for every lambda > 0: the
fiber metric scales by 1/lambda^2, its dual connections do not change, and the warping scales by lambda.

The Wintgen half: an instance with point data (c, f, f') and its image (lambda^2 c, lambda f, lambda f'),
with the same h and h* (their xi-slices -(f'/f) I are unchanged), must give the same lhs rho_perp, rho,
rho0, the six mean and traceless norms and the weight-0 chain step ``cauchy_schwarz``.  The other steps
are not invariant (``test_cli.py::test_chain_is_not_homothety_invariant``).

The geometry half: the warped chart of (lambda f, g_N / lambda^2), its closed-form curvatures and its
contact classification must equal the original's, for the h3 example and every ``classify`` spec.  Two
residuals are measured in g_N alone and so carry its weight: dOmega, of Omega = J^T g_N, scales by
lambda^-2, and so does the g_N part of the almost-complex residual.

Values agree to ``REL_TOL`` relative to max(|value|, 1): a value of magnitude below 1 is compared
absolutely.  Each quantity is a sum of terms of order one or more (c/4f^2, (f'/f)^2 and products of
form entries of magnitude up to 1 and up to 4 on the xi-slices), and its rounding error scales with
those terms, not with their sum, which can cancel to near 0 (rho, rho0).
"""

from functools import partial

import numpy as np
import pytest

import statwintgen.cli as cli
import statwintgen.legendrian as lg
import statwintgen.statistical_geometry as sg
import statwintgen.warped_contact as wc
import statwintgen.wintgen as wg

REL_TOL = 1e-12
LAMBDAS = (1e-2, 1e-1, 1e1, 1e2)
COUNT = 1000
NAMES = ("lhs", "rho", "rho0", "norm_H_sq", "norm_Hstar_sq", "norm_H0_sq", "norm_tau_sq", "norm_taustar_sq",
         "norm_tau0_sq", "cauchy_schwarz rhs")


def _invariants(inst: lg.LegendrianPointInstance) -> list[float]:
    """The values of ``NAMES`` for one instance, from the public scalars and the production chain."""
    s = lg.curvature_scalars(inst)
    step = wg.inequality_chain(inst, s)[0]
    assert step.step == "cauchy_schwarz"
    return [s.rho_perp, s.rho, s.rho_zero, s.norm_H_sq, s.norm_Hstar_sq, s.norm_H0_sq, s.norm_tau_sq,
            s.norm_taustar_sq, s.norm_tau0_sq, step.rhs]


def _image(inst: lg.LegendrianPointInstance, lam: float) -> lg.LegendrianPointInstance:
    return lg.LegendrianPointInstance(inst.n, lam * lam * inst.c, lam * inst.f_val, lam * inst.f_prime,
                                      inst.h, inst.h_star)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_seeded_instances_and_their_homothetic_images_agree(n):
    insts = wg._random_instances(n, (-4.0, 4.0), (0.5, 3.0), (-2.0, 2.0), 1.0, 7, range(COUNT))
    base = np.array([_invariants(inst) for inst in insts])
    for lam in LAMBDAS:
        image = np.array([_invariants(_image(inst, lam)) for inst in insts])
        error = np.abs(image - base) / np.maximum(np.abs(base), 1.0)
        worst = np.unravel_index(np.argmax(error), error.shape)
        assert error[worst] <= REL_TOL, (
            f"lambda = {lam}: {NAMES[worst[1]]} of instance {worst[0]} moved by {error[worst]:.3g} relative")


# ---------------------------------------------------------------------------
# The geometry half
# ---------------------------------------------------------------------------


POINTS = 50
CHART_FIELDS = ("metric", "gamma", "gamma_star", "metric_partial")
INVARIANT_RECORD = ("alpha", "d_eta_residual", "d_phi_residual", "contact_identity_residual", "frame_residual")


def _classify_spec(fiber: str, warp: str) -> wc.WarpedProductSpec:
    """The spec of ``classify --fiber <fiber> --warp <warp>`` at its defaults (--const-value 1, --epsilon 0.4)."""
    return cli.FIBERS[fiber](cli.WARPS[warp](1.0), 0.4)


SPECS = {"h3": wc.builtin_h3_example,
         **{f"{fiber}-{warp}": partial(_classify_spec, fiber, warp) for fiber in cli.FIBERS for warp in cli.WARPS}}


def _geometry_image(spec: wc.WarpedProductSpec, lam: float) -> wc.WarpedProductSpec:
    """R x_{lam f} (N, g_N / lam^2): the fiber's metric and metric partials over lam^2, f, f' and f'' times lam."""
    fiber, w = spec.fiber, spec.warping
    image_fiber = fiber._replace(metric=lambda x: fiber.metric(x) / lam**2,
                                 metric_partial=lambda x: fiber.metric_partial(x) / lam**2)
    image_warping = w._replace(f=lambda t: lam * w.f(t), f_prime=lambda t: lam * w.f_prime(t),
                               f_double_prime=lambda t: lam * w.f_double_prime(t))
    return spec._replace(fiber=image_fiber, warping=image_warping)


def _assert_agree(name: str, lam: float, image, base) -> None:
    image, base = np.asarray(image, dtype=float), np.asarray(base, dtype=float)
    error = np.abs(image - base) / np.maximum(np.abs(base), 1.0)
    assert error.max() <= REL_TOL, f"lambda = {lam}: {name} moved by {error.max():.3g} relative"


@pytest.mark.parametrize("name", SPECS)
def test_warped_charts_and_their_homothetic_images_agree(name):
    spec = SPECS[name]()
    rng = np.random.default_rng(17)
    low, high = np.array(wc.default_sample_box(spec.dim)).T
    points = rng.uniform(low, high, size=(POINTS, spec.dim))
    fiber_probes = rng.uniform(-1.0, 1.0, size=(3, POINTS, spec.dim - 1))
    probes = rng.uniform(-1.0, 1.0, size=(4, POINTS, spec.dim))
    chart = wc.build_warped_chart(spec)
    fields = [getattr(chart, field)(points) for field in CHART_FIELDS]
    closed = wc.warped_curvature_closed_form(spec, points, *fiber_probes)
    records = wc.contact_classification(spec, points)
    check = wc.kenmotsu_theorem_check(spec, points)
    for lam in LAMBDAS:
        image = _geometry_image(spec, lam)
        image_chart = wc.build_warped_chart(image)
        for field, base in zip(CHART_FIELDS, fields):
            _assert_agree(field, lam, getattr(image_chart, field)(points), base)
        for case, value in wc.warped_curvature_closed_form(image, points, *fiber_probes).items():
            _assert_agree(f"closed form ({case})", lam, value, closed[case])
        image_records = wc.contact_classification(image, points)
        for field in INVARIANT_RECORD:
            _assert_agree(field, lam, [getattr(r, field) for r in image_records], [getattr(r, field) for r in records])
        _assert_agree("lambda^2 d_omega_residual", lam, [lam**2 * r.d_omega_residual for r in image_records],
                      [r.d_omega_residual for r in records])
        assert [r.structure_tag for r in image_records] == [r.structure_tag for r in records]
        assert max(r.almost_complex_residual for r in image_records) <= REL_TOL * max(1.0, lam**-2)
        residuals = sg.axiom_residuals(image_chart, points, *probes)
        assert all(np.max(values) < REL_TOL for values in residuals.values()), (lam, residuals)
        image_check = wc.kenmotsu_theorem_check(image, points)
        assert image_check[:3] == check[:3], lam  # fiber_almost_kaehler, total_almost_kenmotsu, consistent
