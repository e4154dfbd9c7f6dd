import math
import re

import numpy as np
import numpy.testing as npt
import pytest

import check_oracle as co
import paper_checks as pc
import statwintgen.cli as cli
import statwintgen.statistical_geometry as sg
import statwintgen.warped_contact as wc

from derivative_oracle import FD_TOL, fd_curvature
from helpers import box_points, stacked, warped_points

E3 = np.eye(3)


@pytest.fixture(scope="module")
def h3_spec():
    return wc.builtin_h3_example()


@pytest.fixture(scope="module")
def h3_chart(h3_spec):
    return wc.build_warped_chart(h3_spec)


class TestBuildWarpedChart:
    def test_h3_connection_table(self, h3_chart):
        """All nine coefficient identities of the hyperbolic warp."""
        t = 0.27
        p = np.array([t, 0.3, -0.8])
        gam = h3_chart.gamma(p)
        e2t = math.exp(2.0 * t)
        expected = np.zeros((3, 3, 3))
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0      # nabla_dt dx = nabla_dx dt = dx
        expected[2, 0, 2] = expected[2, 2, 0] = 1.0      # nabla_dt dy = nabla_dy dt = dy
        expected[2, 1, 1] = 1.0                          # nabla_dx dx = dy - e^{2t} dt
        expected[0, 1, 1] = -e2t
        expected[1, 1, 2] = expected[1, 2, 1] = 1.0      # nabla_dx dy = nabla_dy dx = dx
        expected[0, 2, 2] = -e2t                         # nabla_dy dy = -e^{2t} dt
        npt.assert_allclose(gam, expected, atol=1e-13)
        npt.assert_array_equal(wc.h3_connection_table(t), expected)

    def test_flat_fiber_exp_warp(self):
        spec = wc.flat_kaehler_spec(1, wc.exp_warping())
        chart = wc.build_warped_chart(spec)
        p = np.array([0.1, 0.0, 0.0])
        gam = chart.gamma(p)
        e2t = math.exp(0.2)
        assert abs(gam[0, 1, 1] + e2t) <= 1e-13   # nabla_dx dx = -e^{2t} dt, no fiber part
        assert gam[2, 1, 1] == 0.0

    def test_unwarped_product(self):
        spec = wc.flat_kaehler_spec(1, wc.const_warping(1.0))
        chart = wc.build_warped_chart(spec)
        gam = chart.gamma(np.array([0.3, 0.1, 0.2]))
        npt.assert_array_equal(gam, np.zeros((3, 3, 3)))

    def test_built_chart_is_statistical(self, h3_spec, h3_chart):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = warped_points(h3_spec, 1, rng)[0]
            probes = [rng.uniform(-1, 1, 3) for _ in range(4)]
            assert max(v[0] for v in sg.axiom_residuals(h3_chart, p[None], *probes).values()) < 1e-6

    def test_warping_must_stay_positive(self):
        bad = wc.Warping(lambda t: t, np.ones_like, np.zeros_like, name="t")
        spec = wc.WarpedProductSpec(
            fiber=sg.trivial_chart(2),
            complex_structure=stacked(lambda x: wc.standard_complex_structure(1)),
            warping=bad,
        )
        with pytest.raises(ValueError):
            wc.build_warped_chart(spec).metric(np.array([-1.0, 0.0, 0.0]))

    def test_warping_positivity_names_the_first_bad_point_of_a_stack(self):
        # each f is non-positive or not finite at the second and fourth points (t < 0); the second is named
        points = np.array([[0.5, 0.1, 0.2], [-0.25, 0.0, 0.3], [0.75, -0.4, 0.0], [-1.5, 0.2, 0.2]])
        for f, shown in ((lambda t: t, "-0.25"), (lambda t: np.where(t.real > 0, t, math.nan), "nan"),
                         (lambda t: np.where(t.real > 0, t, math.inf), "inf")):
            bad = wc.Warping(f, np.ones_like, np.zeros_like, name="t")
            spec = wc.WarpedProductSpec(fiber=sg.trivial_chart(2), complex_structure=sg.constant_field(np.eye(2)),
                                        warping=bad)
            chart = wc.build_warped_chart(spec)
            message = f"warping t must stay positive, got f(-0.25) = {shown}"
            for field in (chart.metric, chart.gamma, chart.gamma_star, chart.metric_partial):
                with pytest.raises(ValueError, match=re.escape(message)):
                    field(points)
            with pytest.raises(ValueError, match=re.escape(message)):
                bad.at(points[:, 0])
            with pytest.raises(ValueError, match=re.escape(message)):
                sg.axiom_residuals(chart, points, *np.ones((4, 4, 3)))

    def test_complex_structure_without_the_stack_axis_is_named(self):
        spec = wc.WarpedProductSpec(fiber=sg.trivial_chart(2), complex_structure=lambda x: wc.standard_complex_structure(1),
                                    warping=wc.exp_warping(), label="unstacked-j")
        # the classification evaluates J on the jet of the 5 points: each point and its 3 shifts
        message = "field complex_structure of chart unstacked-j returned shape (2, 2), expected (20, 2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            wc.kenmotsu_theorem_check(spec, warped_points(spec, 5, 23))

    @pytest.mark.parametrize("name", ["metric", "gamma", "gamma_star", "metric_partial"])
    def test_fiber_field_without_the_stack_axis_is_named_inside_the_warped_chart(self, name):
        fiber = sg.builtin_r2_example()
        one_value = getattr(fiber, name)(np.zeros(2))
        unstacked = fiber._replace(**{name: lambda x: one_value}, label="unstacked-fiber")
        spec = wc.builtin_h3_example()._replace(fiber=unstacked)
        chart, points = wc.build_warped_chart(spec), warped_points(spec, 5, 23)
        shape = "(2, 2)" if name == "metric" else "(2, 2, 2)"
        message = f"field {name} of chart unstacked-fiber returned shape {shape}, expected (5, 2"
        # every warped field that reads the fiber's field refuses it by name
        readers = {"metric": ("metric", "gamma", "gamma_star", "metric_partial"), "gamma": ("gamma",),
                   "gamma_star": ("gamma_star",), "metric_partial": ("metric_partial",)}[name]
        for reader in readers:
            with pytest.raises(ValueError, match=re.escape(message)):
                getattr(chart, reader)(points)
        if name == "metric":
            for call in (lambda: wc.warped_metric(spec, points),
                         lambda: wc.contact_classification(spec, points),
                         lambda: wc.warped_curvature_closed_form(spec, points, *np.ones((3, 5, 2)))):
                with pytest.raises(ValueError, match=re.escape("field metric of chart unstacked-fiber returned shape")):
                    call()


def curvature_vectors(chart, which, point, case, vf, uf, wf):
    """R(X,Y)Z of the case's probes by the jet and by the central-difference oracle."""
    probes = wc.closed_form_probes(uf, vf, wf)[case]
    return [r(chart, which, point[None]).vector(*probes)[0] for r in (sg.curvature, fd_curvature)]


class TestClosedFormCurvature:
    def test_case_a_exp_warp(self, h3_spec):
        p = np.array([0.2, 0.1, 0.4])
        v = np.array([0.7, -0.3])
        out = wc.warped_curvature_closed_form(
            h3_spec, p[None], U=np.zeros((1, 2)), V=v[None], W=np.zeros((1, 2))
        )["a"][0]
        npt.assert_allclose(out, wc.embed_fiber_vector(-v), atol=1e-14)

    def test_case_b_zero(self, h3_spec):
        out = wc.warped_curvature_closed_form(
            h3_spec, np.array([[0.0, 0.0, 0.0]]), V=np.array([[1.0, 2.0]]), U=np.array([[0.5, 0.5]]), W=np.zeros((1, 2))
        )["b"][0]
        npt.assert_array_equal(out, np.zeros(3))

    def test_case_d_hand_value(self, h3_spec):
        # fiber curvature R^N(dx,dy)dy = -dx plus warp term -e^{2t} dx
        t = 0.31
        p = np.array([t, 0.2, -0.5])
        out = wc.warped_curvature_closed_form(
            h3_spec, p[None], V=np.array([[1.0, 0.0]]), W=np.array([[0.0, 1.0]]), U=np.array([[0.0, 1.0]])
        )["d"][0]
        npt.assert_allclose(out, [0.0, -(1.0 + math.exp(2 * t)), 0.0], atol=1e-12)

    @pytest.mark.parametrize("warp", [wc.exp_warping(), wc.const_warping(2.0), wc.cosh_warping()])
    @pytest.mark.parametrize("fiber_name", ["flat", "r2"])
    def test_matches_finite_difference(self, warp, fiber_name):
        if fiber_name == "flat":
            spec = wc.flat_kaehler_spec(1, warp)
        else:
            spec = wc.WarpedProductSpec(
                fiber=sg.builtin_r2_example(),
                complex_structure=stacked(lambda x: wc.standard_complex_structure(1)),
                warping=warp,
            )
        chart = wc.build_warped_chart(spec)
        rng = np.random.default_rng(hash((warp.name, fiber_name)) % 2**32)
        for _ in range(3):
            p = warped_points(spec, 1, rng)[0]
            vf, uf, wf = (rng.uniform(-1, 1, 2) for _ in range(3))
            closed = wc.warped_curvature_closed_form(spec, p[None], uf[None], vf[None], wf[None])
            for case in wc.CLOSED_FORM_CASES:
                which = "nabla_star" if case.endswith("*") else "nabla"
                num, fd = curvature_vectors(chart, which, p, case, vf, uf, wf)
                npt.assert_allclose(closed[case][0], num, atol=1e-12)
                npt.assert_allclose(closed[case][0], fd, atol=FD_TOL)

    def test_probes_per_case(self):
        u, v, w = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
        dt, eu, ev, ew = E3[0], np.array([0.0, 1, 2]), np.array([0.0, 3, 4]), np.array([0.0, 5, 6])
        expected = {"a": (ev, dt, dt), "b": (ev, eu, dt), "c": (dt, ev, ew), "d": (ev, ew, eu)}
        probes = wc.closed_form_probes(u[None], v[None], w[None])
        for case in wc.CLOSED_FORM_CASES:
            for got, want in zip(probes[case], expected[case[0]]):
                npt.assert_array_equal(got[0], want)

    def test_one_warping_evaluation_gives_all_eight_cases(self, h3_spec, monkeypatch):
        calls = []
        at = wc.Warping.at

        def counting(self, t):
            calls.append(np.shape(t))
            return at(self, t)

        monkeypatch.setattr(wc.Warping, "at", counting)
        rng = np.random.default_rng(14)
        points = warped_points(h3_spec, 20, rng)
        U, V, W = rng.uniform(-1.0, 1.0, (3, 20, 2))
        closed = wc.warped_curvature_closed_form(h3_spec, points, U, V, W)
        assert calls == [(20,)]
        assert list(closed) == list(wc.CLOSED_FORM_CASES)
        assert all(value.shape == (20, 3) for value in closed.values())


class TestSpaceFormCurvature:
    def test_flat_product_vanishes_on_fiber_probes(self):
        spec = wc.flat_kaehler_spec(1, wc.const_warping(1.0))
        rng = np.random.default_rng(1)
        for _ in range(10):
            probes = [wc.embed_fiber_vector(rng.uniform(-1, 1, 2)) for _ in range(4)]
            assert pc.space_form_warped_curvature(spec, 0.0, np.zeros(3), *probes) == 0.0

    def test_c0_exp_warp_is_hyperbolic(self):
        spec = wc.flat_kaehler_spec(1, wc.exp_warping())
        p = np.array([0.2, 0.3, -0.1])
        g = wc.warped_metric(spec, p)
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        val = pc.space_form_warped_curvature(spec, 0.0, p, x, y, y, x)
        gram = float((x @ g @ x) * (y @ g @ y) - (x @ g @ y) ** 2)
        assert abs(val / gram + 1.0) <= 1e-12

    def test_matches_numerical_curvature(self):
        spec = wc.flat_kaehler_spec(1, wc.exp_warping())
        chart = wc.build_warped_chart(spec)
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = warped_points(spec, 1, rng)[0]
            x, y, z, w = (rng.uniform(-1, 1, 3) for _ in range(4))
            closed = pc.space_form_warped_curvature(spec, 0.0, p, x, y, z, w)
            g = chart.metric(p)
            for r in (sg.curvature, fd_curvature):  # the jet, then the central-difference oracle
                num = r(chart, "nabla", p[None]).scalar(g, x, y, z, w)[0]
                num_star = r(chart, "nabla_star", p[None]).scalar(g, x, y, z, w)[0]
                assert abs(closed - num) <= 1e-6
                assert abs(closed - num_star) <= 1e-6

    def test_antisymmetry_first_pair_any_c(self):
        spec = wc.flat_kaehler_spec(2, wc.cosh_warping())
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = warped_points(spec, 1, rng)[0]
            x, y, z, w = (rng.uniform(-1, 1, 5) for _ in range(4))
            a = pc.space_form_warped_curvature(spec, 2.5, p, x, y, z, w)
            b = pc.space_form_warped_curvature(spec, 2.5, p, y, x, z, w)
            assert abs(a + b) <= 1e-12 * max(1.0, abs(a))


class TestContactClassification:
    def test_cosymplectic_branch(self):
        spec = wc.flat_kaehler_spec(1, wc.const_warping(2.0))
        cls = wc.contact_classification(spec, np.array([[0.1, 0.2, 0.3]]))[0]
        assert cls.structure_tag == "almost cosymplectic"
        assert cls.alpha == 0.0
        assert cls.d_phi_residual < 1e-8
        assert cls.d_eta_residual == 0.0

    def test_kenmotsu_branch_flat_fiber(self):
        spec = wc.flat_kaehler_spec(1, wc.exp_warping())
        cls = wc.contact_classification(spec, np.array([[0.4, -0.2, 0.1]]))[0]
        assert cls.structure_tag == "almost alpha-kenmotsu"
        assert abs(cls.alpha + 1.0) <= 1e-12
        assert cls.d_phi_residual < 1e-8
        assert cls.contact_identity_residual < 1e-8

    def test_kenmotsu_branch_r2_fiber(self, h3_spec):
        cls = wc.contact_classification(h3_spec, np.array([[0.25, 0.5, -0.5]]))[0]
        assert cls.structure_tag == "almost alpha-kenmotsu"
        assert abs(abs(cls.alpha) - 1.0) <= 1e-12

    def test_twisted_fiber_unclassified_but_identity_exact(self):
        spec = wc.twisted_j_spec(0.4, wc.exp_warping())
        cls = wc.contact_classification(spec, np.array([[0.1, 0.3, -0.2, 0.4, 0.1]]))[0]
        assert cls.structure_tag == "unclassified"
        assert cls.d_omega_residual > 1e-3
        assert cls.d_phi_residual > 1e-3
        # the full two-form identity holds even for a non-Kaehler fiber
        assert cls.contact_identity_residual < 1e-8

    def test_frame_invariants_enforced(self):
        j_bad = wc.standard_complex_structure(1)
        j_bad = j_bad + 0.05 * np.eye(2)
        spec = wc.WarpedProductSpec(
            fiber=sg.trivial_chart(2),
            complex_structure=stacked(lambda x: j_bad.copy()),
            warping=wc.exp_warping(),
        )
        with pytest.raises(ValueError):
            wc.contact_classification(spec, np.zeros((1, 3)))

    @pytest.mark.parametrize("warp", ["exp", "const", "cosh"])
    @pytest.mark.parametrize("fiber", ["flat", "r2", "twisted"])
    def test_wedge_uses_the_fundamental_two_form_bit_for_bit(self, warp, fiber, monkeypatch):
        # Phi comes back from the jet with dPhi; it must be the two-form of the multi-jet oracle
        spec = cli.FIBERS[fiber](cli.WARPS[warp](2.5), 0.4)
        seen = []
        original = wc.wedge_eta_form

        def recording(phi):
            seen.append(phi)
            return original(phi)

        monkeypatch.setattr(wc, "wedge_eta_form", recording)
        points = warped_points(spec, 6, 19)
        wc.kenmotsu_theorem_check(spec, points)
        (phi,) = seen
        want = co.fundamental_two_form(spec, points)
        assert phi.shape == want.shape
        assert phi.tobytes() == want.tobytes()

    def test_frame_invariant_residual_small(self, h3_spec):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = warped_points(h3_spec, 1, rng)[0]
            assert co.frame_invariant_residual(h3_spec, p[None])[0] < 1e-9
            assert wc.contact_classification(h3_spec, p[None])[0].frame_residual < 1e-9


# w_parallel is a measurement, not an identity, so it is left out
SKEW_IDENTITIES = (
    "w_deriv_primal",
    "w_deriv_dual",
    "w_deriv_levi_civita",
    "w_deriv_levi_civita_dual",
    "skew_cyclic",
    "dw_cyclic",
)


class TestHermitianResiduals:
    def test_trivial_kaehler_fiber_all_zero(self):
        chart = sg.trivial_chart(2)
        j = wc.standard_complex_structure(1)
        rng = np.random.default_rng(6)
        rec = pc.skew_field_residuals(
            chart, lambda x: j.copy(), np.zeros(2), *(rng.uniform(-1, 1, 2) for _ in range(3))
        )
        assert max(rec.values()) < 1e-12
        assert rec["w_parallel"] < 1e-12

    def test_r2_identities_hold(self):
        chart = sg.builtin_r2_example()
        j = wc.standard_complex_structure(1)
        rng = np.random.default_rng(7)
        saw_nonparallel = False
        for _ in range(100):
            p = rng.uniform(-1, 1, 2)
            probes = [rng.uniform(-1, 1, 2) for _ in range(3)]
            rec = pc.skew_field_residuals(chart, lambda x: j.copy(), p, *probes)
            for name in SKEW_IDENTITIES:
                assert rec[name] < 1e-8, name
            if rec["w_parallel"] > 1e-3:
                saw_nonparallel = True
        # the plane example is statistical but not holomorphic-statistical
        assert saw_nonparallel

    def test_identity_field_breaks_skew_cyclic(self):
        # negative control: T = I is g-symmetric, and K of the plane example is nonzero
        chart = sg.builtin_r2_example()
        rng = np.random.default_rng(9)
        probes = [rng.uniform(-1, 1, 2) for _ in range(3)]
        rec = pc.skew_field_residuals(chart, lambda x: np.eye(2), rng.uniform(-1, 1, 2), *probes)
        assert rec["skew_cyclic"] > 1.0


def test_covariant_helpers_match_index_loops():
    # the helpers contract the partials array with einsum; the reference sums
    # the directional derivative axis by axis, as the per-axis stencils did
    rng = np.random.default_rng(12)
    d = 5
    for _ in range(20):
        w, t = rng.standard_normal((2, d, d))
        dw, dt = rng.standard_normal((2, d, d, d))
        gamma = rng.standard_normal((d, d, d))
        X, Y, Z = rng.standard_normal((3, d))

        def nabla_x(V):
            return sum(gamma[:, a, b] * X[a] * V[b] for a in range(d) for b in range(d))

        npt.assert_allclose(sg.covariant(gamma, X, Y), nabla_x(Y), rtol=0, atol=1e-11)
        dir_w = sum(X[a] * dw[a] for a in range(d))
        ref_w = Y @ dir_w @ Z - nabla_x(Y) @ w @ Z - Y @ w @ nabla_x(Z)
        assert abs(sg.covariant_two_form_derivative(w, dw, gamma, X, Y, Z) - ref_w) <= 1e-11
        dir_t = sum(X[a] * dt[a] for a in range(d))
        ref_t = dir_t @ Y + nabla_x(t @ Y) - t @ nabla_x(Y)
        npt.assert_allclose(pc._nabla_endomorphism(t, dt, gamma, X, Y), ref_t, rtol=0, atol=1e-11)


class TestContactResiduals:
    @pytest.mark.parametrize(
        "spec_factory",
        [
            lambda: wc.builtin_h3_example(),
            lambda: wc.flat_kaehler_spec(1, wc.cosh_warping()),
            lambda: wc.twisted_j_spec(0.3, wc.exp_warping()),
        ],
    )
    def test_identities_hold(self, spec_factory):
        spec = spec_factory()
        chart = wc.build_warped_chart(spec)
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = warped_points(spec, 1, rng)[0]
            probes = [rng.uniform(-1, 1, spec.dim) for _ in range(3)]
            rec = pc.skew_field_residuals(chart, lambda x: pc.phi_matrix(spec, x), p, *probes)
            for name in SKEW_IDENTITIES:
                assert rec[name] < 1e-6, (name, rec)
            assert pc.phi_warp_residual(spec, chart, p, *probes[:2]) < 1e-6


class TestKenmotsuTheorem:
    @staticmethod
    def check(spec):
        """The check at 5 points of a seed-23 draw."""
        return wc.kenmotsu_theorem_check(spec, warped_points(spec, 5, 23))

    def test_positive_flat(self):
        chk = self.check(wc.flat_kaehler_spec(1, wc.exp_warping()))
        assert chk.fiber_almost_kaehler and chk.total_almost_kenmotsu and chk.consistent
        assert chk.k_tilde_xi_residual < 1e-10

    def test_positive_r2(self, h3_spec):
        chk = self.check(h3_spec)
        assert chk.fiber_almost_kaehler and chk.total_almost_kenmotsu and chk.consistent

    def test_negative_twisted(self):
        chk = self.check(wc.twisted_j_spec(0.4, wc.exp_warping()))
        assert not chk.fiber_almost_kaehler
        assert not chk.total_almost_kenmotsu
        assert chk.consistent

    def test_negative_incompatible_j(self):
        j_bad = wc.standard_complex_structure(1) + 0.1 * np.eye(2)
        spec = wc.WarpedProductSpec(
            fiber=sg.trivial_chart(2),
            complex_structure=stacked(lambda x: j_bad.copy()),
            warping=wc.exp_warping(),
        )
        chk = self.check(spec)
        assert not chk.fiber_almost_kaehler
        assert not chk.total_almost_kenmotsu
        assert chk.consistent
        # the broken frame is recorded per point, not raised
        assert all(cls.frame_residual > 1e-9 for cls in chk.classifications)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("name", ["flat", "h3", "twisted"])
    def test_records_are_the_classification_of_each_point(self, name, tol):
        spec = {
            "flat": lambda: wc.flat_kaehler_spec(1, wc.exp_warping()),
            "h3": wc.builtin_h3_example,
            "twisted": lambda: wc.twisted_j_spec(0.4, wc.exp_warping()),
        }[name]()
        points = warped_points(spec, 4, 11)
        chk = wc.kenmotsu_theorem_check(spec, points, tol)
        assert len(chk.classifications) == 4
        for p, cls in zip(points, chk.classifications):
            assert cls == wc.contact_classification(spec, p[None], tol=tol)[0]
        if name == "flat" and tol == 1e-12:
            # exp/flat residuals sit at rounding, near 1e-16: even the strict tag tolerance accepts them
            assert {cls.structure_tag for cls in chk.classifications} == {"almost alpha-kenmotsu"}
            assert max(cls.d_phi_residual for cls in chk.classifications) <= 1e-15

    def test_k_tilde_matches_fiber(self, h3_spec):
        # K~_X Y = K_X Y on fiber probes, at the points ``check`` classifies
        chart = wc.build_warped_chart(h3_spec)
        residual = max(
            float(np.max(np.abs(sg.difference_tensor(chart, p[None])[0, 1:, 1:, 1:]
                                - sg.difference_tensor(h3_spec.fiber, p[None, 1:])[0])))
            for p in warped_points(h3_spec, 5, 23)
        )
        assert residual < 1e-8


def _bits(value):
    """A record or check field in a form that compares bit for bit: NaN equals NaN, -0.0 is not 0.0."""
    if isinstance(value, (str, bool)):
        return value
    if isinstance(value, (wc.ContactClassification, wc.KenmotsuCheck)):
        return {name: _bits(getattr(value, name)) for name in value._fields}
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    value = np.asarray(value, dtype=float)
    return value.shape, value.tobytes()


def _outcome(call):
    """The bits of what ``call()`` returns, or the type and message of what it raises."""
    try:
        return _bits(call())
    except (ValueError, OverflowError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("seed", [0, 7, 23])
@pytest.mark.parametrize("warp, const_value", [("exp", 1.0), ("cosh", 1.0), ("const", 2.5), ("const", 1e200),
                                               ("const", 1e-3)])
@pytest.mark.parametrize("fiber", list(cli.FIBERS))
def test_classification_equals_the_multi_grid_oracle_bit_for_bit(fiber, warp, const_value, seed):
    spec = cli.FIBERS[fiber](cli.WARPS[warp](const_value), 0.4)
    points = warped_points(spec, 40, seed)
    with np.errstate(all="ignore"):  # 1e200 squared overflows on both routes
        assert _outcome(lambda: wc.kenmotsu_theorem_check(spec, points)) == _outcome(
            lambda: co.kenmotsu_theorem_check(spec, points))
        assert _outcome(lambda: wc.contact_classification(spec, points, 1e-8, math.inf)) == _outcome(
            lambda: co.contact_classification(spec, points, 1e-8, math.inf))
        assert _outcome(lambda: wc.contact_classification(spec, points)) == _outcome(
            lambda: co.contact_classification(spec, points))


class TestBuiltinH3:
    def test_hyperbolic_sectional(self, h3_spec, h3_chart):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = warped_points(h3_spec, 1, rng)[0]
            u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            assert abs(sg.sectional_curvature(h3_chart, "levi_civita", p[None], u, v)[0] + 1.0) <= 1e-6

    def test_gamma_yy_entry(self, h3_chart):
        p = np.array([0.5, 0.1, 0.1])
        assert abs(h3_chart.gamma(p)[0, 2, 2] + math.exp(1.0)) <= 1e-12


def test_every_builtin_fiber_is_statistical():
    # build_warped_chart takes its fiber as given: this certifies every fiber the commands build
    # (--const-value and --epsilon change the warp and J, not the fiber chart)
    specs = [wc.builtin_h3_example()]
    specs += [cli.FIBERS[fiber](cli.WARPS[warp](1.0), 0.4) for warp in cli.WARPS for fiber in cli.FIBERS]
    for spec in specs:
        pc.fiber_axiom_check(spec)


def test_fiber_check_rejects_a_nonstatistical_fiber():
    # primal connection of the plane example paired with a zero dual
    # connection breaks the duality axiom; the chart is built all the same
    base = sg.builtin_r2_example()
    broken = base._replace(gamma_star=stacked(lambda x: np.zeros((2, 2, 2))))
    spec = wc.WarpedProductSpec(
        fiber=broken,
        complex_structure=stacked(lambda x: wc.standard_complex_structure(1)),
        warping=wc.exp_warping(),
    )
    wc.build_warped_chart(spec)
    with pytest.raises(ValueError, match="violates the dualistic axioms"):
        pc.fiber_axiom_check(spec)


def test_fiber_check_names_the_first_violating_sample_point():
    # the fiber check evaluates its three sample points as one stack; the message is the
    # one a point-by-point loop over the same draws gives
    fiber = cli._perturbed_chart(sg.builtin_r2_example(), 0.01)
    spec = wc.WarpedProductSpec(fiber=fiber, complex_structure=stacked(lambda x: wc.standard_complex_structure(1)),
                                warping=wc.exp_warping(), label="perturbed fiber")
    rng = np.random.default_rng(171)
    want = None
    for p in box_points(3, rng, [(-1.0, 1.0)] * 2):
        probes = [rng.uniform(-1.0, 1.0, 2) for _ in range(4)]
        worst = max(v[0] for v in sg.axiom_residuals(fiber, p[None], *probes).values())
        if want is None and worst > pc.FIBER_AXIOM_TOL:
            want = (f"fiber of perturbed fiber violates the dualistic axioms "
                    f"(residual {worst:.3e} > {pc.FIBER_AXIOM_TOL:.1e} at {p.tolist()})")
    assert want is not None
    with pytest.raises(ValueError) as err:
        pc.fiber_axiom_check(spec)
    assert str(err.value) == want


H3 = wc.builtin_h3_example()
H3_CHART = wc.build_warped_chart(H3)
P, X, Y = np.array([[0.2, 0.1, -0.3]]), np.array([[1.0, 0.5, -0.2]]), np.array([[0.3, -1.0, 0.4]])
U = np.array([[0.6, -0.7]])
ONE_POINT_CALLS = {  # each public geometry function on an N = 1 stack
    "levi_civita": lambda: sg.levi_civita(H3_CHART, P),
    "curvature": lambda: sg.curvature(H3_CHART, "nabla", P).components,
    "CurvatureTensor.scalar": lambda: sg.curvature(H3_CHART, "nabla", P).scalar(H3_CHART.metric(P), X, Y, Y, X),
    "covariant_two_form_derivative": lambda: sg.covariant_two_form_derivative(
        H3_CHART.metric(P), H3_CHART.metric_partial(P), H3_CHART.gamma(P), X, Y, X),
    "difference_tensor": lambda: sg.difference_tensor(H3_CHART, P),
    "sectional_curvature": lambda: sg.sectional_curvature(H3_CHART, "levi_civita", P, X, Y),
    "axiom_residuals": lambda: sg.axiom_residuals(H3_CHART, P, X, Y, X, Y),
    "closed_form_probes": lambda: wc.closed_form_probes(U, U, U),
    "warped_curvature_closed_form": lambda: wc.warped_curvature_closed_form(H3, P, U, U, U),
    "frame_invariant_residual": lambda: co.frame_invariant_residual(H3, P),
    "contact_classification": lambda: wc.contact_classification(H3, P),
}


def _assert_one_row(value):
    """Arrays with the leading axis 1, also inside dicts and tuples; a tuple of records holds one record."""
    if isinstance(value, dict):
        for item in value.values():
            _assert_one_row(item)
    elif isinstance(value, tuple) and all(isinstance(item, np.ndarray) for item in value):
        for item in value:
            _assert_one_row(item)
    elif isinstance(value, tuple):
        assert len(value) == 1 and isinstance(value[0], wc.ContactClassification)
    else:
        assert isinstance(value, np.ndarray) and value.shape[:1] == (1,), type(value)


@pytest.mark.parametrize("name", ONE_POINT_CALLS)
def test_one_point_is_the_one_row_stack(name):
    _assert_one_row(ONE_POINT_CALLS[name]())
