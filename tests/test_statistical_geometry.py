import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from statwintgen.statistical_geometry import (
    DualisticChart,
    _metric_and_christoffel,
    axiom_residuals,
    builtin_r2_example,
    curvature,
    curvature_from_gamma,
    difference_tensor,
    kk_bracket,
    levi_civita,
    sectional_curvature,
    trivial_chart,
)
from statwintgen.tensor_core import JET_STEP, jet

from derivative_oracle import FD_STEP, FD_TOL, fd_curvature, point_jet_partials
from helpers import nabla_g_residual, partials, stacked
from paper_checks import holomorphic_space_form_curvature

EX, EY = np.eye(2)


def warped_h3_metric_chart() -> DualisticChart:
    """dt^2 + e^{2t}(dx^2 + dy^2) with only the metric and its partials populated."""

    def metric(x):
        g = np.eye(3)
        g[1, 1] = g[2, 2] = math.exp(2.0 * x[0])
        return g

    def metric_partial(x):
        dg = np.zeros((3, 3, 3))
        dg[0, 1, 1] = dg[0, 2, 2] = 2.0 * math.exp(2.0 * x[0])  # d_t e^{2t}
        return dg

    zeros = stacked(lambda x: np.zeros((3, 3, 3)))
    return DualisticChart(dim=3, metric=stacked(metric), gamma=zeros, gamma_star=zeros,
                          metric_partial=stacked(metric_partial), label="h3-metric")


class TestLeviCivita:
    def test_euclidean_vanishes(self):
        chart = trivial_chart(3)
        npt.assert_array_equal(levi_civita(chart, np.zeros((1, 3)))[0], np.zeros((3, 3, 3)))

    def test_warped_metric_hand_values(self):
        chart = warped_h3_metric_chart()
        p = np.array([0.3, 0.1, -0.4])
        gamma0 = levi_civita(chart, p[None])[0]
        e2t = math.exp(2.0 * 0.3)
        assert abs(gamma0[0, 1, 1] + e2t) <= 1e-9  # Gamma^t_xx = -e^{2t}
        assert abs(gamma0[1, 0, 1] - 1.0) <= 1e-9  # Gamma^x_tx = 1

    def test_scale_invariance(self):
        chart = warped_h3_metric_chart()
        scaled = DualisticChart(
            dim=3,
            metric=lambda x: 4.0 * chart.metric(x),
            gamma=chart.gamma,
            gamma_star=chart.gamma_star,
            metric_partial=lambda x: 4.0 * chart.metric_partial(x),
            label="scaled",
        )
        p = np.array([0.2, 0.5, 0.5])
        npt.assert_allclose(levi_civita(chart, p[None])[0], levi_civita(scaled, p[None])[0], atol=1e-8)

    def test_metric_covariantly_constant(self):
        chart = warped_h3_metric_chart()
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-1, 1), rng.uniform(-1, 1)])
            assert nabla_g_residual(chart, levi_civita(chart, p[None])[0], p) < 1e-6

    def test_singular_metric(self):
        chart = DualisticChart(
            dim=2,
            metric=stacked(lambda x: np.zeros((2, 2))),
            gamma=stacked(lambda x: np.zeros((2, 2, 2))),
            gamma_star=stacked(lambda x: np.zeros((2, 2, 2))),
            metric_partial=stacked(lambda x: np.zeros((2, 2, 2))),
        )
        with pytest.raises(ValueError):
            levi_civita(chart, np.zeros((1, 2)))


class TestCurvature:
    def test_flat_chart_zero(self):
        chart = trivial_chart(3)
        npt.assert_array_equal(curvature(chart, "nabla", np.zeros((1, 3))).components[0], np.zeros((3,) * 4))

    def test_r2_example_values(self):
        chart = builtin_r2_example()
        p = np.array([0.4, -0.2])
        g = chart.metric(p)
        assert abs(curvature(chart, "nabla", p[None]).scalar(g, EX, EY, EY, EX)[0] + 1.0) <= 1e-12
        assert abs(curvature(chart, "nabla_star", p[None]).scalar(g, EX, EY, EY, EX)[0] + 1.0) <= 1e-12

    def test_r2_levi_civita_flat(self):
        chart = builtin_r2_example()
        comp = curvature(chart, "levi_civita", np.zeros((1, 2))).components[0]
        npt.assert_allclose(comp, 0.0, atol=1e-12)

    def test_antisymmetry_in_xy_slots(self):
        chart = builtin_r2_example()
        comp = curvature(chart, "nabla", np.zeros((1, 2))).components[0]
        npt.assert_array_equal(comp, -np.swapaxes(comp, 2, 3))

    def test_finite_difference_path_matches(self):
        # the central-difference oracle, a second route to the jet's curvature
        chart = builtin_r2_example()
        p = np.array([0.1, 0.9])
        g = chart.metric(p)
        val = fd_curvature(chart, "nabla", p[None]).scalar(g, EX, EY, EY, EX)[0]
        assert abs(val + 1.0) <= FD_TOL

    def test_unknown_connection(self):
        with pytest.raises(ValueError):
            curvature(builtin_r2_example(), "nope", np.zeros((1, 2)))


class TestAxiomResiduals:
    def test_trivial_chart_all_zero(self):
        chart = trivial_chart(2)
        rec = axiom_residuals(chart, np.zeros((1, 2)), EX, EY, EX + EY, EX - EY)
        assert max(v[0] for v in rec.values()) == 0.0
        npt.assert_array_equal(difference_tensor(chart, np.zeros((1, 2)))[0], np.zeros((2, 2, 2)))

    def test_r2_residuals_small(self):
        chart = builtin_r2_example()
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.uniform(-1, 1, 2)
            probes = [rng.uniform(-1, 1, 2) for _ in range(4)]
            assert max(v[0] for v in axiom_residuals(chart, p[None], *probes).values()) < 1e-10

    def test_r2_difference_tensor_components(self):
        k = difference_tensor(builtin_r2_example(), np.zeros((1, 2)))[0]
        assert k[1, 0, 0] == 1.0  # K^y_xx
        assert k[0, 0, 1] == 1.0  # K^x_xy
        assert k[0, 1, 0] == 1.0

    def test_r2_kk_bracket_hand_value(self):
        # [K,K](dx,dy)dy = -dx, and (R + R*)(dx,dy)dy = 2 [K,K](dx,dy)dy
        chart = builtin_r2_example()
        p = np.zeros(2)
        k = difference_tensor(chart, p[None])[0]
        bracket = kk_bracket(k)
        vec = np.einsum("lkij,k,i,j->l", bracket, EY, EX, EY)
        npt.assert_allclose(vec, [-1.0, 0.0], atol=1e-14)
        r = curvature(chart, "nabla", p[None]).vector(EX, EY, EY)[0]
        r_star = curvature(chart, "nabla_star", p[None]).vector(EX, EY, EY)[0]
        npt.assert_allclose(r + r_star, 2.0 * vec, atol=1e-14)

    def test_conjugate_identity_random_probes(self):
        chart = builtin_r2_example()
        rng = np.random.default_rng(8)
        p = rng.uniform(-1, 1, 2)
        g = chart.metric(p)
        r = curvature(chart, "nabla", p[None])
        r_star = curvature(chart, "nabla_star", p[None])
        for _ in range(50):
            x, y, z, w = (rng.uniform(-1, 1, 2) for _ in range(4))
            assert abs(r.scalar(g, x, y, z, w)[0] + r_star.scalar(g, x, y, w, z)[0]) < 1e-6

    def test_levi_civita_is_connection_mean(self):
        chart = builtin_r2_example()
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = rng.uniform(-1, 1, 2)
            mean = 0.5 * (chart.gamma(p) + chart.gamma_star(p))
            npt.assert_allclose(levi_civita(chart, p[None])[0], mean, atol=1e-6)

    def test_fd_path_within_tolerance(self):
        # R + R* = 2 R0 + 2 [K,K] with every curvature by the central-difference oracle
        chart = builtin_r2_example()
        rng = np.random.default_rng(6)
        for _ in range(25):
            p = rng.uniform(-1, 1, (1, 2))
            r, r_star, r0 = (fd_curvature(chart, w, p).components for w in ("nabla", "nabla_star", "levi_civita"))
            total = r + r_star - 2.0 * r0 - 2.0 * kk_bracket(difference_tensor(chart, p))
            assert np.max(np.abs(total)) < FD_TOL


class TestHolomorphicSpaceForm:
    # 4-dim setup: J e0 = e1, J e2 = e3, all orthonormal
    G = np.eye(4)
    J = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )

    def test_c_zero_vanishes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y, z = (rng.uniform(-1, 1, 4) for _ in range(3))
            npt.assert_array_equal(
                holomorphic_space_form_curvature(0.0, self.G, self.J, x, y, z), np.zeros(4)
            )

    def test_totally_real_plane_value(self):
        # X orthogonal to Y with JX orthogonal to {Y, JY}: R(X,Y)Y = (c/4) X
        x = np.array([1.0, 0.0, 0.0, 0.0])
        y = np.array([0.0, 0.0, 1.0, 0.0])
        out = holomorphic_space_form_curvature(2.0, self.G, self.J, x, y, y)
        npt.assert_allclose(out, 0.5 * x, atol=1e-14)

    def test_holomorphic_sectional_curvature(self):
        rng = np.random.default_rng(12)
        c = -1.7
        for _ in range(10):
            x = rng.uniform(-1, 1, 4)
            x /= math.sqrt(float(x @ self.G @ x))
            jx = self.J @ x
            out = holomorphic_space_form_curvature(c, self.G, self.J, x, jx, jx)
            assert abs(float(out @ self.G @ x) - c) <= 1e-12

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            holomorphic_space_form_curvature(1.0, self.G, np.eye(4), np.ones(4), np.ones(4), np.ones(4))


class TestBuiltinR2Example:
    def test_analytic_residuals_tiny(self):
        chart = builtin_r2_example()
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = rng.uniform(-1, 1, 2)
            probes = [rng.uniform(-1, 1, 2) for _ in range(4)]
            assert max(v[0] for v in axiom_residuals(chart, p[None], *probes).values()) < 1e-12

    def test_constant_curvature_everywhere(self):
        chart = builtin_r2_example()
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = rng.uniform(-1, 1, 2)
            assert abs(sectional_curvature(chart, "nabla", p[None], EX, EY)[0] + 1.0) <= 1e-10


def _stack_charts():
    from statwintgen import cli, warped_contact as wc

    r2 = builtin_r2_example()
    h3 = wc.build_warped_chart(wc.builtin_h3_example())
    return {
        "r2": r2,
        "h3": h3,
        "cosh/r2": wc.build_warped_chart(cli.FIBERS["r2"](wc.cosh_warping(), 0.4)),
        "cosh/twisted": wc.build_warped_chart(cli.FIBERS["twisted"](wc.cosh_warping(), 0.4)),
        "r2-perturbed": cli._perturbed_chart(r2, 0.01),
        "h3-perturbed": cli._perturbed_chart(h3, 0.01),
    }


STACK_CHARTS = _stack_charts()


def _stack(chart, count=7, seed=5):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.5, 0.5, (count, chart.dim))
    probes = rng.uniform(-1.0, 1.0, (4, count, chart.dim))
    return points, probes


@pytest.mark.parametrize("name", list(STACK_CHARTS))
class TestStackedKernel:
    """A stack of points gives, row by row, the results of its N = 1 stacks: bit for bit."""

    def test_axiom_residuals(self, name):
        chart = STACK_CHARTS[name]
        points, probes = _stack(chart)
        stacked = axiom_residuals(chart, points, *probes)
        for i, point in enumerate(points):
            single = axiom_residuals(chart, point[None], *probes[:, i:i + 1])
            assert list(single) == list(stacked)
            for key, value in single.items():
                assert stacked[key][i] == value[0], (key, i)

    @pytest.mark.parametrize("which", ["nabla", "nabla_star", "levi_civita"])
    def test_curvature_and_sectional_curvature(self, name, which):
        chart = STACK_CHARTS[name]
        points, probes = _stack(chart)
        components = curvature(chart, which, points).components
        sectional = sectional_curvature(chart, which, points, probes[0], probes[1])
        assert components.shape == (len(points),) + (chart.dim,) * 4
        for i, point in enumerate(points):
            npt.assert_array_equal(components[i], curvature(chart, which, point[None]).components[0])
            single = sectional_curvature(chart, which, point[None], probes[0, i:i + 1], probes[1, i:i + 1])
            assert sectional[i] == single[0]

    def test_connections(self, name):
        chart = STACK_CHARTS[name]
        points, _ = _stack(chart)
        for fn in (levi_civita, difference_tensor):
            stacked = fn(chart, points)
            for i, point in enumerate(points):
                npt.assert_array_equal(stacked[i], fn(chart, point[None])[0])

    def test_levi_civita_curvature_matches_pointwise_partials(self, name):
        # the stacked jet against the jet around each point on its own, row by row, bit for bit;
        # and against central differences around each point at their tolerance
        chart = STACK_CHARTS[name]
        points, _ = _stack(chart, count=3)
        stacked = curvature(chart, "levi_civita", points).components
        for i, point in enumerate(points):
            dgamma = point_jet_partials(lambda x: _metric_and_christoffel(chart, x[None])[2][0], point)
            gamma = _metric_and_christoffel(chart, jet(point[None])[:1])[2][0].real
            npt.assert_array_equal(stacked[i], curvature_from_gamma(gamma, dgamma))
            dgamma = partials(lambda x: levi_civita(chart, x[None])[0], point, FD_STEP)
            want = curvature_from_gamma(levi_civita(chart, point[None])[0], dgamma)
            npt.assert_allclose(stacked[i], want, rtol=0.0, atol=FD_TOL)


class TestFieldContract:
    """Chart fields take an (N, dim) stack and return one value per point."""

    @pytest.mark.parametrize("count", [2, 5])  # 2 = dim: the single-point value (2, 2) has the stack's length
    def test_field_without_the_stack_axis_is_named(self, count):
        chart = builtin_r2_example()._replace(metric=lambda x: np.eye(2), label="single-point-metric")
        points, probes = np.zeros((count, 2)), np.ones((4, count, 2))
        message = "field metric of chart single-point-metric returned shape (2, 2), expected "
        for call in (lambda: sectional_curvature(chart, "nabla", points, EX, EY), lambda: levi_civita(chart, points)):
            with pytest.raises(ValueError, match=re.escape(message + f"({count}, 2, 2)")):
                call()
        # the axioms' Levi-Civita pass evaluates the metric on each point's jet: the point and its two shifts
        with pytest.raises(ValueError, match=re.escape(message + f"({3 * count}, 2, 2)")):
            axiom_residuals(chart, points, *probes)

    def test_metric_partial_is_required(self):
        zeros = stacked(lambda x: np.zeros((2, 2, 2)))
        with pytest.raises(TypeError, match="metric_partial"):
            DualisticChart(dim=2, metric=stacked(lambda x: np.eye(2)), gamma=zeros, gamma_star=zeros)

    def test_charts_carry_no_connection_partials(self):
        # the connection partials are complex steps of the connection fields, one route for every chart
        names = list(DualisticChart._fields)
        assert names == ["dim", "metric", "gamma", "gamma_star", "metric_partial", "label"]

    def test_connection_field_without_the_stack_axis_is_named(self):
        zeros = np.zeros((2, 2, 2))
        chart = builtin_r2_example()._replace(gamma_star=lambda x: zeros, label="flat-partial")
        # the curvature evaluates the connection on each point's jet: 3 points, 3 rows each
        with pytest.raises(ValueError, match=re.escape("field gamma_star of chart flat-partial returned shape "
                                                       "(2, 2, 2), expected (9, 2, 2, 2)")):
            curvature(chart, "nabla_star", np.zeros((3, 2)))

    def test_axiom_residuals_evaluate_g_and_dg_once_per_stencil_point(self):
        from statwintgen import warped_contact as wc

        chart = wc.build_warped_chart(wc.builtin_h3_example())
        seen = {"metric": 0, "metric_partial": 0}

        def counted(name):
            field = getattr(chart, name)

            def count(x):
                seen[name] += len(x)
                return field(x)

            return count

        counting = chart._replace(metric=counted("metric"), metric_partial=counted("metric_partial"))
        points, probes = _stack(chart, count=100)
        residuals = axiom_residuals(counting, points, *probes)
        assert seen == {"metric": 100 * 4, "metric_partial": 100 * 4}  # each point and its three jet shifts
        for key, value in axiom_residuals(chart, points, *probes).items():
            npt.assert_array_equal(residuals[key], value)


def _singular_chart(singular_points) -> DualisticChart:
    """Identity metric except at the given real or complex points, where it is the zero matrix; a real
    point is also the jet row of that point with zero imaginary parts."""
    bad = [np.asarray(p, dtype=complex).tobytes() for p in singular_points]

    def metric(x):
        return np.zeros((2, 2)) if np.asarray(x, dtype=complex).tobytes() in bad else np.eye(2)

    zeros3 = stacked(lambda x: np.zeros((2, 2, 2)))
    return DualisticChart(dim=2, metric=stacked(metric), gamma=zeros3, gamma_star=zeros3, metric_partial=zeros3,
                          label="singular-test")


def _first_single_point_error(fn, count):
    for i in range(count):
        try:
            fn(i)
        except ValueError as exc:
            return str(exc)
    raise AssertionError("no point raised")


class TestSingularMetricInAStack:
    POINTS, PROBES = _stack(trivial_chart(2), count=5, seed=9)

    def _jet_row(self, i, axis):
        x = self.POINTS[i].astype(complex)
        x[axis] += 1j * JET_STEP
        return x

    @pytest.mark.parametrize("singular", ["point 3", "point 3 and a jet row of point 1"])
    def test_error_names_the_first_singular_point_in_evaluation_order(self, singular):
        bad = [self.POINTS[3]] + ([self._jet_row(1, 0)] if singular != "point 3" else [])
        chart = _singular_chart(bad)
        # point 1 comes before point 3; a jet row is named by its sample's real coordinates
        want = self.POINTS[1] if len(bad) == 2 else self.POINTS[3]
        with pytest.raises(ValueError) as err:
            axiom_residuals(chart, self.POINTS, *self.PROBES)
        assert str(err.value) == f"singular metric at {want.tolist()} on singular-test"
        assert str(err.value) == _first_single_point_error(
            lambda i: axiom_residuals(chart, self.POINTS[i:i + 1], *self.PROBES[:, i:i + 1]), 5)
        with pytest.raises(ValueError) as sectional:
            sectional_curvature(chart, "levi_civita", self.POINTS, EX, EY)
        assert str(sectional.value) == str(err.value)
        assert str(err.value) == _first_single_point_error(
            lambda i: curvature(chart, "levi_civita", self.POINTS[i:i + 1]), 5)

    def test_levi_civita_names_the_singular_point(self):
        chart = _singular_chart([self.POINTS[3]])
        with pytest.raises(ValueError, match=r"^singular metric at " + re.escape(str(self.POINTS[3].tolist()))):
            levi_civita(chart, self.POINTS)
        npt.assert_array_equal(levi_civita(chart, self.POINTS[[0, 1, 2, 4]]), np.zeros((4, 2, 2, 2)))
