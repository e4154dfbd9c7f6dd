"""Cross-checks of the algebraic Legendrian layer against explicit geometry.

The product torus S^1(r) x S^1(s) in flat C^2 is Lagrangian with second
fundamental form h(e1,e1) = -n1/r, h(e2,e2) = -n2/s, h(e1,e2) = 0 in unit
tangent/normal circle frames, and its induced metric is flat.  Viewed inside
the unwarped product R x C^2 (f = 1, so the slice is totally geodesic and
the xi-components vanish) it becomes a Legendrian point instance with the
trivial statistical structure h = h*.  Every normalized scalar the library
computes can be checked against the classical values:

  rho0 = rho = 0      (flat torus),
  rho_perp = 0        (flat normal bundle: the shape operators commute),
  ||H||^2 = (1/r^2 + 1/s^2)/4.

The adapted normal frame is u_i = phi e_i = J e_i = -n_i, which only flips
signs of whole slices and none of the scalars.
"""

import numpy as np
import pytest

import frame_oracle
import statwintgen.legendrian as lg
import statwintgen.wintgen as wg


def product_torus_instance(r: float, s: float) -> lg.LegendrianPointInstance:
    h = np.zeros((3, 2, 2))
    h[0] = np.diag([1.0 / r, 0.0])   # component against u1 = J e1
    h[1] = np.diag([0.0, 1.0 / s])   # component against u2 = J e2
    # xi-slice zero: f = 1, f' = 0 (totally geodesic slice)
    return lg.LegendrianPointInstance(n=2, c=0.0, f_val=1.0, f_prime=0.0, h=h, h_star=h.copy())


@pytest.mark.parametrize("r,s", [(1.0, 1.0), (0.5, 2.0), (1.3, 0.7)])
class TestProductTorus:
    def test_intrinsically_flat(self, r, s):
        inst = product_torus_instance(r, s)
        assert abs(lg.rho_levicivita(inst)) <= 1e-14
        assert abs(lg.rho_statistical(inst)) <= 1e-14
        assert abs(frame_oracle.gauss_sectional(inst, 0, 1)) <= 1e-14

    def test_flat_normal_bundle(self, r, s):
        assert lg.rho_perp_statistical(product_torus_instance(r, s)) == 0.0

    def test_mean_curvature(self, r, s):
        m = lg.means_and_traceless(product_torus_instance(r, s))
        expected = (1.0 / r**2 + 1.0 / s**2) / 4.0
        assert abs(m.norm_H_sq - expected) <= 1e-14
        assert abs(m.norm_H0_sq - expected) <= 1e-14

    def test_bound_holds_with_classical_slack(self, r, s):
        # trivial structure, c = 0: the stated and rederived constants agree
        # term by term with D = 0, and rhs reduces to
        # 2 rho - 8 rho0 + 4||H0||^2 + ||H||^2 + ||H*||^2 = 6 ||H||^2
        rep = wg.main_inequality(product_torus_instance(r, s))
        assert rep.holds
        expected_rhs = 6.0 * (1.0 / r**2 + 1.0 / s**2) / 4.0
        assert abs(rep.rhs - expected_rhs) <= 1e-12
        for step in rep.chain:
            assert step.holds


def warped_torus_instance(r: float, s: float, f: float, fp: float) -> lg.LegendrianPointInstance:
    """The product torus sitting in the slice {t0} x C^2 of R x_f C^2.

    Unit frames of the slice scale by 1/f, so the phi-slices of the torus
    shrink by 1/f, while the slice itself is umbilic in the warp with
    xi-component -(f'/f) per unit tangent pair.
    """
    h = np.zeros((3, 2, 2))
    h[0] = np.diag([1.0 / (r * f), 0.0])
    h[1] = np.diag([0.0, 1.0 / (s * f)])
    h[2] = -(fp / f) * np.eye(2)
    return lg.LegendrianPointInstance(n=2, c=0.0, f_val=f, f_prime=fp, h=h, h_star=h.copy())


@pytest.mark.parametrize("f,fp", [(1.0, 1.0), (2.0, -0.5), (0.8, 1.7)])
class TestWarpedTorusSlice:
    """f' != 0 exercises the ambient-curvature and xi-slice bookkeeping."""

    def test_still_intrinsically_flat(self, f, fp):
        # the induced metric is f^2 x (flat product): still flat, so the
        # ambient term -(f'/f)^2 must cancel against the mean-curvature and
        # traceless contributions exactly
        inst = warped_torus_instance(1.1, 0.9, f, fp)
        assert abs(lg.rho_levicivita(inst)) <= 1e-13
        assert abs(lg.rho_statistical(inst)) <= 1e-13

    def test_flat_normal_bundle(self, f, fp):
        assert lg.rho_perp_statistical(warped_torus_instance(1.0, 2.0, f, fp)) == 0.0

    def test_bound_holds(self, f, fp):
        rep = wg.main_inequality(warped_torus_instance(1.0, 1.0, f, fp))
        assert rep.holds  # c = 0, so the stated constant is the safe side
        for step in rep.chain:
            assert step.holds


class TestTrivialStructureReductions:
    """With h = h* the dualistic scalars collapse to the Levi-Civita ones."""

    def _trivial_instance(self, index: int) -> lg.LegendrianPointInstance:
        base = wg.random_instance(n=2 + index % 4, seed=61, index=index)
        return lg.LegendrianPointInstance(
            n=base.n, c=base.c, f_val=base.f_val, f_prime=base.f_prime,
            h=base.h, h_star=base.h.copy(),
        )

    def test_rho_equals_rho_zero(self):
        for i in range(100):
            inst = self._trivial_instance(i)
            assert abs(lg.rho_statistical(inst) - lg.rho_levicivita(inst)) <= 1e-12

    def test_report_invariant_under_form_swap(self):
        # exchanging h and h* exchanges the two connections; every scalar in
        # the report is symmetric under that swap
        for i in range(50):
            base = wg.random_instance(n=2 + i % 4, seed=62, index=i)
            swapped = lg.LegendrianPointInstance(
                n=base.n, c=base.c, f_val=base.f_val, f_prime=base.f_prime,
                h=base.h_star, h_star=base.h,
            )
            a = wg.main_inequality(base, include_chain=False)
            b = wg.main_inequality(swapped, include_chain=False)
            assert abs(a.lhs - b.lhs) <= 1e-12
            assert abs(a.rhs - b.rhs) <= 1e-12
            assert a.rhs_terms["two_rho"] == pytest.approx(b.rhs_terms["two_rho"], abs=1e-12)

    def test_projective_plane_point(self):
        """Totally geodesic RP^2 in CP^2(4): rho = rho0 = c/4 = 1, rho_perp = 1.

        The classical Wintgen bound holds there with equality-like tightness;
        the stated constant of the statistical bound does not (slack -6),
        which is the documented defect of the final substitution."""
        inst = lg.umbilic_instance(n=2, c=4.0, f_val=1.0, f_prime=0.0)
        assert lg.rho_statistical(inst) == 1.0
        assert lg.rho_levicivita(inst) == 1.0
        assert lg.rho_perp_statistical(inst) == 1.0
        rep = wg.main_inequality(inst)
        assert rep.slack == -6.0
        by_name = {st.step: st for st in rep.chain}
        assert by_name["final_bound_rederived"].rhs == 2.0
