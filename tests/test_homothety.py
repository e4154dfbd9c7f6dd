"""Homothety covariance of the Wintgen layer: the quantities the geometry fixes do not move.

R x_f N(c) and R x_{lambda f} N(lambda^2 c) are the same statistical manifold for every lambda > 0, so an
instance with point data (c, f, f') and its image (lambda^2 c, lambda f, lambda f'), with the same h and
h* (their xi-slices -(f'/f) I are unchanged), must give the same lhs rho_perp, rho, rho0, the six mean
and traceless norms and the weight-0 chain step ``cauchy_schwarz``.  The other steps are not invariant
(``test_cli.py::test_chain_is_not_homothety_invariant``).

Values agree to ``REL_TOL`` relative to max(|value|, 1): a value of magnitude below 1 is compared
absolutely.  Each quantity is a sum of terms of order one or more (c/4f^2, (f'/f)^2 and products of
form entries of magnitude up to 1 and up to 4 on the xi-slices), and its rounding error scales with
those terms, not with their sum, which can cancel to near 0 (rho, rho0).
"""

import numpy as np
import pytest

import statwintgen.legendrian as lg
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
