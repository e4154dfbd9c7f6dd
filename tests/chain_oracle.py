"""Steps 1 and 2 of ``wintgen.inequality_chain`` as per-pair loops (test oracle).

``inequality_chain`` stacks the commutators of every slot pair and reduces
them as arrays: ``np.float_power`` for each square, numpy's row sums for the
Frobenius norms, and ``np.add.accumulate`` for the in-order totals.  This
module keeps the loops it must reproduce bit for bit: one Python ``** 2``
and one ``+=`` per summand of step 1, and one ``frobenius_norm_sq`` per
commutator of step 2.  The module name has no ``test_`` prefix, so pytest
imports it without collecting it.
"""

from __future__ import annotations

import math

from statwintgen.legendrian import LegendrianPointInstance, shape_operators
from statwintgen.tensor_core import commutator

from paper_checks import frobenius_norm_sq


def steps_one_two(inst: LegendrianPointInstance) -> tuple[float, float]:
    """The rhs of ``cauchy_schwarz`` and of ``s_operator_bound``, summed term by term."""
    n = inst.n
    nn1 = n * (n - 1)
    f, c = inst.f_val, inst.c
    ops = shape_operators(inst)
    cterm = 2.0 * c / (4.0 * f * f)

    total = 0.0
    for r in range(n + 1):
        for s in range(r + 1, n + 1):
            g0 = commutator(ops.A0[r], ops.A0[s])
            gp = commutator(ops.A[r], ops.A[s])
            gs = commutator(ops.A_star[r], ops.A_star[s])
            for i in range(n):
                for j in range(i + 1, n):
                    delta = 1.0 if (r < n and s < n and i == r and j == s) else 0.0
                    total += 4.0 * (
                        16.0 * g0[j, i] ** 2
                        + gp[j, i] ** 2
                        + gs[j, i] ** 2
                        + (cterm * delta) ** 2
                    )
    b1 = math.sqrt(total) / nn1

    quad = 0.0
    for r in range(n):
        for s in range(n):
            quad += (
                16.0 * frobenius_norm_sq(commutator(ops.S0[r], ops.S0[s]))
                + frobenius_norm_sq(commutator(ops.S[r], ops.S[s]))
                + frobenius_norm_sq(commutator(ops.S_star[r], ops.S_star[s]))
            )
    b2 = (2.0 / nn1) * math.sqrt(c * c / (4.0 * f * f) * n * n * (n - 1) ** 2 + 0.25 * quad)
    return b1, b2
