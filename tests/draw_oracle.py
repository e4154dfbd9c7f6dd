"""The per-index draw loop (test oracle).

``wintgen._draw`` draws a whole index range's uniforms with
``tensor_core.instance_uniforms`` and maps them as numpy's ``uniform`` does.
This module keeps the loop it must reproduce bit for bit: one
``instance_rng(seed, index)`` per index, then ``uniform`` for c, f, f' and
the (2n, n, n) upper triangles.  The module name has no ``test_`` prefix, so
pytest imports it without collecting it.
"""

from __future__ import annotations

import numpy as np

from statwintgen import wintgen as wg
from statwintgen.tensor_core import instance_rng


def random_instances(n: int, c_range, f_range, fprime_range, magnitude: float, seed: int, indices):
    """``wintgen._draw`` from one generator per index: the fields, xi values and forms of ``_fields_and_forms``."""
    params, upper = [], []
    for index in indices:
        rng = instance_rng(seed, index)
        params.append((rng.uniform(*c_range), rng.uniform(*f_range), rng.uniform(*fprime_range)))
        upper.append(rng.uniform(-magnitude, magnitude, size=(2 * n, n, n)))
    return wg._fields_and_forms(n, params, np.stack(upper))
