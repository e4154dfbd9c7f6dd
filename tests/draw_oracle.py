"""The per-index draw loops (test oracles).

``wintgen._draw`` draws a whole index range's uniforms with
``tensor_core.instance_uniforms`` and maps them as numpy's ``uniform`` does.
This module keeps the loop it must reproduce bit for bit: one generator per
index, ``PCG64(seed)`` advanced to the index's first double, index (3 + 2n^3),
then ``uniform`` for c, f, f' and the (2n, n, n) upper triangles.  So the same
(seed, index, n, ranges) gives the same instance whatever the chunking or the
evaluation order.

It also keeps the loop that drew instances before their doubles were
addressed by counter, one ``default_rng([seed, index])`` per index:
``hashed_instance`` rebuilds those instances, the data of acceptance
criterion 8.  The module name has no ``test_`` prefix, so pytest imports it
without collecting it.
"""

from __future__ import annotations

import numpy as np

from statwintgen import wintgen as wg
from statwintgen.legendrian import LegendrianPointInstance

DEFAULT_RANGES = ((-4.0, 4.0), (0.5, 3.0), (-2.0, 2.0))


def counter_rng(seed: int, index: int, k: int) -> np.random.Generator:
    """The generator of instance ``index``'s k doubles: ``PCG64(seed)`` after index k doubles."""
    bits = np.random.PCG64(seed)
    bits.advance(index * k)
    return np.random.Generator(bits)


def _loop(n: int, c_range, f_range, fprime_range, magnitude: float, streams):
    params, upper = [], []
    for rng in streams:
        params.append((rng.uniform(*c_range), rng.uniform(*f_range), rng.uniform(*fprime_range)))
        upper.append(rng.uniform(-magnitude, magnitude, size=(2 * n, n, n)))
    return wg._fields_and_forms(n, params, np.stack(upper))


def random_instances(n: int, c_range, f_range, fprime_range, magnitude: float, seed: int, indices):
    """``wintgen._draw`` from one counter-addressed generator per index: the fields and forms of
    ``_fields_and_forms``."""
    k = 3 + 2 * n**3
    return _loop(n, c_range, f_range, fprime_range, magnitude, (counter_rng(seed, index, k) for index in indices))


def hashed_instance(n: int, seed: int, index: int, magnitude: float = 1.0) -> LegendrianPointInstance:
    """The instance that ``random_instance(n, seed=seed, index=index)`` drew from ``default_rng([seed, index])``
    at the default ranges, before counter addressing, built by the public constructor."""
    fields, forms = _loop(n, *DEFAULT_RANGES, magnitude, [np.random.default_rng([seed, index])])
    ((c, f, fp),) = fields.tolist()
    return LegendrianPointInstance(n=n, c=c, f_val=f, f_prime=fp, h=forms[0, 0], h_star=forms[0, 1])
