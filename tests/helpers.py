"""Test-only helpers that no code path of the package calls.

``random_orthogonal`` draws the frame rotations of the invariance tests,
``nabla_g_residual`` measures metric compatibility of a connection, which the
Levi-Civita tests check, ``stacked`` turns a chart field written for one
point into the stacked field a ``DualisticChart`` holds, and ``partials``
differentiates a single-point function around one point.  The module name
has no ``test_`` prefix, so pytest imports it without collecting it.
"""

from __future__ import annotations

import numpy as np

from statwintgen.statistical_geometry import DualisticChart
from statwintgen.tensor_core import grid, grid_partials


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def stacked(field):
    """The stacked chart field of a single-point ``field``: its value at each point of a (..., dim) array."""

    def lifted(points):
        x = np.asarray(points, dtype=float)
        values = np.array([np.asarray(field(p), dtype=float) for p in x.reshape(-1, x.shape[-1])])
        return values.reshape(x.shape[:-1] + values.shape[1:])

    return lifted


def partials(fn, point, step: float) -> np.ndarray:
    """Central differences of an array-valued single-point function along every coordinate axis.

    ``out[a] = (fn(x + step e_a) - fn(x - step e_a)) / 2 step``, stacked along
    axis 0, so ``out[a]`` has the shape of ``fn(x)``: one point of
    ``tensor_core.grid`` and ``grid_partials``, with ``fn`` called once per
    grid point.
    """
    x = np.asarray(point, dtype=float)
    values = np.array([np.asarray(fn(p), dtype=float) for p in grid(x[None], step)])
    return grid_partials(values, 1, step)[1][0]


def nabla_g_residual(chart: DualisticChart, gamma: np.ndarray, point: np.ndarray) -> float:
    """max |(nabla g)_{a;ij}| for the connection with coefficients ``gamma``."""
    x = np.asarray(point, dtype=float)
    g = np.asarray(chart.metric(x), dtype=float)
    dg = np.asarray(chart.metric_partial(x), dtype=float)
    cov = dg - np.einsum("mai,mj->aij", gamma, g) - np.einsum("maj,im->aij", gamma, g)
    return float(np.max(np.abs(cov)))
