"""Test-only helpers that no code path of the package calls.

``random_orthogonal`` draws the frame rotations of the invariance tests, and
``nabla_g_residual`` measures metric compatibility of a connection, which the
Levi-Civita tests check.  The module name has no ``test_`` prefix, so pytest
imports it without collecting it.
"""

from __future__ import annotations

import numpy as np

from statwintgen.statistical_geometry import DualisticChart, metric_partials


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def nabla_g_residual(chart: DualisticChart, gamma: np.ndarray, point: np.ndarray) -> float:
    """max |(nabla g)_{a;ij}| for the connection with coefficients ``gamma``."""
    x = np.asarray(point, dtype=float)
    g = np.asarray(chart.metric(x), dtype=float)
    dg = metric_partials(chart, x)
    cov = dg - np.einsum("mai,mj->aij", gamma, g) - np.einsum("maj,im->aij", gamma, g)
    return float(np.max(np.abs(cov)))
