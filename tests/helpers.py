"""Test-only helpers that no code path of the package calls.

``random_orthogonal`` draws the frame rotations of the invariance tests,
``nabla_g_residual`` measures metric compatibility of a connection, which the
Levi-Civita tests check, ``stacked`` turns a chart field written for one
point into the stacked field a ``DualisticChart`` holds, and ``partials``
differentiates a single-point function around one point.  ``box_points`` and
``warped_points`` draw sample points as the CLI's ``_chunks`` does, for the
tests that call the geometry functions themselves, and ``counted_warping``
counts the calls of a warping's functions.  The module name has no
``test_`` prefix, so pytest imports it without collecting it.
"""

from __future__ import annotations

import numpy as np

from statwintgen.statistical_geometry import DualisticChart
from statwintgen.warped_contact import WarpedProductSpec, Warping, default_sample_box

from derivative_oracle import grid, grid_partials


def box_points(count: int, rng: np.random.Generator, box) -> np.ndarray:
    """``count`` points drawn uniformly from ``box``, per-axis (low, high) pairs, in one ``rng.uniform`` call:
    the doubles ``cli._chunks`` draws from ``rng`` for that box, in any chunks."""
    low, high = np.transpose(box)
    return rng.uniform(low, high, size=(count, len(box)))


def warped_points(spec: WarpedProductSpec, count: int, rng: np.random.Generator | int) -> np.ndarray:
    """``count`` points of ``spec``'s product chart from ``default_sample_box``, drawn from a generator or a seed."""
    return box_points(count, np.random.default_rng(rng), default_sample_box(spec.dim))


def counted_warping(warping: Warping, calls: list) -> Warping:
    """``warping`` with each call of f, f' and f'' counted in ``calls[0]``, ``calls[1]`` and ``calls[2]``."""

    def counted(fn, order):
        def call(t):
            calls[order] += 1
            return fn(t)

        return call

    return warping._replace(f=counted(warping.f, 0), f_prime=counted(warping.f_prime, 1),
                            f_double_prime=counted(warping.f_double_prime, 2))


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def stacked(field):
    """The stacked chart field of a single-point ``field``: its value at each point of a (..., dim) array.
    A jet's complex points are passed on as they are, for the fields that take them."""

    def lifted(points):
        x = np.asarray(points, dtype=complex if np.iscomplexobj(points) else float)
        values = np.array([np.asarray(field(p)) for p in x.reshape(-1, x.shape[-1])])
        return values.reshape(x.shape[:-1] + values.shape[1:])

    return lifted


def partials(fn, point, step: float) -> np.ndarray:
    """Central differences of an array-valued single-point function along every coordinate axis.

    ``out[a] = (fn(x + step e_a) - fn(x - step e_a)) / 2 step``, stacked along
    axis 0, so ``out[a]`` has the shape of ``fn(x)``: one point of
    ``derivative_oracle.grid`` and ``grid_partials``, with ``fn`` called once
    per grid point.
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
