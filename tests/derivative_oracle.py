"""The two oracles of the complex-step jet, ``tensor_core.jet`` and ``jet_partials`` (test oracle).

The central-difference pair ``grid`` and ``grid_partials`` is the route the
geometry layer took its first derivatives by before the jet, at step
``FD_STEP``; its truncation error sets ``FD_TOL``.  ``fd_connection_and_partials``,
``fd_levi_civita_and_partials`` and ``fd_curvature`` differentiate a chart with it.
``analytic_connection_partials`` gives the hand-derived connection partials of
the built-in charts, which the charts carried as fields before the jet.
``point_jet_partials`` is the jet around one point, with the function called
once per jet row.  The module name has no ``test_`` prefix, so pytest imports
it without collecting it.
"""

from __future__ import annotations

import numpy as np

import statwintgen.cli as cli
import statwintgen.statistical_geometry as sg
import statwintgen.warped_contact as wc
from statwintgen.tensor_core import JET_STEP, jet

FD_STEP = 1e-5
FD_TOL = 1e-6  # what a central difference at FD_STEP is held to, on every built-in chart


def grid(points, step: float = FD_STEP) -> np.ndarray:
    """Each point of an (N, dim) stack followed by its central-difference points, an (N (1 + 2 dim), dim) stack.

    Row ``(1 + 2 dim) i`` is point i, then rows ``+ 1 + 2a`` and ``+ 2 + 2a``
    are that point moved by ``+step`` and ``-step`` along axis a.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(points, dtype=float)[:, None, :]
    dim = x.shape[-1]
    signs = np.zeros((1 + 2 * dim, dim))
    signs[1 + 2 * np.arange(dim), np.arange(dim)] = 1.0
    signs[2 + 2 * np.arange(dim), np.arange(dim)] = -1.0
    # the unshifted coordinates are copied, not offset by 0.0, so a -0.0 stays -0.0
    return np.where(signs == 0.0, x, x + signs * step).reshape(-1, dim)


def grid_partials(values: np.ndarray, count: int, step: float = FD_STEP) -> tuple[np.ndarray, np.ndarray]:
    """(values, partials) at ``count`` points from a field's values on their ``grid(points, step)``.

    ``values`` has one row per grid point, (count (1 + 2 dim), ...); the
    values come back as (count, ...) and the partials as (count, dim, ...).
    """
    values = values.reshape((count, -1) + values.shape[1:])
    return values[:, 0], (values[:, 1::2] - values[:, 2::2]) / (2.0 * step)


def fd_connection_and_partials(chart: sg.DualisticChart, which: str, points) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma, d Gamma) of nabla or nabla* over an (N, dim) stack, by central differences of the field."""
    name = {"nabla": "gamma", "nabla_star": "gamma_star"}[which]
    return grid_partials(np.asarray(getattr(chart, name)(grid(points)), dtype=float), len(points))


def fd_levi_civita_and_partials(chart: sg.DualisticChart, points) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma0, d Gamma0) over an (N, dim) stack, by central differences of the Christoffel symbols."""
    return grid_partials(sg.levi_civita(chart, grid(points)), len(points))


def fd_curvature(chart: sg.DualisticChart, which: str, points) -> sg.CurvatureTensor:
    """``sg.curvature`` with the partials taken by central differences."""
    points = np.asarray(points, dtype=float)
    if which == "levi_civita":
        return sg.CurvatureTensor(sg.curvature_from_gamma(*fd_levi_civita_and_partials(chart, points)))
    return sg.CurvatureTensor(sg.curvature_from_gamma(*fd_connection_and_partials(chart, which, points)))


def analytic_connection_partials(chart, which: str, points) -> np.ndarray:
    """d Gamma[N, a, k, i, j] of nabla or nabla* of a built-in chart (a ``DualisticChart`` with constant
    coefficients, r2 or flat, or a ``WarpedProductSpec`` over one), written out by hand.

    On the warp, f'/f and -f f' g_N are differentiated along t, and -f f' g_N
    along the fiber; the fiber coefficients are constant.
    """
    x = np.asarray(points, dtype=float)
    if isinstance(chart, sg.DualisticChart):
        assert chart.label in ("r2-example", "flat-trivial-2d", "flat-trivial-4d"), chart.label
        return np.zeros((len(x),) + (chart.dim,) * 4)
    spec, d = chart, chart.dim
    f, fp, fpp = spec.warping.at(x[:, 0])
    g_n = np.asarray(spec.fiber.metric(x[:, 1:]), dtype=float)
    dg_n = np.asarray(spec.fiber.metric_partial(x[:, 1:]), dtype=float)
    fiber_axes = np.arange(1, d)
    out = np.zeros((len(x),) + (d,) * 4)
    d_ratio = (fpp / f - (fp / f) ** 2)[:, None]
    out[:, 0, fiber_axes, 0, fiber_axes] = out[:, 0, fiber_axes, fiber_axes, 0] = d_ratio
    out[:, 0, 0, 1:, 1:] = (-(fp * fp + f * fpp))[:, None, None] * g_n
    out[:, 1:, 1:, 1:, 1:] = analytic_connection_partials(spec.fiber, which, x[:, 1:])
    out[:, 1:, 0, 1:, 1:] = (-f * fp)[:, None, None, None] * dg_n
    return out


def point_jet_partials(fn, point) -> np.ndarray:
    """The complex step of a single-point function around one point: ``out[a] = Im fn(x + i JET_STEP e_a) /
    JET_STEP``, with ``fn`` called on each jet row alone, so ``out[a]`` has the shape of ``fn(x)``."""
    rows = jet(np.asarray(point, dtype=float)[None])
    return np.array([np.asarray(fn(row)).imag for row in rows[1:]]) / JET_STEP


def builtin_charts() -> dict:
    """name -> (chart, what ``analytic_connection_partials`` takes for it): r2, h3 and every warp x fiber of
    the ``classify`` command."""
    specs = {"h3": wc.builtin_h3_example()}
    specs.update({f"{warp}/{fiber}": cli.FIBERS[fiber](cli.WARPS[warp](2.5), 0.4)
                  for warp in cli.WARPS for fiber in cli.FIBERS})
    return {"r2": (sg.builtin_r2_example(), sg.builtin_r2_example()),
            **{name: (wc.build_warped_chart(spec), spec) for name, spec in specs.items()}}
