"""Stacked chart fields against their single-point definitions, bit for bit, and their jets against
the two oracles of the jet.

Every built-in chart field takes an (N, dim) stack of points.  Evaluated on a
stack, it must return, row by row, exactly the doubles of the single-point
definitions in ``field_oracle.py`` evaluated one point at a time: for the r2
and h3 charts, for every warp x fiber of the ``classify`` command and for
``cli._perturbed_chart``.  The same holds for ``Warping.at`` of the built-in
warpings against their ``math`` table, t by t (``field_oracle.warping_stack``),
and on a jet against its complex step.  On a complex-step jet, the connection
partials of the same charts must match the hand-derived partials to 1e-13
relative and central differences to their tolerance.
"""

import math

import numpy as np
import pytest

import derivative_oracle as derivative
import field_oracle as oracle
import statwintgen.cli as cli
import statwintgen.statistical_geometry as sg
import statwintgen.warped_contact as wc
from statwintgen.tensor_core import JET_STEP, jet, jet_partials

from helpers import counted_warping

EPS = 0.01


def _specs() -> dict:
    specs = {"h3": wc.builtin_h3_example()}
    for warp in cli.WARPS:
        for fiber in cli.FIBERS:
            specs[f"{warp}/{fiber}"] = cli.FIBERS[fiber](cli.WARPS[warp](2.5), 0.4)
    return specs


SPECS = _specs()


def _charts() -> dict:
    """name -> (chart, its single-point oracle fields)."""
    base = {"r2": (cli.CHARTS["r2"](), oracle.r2_fields())}
    base["h3"] = (cli.CHARTS["h3"](), oracle.warped_fields(SPECS["h3"]))
    for name, spec in SPECS.items():
        if name != "h3":
            base[name] = (wc.build_warped_chart(spec), oracle.warped_fields(spec))
    out = dict(base)
    for name, (chart, fields) in base.items():
        out[f"{name} perturbed"] = (cli._perturbed_chart(chart, EPS), oracle.perturbed(fields, EPS))
    return out


CHARTS = _charts()
CHART_FIELDS = ("metric", "gamma", "gamma_star", "metric_partial")  # the oracle's other fields are partials


def _squares_that_round_apart(count: int = 8) -> list[float]:
    """Heights t where the cosh warp's (f'/f)^2 differs between C pow and a product, r ** 2 != r * r.

    The warped d_t Gamma block squares f'/f the way Python's float ** does;
    these t pin that rounding, which about 1 t in 1000 exposes.
    """
    out = []
    for t in np.random.default_rng(11).uniform(-2.0, 2.0, 100_000).tolist():
        r = math.sinh(t) / math.cosh(t)
        if r ** 2 != r * r:
            out.append(t)
            if len(out) == count:
                return out
    raise AssertionError("no such height found")


SQUARES = _squares_that_round_apart()


def _points(dim: int, count: int = 64, seed: int = 3) -> np.ndarray:
    # |t| up to 2 so that cosh(t) and its ratios leave the well-rounded range near t = 0
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, (count, dim))
    points[: len(SQUARES), 0] = SQUARES
    return points


@pytest.mark.parametrize("name", list(CHARTS))
def test_stacked_fields_equal_the_single_point_oracle(name):
    chart, fields = CHARTS[name]
    points = _points(chart.dim)
    for field in CHART_FIELDS:
        want = np.array([fields[field](p) for p in points])
        stacked = getattr(chart, field)(points)
        assert stacked.shape == want.shape, field
        assert np.array_equal(stacked, want), field
        assert np.array_equal(getattr(chart, field)(points[0]), want[0]), field  # one point broadcasts


@pytest.mark.parametrize("name", list(SPECS))
def test_stacked_complex_structure_equals_the_single_point_oracle(name):
    spec = SPECS[name]
    points = _points(spec.fiber.dim)
    if name.endswith("twisted"):
        j_field = oracle.twisted_j(0.4)
    else:
        j = wc.standard_complex_structure(spec.fiber.dim // 2)
        j_field = lambda x: j  # noqa: E731
    assert np.array_equal(spec.j_at(points), np.array([j_field(p) for p in points]))


@pytest.mark.parametrize("name", list(SPECS))
def test_stacked_warped_metric_equals_the_single_point_oracle(name):
    spec = SPECS[name]
    points = _points(spec.dim)
    metric = oracle.warped_fields(spec)["metric"]
    assert np.array_equal(wc.warped_metric(spec, points), np.array([metric(p) for p in points]))


WARPINGS = {"exp": wc.exp_warping(), "cosh": wc.cosh_warping(), "const 2.5": wc.const_warping(2.5)}
# a repeated t, both zeros and the sample box's t edges, the |t| = 20 edges, then a t whose cosh ratio squares apart
EDGE_HEIGHTS = [0.5, -0.5, -0.0, 0.0, 0.5, -0.5, -0.0, 20.0, -20.0, SQUARES[0], SQUARES[0]]


def _heights(shape, seed: int) -> np.ndarray:
    """Heights t of the given shape: the edges first, then the sample box's [-1/2, 1/2] and [-20, 20] in turn."""
    rng = np.random.default_rng(seed)
    t = np.where(np.arange(math.prod(shape)) % 2 == 0, rng.uniform(-0.5, 0.5, shape).ravel(),
                 rng.uniform(-20.0, 20.0, shape).ravel())
    t[: len(EDGE_HEIGHTS)] = EDGE_HEIGHTS[: t.size]
    return t.reshape(shape)


@pytest.mark.parametrize("derivatives", [0, 1, 2])
@pytest.mark.parametrize("shape", [(64,), (64, 7), (0,)])
@pytest.mark.parametrize("name", list(WARPINGS))
def test_warping_at_equals_the_per_t_oracle(name, shape, derivatives):
    # the oracle is the math table of the built-in, t by t: numpy's real exp and cosh round apart from it
    warping, calls = WARPINGS[name], [0, 0, 0]
    t = _heights(shape, 5)
    expected = oracle.warping_stack(warping, t)[: derivatives + 1]
    for got, want in zip(counted_warping(warping, calls).at(t, derivatives), expected, strict=True):
        assert got.dtype == float and got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()  # bit for bit, so -0.0 is not 0.0
    assert calls == [1] * (derivatives + 1) + [0] * (2 - derivatives)  # each function once, on the whole stack


BUILTIN_CHARTS = derivative.builtin_charts()


@pytest.mark.parametrize("name", list(BUILTIN_CHARTS))
def test_jet_partials_equal_the_analytic_and_central_difference_oracles(name):
    chart, analytic_source = BUILTIN_CHARTS[name]
    points = _points(chart.dim, count=16)
    gammas = {}
    for which, field in (("nabla", chart.gamma), ("nabla_star", chart.gamma_star)):
        gamma, dgamma = sg._connection_and_partials(chart, which, points)
        want = field(points)
        assert np.max(np.abs(gamma - want)) <= 1e-15 * np.max(np.abs(want), initial=1.0)
        analytic = derivative.analytic_connection_partials(analytic_source, which, points)
        assert dgamma.shape == analytic.shape == (16,) + (chart.dim,) * 4
        assert np.max(np.abs(dgamma - analytic)) <= 1e-13 * np.max(np.abs(analytic), initial=1.0), which
        fd_gamma, fd_dgamma = derivative.fd_connection_and_partials(chart, which, points)
        assert np.array_equal(fd_gamma, want)
        assert np.max(np.abs(dgamma - fd_dgamma)) <= derivative.FD_TOL, which
        gammas[which] = analytic
    # the Levi-Civita connection is the mean of a dualistic pair, and so are its partials
    lc_analytic = 0.5 * (gammas["nabla"] + gammas["nabla_star"])
    _, dgamma0 = jet_partials(sg._metric_and_christoffel(chart, jet(points))[2], len(points))
    assert np.max(np.abs(dgamma0 - lc_analytic)) <= 1e-13 * np.max(np.abs(lc_analytic), initial=1.0)
    assert np.max(np.abs(dgamma0 - derivative.fd_levi_civita_and_partials(chart, points)[1])) <= derivative.FD_TOL


@pytest.mark.parametrize("derivatives", [0, 1, 2])
@pytest.mark.parametrize("name", list(WARPINGS))
def test_warping_at_on_a_jet_is_the_complex_step_of_the_per_t_oracle(name, derivatives):
    warping, calls = WARPINGS[name], [0, 0, 0]
    t = _heights((40,), 6)
    rows = jet(np.stack([t, t], axis=1))[:, 0]  # each t three times, its t-shift row second
    values = counted_warping(warping, calls).at(rows, derivatives)
    table, heights = oracle.math_warping(warping), rows.real.tolist()
    assert len(values) == derivatives + 1
    for k, got in enumerate(values):  # f(t) + i e f'(t) from the math table, and f' with f'' likewise
        value, slope = (np.array([table[k + s](x) for x in heights]) for s in (0, 1))
        assert got.dtype == complex and got.shape == rows.shape
        assert got.real.tobytes() == value.tobytes()
        assert got.imag.tobytes() == (rows.imag * slope).tobytes()
        assert np.array_equal(got.imag[1::3] / JET_STEP, slope[1::3])
    assert calls == [1] * (derivatives + 1) + [0] * (2 - derivatives)  # each function once, on the whole jet
