"""Dualistic structures on coordinate charts.

A chart carries a metric field g_ij(x) and a pair of torsion-free connection
coefficient fields Gamma^k_ij(x), Gamma*^k_ij(x).  The pair is *dualistic*
when Z g(X,Y) = g(nabla_Z X, Y) + g(X, nabla*_Z Y); the module computes the
Levi-Civita reference connection, curvature tensors of all three connections,
the difference tensor K = nabla - nabla0, and residuals of every structural
identity so that a chart can be certified (or rejected) numerically.

Index conventions, fixed package-wide:
  gamma[k, i, j]      coefficient of d_k in nabla_{d_i} d_j  (symmetric in i,j)
  metric_partial[a, i, j]      d_a g_ij
  dgamma[a, k, i, j]           d_a Gamma^k_ij, taken on the complex-step jet
  curvature R[l, k, i, j]      component on d_l of R(d_i, d_j) d_k, with
                               R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
                               (coordinate frames, so no bracket term)
Sectional-type contractions use K(X,Y) = g(R(X,Y)Y,X) / (|X|^2|Y|^2 - g(X,Y)^2).

The geometry functions take an (N, dim) stack of points and return per-point
arrays with the leading axis N: one call of each chart field, one ``np.linalg.inv``
and one set of einsums per stack.  Every first derivative is a complex step:
the fields run on one ``tensor_core.jet`` array holding every sample followed by
its dim complex-step points, and ``jet_partials`` splits their values back into
values and partials, exact to rounding.  One point is the N = 1 stack.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .tensor_core import jet, jet_partials

Array = np.ndarray
MatrixField = Callable[[Array], Array]

WHICH_CONNECTIONS = ("nabla", "nabla_star", "levi_civita")


class DualisticChart(NamedTuple):
    """Coordinate chart with metric and dual connection coefficient fields.

    Every field is stacked: an (N, dim) stack of points gives the (N, dim,
    ..., dim) stack of its values; the built-in fields broadcast over any
    leading axes, so one point (dim,) gives one value.  The metric partials
    are required: the Levi-Civita partials need g's second derivatives.
    Every field must be a pure numpy function of real or complex points (a
    jet's), holomorphic in them, with values in their dtype; the kernel calls
    it through ``_field``, which checks the shape.  The same rule holds for a
    warped product's J and its warping's f, f' and f'' (``warped_contact``).
    """

    dim: int
    metric: MatrixField
    gamma: MatrixField
    gamma_star: MatrixField
    metric_partial: MatrixField
    label: str = "chart"


class CurvatureTensor(NamedTuple):
    """Curvature components R[N, l, k, i, j] over a stack of points (see module docstring)."""

    components: Array

    def vector(self, X: Array, Y: Array, Z: Array) -> Array:
        """Components of R(X,Y)Z."""
        return np.einsum("...lkij,...k,...i,...j->...l", self.components, Z, X, Y)

    def scalar(self, g: Array, X: Array, Y: Array, Z: Array, W: Array) -> Array:
        """g(R(X,Y)Z, W), one value per point."""
        return _bilinear(self.vector(X, Y, Z), g, W)


# ---------------------------------------------------------------------------
# The stacked kernel.  Every function below takes a stack of points, shape
# (N, dim), and returns arrays with the leading axis N.  Each chart field is
# called once per stack, and the linear algebra runs once per stack.
# ---------------------------------------------------------------------------

# Floats of kernel scratch per stacked pass of the CLI's geometry commands.
GEOMETRY_CHUNK_FLOATS = 1 << 18


def geometry_chunk(dim: int) -> int:
    """Sample points per stacked pass at chart dimension ``dim``.

    The largest pass, Levi-Civita curvature, holds per point about 4 (1+d) d^3
    complex Christoffel-stage values on its jet, 8 (1+d) d^3 floats, and 8 d^4 curvature floats.
    """
    return max(1, GEOMETRY_CHUNK_FLOATS // (8 * (1 + dim) * dim**3 + 8 * dim**4))


_FIELD_RANKS = dict(metric=2, gamma=3, gamma_star=3, metric_partial=3, complex_structure=2)


def _field(chart, name: str, points: Array) -> Array:
    """The field ``name`` of a chart (or a warped product's J) at a stack of points (..., dim) in their dtype,
    checked to hold one (dim, ..., dim) value per point."""
    values = np.asarray(getattr(chart, name)(points), dtype=points.dtype)
    shape = points.shape[:-1] + points.shape[-1:] * _FIELD_RANKS[name]
    if values.shape != shape:
        raise ValueError(f"field {name} of chart {chart.label} returned shape {values.shape}, expected {shape}")
    return values


def _bilinear(u: Array, m: Array, v: Array) -> Array:
    """u^i m_ij v^j over matching leading axes, as the row-vector products (u m) v."""
    return (np.matmul(u[..., None, :], m) @ v[..., :, None])[..., 0, 0]


def _inverse(g: Array, points: Array, label: str) -> Array:
    """Inverses of a stack of metrics; a singular one is named by its point's real part, the first in stack order."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        for x, m in zip(points, g):
            try:
                np.linalg.inv(m)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"singular metric at {x.real.tolist()} on {label}") from exc
        raise


def _metric_and_christoffel(chart: DualisticChart, points: Array) -> tuple[Array, Array, Array]:
    """(g, dg, Gamma0) over an (N, dim) stack; Gamma0[..., k, i, j] are the Christoffel symbols of g."""
    g = _field(chart, "metric", points)
    dg = _field(chart, "metric_partial", points)
    g_inv = _inverse(g, points, chart.label)
    # lowered[l,i,j] = d_i g_lj + d_j g_li - d_l g_ij
    lowered = np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg
    return g, dg, 0.5 * np.einsum("...kl,...lij->...kij", g_inv, lowered)


def levi_civita(chart: DualisticChart, points: Array) -> Array:
    """Christoffel symbols of the metric, Gamma0[N, k, i, j], from g and dg."""
    return _metric_and_christoffel(chart, np.asarray(points, dtype=float))[2]


def _levi_civita_pass(chart: DualisticChart, points: Array) -> tuple[Array, Array, Array, Array]:
    """(g, dg, Gamma0, R0) over an (N, dim) stack, R0 the curvature of Gamma0, from one evaluation
    of g and dg on every row of the points' jet."""
    g, dg, gamma0 = _metric_and_christoffel(chart, jet(points))
    rows = 1 + chart.dim  # jet rows per point, the point itself first
    gamma0, dgamma0 = jet_partials(gamma0, len(points))
    return g[::rows].real.copy(), dg[::rows].real.copy(), gamma0, curvature_from_gamma(gamma0, dgamma0)


def _connection_and_partials(chart: DualisticChart, which: str, points: Array) -> tuple[Array, Array]:
    """(Gamma, d Gamma) of nabla or nabla* over an (N, dim) stack, from the field on the points' jet."""
    if which not in ("nabla", "nabla_star"):
        raise ValueError(f"unknown connection {which!r}; expected one of {WHICH_CONNECTIONS}")
    name = "gamma" if which == "nabla" else "gamma_star"
    return jet_partials(_field(chart, name, jet(points)), len(points))


def curvature_from_gamma(gamma: Array, dgamma: Array) -> Array:
    """Assemble R[..., l, k, i, j] from Gamma and its coordinate derivatives."""
    term_d = np.einsum("...iljk->...lkij", dgamma) - np.einsum("...jlik->...lkij", dgamma)
    return term_d + kk_bracket(gamma)


def curvature(chart: DualisticChart, which: str, points: Array) -> CurvatureTensor:
    """Curvature tensor of nabla, nabla* or the Levi-Civita connection over a stack."""
    points = np.asarray(points, dtype=float)
    if which == "levi_civita":
        return CurvatureTensor(_levi_civita_pass(chart, points)[3])
    return CurvatureTensor(curvature_from_gamma(*_connection_and_partials(chart, which, points)))


def covariant(gamma: Array, A: Array, B: Array) -> Array:
    """Gamma^k_ab A^a B^b: the covariant derivative of the constant field B along A."""
    return np.einsum("...kab,...a,...b->...k", gamma, A, B)


def covariant_two_form_derivative(w: Array, dw: Array, gamma: Array, X: Array, Y: Array, Z: Array) -> Array:
    """(nabla_X w)(Y,Z) from a two-form w, its partials dw[a] = d_a w and connection coefficients."""
    dir_w = np.einsum("...a,...abc->...bc", X, dw)
    return _bilinear(Y, dir_w, Z) - _bilinear(covariant(gamma, X, Y), w, Z) - _bilinear(Y, w, covariant(gamma, X, Z))


def difference_tensor(chart: DualisticChart, points: Array) -> Array:
    """K[N, k, i, j] = Gamma^k_ij - Gamma0^k_ij over a stack."""
    points = np.asarray(points, dtype=float)
    return _field(chart, "gamma", points) - levi_civita(chart, points)


def kk_bracket(k: Array) -> Array:
    """[K,K][..., l, k, i, j], the curvature-like square K_X K_Y Z - K_Y K_X Z."""
    return np.einsum("...lim,...mjk->...lkij", k, k) - np.einsum("...ljm,...mik->...lkij", k, k)


def _sectional(g: Array, R: Array, X: Array, Y: Array) -> Array:
    """g(R(X,Y)Y,X) normalized by the Gram determinant of the plane, from g and R at the points."""
    num = CurvatureTensor(R).scalar(g, X, Y, Y, X)
    gram = _bilinear(X, g, X) * _bilinear(Y, g, Y) - _bilinear(X, g, Y) ** 2
    if np.any(np.abs(gram) < 1e-12):
        raise ValueError("probe vectors are (numerically) linearly dependent")
    return num / gram


def sectional_curvature(chart: DualisticChart, which: str, points: Array, X: Array, Y: Array) -> Array:
    """g(R(X,Y)Y,X) normalized by the Gram determinant of the plane, one value per point.

    For the Levi-Civita connection, g at the points comes with its pass."""
    points = np.asarray(points, dtype=float)
    if which == "levi_civita":
        g, _, _, R = _levi_civita_pass(chart, points)
    else:
        g, R = _field(chart, "metric", points), curvature(chart, which, points).components
    return _sectional(g, R, X, Y)


AXIOM_RESIDUALS = ("duality", "codazzi", "k_symmetry", "k_self_adjoint", "conjugate", "curvature_sum")


def axiom_residuals(
    chart: DualisticChart,
    points: Array,
    X: Array,
    Y: Array,
    Z: Array,
    W: Array,
) -> dict[str, Array]:
    """Residuals of the dualistic-structure axioms with constant-frame probes.

    duality         |Z g(X,Y) - g(nabla_Z X, Y) - g(X, nabla*_Z Y)|
    codazzi         |(nabla_X g)(Y,Z) - (nabla_Y g)(X,Z)|
    k_symmetry      max-norm of K_X Y - K_Y X
    k_self_adjoint  |g(K_X Y, Z) - g(Y, K_X Z)|
    conjugate       |g(R(X,Y)Z, W) + g(Z, R*(X,Y)W)|
    curvature_sum   componentwise max of R + R* - 2 R0 - 2 [K,K]

    The probes are stacks like the points (or one probe for all), and each
    residual is an array, one value per point.
    """
    x = np.asarray(points, dtype=float)
    return _axiom_residuals(chart, x, *_levi_civita_pass(chart, x), X, Y, Z, W)


def levi_civita_sectional_and_axioms(
    chart: DualisticChart, points: Array, X: Array, Y: Array, probes: Sequence[Array]
) -> tuple[Array, dict[str, Array]]:
    """``sectional_curvature(chart, "levi_civita", points, X, Y)`` and ``axiom_residuals(chart, points, *probes)``
    from one Levi-Civita pass over the stack."""
    x = np.asarray(points, dtype=float)
    lc_pass = _levi_civita_pass(chart, x)
    return _sectional(lc_pass[0], lc_pass[3], X, Y), _axiom_residuals(chart, x, *lc_pass, *probes)


def _axiom_residuals(
    chart: DualisticChart, x: Array, g: Array, dg: Array, gam0: Array, R0: Array, X: Array, Y: Array, Z: Array, W: Array
) -> dict[str, Array]:
    """The residuals of ``axiom_residuals`` at the points x from their Levi-Civita pass (g, dg, Gamma0, R0);
    g and dg at the points come with the pass, which evaluates them on the jet anyway."""
    X, Y, Z, W = (np.asarray(v, dtype=float) for v in (X, Y, Z, W))
    gam, dgam = _connection_and_partials(chart, "nabla", x)
    gam_star, dgam_star = _connection_and_partials(chart, "nabla_star", x)

    dir_g = np.einsum("...aij,...a->...ij", dg, Z)
    duality = np.abs(
        _bilinear(X, dir_g, Y) - _bilinear(covariant(gam, Z, X), g, Y) - _bilinear(X, g, covariant(gam_star, Z, Y))
    )
    codazzi = np.abs(
        covariant_two_form_derivative(g, dg, gam, X, Y, Z) - covariant_two_form_derivative(g, dg, gam, Y, X, Z)
    )

    k = gam - gam0
    k_sym = np.max(np.abs(covariant(k, X, Y) - covariant(k, Y, X)), axis=-1)
    k_self = np.abs(_bilinear(covariant(k, X, Y), g, Z) - _bilinear(Y, g, covariant(k, X, Z)))

    R = curvature_from_gamma(gam, dgam)
    R_star = curvature_from_gamma(gam_star, dgam_star)
    conjugate = np.abs(CurvatureTensor(R).scalar(g, X, Y, Z, W) + CurvatureTensor(R_star).scalar(g, X, Y, W, Z))

    total = R + R_star - 2.0 * R0 - 2.0 * kk_bracket(k)
    curvature_sum = np.max(np.abs(total), axis=(-4, -3, -2, -1))

    values = (duality, codazzi, k_sym, k_self, conjugate, curvature_sum)
    return dict(zip(AXIOM_RESIDUALS, values))


def check_almost_complex(g: Array, J: Array) -> Array:
    """Residual of J^2 = -Id and g(J.,J.) = g, one value per (g, J) pair of a stack."""
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    return np.maximum(
        np.max(np.abs(J @ J + np.eye(J.shape[-1])), axis=(-2, -1)),
        np.max(np.abs(np.swapaxes(J, -1, -2) @ g @ J - g), axis=(-2, -1)),
    )


def constant_field(value: Array) -> MatrixField:
    """Stacked field with the value ``value`` at every point, in the points' dtype: complex on a jet."""
    arr = np.asarray(value, dtype=float)

    def field(x: Array) -> Array:
        out = np.empty(np.shape(x)[:-1] + arr.shape, dtype=complex if np.iscomplexobj(x) else float)
        out[...] = arr
        return out

    return field


def trivial_chart(dim: int) -> DualisticChart:
    """Euclidean chart with nabla = nabla* = Levi-Civita = 0 (flat, trivial)."""
    zeros3 = np.zeros((dim, dim, dim))
    return DualisticChart(
        dim=dim,
        metric=constant_field(np.eye(dim)),
        gamma=constant_field(zeros3),
        gamma_star=constant_field(zeros3),
        metric_partial=constant_field(zeros3),
        label=f"flat-trivial-{dim}d",
    )


def builtin_r2_example() -> DualisticChart:
    """Flat-metric plane with the constant-curvature -1 dualistic structure.

    g = dx^2 + dy^2; the primal connection has Gamma^y_xx = 1 and
    Gamma^x_xy = Gamma^x_yx = 1, the dual one carries the opposite signs.
    All coefficient fields are constant, so their complex-step partials are exact zeros.
    """
    gam = np.zeros((2, 2, 2))
    gam[1, 0, 0] = 1.0  # nabla_dx dx = dy
    gam[0, 0, 1] = 1.0  # nabla_dx dy = dx
    gam[0, 1, 0] = 1.0  # nabla_dy dx = dx
    return trivial_chart(2)._replace(gamma=constant_field(gam), gamma_star=constant_field(-gam), label="r2-example")
