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
  gamma_partial[a, k, i, j]    d_a Gamma^k_ij
  curvature R[l, k, i, j]      component on d_l of R(d_i, d_j) d_k, with
                               R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
                               (coordinate frames, so no bracket term)
Sectional-type contractions use K(X,Y) = g(R(X,Y)Y,X) / (|X|^2|Y|^2 - g(X,Y)^2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .tensor_core import DEFAULT_FD_STEP, partials

Array = np.ndarray
MatrixField = Callable[[Array], Array]

WHICH_CONNECTIONS = ("nabla", "nabla_star", "levi_civita")


@dataclass(frozen=True)
class DualisticChart:
    """Coordinate chart with metric and dual connection coefficient fields.

    Analytic first-derivative providers are optional; when absent, central
    differences with ``DEFAULT_FD_STEP`` are used.  All fields must be pure
    functions.
    """

    dim: int
    metric: MatrixField
    gamma: MatrixField
    gamma_star: MatrixField
    metric_partial: MatrixField | None = None
    gamma_partial: MatrixField | None = None
    gamma_star_partial: MatrixField | None = None
    label: str = "chart"

    def without_analytic(self) -> "DualisticChart":
        """Copy of the chart with analytic derivative providers stripped.

        Forces every derivative onto the finite-difference path.
        """
        return replace(
            self, metric_partial=None, gamma_partial=None, gamma_star_partial=None
        )


@dataclass(frozen=True)
class CurvatureTensor:
    """Curvature components R[l, k, i, j] at a point (see module docstring)."""

    components: Array

    def vector(self, X: Array, Y: Array, Z: Array) -> Array:
        """Components of R(X,Y)Z."""
        return np.einsum("lkij,k,i,j->l", self.components, Z, X, Y)

    def scalar(self, g: Array, X: Array, Y: Array, Z: Array, W: Array) -> float:
        """g(R(X,Y)Z, W)."""
        return float(self.vector(X, Y, Z) @ g @ W)


def metric_partials(chart: DualisticChart, point: Array) -> Array:
    if chart.metric_partial is not None:
        return np.asarray(chart.metric_partial(point), dtype=float)
    return partials(chart.metric, point, DEFAULT_FD_STEP)


def levi_civita(chart: DualisticChart, point: Array) -> Array:
    """Christoffel symbols of the metric, Gamma0[k,i,j], from g and dg."""
    x = np.asarray(point, dtype=float)
    g = np.asarray(chart.metric(x), dtype=float)
    dg = metric_partials(chart, x)
    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular metric at {x.tolist()} on {chart.label}") from exc
    # lowered[l,i,j] = d_i g_lj + d_j g_li - d_l g_ij
    lowered = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", g_inv, lowered)


def _gamma_field(chart: DualisticChart, which: str):
    """(field, analytic-partial-or-None) for the requested connection."""
    if which == "nabla":
        return chart.gamma, chart.gamma_partial
    if which == "nabla_star":
        return chart.gamma_star, chart.gamma_star_partial
    if which == "levi_civita":
        return (lambda x: levi_civita(chart, x)), None
    raise ValueError(f"unknown connection {which!r}; expected one of {WHICH_CONNECTIONS}")


def connection_at(chart: DualisticChart, which: str, point: Array) -> Array:
    fn, _ = _gamma_field(chart, which)
    return np.asarray(fn(np.asarray(point, dtype=float)), dtype=float)


def curvature_from_gamma(gamma: Array, dgamma: Array) -> Array:
    """Assemble R[l,k,i,j] from Gamma and its coordinate derivatives."""
    term_d = np.einsum("iljk->lkij", dgamma) - np.einsum("jlik->lkij", dgamma)
    term_q = np.einsum("lim,mjk->lkij", gamma, gamma) - np.einsum("ljm,mik->lkij", gamma, gamma)
    return term_d + term_q


def curvature(chart: DualisticChart, which: str, point: Array) -> CurvatureTensor:
    """Curvature tensor of nabla, nabla* or the Levi-Civita connection."""
    x = np.asarray(point, dtype=float)
    fn, analytic = _gamma_field(chart, which)
    gamma = np.asarray(fn(x), dtype=float)
    if analytic is not None:
        dgamma = np.asarray(analytic(x), dtype=float)
    else:
        step = DEFAULT_FD_STEP
        if which == "levi_civita" and chart.metric_partial is None:
            # The Christoffel field is itself finite-differenced here; a
            # coarser outer step balances truncation against the propagated
            # rounding noise of the inner differences.
            step = DEFAULT_FD_STEP * 20.0
        dgamma = partials(fn, x, step)
    return CurvatureTensor(curvature_from_gamma(gamma, dgamma))


def covariant(gamma: Array, A: Array, B: Array) -> Array:
    """Gamma^k_ab A^a B^b: the covariant derivative of the constant field B along A."""
    return np.einsum("kab,a,b->k", gamma, A, B)


def covariant_two_form_derivative(w: Array, dw: Array, gamma: Array, X: Array, Y: Array, Z: Array) -> float:
    """(nabla_X w)(Y,Z) from a two-form w, its partials dw[a] = d_a w and connection coefficients."""
    dir_w = np.einsum("a,abc->bc", X, dw)
    return float(Y @ dir_w @ Z - covariant(gamma, X, Y) @ w @ Z - Y @ w @ covariant(gamma, X, Z))


def difference_tensor(chart: DualisticChart, point: Array) -> Array:
    """K[k,i,j] = Gamma^k_ij - Gamma0^k_ij at the point."""
    return connection_at(chart, "nabla", point) - levi_civita(chart, point)


def kk_bracket(k: Array) -> Array:
    """[K,K][l,k,i,j], the curvature-like square K_X K_Y Z - K_Y K_X Z."""
    return np.einsum("lim,mjk->lkij", k, k) - np.einsum("ljm,mik->lkij", k, k)


def sectional_curvature(chart: DualisticChart, which: str, point: Array, X: Array, Y: Array) -> float:
    """g(R(X,Y)Y,X) normalized by the Gram determinant of the plane."""
    x = np.asarray(point, dtype=float)
    g = np.asarray(chart.metric(x), dtype=float)
    R = curvature(chart, which, x)
    num = R.scalar(g, X, Y, Y, X)
    gram = (X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2
    if abs(gram) < 1e-12:
        raise ValueError("probe vectors are (numerically) linearly dependent")
    return num / gram


def axiom_residuals(
    chart: DualisticChart,
    point: Array,
    X: Array,
    Y: Array,
    Z: Array,
    W: Array,
) -> dict[str, float]:
    """Residuals of the dualistic-structure axioms with constant-frame probes.

    duality         |Z g(X,Y) - g(nabla_Z X, Y) - g(X, nabla*_Z Y)|
    codazzi         |(nabla_X g)(Y,Z) - (nabla_Y g)(X,Z)|
    k_symmetry      max-norm of K_X Y - K_Y X
    k_self_adjoint  |g(K_X Y, Z) - g(Y, K_X Z)|
    conjugate       |g(R(X,Y)Z, W) + g(Z, R*(X,Y)W)|
    curvature_sum   componentwise max of R + R* - 2 R0 - 2 [K,K]
    """
    x = np.asarray(point, dtype=float)
    X, Y, Z, W = (np.asarray(v, dtype=float) for v in (X, Y, Z, W))
    g = np.asarray(chart.metric(x), dtype=float)
    dg = metric_partials(chart, x)
    gam = connection_at(chart, "nabla", x)
    gam_star = connection_at(chart, "nabla_star", x)
    gam0 = levi_civita(chart, x)

    def inner(u: Array, v: Array) -> float:
        return float(u @ g @ v)

    dir_g = np.einsum("aij,a->ij", dg, Z)
    duality = abs(float(X @ dir_g @ Y) - inner(covariant(gam, Z, X), Y) - inner(X, covariant(gam_star, Z, Y)))
    codazzi = abs(
        covariant_two_form_derivative(g, dg, gam, X, Y, Z) - covariant_two_form_derivative(g, dg, gam, Y, X, Z)
    )

    k = gam - gam0
    k_sym = float(np.max(np.abs(covariant(k, X, Y) - covariant(k, Y, X))))
    k_self = abs(inner(covariant(k, X, Y), Z) - inner(Y, covariant(k, X, Z)))

    R = curvature(chart, "nabla", x)
    R_star = curvature(chart, "nabla_star", x)
    R0 = curvature(chart, "levi_civita", x)
    conjugate = abs(R.scalar(g, X, Y, Z, W) + R_star.scalar(g, X, Y, W, Z))

    total = R.components + R_star.components - 2.0 * R0.components - 2.0 * kk_bracket(k)
    curvature_sum = float(np.max(np.abs(total)))

    return {
        "duality": duality,
        "codazzi": codazzi,
        "k_symmetry": k_sym,
        "k_self_adjoint": k_self,
        "conjugate": conjugate,
        "curvature_sum": curvature_sum,
    }


def check_almost_complex(g: Array, J: Array) -> float:
    """Residual of J^2 = -Id and g(J.,J.) = g."""
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    return max(
        float(np.max(np.abs(J @ J + np.eye(J.shape[0])))),
        float(np.max(np.abs(J.T @ g @ J - g))),
    )


def _const_field(value: Array) -> MatrixField:
    arr = np.asarray(value, dtype=float)
    return lambda x: arr.copy()


def trivial_chart(dim: int) -> DualisticChart:
    """Euclidean chart with nabla = nabla* = Levi-Civita = 0 (flat, trivial)."""
    zeros3 = np.zeros((dim, dim, dim))
    zeros4 = np.zeros((dim, dim, dim, dim))
    return DualisticChart(
        dim=dim,
        metric=_const_field(np.eye(dim)),
        gamma=_const_field(zeros3),
        gamma_star=_const_field(zeros3),
        metric_partial=_const_field(zeros3),
        gamma_partial=_const_field(zeros4),
        gamma_star_partial=_const_field(zeros4),
        label=f"flat-trivial-{dim}d",
    )


def builtin_r2_example() -> DualisticChart:
    """Flat-metric plane with the constant-curvature -1 dualistic structure.

    g = dx^2 + dy^2; the primal connection has Gamma^y_xx = 1 and
    Gamma^x_xy = Gamma^x_yx = 1, the dual one carries the opposite signs.
    All coefficient fields are constant, so analytic partials are exact zeros.
    """
    gam = np.zeros((2, 2, 2))
    gam[1, 0, 0] = 1.0  # nabla_dx dx = dy
    gam[0, 0, 1] = 1.0  # nabla_dx dy = dx
    gam[0, 1, 0] = 1.0  # nabla_dy dx = dx
    return replace(
        trivial_chart(2), gamma=_const_field(gam), gamma_star=_const_field(-gam), label="r2-example"
    )
