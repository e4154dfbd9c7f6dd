"""Numerical checks of the paper's mathematics that no command of the package runs.

- ``lu_inequality``: Lu's commutator inequality (J. Funct. Anal. 261 (2011)),
  a published theorem the Wintgen chain relies on, checked on
  ``random_symmetric_traceless`` matrix sets, with the Frobenius norms of
  ``frobenius_norm_sq``;
- ``corollary_reports``: the bound specialized to R x_{e^t} C^n (Kenmotsu)
  and R x N(c) (cosymplectic), which must reproduce the general constant;
- ``holomorphic_space_form_curvature`` and ``space_form_warped_curvature``:
  closed-form curvature of a holomorphic space form and of its warp
  R x_f N(c);
- ``skew_field_residuals`` and ``phi_warp_residual``: the statistical
  identities of a g-skew (1,1) field (J on the fiber, ``phi_matrix`` on the
  warp).
- ``fiber_axiom_check``: the dualistic axioms of a warped product's fiber
  at three seeded sample points, within ``FIBER_AXIOM_TOL``.

The module name has no ``test_`` prefix, so pytest imports it without
collecting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import statwintgen.wintgen as wg
from statwintgen.legendrian import LegendrianPointInstance
from statwintgen.statistical_geometry import (
    DualisticChart,
    axiom_residuals,
    check_almost_complex,
    covariant,
    covariant_two_form_derivative,
    levi_civita,
)
from statwintgen.tensor_core import commutator, instance_rng
from statwintgen.warped_contact import (
    WarpedProductSpec,
    embed_fiber_vector,
    exterior_derivative_2form,
    warped_metric,
)

from derivative_oracle import FD_STEP
from helpers import box_points, partials

Array = np.ndarray


def phi_matrix(spec: WarpedProductSpec, point: Array) -> Array:
    """(1,1) frame tensor on the total chart: phi(dt) = 0, phi(X) = JX; at each point of a (..., 2n+1) stack,
    in the points' dtype, so complex on a jet."""
    point = np.asarray(point, dtype=complex if np.iscomplexobj(point) else float)
    out = np.zeros(point.shape[:-1] + (spec.dim, spec.dim), dtype=point.dtype)
    out[..., 1:, 1:] = spec.j_at(point[..., 1:])
    return out


# ---------------------------------------------------------------------------
# Lu's commutator inequality
# ---------------------------------------------------------------------------


def as_square_matrix(m) -> np.ndarray:
    """Validate and return a finite square matrix as a float ndarray."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries, sum_ij M_ij^2, of a finite square matrix."""
    a = as_square_matrix(m)
    return float(np.sum(a * a))


@dataclass(frozen=True)
class LuResult:
    lhs: float
    rhs: float
    holds: bool
    gap: float


def lu_inequality(matrices: list[Array]) -> LuResult:
    """sum_{a,b} ||[B_a,B_b]||^2 <= (sum_a ||B_a||^2)^2 for symmetric trace-free B.

    The double sum runs over ordered pairs, so (a,b) and (b,a) both count.
    """
    mats = [np.asarray(m, dtype=float) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("all matrices must share one square shape")
        if float(np.max(np.abs(m - m.T))) > wg.SLACK_TOL:
            raise ValueError("matrices must be symmetric")
        if abs(float(np.trace(m))) > wg.SLACK_TOL:
            raise ValueError("matrices must be trace-free")
    lhs = 0.0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            lhs += frobenius_norm_sq(commutator(mats[a], mats[b]))
    lhs *= 2.0
    rhs = sum(frobenius_norm_sq(m) for m in mats) ** 2
    return LuResult(lhs=lhs, rhs=rhs, holds=lhs <= rhs + wg.SLACK_TOL, gap=rhs - lhs)


def random_symmetric_traceless(dim: int, count: int, seed: int) -> list[Array]:
    """`count` random symmetric trace-free matrices, deterministic per seed.

    Entries are drawn uniformly from [-1, 1], symmetrized, then projected onto
    the trace-zero subspace.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    for k in range(count):
        rng = instance_rng(seed, k)
        raw = rng.uniform(-1.0, 1.0, size=(dim, dim))
        sym = 0.5 * (raw + raw.T)
        sym -= (np.trace(sym) / dim) * np.eye(dim)
        out.append(sym)
    return out


# ---------------------------------------------------------------------------
# Corollaries of the main bound
# ---------------------------------------------------------------------------


COROLLARY_VARIANTS = ("kenmotsu", "cosymplectic")


def corollary_constant(variant: str, c: float) -> float:
    if variant == "kenmotsu":
        return 1.0
    if variant == "cosymplectic":
        return (2.0 * abs(c) - c) / 4.0
    raise ValueError(f"unknown corollary variant {variant!r}; expected one of {COROLLARY_VARIANTS}")


def corollary_reports(inst: LegendrianPointInstance, variant: str, seed: str | None = None) -> wg.WintgenReport:
    """Specialized bound for R x_{e^t} C^n (kenmotsu) or R x N(c) (cosymplectic).

    Parameter gates: kenmotsu needs c = 0 and f' = f; cosymplectic needs
    f = 1 and f' = 0.  The specialized constant must reproduce the general
    one exactly (checked to 1e-12).
    """
    special = corollary_constant(variant, inst.c)
    if variant == "kenmotsu" and not (inst.c == 0.0 and inst.f_prime == inst.f_val):
        raise ValueError("kenmotsu corollary needs c = 0 and f' = f")
    if variant == "cosymplectic" and not (inst.f_val == 1.0 and inst.f_prime == 0.0):
        raise ValueError("cosymplectic corollary needs f = 1 and f' = 0")
    base = wg.main_inequality(inst, seed=seed, include_chain=False)
    terms = {**base.rhs_terms, "curvature_constant": special}
    rhs, slack, holds = wg._judge(terms.values(), base.lhs)
    if abs(rhs - base.rhs) > 1e-12:
        raise AssertionError(
            f"corollary constant mismatch: specialized {rhs!r} vs general {base.rhs!r}"
        )
    return base._replace(rhs_terms=terms, rhs=rhs, slack=slack, holds=holds)


# ---------------------------------------------------------------------------
# Space-form curvature
# ---------------------------------------------------------------------------


def holomorphic_space_form_curvature(
    c: float,
    g: Array,
    J: Array,
    X: Array,
    Y: Array,
    Z: Array,
    tol: float = 1e-9,
) -> Array:
    """Curvature vector R(X,Y)Z of constant holomorphic sectional curvature c.

    Standard form (c/4)[g(Y,Z)X - g(X,Z)Y + g(JY,Z)JX - g(JX,Z)JY + 2g(X,JY)JZ];
    contracting with X at Y = JX, Z = JX reproduces sectional curvature c of the
    holomorphic plane, and c/4 on totally real planes.  Raises ValueError when
    (g, J) is not an almost complex compatible pair to ``tol``.
    """
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    X, Y, Z = (np.asarray(v, dtype=float) for v in (X, Y, Z))
    res = check_almost_complex(g, J)
    if res > tol:
        raise ValueError(f"not an almost complex compatible pair (residual {res:.3e})")

    def ip(u: Array, v: Array) -> float:
        return float(u @ g @ v)

    JX, JY, JZ = J @ X, J @ Y, J @ Z
    return (c / 4.0) * (
        ip(Y, Z) * X
        - ip(X, Z) * Y
        + ip(JY, Z) * JX
        - ip(JX, Z) * JY
        + 2.0 * ip(X, JY) * JZ
    )


def space_form_warped_curvature(
    spec: WarpedProductSpec,
    c: float,
    point: Array,
    X: Array,
    Y: Array,
    Z: Array,
    W: Array,
) -> float:
    """Four-slot curvature scalar of R x_f N(c) (identical for both connections).

    <R(X,Y)Z, W> = A [<Y,Z><X,W> - <X,Z><Y,W>]
                 + B [<X,Z> Y_t W_t - <Y,Z> X_t W_t + <Y,W> X_t Z_t - <X,W> Y_t Z_t]
                 + (c/4f^2) [<X,phiZ><phiY,W> - <Y,phiZ><phiX,W> + 2<X,phiY><phiZ,W>]

    with A = c/4f^2 - (f'/f)^2 and B = A + f''/f; the subscript t denotes the
    dt-component.  The fiber of ``spec`` must be a holomorphic statistical
    space form of constant ``c`` (with vanishing [K,K]).
    """
    point = np.asarray(point, dtype=float)
    c = float(c)
    f, fp, fpp = spec.warping.at(point[0])
    g = warped_metric(spec, point)
    phi = phi_matrix(spec, point)
    X, Y, Z, W = (np.asarray(v, dtype=float) for v in (X, Y, Z, W))

    def ip(u: Array, v: Array) -> float:
        return float(u @ g @ v)

    a_coef = c / (4.0 * f * f) - (fp / f) ** 2
    b_coef = a_coef + fpp / f
    phi_x, phi_y, phi_z = phi @ X, phi @ Y, phi @ Z
    xt, yt, zt, wt = X[0], Y[0], Z[0], W[0]
    term1 = a_coef * (ip(Y, Z) * ip(X, W) - ip(X, Z) * ip(Y, W))
    term2 = b_coef * (
        ip(X, Z) * yt * wt - ip(Y, Z) * xt * wt + ip(Y, W) * xt * zt - ip(X, W) * yt * zt
    )
    term3 = (c / (4.0 * f * f)) * (
        ip(X, phi_z) * ip(phi_y, W) - ip(Y, phi_z) * ip(phi_x, W) + 2.0 * ip(X, phi_y) * ip(phi_z, W)
    )
    return term1 + term2 + term3


# ---------------------------------------------------------------------------
# Statistical identity residuals of g-skew fields
# ---------------------------------------------------------------------------


def _nabla_endomorphism(t: Array, dt: Array, gamma: Array, X: Array, Y: Array) -> Array:
    """(nabla_X T)Y from a (1,1) field T, its partials dt[a] = d_a T and connection coefficients."""
    # nabla_X (TY) with TY treated as the field x -> T(x) Y_const
    cov_ty = np.einsum("a,abc->bc", X, dt) @ Y + covariant(gamma, X, t @ Y)
    return cov_ty - t @ covariant(gamma, X, Y)


def skew_field_residuals(
    chart: DualisticChart,
    t_field: Callable[[Array], Array],
    point: Array,
    X: Array,
    Y: Array,
    Z: Array,
) -> dict[str, float]:
    """Statistical identity residuals of a g-skew (1,1) field T and its form w(Y,Z) = g(TY, Z).

    w_parallel                 |(nabla_X w)(Y,Z)|, a measurement (zero when T is parallel)
    w_deriv_primal             (nabla_X w)(Y,Z) = g((nabla_X T)Y, Z) - 2 g(K_X TY, Z)
    w_deriv_dual               starred version, + 2 g(K_X TY, Z)
    w_deriv_levi_civita        (nabla_X w)(Y,Z) = (nabla0_X w)(Y,Z) - g(K_X TY + T K_X Y, Z)
    w_deriv_levi_civita_dual   starred version, opposite sign
    skew_cyclic                cyclic sum of g(K_X TY + T K_X Y, Z) vanishes (T is g-skew)
    dw_cyclic                  coordinate dw(X,Y,Z) equals the cyclic sums of nabla0 w and nabla w
    """
    point = np.asarray(point, dtype=float)
    X, Y, Z = (np.asarray(v, dtype=float) for v in (X, Y, Z))
    g = np.asarray(chart.metric(point), dtype=float)
    t = np.asarray(t_field(point), dtype=float)
    gam = np.asarray(chart.gamma(point), dtype=float)
    gam_star = np.asarray(chart.gamma_star(point), dtype=float)
    gam0 = levi_civita(chart, point[None])[0]
    k = gam - gam0

    def w_field(x: Array) -> Array:
        return np.asarray(t_field(x), dtype=float).T @ np.asarray(chart.metric(x), dtype=float)

    w = t.T @ g
    dw = partials(w_field, point, FD_STEP)
    d_t = partials(t_field, point, FD_STEP)

    def ip(u: Array, v: Array) -> float:
        return float(u @ g @ v)

    def nabla_w(gamma: Array, A: Array, B: Array, C: Array) -> float:
        return covariant_two_form_derivative(w, dw, gamma, A, B, C)

    def mixed(A: Array, B: Array, C: Array) -> float:
        return ip(covariant(k, A, t @ B) + t @ covariant(k, A, B), C)

    def cyclic(term: Callable[..., float], *head: Array) -> float:
        return term(*head, X, Y, Z) + term(*head, Z, X, Y) + term(*head, Y, Z, X)

    n_w, n_star_w, n0_w = (nabla_w(gamma, X, Y, Z) for gamma in (gam, gam_star, gam0))
    k_ty = ip(covariant(k, X, t @ Y), Z)
    dw_xyz = float(np.einsum("abc,a,b,c->", exterior_derivative_2form(dw), X, Y, Z))
    return {
        "w_parallel": abs(n_w),
        "w_deriv_primal": abs(n_w - ip(_nabla_endomorphism(t, d_t, gam, X, Y), Z) + 2.0 * k_ty),
        "w_deriv_dual": abs(n_star_w - ip(_nabla_endomorphism(t, d_t, gam_star, X, Y), Z) - 2.0 * k_ty),
        "w_deriv_levi_civita": abs(n_w - n0_w + mixed(X, Y, Z)),
        "w_deriv_levi_civita_dual": abs(n_star_w - n0_w - mixed(X, Y, Z)),
        "skew_cyclic": abs(cyclic(mixed)),
        "dw_cyclic": max(abs(dw_xyz - cyclic(nabla_w, gamma)) for gamma in (gam0, gam)),
    }


def phi_warp_residual(spec: WarpedProductSpec, chart: DualisticChart, point: Array, X: Array, Y: Array) -> float:
    """Max-norm residual of the warp identity of phi on the total chart of ``spec``.

    (nabla_X phi)Y = (nabla^N_X J)Y - (f'/f)<X, phi Y> xi - (f'/f) eta(Y) phi X
    """
    point = np.asarray(point, dtype=float)
    X, Y = (np.asarray(v, dtype=float) for v in (X, Y))
    f, fp, _ = spec.warping.at(point[0])
    phi = phi_matrix(spec, point)
    d_phi = partials(lambda x: phi_matrix(spec, x), point, FD_STEP)
    nx_phi_y = _nabla_endomorphism(phi, d_phi, np.asarray(chart.gamma(point), dtype=float), X, Y)
    xf = point[1:]
    nxj_fiber = _nabla_endomorphism(
        spec.j_at(xf), partials(spec.j_at, xf, FD_STEP),
        np.asarray(spec.fiber.gamma(xf), dtype=float), X[1:], Y[1:],
    )
    predicted = embed_fiber_vector(nxj_fiber) - (fp / f) * Y[0] * (phi @ X)
    predicted[0] -= (fp / f) * float(X @ warped_metric(spec, point) @ phi @ Y)
    return float(np.max(np.abs(nx_phi_y - predicted)))


# ---------------------------------------------------------------------------
# Dualistic axioms of a warped product's fiber
# ---------------------------------------------------------------------------

FIBER_AXIOM_TOL = 1e-12


def fiber_axiom_check(spec: WarpedProductSpec) -> None:
    """Raise ValueError at the first of three seeded fiber points whose worst axiom
    residual is above ``FIBER_AXIOM_TOL`` or not finite."""
    rng = np.random.default_rng(171)
    fiber = spec.fiber
    pts = box_points(3, rng, [(-1.0, 1.0)] * fiber.dim)
    probes = rng.uniform(-1.0, 1.0, size=(len(pts), 4, fiber.dim))
    residuals = axiom_residuals(fiber, pts, *probes.transpose(1, 0, 2))
    for p, *values in zip(pts, *residuals.values()):
        worst = float(np.max(values))  # keeps a NaN, which max() could drop
        if not worst <= FIBER_AXIOM_TOL:
            raise ValueError(
                f"fiber of {spec.label} violates the dualistic axioms "
                f"(residual {worst:.3e} > {FIBER_AXIOM_TOL:.1e} at {p.tolist()})"
            )
