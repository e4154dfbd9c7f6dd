"""Statistical warped products R x_f N and the induced almost-contact frame.

The product chart has coordinates (t, x^1, ..., x^{2n}) with metric
dt^2 + f(t)^2 g_N and connections assembled from the fiber's dualistic pair:

    nabla_{dt} dt = 0,   nabla_{dt} X = (f'/f) X,
    nabla_X  Y   = nabla^N_X Y - (<X,Y>/f) f' dt,

identically for the starred connection.  On top of the product chart the reeb
frame (phi, xi = dt, eta = dt-form) is built from the fiber's almost complex
structure J, and the classification into almost alpha-Kenmotsu / almost
cosymplectic is decided from the coordinate exterior derivatives of eta and
of the fundamental two-form Phi(X,Y) = <phi X, Y>.

J on the fiber and phi on the warp are both g-skew, so one function,
``skew_field_residuals``, checks their statistical identities.

Sign conventions: Omega(X,Y) = g(JX, Y) on the fiber, matching Phi's slot
order; with these the exact two-form identity of the warp is
dPhi = f^2 dOmega - 2 alpha eta ^ Phi for the reported alpha = -f'/f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .statistical_geometry import (
    DualisticChart,
    axiom_residuals,
    check_almost_complex,
    connection_at,
    covariant,
    covariant_two_form_derivative,
    curvature,
    difference_tensor,
    levi_civita,
    trivial_chart,
    builtin_r2_example,
)
from .tensor_core import DEFAULT_FD_STEP, partials, sample_points

Array = np.ndarray

CLOSED_FORM_CASES = ("a", "b", "c", "d", "a*", "b*", "c*", "d*")
FIBER_AXIOM_TOL = 1e-6
KENMOTSU_TOL = 1e-6


@dataclass(frozen=True)
class Warping:
    """Warping function t -> f(t) with analytic first and second derivatives."""

    f: Callable[[float], float]
    f_prime: Callable[[float], float]
    f_double_prime: Callable[[float], float]
    name: str = "f"

    def at(self, t: float) -> tuple[float, float, float]:
        f = float(self.f(t))
        if not (math.isfinite(f) and f > 0.0):
            raise ValueError(f"warping {self.name} must stay positive, got f({t}) = {f}")
        return f, float(self.f_prime(t)), float(self.f_double_prime(t))


def exp_warping() -> Warping:
    return Warping(math.exp, math.exp, math.exp, name="exp(t)")


def const_warping(value: float) -> Warping:
    if value <= 0.0:
        raise ValueError("constant warping must be positive")
    return Warping(lambda t: value, lambda t: 0.0, lambda t: 0.0, name=f"const {value}")


def cosh_warping() -> Warping:
    return Warping(math.cosh, math.sinh, math.cosh, name="cosh(t)")


@dataclass(frozen=True)
class WarpedProductSpec:
    """Fiber chart + almost complex field + warping data for R x_f N.

    ``space_form_c`` declares the fiber as a holomorphic statistical space
    form of constant c (with vanishing [K,K]); it gates the closed
    four-slot curvature formula.
    """

    fiber: DualisticChart
    complex_structure: Callable[[Array], Array]
    warping: Warping
    space_form_c: float | None = None
    label: str = "warped product"

    @property
    def dim(self) -> int:
        return self.fiber.dim + 1

    def j_at(self, fiber_point: Array) -> Array:
        return np.asarray(self.complex_structure(np.asarray(fiber_point, dtype=float)), dtype=float)


def standard_complex_structure(n: int) -> Array:
    """Block-diagonal J with 2x2 rotation blocks: J d_{2k} = d_{2k+1}."""
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = np.zeros((2 * n, 2 * n))
    for k in range(n):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = j2
    return out


def flat_kaehler_spec(n: int, warping: Warping, space_form_c: float | None = 0.0) -> WarpedProductSpec:
    """Trivial flat fiber R^{2n} with the constant standard J."""
    j = standard_complex_structure(n)
    return WarpedProductSpec(
        fiber=trivial_chart(2 * n),
        complex_structure=lambda x: j.copy(),
        warping=warping,
        space_form_c=space_form_c,
        label=f"R x_{warping.name} C^{n} (flat)",
    )


def twisted_j_spec(epsilon: float, warping: Warping) -> WarpedProductSpec:
    """Flat R^4 fiber with a position-twisted compatible J, so dOmega != 0.

    J(x) = P(theta) J0 P(theta)^T with theta = epsilon (1/2 + x_3) and P a
    rotation in the (e1, e2) plane; J stays compatible (J^2 = -I, orthogonal)
    but its fundamental form is no longer closed.  Negative test case for the
    warped-Kenmotsu equivalence.
    """
    j0 = standard_complex_structure(2)

    def j_field(x: Array) -> Array:
        theta = epsilon * (0.5 + float(x[3]))
        p = np.eye(4)
        c, s = math.cos(theta), math.sin(theta)
        p[1, 1], p[1, 2], p[2, 1], p[2, 2] = c, -s, s, c
        return p @ j0 @ p.T

    return WarpedProductSpec(
        fiber=trivial_chart(4),
        complex_structure=j_field,
        warping=warping,
        label=f"twisted-J fiber (eps={epsilon})",
    )


def builtin_h3_example() -> WarpedProductSpec:
    """R x_{e^t} (constant-curvature -1 plane): warped model of hyperbolic 3-space."""
    j = standard_complex_structure(1)
    return WarpedProductSpec(
        fiber=builtin_r2_example(),
        complex_structure=lambda x: j.copy(),
        warping=exp_warping(),
        label="h3-example",
    )


def h3_connection_table(t: float) -> Array:
    """Gamma[k, i, j] of the h3 example at height t: its nine coefficient identities."""
    e2t = math.exp(2.0 * t)
    out = np.zeros((3, 3, 3))
    out[1, 0, 1] = out[1, 1, 0] = 1.0  # nabla_dt dx = nabla_dx dt = dx
    out[2, 0, 2] = out[2, 2, 0] = 1.0  # nabla_dt dy = nabla_dy dt = dy
    out[2, 1, 1] = 1.0                 # nabla_dx dx = dy - e^{2t} dt
    out[0, 1, 1] = -e2t
    out[1, 1, 2] = out[1, 2, 1] = 1.0  # nabla_dx dy = nabla_dy dx = dx
    out[0, 2, 2] = -e2t                # nabla_dy dy = -e^{2t} dt
    return out


def embed_fiber_vector(v: Array) -> Array:
    v = np.asarray(v, dtype=float)
    return np.concatenate(([0.0], v))


def warped_metric(spec: WarpedProductSpec, point: Array) -> Array:
    point = np.asarray(point, dtype=float)
    f, _, _ = spec.warping.at(point[0])
    g = np.zeros((spec.dim, spec.dim))
    g[0, 0] = 1.0
    g[1:, 1:] = f * f * np.asarray(spec.fiber.metric(point[1:]), dtype=float)
    return g


def default_sample_box(spec_dim: int) -> list[tuple[float, float]]:
    """t restricted to [-1/2, 1/2] to keep e^{2t} well conditioned."""
    return [(-0.5, 0.5)] + [(-1.0, 1.0)] * (spec_dim - 1)


def sample_warped_points(spec: WarpedProductSpec, count: int, rng: np.random.Generator) -> Array:
    return sample_points(spec.dim, count, rng, box=default_sample_box(spec.dim))


def _fiber_axiom_check(spec: WarpedProductSpec) -> None:
    rng = np.random.default_rng(171)
    fiber = spec.fiber
    pts = sample_points(fiber.dim, 3, rng)
    for p in pts:
        probes = [rng.uniform(-1.0, 1.0, fiber.dim) for _ in range(4)]
        worst = max(axiom_residuals(fiber, p, *probes).values())
        if worst > FIBER_AXIOM_TOL:
            raise ValueError(
                f"fiber of {spec.label} violates the dualistic axioms "
                f"(residual {worst:.3e} > {FIBER_AXIOM_TOL:.1e} at {p.tolist()})"
            )


def build_warped_chart(spec: WarpedProductSpec, validate_fiber: bool = True) -> DualisticChart:
    """Assemble the (2n+1)-dim dualistic chart of R x_f N.

    Analytic derivative providers are attached whenever the fiber has them.
    """
    if validate_fiber:
        _fiber_axiom_check(spec)
    fiber = spec.fiber
    d = spec.dim
    w = spec.warping

    def metric(x: Array) -> Array:
        return warped_metric(spec, x)

    def _gamma_from(fiber_gamma_field) -> Callable[[Array], Array]:
        def gamma(x: Array) -> Array:
            x = np.asarray(x, dtype=float)
            f, fp, _ = w.at(x[0])
            g_n = np.asarray(fiber.metric(x[1:]), dtype=float)
            out = np.zeros((d, d, d))
            out[1:, 1:, 1:] = np.asarray(fiber_gamma_field(x[1:]), dtype=float)
            ratio = fp / f
            for a in range(1, d):
                out[a, 0, a] = ratio
                out[a, a, 0] = ratio
            out[0, 1:, 1:] = -f * fp * g_n
            return out

        return gamma

    def metric_partial(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        f, fp, _ = w.at(x[0])
        g_n = np.asarray(fiber.metric(x[1:]), dtype=float)
        dg_n = np.asarray(fiber.metric_partial(x[1:]), dtype=float)
        out = np.zeros((d, d, d))
        out[0, 1:, 1:] = 2.0 * f * fp * g_n
        out[1:, 1:, 1:] = f * f * dg_n
        return out

    def _gamma_partial_from(fiber_gamma_partial) -> Callable[[Array], Array]:
        def gamma_partial(x: Array) -> Array:
            x = np.asarray(x, dtype=float)
            f, fp, fpp = w.at(x[0])
            g_n = np.asarray(fiber.metric(x[1:]), dtype=float)
            dg_n = np.asarray(fiber.metric_partial(x[1:]), dtype=float)
            out = np.zeros((d, d, d, d))
            # d/dt blocks
            d_ratio = fpp / f - (fp / f) ** 2
            for a in range(1, d):
                out[0, a, 0, a] = d_ratio
                out[0, a, a, 0] = d_ratio
            out[0, 0, 1:, 1:] = -(fp * fp + f * fpp) * g_n
            # fiber-direction blocks
            out[1:, 1:, 1:, 1:] = np.asarray(fiber_gamma_partial(x[1:]), dtype=float)
            out[1:, 0, 1:, 1:] = -f * fp * dg_n
            return out

        return gamma_partial

    has_analytic = (
        fiber.metric_partial is not None
        and fiber.gamma_partial is not None
        and fiber.gamma_star_partial is not None
    )
    return DualisticChart(
        dim=d,
        metric=metric,
        gamma=_gamma_from(fiber.gamma),
        gamma_star=_gamma_from(fiber.gamma_star),
        metric_partial=metric_partial if fiber.metric_partial is not None else None,
        gamma_partial=_gamma_partial_from(fiber.gamma_partial) if has_analytic else None,
        gamma_star_partial=_gamma_partial_from(fiber.gamma_star_partial) if has_analytic else None,
        label=spec.label,
    )


def _closed_form_case(case: str) -> str:
    """``case`` when it is one of ``CLOSED_FORM_CASES``; raises ValueError otherwise."""
    if case not in CLOSED_FORM_CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CLOSED_FORM_CASES}")
    return case


def closed_form_probes(case: str, U: Array, V: Array, W: Array) -> tuple[Array, Array, Array]:
    """Total-chart probes (X, Y, Z) whose R(X,Y)Z ``warped_curvature_closed_form`` gives.

    a: (V, dt, dt)   b: (V, U, dt)   c: (dt, V, W)   d: (V, W, U), with the
    fiber probes embedded; a starred case uses the probes of its base case.
    """
    u, v, w = (embed_fiber_vector(a) for a in (U, V, W))
    dt = np.zeros(u.size)
    dt[0] = 1.0
    return {"a": (v, dt, dt), "b": (v, u, dt), "c": (dt, v, w), "d": (v, w, u)}[_closed_form_case(case)[0]]


def warped_curvature_closed_form(
    spec: WarpedProductSpec,
    point: Array,
    case: str,
    U: Array | None = None,
    V: Array | None = None,
    W: Array | None = None,
) -> Array:
    """Closed-form curvature of the warp, by case; probes are fiber vectors.

      a : R(V, dt) dt = -(f''/f) V
      b : R(V, U) dt = 0
      c : R(dt, V) W = -(f''/f) <V,W> dt
      d : R(V, W) U = R^N(V,W)U - (f'/f)^2 [<W,U> V - <V,U> W]

    Starred cases use the dual fiber curvature in (d*); <.,.> is the warped
    metric f^2 g_N on fiber vectors.  Returns total-chart components.
    """
    case = _closed_form_case(case)
    point = np.asarray(point, dtype=float)
    t, xf = point[0], point[1:]
    f, fp, fpp = spec.warping.at(t)
    g_n = np.asarray(spec.fiber.metric(xf), dtype=float)
    which = "nabla_star" if case.endswith("*") else "nabla"
    base = case[0]

    def need(name: str, v: Array | None) -> Array:
        if v is None:
            raise ValueError(f"case {case!r} requires fiber probe {name}")
        v = np.asarray(v, dtype=float)
        if v.size != spec.fiber.dim:
            raise ValueError(f"probe {name} must be a fiber vector of dim {spec.fiber.dim}")
        return v

    if base == "a":
        v = need("V", V)
        return embed_fiber_vector(-(fpp / f) * v)
    if base == "b":
        need("V", V)
        need("U", U)
        return np.zeros(spec.dim)
    if base == "c":
        v = need("V", V)
        wv = need("W", W)
        warped_ip = f * f * float(v @ g_n @ wv)
        out = np.zeros(spec.dim)
        out[0] = -(fpp / f) * warped_ip
        return out
    # case d
    v = need("V", V)
    wv = need("W", W)
    u = need("U", U)
    r_fiber = curvature(spec.fiber, which, xf).vector(v, wv, u)
    warp = (fp / f) ** 2 * (f * f) * (float(wv @ g_n @ u) * v - float(v @ g_n @ u) * wv)
    return embed_fiber_vector(r_fiber - warp)


def phi_matrix(spec: WarpedProductSpec, point: Array) -> Array:
    """(1,1) frame tensor on the total chart: phi(dt) = 0, phi(X) = JX."""
    point = np.asarray(point, dtype=float)
    out = np.zeros((spec.dim, spec.dim))
    out[1:, 1:] = spec.j_at(point[1:])
    return out


def space_form_warped_curvature(
    spec: WarpedProductSpec,
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
    dt-component.
    """
    if spec.space_form_c is None:
        raise ValueError(f"{spec.label}: fiber is not declared as a holomorphic statistical space form")
    point = np.asarray(point, dtype=float)
    c = float(spec.space_form_c)
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
# Almost contact frame, exterior calculus, classification
# ---------------------------------------------------------------------------


def frame_invariant_residual(spec: WarpedProductSpec, point: Array) -> float:
    """Worst violation of the almost-contact-metric frame identities.

    phi xi = 0, eta o phi = 0, phi^2 = -Id + eta (x) xi,
    <phi u, phi v> = <u,v> - eta(u) eta(v).
    """
    point = np.asarray(point, dtype=float)
    d = spec.dim
    g = warped_metric(spec, point)
    phi = phi_matrix(spec, point)
    xi = np.zeros(d)
    xi[0] = 1.0
    eta = np.zeros(d)
    eta[0] = 1.0
    res = [
        float(np.max(np.abs(phi @ xi))),
        float(np.max(np.abs(eta @ phi))),
        float(np.max(np.abs(phi @ phi + np.eye(d) - np.outer(xi, eta)))),
        float(np.max(np.abs(phi.T @ g @ phi - g + np.outer(eta, eta)))),
    ]
    return max(res)


def fundamental_two_form(spec: WarpedProductSpec, point: Array) -> Array:
    """Phi_ab = <phi d_a, d_b> on the total chart."""
    return phi_matrix(spec, point).T @ warped_metric(spec, point)


def fiber_fundamental_form(spec: WarpedProductSpec, fiber_point: Array) -> Array:
    """Omega_ab = g_N(J d_a, d_b) on the fiber."""
    fiber_point = np.asarray(fiber_point, dtype=float)
    g_n = np.asarray(spec.fiber.metric(fiber_point), dtype=float)
    return spec.j_at(fiber_point).T @ g_n


def exterior_derivative_2form(dw: Array) -> Array:
    """d of a two-form from its partials dw[a,b,c] = d_a w_bc.

    (dw)_abc = d_a w_bc - d_b w_ac + d_c w_ab on coordinate triples.
    """
    return dw - np.einsum("bac->abc", dw) + np.einsum("cab->abc", dw)


def _d_phi_and_omega(spec: WarpedProductSpec, point: Array) -> tuple[Array, Array]:
    """Coordinate dPhi on the total chart and dOmega on the fiber at ``point``."""
    d_phi = exterior_derivative_2form(partials(lambda x: fundamental_two_form(spec, x), point, DEFAULT_FD_STEP))
    d_omega = exterior_derivative_2form(
        partials(lambda xf: fiber_fundamental_form(spec, xf), point[1:], DEFAULT_FD_STEP)
    )
    return d_phi, d_omega


def wedge_eta_form(two_form_total: Array) -> Array:
    """(eta ^ w)_abc = eta_a w_bc - eta_b w_ac + eta_c w_ab with eta = dt."""
    d = two_form_total.shape[0]
    eta = np.zeros(d)
    eta[0] = 1.0
    return (
        np.einsum("a,bc->abc", eta, two_form_total)
        - np.einsum("b,ac->abc", eta, two_form_total)
        + np.einsum("c,ab->abc", eta, two_form_total)
    )


def lift_fiber_three_form(fiber_form: Array, total_dim: int) -> Array:
    out = np.zeros((total_dim,) * 3)
    out[1:, 1:, 1:] = fiber_form
    return out


@dataclass(frozen=True)
class ContactClassification:
    """Classification record at a sample point.

    ``alpha`` is the reported Kenmotsu coefficient -f'/f; the two-form
    identity itself holds with the opposite sign, dPhi = f^2 dOmega - 2 alpha
    eta^Phi, which is what ``d_phi_residual`` (without the dOmega term) and
    ``contact_identity_residual`` (with it) are measured against.
    """

    alpha: float
    d_eta_residual: float
    d_phi_residual: float
    contact_identity_residual: float
    d_omega_residual: float
    frame_residual: float
    structure_tag: str


def contact_classification(
    spec: WarpedProductSpec,
    point: Array,
    tol: float = 1e-8,
    frame_tol: float = 1e-9,
) -> ContactClassification:
    point = np.asarray(point, dtype=float)
    frame_res = frame_invariant_residual(spec, point)
    if frame_res > frame_tol:
        raise ValueError(f"contact frame invariants violated (residual {frame_res:.3e})")
    f, fp, _ = spec.warping.at(point[0])
    kappa = fp / f  # working coefficient; reported alpha is its negative
    # eta = dt has constant components, so its coordinate d vanishes identically
    d_eta = 0.0
    d_phi, d_omega_fiber = _d_phi_and_omega(spec, point)
    d_omega = lift_fiber_three_form(d_omega_fiber, spec.dim)
    wedge = wedge_eta_form(fundamental_two_form(spec, point))

    d_phi_residual = float(np.max(np.abs(d_phi - 2.0 * kappa * wedge)))
    contact_identity_residual = float(np.max(np.abs(d_phi - f * f * d_omega - 2.0 * kappa * wedge)))
    d_omega_residual = float(np.max(np.abs(d_omega_fiber)))

    if d_eta <= tol and d_phi_residual <= tol:
        tag = "almost cosymplectic" if abs(kappa) <= 1e-12 else "almost alpha-kenmotsu"
    else:
        tag = "unclassified"
    return ContactClassification(
        alpha=-kappa if kappa != 0.0 else 0.0,
        d_eta_residual=d_eta,
        d_phi_residual=d_phi_residual,
        contact_identity_residual=contact_identity_residual,
        d_omega_residual=d_omega_residual,
        frame_residual=frame_res,
        structure_tag=tag,
    )


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
    gam = connection_at(chart, "nabla", point)
    gam_star = connection_at(chart, "nabla_star", point)
    gam0 = levi_civita(chart, point)
    k = gam - gam0

    def w_field(x: Array) -> Array:
        return np.asarray(t_field(x), dtype=float).T @ np.asarray(chart.metric(x), dtype=float)

    w = t.T @ g
    dw = partials(w_field, point, DEFAULT_FD_STEP)
    d_t = partials(t_field, point, DEFAULT_FD_STEP)

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
    d_phi = partials(lambda x: phi_matrix(spec, x), point, DEFAULT_FD_STEP)
    nx_phi_y = _nabla_endomorphism(phi, d_phi, connection_at(chart, "nabla", point), X, Y)
    xf = point[1:]
    nxj_fiber = _nabla_endomorphism(
        spec.j_at(xf), partials(spec.j_at, xf, DEFAULT_FD_STEP),
        connection_at(spec.fiber, "nabla", xf), X[1:], Y[1:],
    )
    predicted = embed_fiber_vector(nxj_fiber) - (fp / f) * Y[0] * (phi @ X)
    predicted[0] -= (fp / f) * float(X @ warped_metric(spec, point) @ phi @ Y)
    return float(np.max(np.abs(nx_phi_y - predicted)))


# ---------------------------------------------------------------------------
# Warped-Kenmotsu equivalence check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KenmotsuCheck:
    fiber_almost_kaehler: bool
    total_almost_kenmotsu: bool
    consistent: bool
    k_tilde_xi_residual: float
    details: dict
    points: Array
    classifications: tuple[ContactClassification, ...]


def kenmotsu_theorem_check(
    spec: WarpedProductSpec,
    samples: int = 5,
    seed: int = 23,
    tol: float = 1e-8,
) -> KenmotsuCheck:
    """Evaluate both sides of the warped-Kenmotsu equivalence numerically.

    Fiber side: J compatible with g_N and dOmega = 0.  Total side: contact
    frame invariants hold, d eta = 0, and dPhi = 2 (f'/f) eta ^ Phi; both at
    ``KENMOTSU_TOL``.  Also verifies the difference-tensor identities
    K~_X xi = K~_xi xi = 0 and K~_X Y = K_X Y on fiber probes (these hold for
    every warp).  Each point is evaluated once, by ``contact_classification``
    with tag tolerance ``tol`` and no frame gate; the records are returned.
    """
    rng = np.random.default_rng(seed)
    pts = sample_warped_points(spec, samples, rng)
    worst_fiber = 0.0
    worst_total = 0.0
    k_xi_res = 0.0
    k_fiber_res = 0.0
    chart = build_warped_chart(spec, validate_fiber=False)
    classifications = tuple(contact_classification(spec, p, tol=tol, frame_tol=math.inf) for p in pts)
    for p, cls in zip(pts, classifications):
        xf = p[1:]
        compat = check_almost_complex(spec.fiber.metric(xf), spec.j_at(xf), tol=math.inf)
        worst_fiber = max(worst_fiber, compat, cls.d_omega_residual)
        worst_total = max(worst_total, cls.frame_residual, cls.d_phi_residual)

        k_tilde = difference_tensor(chart, p)
        k_xi_res = max(
            k_xi_res,
            float(np.max(np.abs(k_tilde[:, :, 0]))),
            float(np.max(np.abs(k_tilde[:, 0, :]))),
        )
        k_fiber = difference_tensor(spec.fiber, xf)
        k_fiber_res = max(k_fiber_res, float(np.max(np.abs(k_tilde[1:, 1:, 1:] - k_fiber))))

    fiber_ok = worst_fiber <= KENMOTSU_TOL
    total_ok = worst_total <= KENMOTSU_TOL
    return KenmotsuCheck(
        fiber_almost_kaehler=fiber_ok,
        total_almost_kenmotsu=total_ok,
        consistent=(fiber_ok == total_ok),
        k_tilde_xi_residual=k_xi_res,
        details={
            "worst_fiber_residual": worst_fiber,
            "worst_total_residual": worst_total,
            "k_tilde_fiber_match_residual": k_fiber_res,
            "samples": int(samples),
        },
        points=pts,
        classifications=classifications,
    )
