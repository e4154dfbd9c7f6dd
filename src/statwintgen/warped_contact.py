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

Sign conventions: Omega(X,Y) = g(JX, Y) on the fiber, matching Phi's slot
order; with these the exact two-form identity of the warp is
dPhi = f^2 dOmega - 2 alpha eta ^ Phi for the reported alpha = -f'/f.

Every function works on (N, 2n+1) stacks of points that the caller draws (from
``default_sample_box``), one value or record per point;
the closed forms give all eight ``CLOSED_FORM_CASES`` from one evaluation of f and g_N.
The classification evaluates f, g_N and J once, on the points' complex-step jet,
which gives the frame at the points, dPhi, and dOmega from its fiber-axis partials.
Every field here, the warping's f, f' and f'' included, is a holomorphic numpy
function of a whole stack that keeps the dtype of its points, so it runs on a
jet's complex rows too; the fiber's fields and J are called through the one
checked evaluator ``statistical_geometry._field``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .statistical_geometry import (
    DualisticChart,
    _bilinear,
    _field,
    check_almost_complex,
    constant_field,
    curvature,
    difference_tensor,
    trivial_chart,
    builtin_r2_example,
)
from .tensor_core import jet, jet_partials

Array = np.ndarray

CLOSED_FORM_CASES = ("a", "b", "c", "d", "a*", "b*", "c*", "d*")
KENMOTSU_TOL = 1e-12


class Warping(NamedTuple):
    """Warping function t -> f(t) with analytic first and second derivatives.

    f, f' and f'' follow the field rule of ``DualisticChart``: each is a numpy
    function of an array of heights t of any shape, real or complex (a jet's),
    holomorphic in t, with one value per t in its dtype.
    """

    f: Callable[[Array], Array]
    f_prime: Callable[[Array], Array]
    f_double_prime: Callable[[Array], Array]
    name: str = "f"

    def at(self, t, derivatives: int = 2) -> tuple[Array, ...]:
        """(f, f', f'')[:derivatives + 1] at each t of an array of any shape, each of that shape in t's dtype.

        Each function is called once, on the whole stack cast to complex: a real t then gets the real parts
        of libm's complex routines, which are libm's real values (``math.exp``'s, not numpy's real loop's),
        and a jet's t + i e gets f(t) + i e f'(t), f' and f'' likewise, as each is holomorphic.  The first t
        whose f is not positive (or not finite) is reported before f' is called."""
        z = np.asarray(t, dtype=complex)
        f = self.f(z)
        ok = (0.0 < f.real) & (f.real < math.inf)  # False at a NaN too
        if not ok.all():
            i = np.argmin(ok)  # the first bad t
            raise ValueError(f"warping {self.name} must stay positive, "
                             f"got f({float(z.real.flat[i])}) = {float(f.real.flat[i])}")
        values = (f, *(fn(z) for fn in (self.f_prime, self.f_double_prime)[:derivatives]))
        return values if np.iscomplexobj(t) else tuple(v.real for v in values)


def exp_warping() -> Warping:
    return Warping(np.exp, np.exp, np.exp, name="exp(t)")


def const_warping(value: float) -> Warping:
    if value <= 0.0:
        raise ValueError("constant warping must be positive")
    return Warping(partial(np.full_like, fill_value=value), np.zeros_like, np.zeros_like, name=f"const {value}")


def cosh_warping() -> Warping:
    return Warping(np.cosh, np.sinh, np.cosh, name="cosh(t)")


class WarpedProductSpec(NamedTuple):
    """Fiber chart + almost complex field + warping data for R x_f N.

    ``complex_structure`` is stacked like the fiber's fields: fiber points
    (N, 2n) give the (N, 2n, 2n) stack of J.
    """

    fiber: DualisticChart
    complex_structure: Callable[[Array], Array]
    warping: Warping
    label: str = "warped product"

    @property
    def dim(self) -> int:
        return self.fiber.dim + 1

    def j_at(self, fiber_point: Array) -> Array:
        """J at a fiber point (2n,) or at each point of a stack (..., 2n), in their dtype, one J per point."""
        return _field(self, "complex_structure", fiber_point)


def standard_complex_structure(n: int) -> Array:
    """Block-diagonal J with 2x2 rotation blocks: J d_{2k} = d_{2k+1}."""
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = np.zeros((2 * n, 2 * n))
    for k in range(n):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = j2
    return out


def flat_kaehler_spec(n: int, warping: Warping) -> WarpedProductSpec:
    """Trivial flat fiber R^{2n} with the constant standard J."""
    j = constant_field(standard_complex_structure(n))
    return WarpedProductSpec(fiber=trivial_chart(2 * n), complex_structure=j, warping=warping,
                             label=f"R x_{warping.name} C^{n} (flat)")


def twisted_j_spec(epsilon: float, warping: Warping) -> WarpedProductSpec:
    """Flat R^4 fiber with a position-twisted compatible J, so dOmega != 0.

    J(x) = P(theta) J0 P(theta)^T with theta = epsilon (1/2 + x_3) and P a
    rotation in the (e1, e2) plane; J stays compatible (J^2 = -I, orthogonal)
    but its fundamental form is no longer closed.  Negative test case for the
    warped-Kenmotsu equivalence.
    """
    j0 = standard_complex_structure(2)

    def j_field(x: Array) -> Array:
        theta = epsilon * (0.5 + x[..., 3])
        c, s = np.cos(theta), np.sin(theta)
        p = np.tile(np.eye(4, dtype=theta.dtype), theta.shape + (1, 1))
        p[..., 1, 1], p[..., 1, 2], p[..., 2, 1], p[..., 2, 2] = c, -s, s, c
        return p @ j0 @ np.swapaxes(p, -1, -2)

    return WarpedProductSpec(fiber=trivial_chart(4), complex_structure=j_field, warping=warping,
                             label=f"twisted-J fiber (eps={epsilon})")


def builtin_h3_example() -> WarpedProductSpec:
    """R x_{e^t} (constant-curvature -1 plane): warped model of hyperbolic 3-space."""
    j = constant_field(standard_complex_structure(1))
    return WarpedProductSpec(fiber=builtin_r2_example(), complex_structure=j, warping=exp_warping(), label="h3-example")


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
    """Fiber vectors (..., 2n) as total-chart vectors (..., 2n+1) with dt-component 0."""
    v = np.asarray(v, dtype=float)
    return np.concatenate((np.zeros(v.shape[:-1] + (1,)), v), axis=-1)


def _warped_block(f: Array, g_n: Array) -> Array:
    """dt^2 + f^2 g_N from f (...) and the fiber metric (..., 2n, 2n) at the same points."""
    g = np.zeros(f.shape + (g_n.shape[-1] + 1,) * 2, dtype=g_n.dtype)
    g[..., 0, 0] = 1.0
    g[..., 1:, 1:] = (f * f)[..., None, None] * g_n
    return g


def warped_metric(spec: WarpedProductSpec, point: Array) -> Array:
    """dt^2 + f(t)^2 g_N at each point of a (..., 2n+1) stack."""
    (f,) = spec.warping.at(point[..., 0], 0)
    return _warped_block(f, _field(spec.fiber, "metric", point[..., 1:]))


def default_sample_box(spec_dim: int) -> list[tuple[float, float]]:
    """Per-axis (low, high) bounds of the sample points: t restricted to [-1/2, 1/2] to keep e^{2t} well conditioned."""
    return [(-0.5, 0.5)] + [(-1.0, 1.0)] * (spec_dim - 1)


def build_warped_chart(spec: WarpedProductSpec) -> DualisticChart:
    """Assemble the (2n+1)-dim dualistic chart of R x_f N, with fields stacked like the fiber's.

    The fiber is taken as given: its dualistic axioms are not checked here.
    """
    fiber = spec.fiber
    d = spec.dim
    w = spec.warping
    fiber_axes = np.arange(1, d)  # index arrays of the (a, 0, a) and (a, a, 0) entries, a >= 1

    def _gamma_from(fiber_gamma: str) -> Callable[[Array], Array]:
        def gamma(x: Array) -> Array:
            f, fp = w.at(x[..., 0], 1)
            out = np.zeros(x.shape[:-1] + (d, d, d), dtype=x.dtype)
            out[..., 1:, 1:, 1:] = _field(fiber, fiber_gamma, x[..., 1:])
            out[..., fiber_axes, 0, fiber_axes] = out[..., fiber_axes, fiber_axes, 0] = (fp / f)[..., None]
            out[..., 0, 1:, 1:] = (-f * fp)[..., None, None] * _field(fiber, "metric", x[..., 1:])
            return out

        return gamma

    def metric_partial(x: Array) -> Array:
        f, fp = w.at(x[..., 0], 1)
        out = np.zeros(x.shape[:-1] + (d, d, d), dtype=x.dtype)
        out[..., 0, 1:, 1:] = (2.0 * f * fp)[..., None, None] * _field(fiber, "metric", x[..., 1:])
        out[..., 1:, 1:, 1:] = (f * f)[..., None, None, None] * _field(fiber, "metric_partial", x[..., 1:])
        return out

    return DualisticChart(
        dim=d,
        metric=lambda x: warped_metric(spec, x),
        gamma=_gamma_from("gamma"),
        gamma_star=_gamma_from("gamma_star"),
        metric_partial=metric_partial,
        label=spec.label,
    )


def closed_form_probes(U: Array, V: Array, W: Array) -> dict[str, tuple[Array, Array, Array]]:
    """Total-chart probes (X, Y, Z) whose R(X,Y)Z ``warped_curvature_closed_form`` gives, by case.

    a: (V, dt, dt)   b: (V, U, dt)   c: (dt, V, W)   d: (V, W, U), with the
    (N, 2n) fiber probes embedded; a starred case uses the probes of its base case.
    """
    u, v, w = (embed_fiber_vector(a) for a in (U, V, W))
    dt = np.zeros(u.shape)
    dt[..., 0] = 1.0
    base = {"a": (v, dt, dt), "b": (v, u, dt), "c": (dt, v, w), "d": (v, w, u)}
    return {case: base[case[0]] for case in CLOSED_FORM_CASES}


def warped_curvature_closed_form(
    spec: WarpedProductSpec, points: Array, U: Array, V: Array, W: Array
) -> dict[str, Array]:
    """Closed-form curvature of the warp for each of ``CLOSED_FORM_CASES``; probes are fiber vectors.

      a : R(V, dt) dt = -(f''/f) V
      b : R(V, U) dt = 0
      c : R(dt, V) W = -(f''/f) <V,W> dt
      d : R(V, W) U = R^N(V,W)U - (f'/f)^2 [<W,U> V - <V,U> W]

    Starred cases use the dual fiber curvature in (d*); <.,.> is the warped
    metric f^2 g_N on fiber vectors.  Over a stack of points (N, 2n+1), with
    (N, 2n) probes, each case gives total-chart components, one row per point.
    """
    points = np.asarray(points, dtype=float)
    u, v, wv = (np.asarray(a, dtype=float) for a in (U, V, W))
    xf = points[:, 1:]
    f, fp, fpp = spec.warping.at(points[:, 0])
    g_n = _field(spec.fiber, "metric", xf)
    a = embed_fiber_vector(-(fpp / f)[..., None] * v)
    b = np.zeros(points.shape)
    warped_ip = (f * f)[..., None] * _bilinear(v, g_n, wv)[..., None]
    c = np.concatenate((-(fpp / f)[..., None] * warped_ip, np.zeros(xf.shape)), axis=-1)
    warp = ((fp / f) ** 2 * (f * f))[..., None] * (
        _bilinear(wv, g_n, u)[..., None] * v - _bilinear(v, g_n, u)[..., None] * wv)
    d, d_star = (embed_fiber_vector(curvature(spec.fiber, which, xf).vector(v, wv, u) - warp)
                 for which in ("nabla", "nabla_star"))
    return {"a": a, "b": b, "c": c, "d": d, "a*": a, "b*": b, "c*": c, "d*": d_star}


# ---------------------------------------------------------------------------
# Almost contact frame, exterior calculus, classification
# ---------------------------------------------------------------------------


def exterior_derivative_2form(dw: Array) -> Array:
    """d of a two-form from its partials dw[..., a,b,c] = d_a w_bc.

    (dw)_abc = d_a w_bc - d_b w_ac + d_c w_ab on coordinate triples.
    """
    return dw - np.einsum("...bac->...abc", dw) + np.einsum("...cab->...abc", dw)


def wedge_eta_form(two_form_total: Array) -> Array:
    """(eta ^ w)_abc = eta_a w_bc - eta_b w_ac + eta_c w_ab with eta = dt; per form of a stack."""
    eta = np.eye(two_form_total.shape[-1])[0]
    return (
        np.einsum("a,...bc->...abc", eta, two_form_total)
        - np.einsum("b,...ac->...abc", eta, two_form_total)
        + np.einsum("c,...ab->...abc", eta, two_form_total)
    )


class ContactClassification(NamedTuple):
    """Classification record at a sample point.

    ``alpha`` is the reported Kenmotsu coefficient -f'/f; the two-form
    identity itself holds with the opposite sign, dPhi = f^2 dOmega - 2 alpha
    eta^Phi, which is what ``d_phi_residual`` (without the dOmega term) and
    ``contact_identity_residual`` (with it) are measured against.
    ``almost_complex_residual`` is the fiber's: J^2 = -Id and g_N(J., J.) =
    g_N at the point's fiber coordinates.
    """

    alpha: float
    d_eta_residual: float
    d_phi_residual: float
    contact_identity_residual: float
    d_omega_residual: float
    frame_residual: float
    almost_complex_residual: float
    structure_tag: str


def contact_classification(
    spec: WarpedProductSpec, points: Array, tol: float = 1e-8, frame_tol: float = 1e-9
) -> tuple[ContactClassification, ...]:
    """Classification record at each of the (N, 2n+1) points, evaluated as one stack.

    f, g_N and J are evaluated once, on the complex-step jet of the points, and f' is the complex step
    of f.  The frame at the points is read off the real parts of the jet's point rows, dPhi comes from
    Phi = phi^T g on the whole jet, and dOmega from the fiber-axis partials of Omega = J^T g_N on the
    same jet, whose t-shifted rows leave the fiber coordinates real.  A frame residual above
    ``frame_tol`` raises at the first such point.
    """
    points = np.asarray(points, dtype=float)
    count, d = len(points), spec.dim
    x = jet(points)
    (f,) = spec.warping.at(x[:, 0], 0)
    g_n = _field(spec.fiber, "metric", x[:, 1:])
    j = spec.j_at(x[:, 1:])
    g = _warped_block(f, g_n)
    phi = np.zeros(g.shape, dtype=complex)  # phi(dt) = 0, phi(X) = JX
    phi[:, 1:, 1:] = j
    phi_form, d_phi = jet_partials(np.swapaxes(phi, -1, -2) @ g, count)
    d_phi = exterior_derivative_2form(d_phi)
    d_omega_fiber = exterior_derivative_2form(jet_partials(np.swapaxes(j, -1, -2) @ g_n, count)[1][:, 1:])
    fp = jet_partials(f, count)[1][:, 0]  # f' itself: Im f on the t-shift row is JET_STEP f'
    f, g_n, j, g, phi = (a[:: 1 + d].real for a in (f, g_n, j, g, phi))  # the jet's point rows

    # phi xi = 0, eta o phi = 0, phi^2 = -Id + eta (x) xi, <phi u, phi v> = <u,v> - eta(u) eta(v)
    xi = eta = np.eye(d)[0]
    frame_res = np.max(np.stack([
        np.max(np.abs(phi @ xi), axis=-1),
        np.max(np.abs(eta @ phi), axis=-1),
        np.max(np.abs(phi @ phi + np.eye(d) - np.outer(xi, eta)), axis=(-2, -1)),
        np.max(np.abs(np.swapaxes(phi, -1, -2) @ g @ phi - g + np.outer(eta, eta)), axis=(-2, -1)),
    ]), axis=0)
    for res in frame_res:
        if res > frame_tol:
            raise ValueError(f"contact frame invariants violated (residual {res:.3e})")
    kappa = fp / f  # working coefficient; reported alpha is its negative
    # eta = dt has constant components, so its coordinate d vanishes identically
    d_eta = 0.0
    d_omega = np.zeros(d_phi.shape)
    d_omega[:, 1:, 1:, 1:] = d_omega_fiber
    wedge = wedge_eta_form(phi_form)

    k, ff = (kappa[:, None, None, None], (f * f)[:, None, None, None])
    axes = (1, 2, 3)
    d_phi_residual = np.max(np.abs(d_phi - 2.0 * k * wedge), axis=axes)
    contact_identity_residual = np.max(np.abs(d_phi - ff * d_omega - 2.0 * k * wedge), axis=axes)
    d_omega_residual = np.max(np.abs(d_omega_fiber), axis=axes)

    records = []
    columns = (kappa, d_phi_residual, contact_identity_residual, d_omega_residual, frame_res,
               check_almost_complex(g_n, j))
    for kap, phi_res, identity_res, omega_res, frame, complex_res in zip(*(c.tolist() for c in columns)):
        tag = "unclassified"
        if d_eta <= tol and phi_res <= tol:
            tag = "almost cosymplectic" if abs(kap) <= 1e-12 else "almost alpha-kenmotsu"
        alpha = -kap if kap != 0.0 else 0.0
        records.append(ContactClassification(alpha, d_eta, phi_res, identity_res, omega_res, frame, complex_res, tag))
    return tuple(records)


# ---------------------------------------------------------------------------
# Warped-Kenmotsu equivalence check
# ---------------------------------------------------------------------------


class KenmotsuCheck(NamedTuple):
    fiber_almost_kaehler: bool
    total_almost_kenmotsu: bool
    consistent: bool
    k_tilde_xi_residual: float
    classifications: tuple[ContactClassification, ...]


def kenmotsu_theorem_check(spec: WarpedProductSpec, points: Array, tol: float = 1e-8) -> KenmotsuCheck:
    """Evaluate both sides of the warped-Kenmotsu equivalence numerically at an (N, 2n+1) stack of points.

    Fiber side: J compatible with g_N and dOmega = 0.  Total side: contact
    frame invariants hold, d eta = 0, and dPhi = 2 (f'/f) eta ^ Phi; both at
    ``KENMOTSU_TOL``.  Also measures the difference-tensor identities
    K~_X xi = K~_xi xi = 0, which hold for every warp.  Each point is
    classified once, all points as one stack, with tag tolerance ``tol`` and
    no frame gate; the records are returned in point order.  A non-finite
    residual has no verdict: it raises OverflowError.
    """
    classifications = contact_classification(spec, points, tol, math.inf)
    fiber_res = [r for cls in classifications for r in (cls.almost_complex_residual, cls.d_omega_residual)]
    total_res = [r for cls in classifications for r in (cls.frame_residual, cls.d_phi_residual)]
    k_tilde = difference_tensor(build_warped_chart(spec), points)
    k_xi_res = [np.abs(k_tilde[:, :, :, 0]), np.abs(k_tilde[:, :, 0, :])]
    # np.max keeps a NaN, which Python's max(0.0, nan) would drop
    worst_fiber, worst_total, k_xi = (float(np.max(r, initial=0.0)) for r in (fiber_res, total_res, k_xi_res))
    if not all(map(math.isfinite, (worst_fiber, worst_total, k_xi))):
        raise OverflowError(f"non-finite residual on {spec.label}")
    fiber_ok = worst_fiber <= KENMOTSU_TOL
    total_ok = worst_total <= KENMOTSU_TOL
    return KenmotsuCheck(fiber_almost_kaehler=fiber_ok, total_almost_kenmotsu=total_ok,
                         consistent=(fiber_ok == total_ok), k_tilde_xi_residual=k_xi,
                         classifications=classifications)
