"""Single-point chart fields of the built-in charts, written one point at a time.

These are the definitions the package used before its chart fields took
stacks: each field takes one point and returns its value there, the warping
is evaluated on Python floats by ``math``, and the warped-product blocks are filled with
per-index loops.  ``tests/test_stacked_fields.py`` evaluates them point by
point and requires the package's stacked fields to give the same doubles.
The module name has no ``test_`` prefix, so pytest imports it without
collecting it.
"""

from __future__ import annotations

import math

import numpy as np

FIELDS = ("metric", "gamma", "gamma_star", "metric_partial", "gamma_partial", "gamma_star_partial")


def _const(value):
    arr = np.asarray(value, dtype=float)
    return lambda x: arr.copy()


def flat_fields(dim: int) -> dict:
    """Fields of ``trivial_chart(dim)``."""
    zeros3, zeros4 = np.zeros((dim,) * 3), np.zeros((dim,) * 4)
    return {"metric": _const(np.eye(dim)), "gamma": _const(zeros3), "gamma_star": _const(zeros3),
            "metric_partial": _const(zeros3), "gamma_partial": _const(zeros4), "gamma_star_partial": _const(zeros4)}


def r2_fields() -> dict:
    """Fields of ``builtin_r2_example()``."""
    gam = np.zeros((2, 2, 2))
    gam[1, 0, 0] = gam[0, 0, 1] = gam[0, 1, 0] = 1.0
    return {**flat_fields(2), "gamma": _const(gam), "gamma_star": _const(-gam)}


FIBERS = {"flat-trivial-2d": flat_fields(2), "flat-trivial-4d": flat_fields(4), "r2-example": r2_fields()}


def math_warping(warping) -> tuple:
    """f, f', f'' and f''' of a built-in warping, found by its name, as ``math`` functions of one Python float."""
    if warping.name.startswith("const "):
        value = float(warping.name.removeprefix("const "))
        return (lambda t: value, lambda t: 0.0, lambda t: 0.0, lambda t: 0.0)
    return {"exp(t)": (math.exp,) * 4, "cosh(t)": (math.cosh, math.sinh) * 2}[warping.name]


def warping_at(warping, t: float) -> tuple[float, float, float]:
    """(f, f', f'') of a built-in warping at one t, as Python floats by ``math_warping``; a non-positive f raises."""
    fns = math_warping(warping)
    f = fns[0](t)
    if not (math.isfinite(f) and f > 0.0):
        raise ValueError(f"warping {warping.name} must stay positive, got f({t}) = {f}")
    return f, fns[1](t), fns[2](t)


def warping_stack(warping, t) -> tuple:
    """(f, f', f'') at each t of an array of any shape, each an array of that shape.

    ``warping_at`` runs t by t in array order, so f, f' and f'' of one t are
    evaluated before f of the next, and the first non-positive f is named.
    """
    t = np.asarray(t, dtype=float)
    values = [warping_at(warping, s) for s in t.ravel().tolist()]
    return tuple(np.array(values).T.reshape((3,) + t.shape))


def warped_fields(spec) -> dict:
    """Fields of ``build_warped_chart(spec)`` for a spec whose fiber is in ``FIBERS``."""
    fiber = FIBERS[spec.fiber.label]
    d = spec.fiber.dim + 1
    w = spec.warping

    def metric(x):
        f, _, _ = warping_at(w, x[0])
        g = np.zeros((d, d))
        g[0, 0] = 1.0
        g[1:, 1:] = f * f * fiber["metric"](x[1:])
        return g

    def gamma_from(name):
        def gamma(x):
            f, fp, _ = warping_at(w, x[0])
            out = np.zeros((d, d, d))
            out[1:, 1:, 1:] = fiber[name](x[1:])
            for a in range(1, d):
                out[a, 0, a] = out[a, a, 0] = fp / f
            out[0, 1:, 1:] = -f * fp * fiber["metric"](x[1:])
            return out

        return gamma

    def metric_partial(x):
        f, fp, _ = warping_at(w, x[0])
        out = np.zeros((d, d, d))
        out[0, 1:, 1:] = 2.0 * f * fp * fiber["metric"](x[1:])
        out[1:, 1:, 1:] = f * f * fiber["metric_partial"](x[1:])
        return out

    def gamma_partial_from(name):
        def gamma_partial(x):
            f, fp, fpp = warping_at(w, x[0])
            out = np.zeros((d, d, d, d))
            d_ratio = fpp / f - (fp / f) ** 2
            for a in range(1, d):
                out[0, a, 0, a] = out[0, a, a, 0] = d_ratio
            out[0, 0, 1:, 1:] = -(fp * fp + f * fpp) * fiber["metric"](x[1:])
            out[1:, 1:, 1:, 1:] = fiber[name](x[1:])
            out[1:, 0, 1:, 1:] = -f * fp * fiber["metric_partial"](x[1:])
            return out

        return gamma_partial

    return {"metric": metric, "gamma": gamma_from("gamma"), "gamma_star": gamma_from("gamma_star"),
            "metric_partial": metric_partial, "gamma_partial": gamma_partial_from("gamma_partial"),
            "gamma_star_partial": gamma_partial_from("gamma_star_partial")}


def perturbed(fields: dict, eps: float) -> dict:
    """``fields`` with the primal coefficient Gamma^0_00 shifted by ``eps``, as ``cli._perturbed_chart`` does."""
    base = fields["gamma"]

    def gamma(x):
        g = np.array(base(x), dtype=float, copy=True)
        g[0, 0, 0] += eps
        return g

    return {**fields, "gamma": gamma}


def twisted_j(epsilon: float):
    """J of ``twisted_j_spec(epsilon, ...)`` at one fiber point of R^4."""
    j0 = np.zeros((4, 4))
    j0[1, 0] = j0[3, 2] = 1.0
    j0[0, 1] = j0[2, 3] = -1.0

    def j_field(x):
        theta = epsilon * (0.5 + float(x[3]))
        p = np.eye(4)
        c, s = math.cos(theta), math.sin(theta)
        p[1, 1], p[1, 2], p[2, 1], p[2, 2] = c, -s, s, c
        return p @ j0 @ p.T

    return j_field
