"""Pointwise algebraic model of a Legendrian submanifold of R x_f N(c).

An instance holds the frame-level data of an n-dimensional Legendrian
submanifold at a point: the fiber curvature constant c, the warping values
f, f', and the two second fundamental forms h, h* expressed in the adapted
frames {e_1..e_n} (tangent) and {u_1 = phi e_1, ..., u_n = phi e_n,
u_{n+1} = xi} (normal).  Arrays are zero-based: ``h[alpha, i, j]`` is
<h(e_i, e_j), u_{alpha+1}>, the last normal slot (alpha = n) being xi.

The xi-slices are forced to -(f'/f) I by the structure of the warp (the
xi-shape operators of both connections are that multiple of the identity),
so they are a validity constraint rather than free data.

Each normalized curvature scalar is computed by one route: rho in closed form
from mean-curvature / traceless-norm data, rho_perp as a sum of squared
brackets of the mean shape operators over phi-pairs.  The definitional frame
sums over sectional curvatures and normal curvature entries live with the
tests (``tests/frame_oracle.py``), which compare this module against them.

Instances are immutable (read-only arrays, finite fields, n >= 2), so their
derived data -- the default-tolerance violation list, ``MeanData`` and
``ShapeOperators`` -- is computed once and memoized on the instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

VALIDATE_TOL = 1e-12

Array = np.ndarray


@dataclass(frozen=True)
class LegendrianPointInstance:
    n: int
    c: float
    f_val: float
    f_prime: float
    h: Array
    h_star: Array

    def __post_init__(self):
        h = np.array(self.h, dtype=float, copy=True)
        h_star = np.array(self.h_star, dtype=float, copy=True)
        h.flags.writeable = False
        h_star.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "h_star", h_star)
        if self.n < 2:
            raise ValueError("n must be >= 2")
        shape = (self.n + 1, self.n, self.n)
        if self.h.shape != shape or self.h_star.shape != shape:
            raise ValueError(f"h and h_star must have shape {shape}")
        if not all(np.isfinite(x).all() for x in (self.c, self.f_val, self.f_prime, h, h_star)):
            raise ValueError("c, f, f_prime, h and h_star must be finite")
        if self.f_val <= 0.0:
            raise ValueError("f_val must be positive")

    # Derived data, computed on first use (module functions bound late).
    _violations = cached_property(lambda self: tuple(_find_violations(self)))
    _mean_data = cached_property(lambda self: _compute_mean_data(self))
    _shape_operators = cached_property(lambda self: _compute_shape_operators(self))

    def to_dict(self) -> dict:
        return {
            "n": int(self.n),
            "c": float(self.c),
            "f": float(self.f_val),
            "f_prime": float(self.f_prime),
            "h": self.h.tolist(),
            "h_star": self.h_star.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(data: dict) -> "LegendrianPointInstance":
        for key in ("n", "c", "f", "f_prime", "h", "h_star"):
            if key not in data:
                raise ValueError(f"instance is missing key {key!r}")
        return LegendrianPointInstance(
            n=int(data["n"]),
            c=float(data["c"]),
            f_val=float(data["f"]),
            f_prime=float(data["f_prime"]),
            h=np.asarray(data["h"], dtype=float),
            h_star=np.asarray(data["h_star"], dtype=float),
        )

    @staticmethod
    def from_json(text: str) -> "LegendrianPointInstance":
        return LegendrianPointInstance.from_dict(json.loads(text))


def umbilic_instance(n: int = 2, c: float = 0.0, f_val: float = 1.0, f_prime: float = 1.0) -> LegendrianPointInstance:
    """phi-slices zero, xi-slices the forced -(f'/f) multiple of the identity."""
    h = np.zeros((n + 1, n, n))
    h[n] = -(f_prime / f_val) * np.eye(n)
    return LegendrianPointInstance(n=n, c=c, f_val=f_val, f_prime=f_prime, h=h, h_star=h.copy())


def validate(inst: LegendrianPointInstance) -> list[tuple[str, int, int, int]]:
    """Empty list when valid; else the violated (form, alpha, i, j) entries.

    Checks, to ``VALIDATE_TOL``, symmetry of every slice and the xi-slice
    constraint h[n][i][j] = -(f'/f) delta_ij for both forms.  The result is
    memoized on the instance; each call returns a fresh list.
    """
    return list(inst._violations)


def _find_violations(inst: LegendrianPointInstance) -> list[tuple[str, int, int, int]]:
    n = inst.n
    forms = np.stack((inst.h, inst.h_star))
    asym = np.triu(np.abs(forms - forms.swapaxes(-1, -2)) > VALIDATE_TOL, 1)
    xi_bad = np.abs(forms[:, n] - (-(inst.f_prime / inst.f_val)) * np.eye(n)) > VALIDATE_TOL
    if not (asym.any() or xi_bad.any()):
        return []
    violations: list[tuple[str, int, int, int]] = []
    for k, name in enumerate(("h", "h_star")):
        violations += [(name, int(a), int(i), int(j)) for a, i, j in zip(*np.nonzero(asym[k]))]
        violations += [(name, n, int(i), int(j)) for i, j in zip(*np.nonzero(xi_bad[k]))]
    return violations


def require_valid(inst: LegendrianPointInstance) -> None:
    violations = validate(inst)
    if violations:
        raise ValueError(f"invalid Legendrian instance: first violations {violations[:5]}")


@dataclass(frozen=True)
class MeanData:
    """Mean curvature vectors (normal coordinates) and all squared norms."""

    H: Array
    H_star: Array
    H0: Array
    norm_H_sq: float
    norm_Hstar_sq: float
    norm_H0_sq: float
    norm_tau_sq: float
    norm_taustar_sq: float
    norm_tau0_sq: float


def _traceless_norm_sq(form: Array, mean: Array, n: int) -> float:
    """||h - H g||^2, summed over every normal slot."""
    tau = form - mean[:, None, None] * np.eye(n)[None, :, :]
    return float(np.sum(tau * tau))


def means_and_traceless(inst: LegendrianPointInstance) -> MeanData:
    require_valid(inst)
    return inst._mean_data


def _compute_mean_data(inst: LegendrianPointInstance) -> MeanData:
    n = inst.n
    h, hs = inst.h, inst.h_star
    H = np.einsum("aii->a", h) / n
    Hs = np.einsum("aii->a", hs) / n
    h0 = 0.5 * (h + hs)
    means = np.stack((H, Hs, 0.5 * (H + Hs)))
    means.flags.writeable = False  # shared by every caller of means_and_traceless
    H, Hs, H0 = means
    return MeanData(
        H=H,
        H_star=Hs,
        H0=H0,
        norm_H_sq=float(H @ H),
        norm_Hstar_sq=float(Hs @ Hs),
        norm_H0_sq=float(H0 @ H0),
        norm_tau_sq=_traceless_norm_sq(h, H, n),
        norm_taustar_sq=_traceless_norm_sq(hs, Hs, n),
        norm_tau0_sq=_traceless_norm_sq(h0, H0, n),
    )


@dataclass(frozen=True)
class ShapeOperators:
    """Shape operators per normal direction and their traceless parts.

    A[alpha] is the operator of u_{alpha+1} for the primal connection (dual
    pairing: <h*(X,Y), u> = g(A_u X, Y), so A comes from the h* slices), and
    A_star[alpha] from the h slices; A0 is their mean.  S-variants subtract
    (trace/n) I and are exactly trace-free.
    """

    A: Array
    A_star: Array
    A0: Array
    S: Array
    S_star: Array
    S0: Array


def _traceless(ops: Array, n: int) -> Array:
    traces = np.einsum("aii->a", ops) / n
    return ops - traces[:, None, None] * np.eye(n)[None, :, :]


def shape_operators(inst: LegendrianPointInstance) -> ShapeOperators:
    require_valid(inst)
    return inst._shape_operators


def _compute_shape_operators(inst: LegendrianPointInstance) -> ShapeOperators:
    n = inst.n
    a, a_star = inst.h_star, inst.h
    a0 = 0.5 * (a + a_star)
    ops = np.stack((a, a_star, a0, _traceless(a, n), _traceless(a_star, n), _traceless(a0, n)))
    ops.flags.writeable = False  # shared by every caller of shape_operators
    return ShapeOperators(*ops)


@lru_cache(maxsize=32)
def _pairs(n: int) -> tuple[Array, Array]:
    """Read-only index arrays (i, j) of all pairs i < j < n."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def ambient_plane_curvature(inst: LegendrianPointInstance) -> float:
    """c/4f^2 - (f'/f)^2: ambient curvature of tangent planes of the warp."""
    return inst.c / (4.0 * inst.f_val**2) - (inst.f_prime / inst.f_val) ** 2


def rho_statistical(inst: LegendrianPointInstance) -> float:
    """Sum of K(e_i,e_j) + K*(e_i,e_j) over i < j, divided by n(n-1), in closed form."""
    require_valid(inst)
    n = inst.n
    m = means_and_traceless(inst)
    nn1 = n * (n - 1)
    return (
        ambient_plane_curvature(inst)
        + 2.0 * m.norm_H0_sq
        - (2.0 / nn1) * m.norm_tau0_sq
        - 0.5 * m.norm_H_sq
        + m.norm_tau_sq / (2.0 * nn1)
        - 0.5 * m.norm_Hstar_sq
        + m.norm_taustar_sq / (2.0 * nn1)
    )


def _brackets(x: Array, y: Array) -> Array:
    """[x_r, y_s] for every pair of slots, stacked as (r, s, n, n)."""
    return x[:, None] @ y[None] - y[None] @ x[:, None]


def _normal_sum_sq(comm: Array, n: int, cterm: float) -> float:
    """Sum over slot pairs r < s, i < j of (comm[r, s][j, i] - cterm [(i, j) = (r, s)])^2."""
    r, s = _pairs(len(comm))
    i, j = _pairs(n)
    delta = (r[:, None] == i) & (s[:, None] == j)
    return float(np.sum((comm[r[:, None], s[:, None], j, i] - cterm * delta) ** 2))


def rho_perp_statistical(inst: LegendrianPointInstance) -> float:
    """Normalized normal scalar curvature of R-perp + R*-perp, summed over phi-pairs.

    The bracket part [A*_r, A_s] + [A_r, A*_s] is rearranged through the mean
    operators as 4[A0_r, A0_s] - [A_r, A_s] - [A*_r, A*_s].  Pairs involving
    xi contribute nothing because A_xi is a multiple of the identity.
    """
    require_valid(inst)
    n = inst.n
    ops = shape_operators(inst)
    cterm = 2.0 * inst.c / (4.0 * inst.f_val**2)
    p, ps, p0 = ops.A[:n], ops.A_star[:n], ops.A0[:n]
    total = _normal_sum_sq(4.0 * _brackets(p0, p0) - _brackets(p, p) - _brackets(ps, ps), n, cterm)
    return math.sqrt(total) / (n * (n - 1))


def rho_levicivita(inst: LegendrianPointInstance) -> float:
    """base + ||H0||^2 - ||tau0||^2/(n(n-1)), the Levi-Civita normalization."""
    m = means_and_traceless(inst)
    return ambient_plane_curvature(inst) + m.norm_H0_sq - m.norm_tau0_sq / (inst.n * (inst.n - 1))


@dataclass(frozen=True)
class CurvatureScalars:
    rho: float
    rho_perp: float
    rho_zero: float
    norm_H_sq: float
    norm_Hstar_sq: float
    norm_H0_sq: float
    norm_tau_sq: float
    norm_taustar_sq: float
    norm_tau0_sq: float


def curvature_scalars(inst: LegendrianPointInstance) -> CurvatureScalars:
    m = means_and_traceless(inst)
    return CurvatureScalars(
        rho=rho_statistical(inst),
        rho_perp=rho_perp_statistical(inst),
        rho_zero=rho_levicivita(inst),
        norm_H_sq=m.norm_H_sq,
        norm_Hstar_sq=m.norm_Hstar_sq,
        norm_H0_sq=m.norm_H0_sq,
        norm_tau_sq=m.norm_tau_sq,
        norm_taustar_sq=m.norm_taustar_sq,
        norm_tau0_sq=m.norm_tau0_sq,
    )
