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
derived data is memoized on the instance: the violation list, and one
derivation that holds ``MeanData``, ``ShapeOperators`` and rho_perp.  The
kernels take arrays, not instances: ``_find_violations`` a (B, 2, n+1, n, n)
stack of forms h, h* with its xi values, and ``_derive_arrays`` the forms
with their c-terms 2c/4f^2.  ``derive_batch`` runs them once over a stack
of same-n instances (the sweep's chunks) and stores each instance's share in
its memo; an instance evaluated on its own is the B = 1 call; and
``_stacked_curvature_scalars`` scores a stack with no instance at all (the
sharpness climb's passes).  The derivation fills one (B, 6, n+1, n, n) stack
(A = h*, A* = h, A0, S, S*, S0): it takes the means H*, H and H0 = (H + H*)/2
in one einsum, subtracts them times I to get S, S* and S0 = h0 - H0 I, and
reads the three traceless norms off the S rows, so the chain brackets the
very operators whose norms rho uses.  rho_perp brackets only the phi-pairs
r < s, in one batched matmul.  The constants of each n are cached read-only
(``_frame``).  Every floating-point operation runs in the order of the plain
per-form formulas, whatever B is, and rho and rho0 are formed from each
row's floats by the same formulas, so results match them bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

VALIDATE_TOL = 1e-12

Array = np.ndarray


class _Frame(NamedTuple):
    """Read-only constants of dimension n, built once per n.

    The P = n(n-1)/2 pairs i < j come in ``np.triu_indices`` order.  ``left``
    and ``right`` pick, for every slot pair r < s, both products x_r x_s
    (first P) and x_s x_r (last P) in one matmul; ``ji`` holds the flat
    offsets j n + i of the entries (j, i).  Slot pairs and tangent pairs run
    over the same list, so the space-form term of a pair sits on the
    diagonal (p, p) of the (P, P) entry matrix.
    """

    eye: Array
    strict_upper: Array
    left: Array
    right: Array
    ji: Array


@lru_cache(maxsize=32)
def _frame(n: int) -> _Frame:
    i, j = np.triu_indices(n, 1)
    frame = _Frame(
        eye=np.eye(n),
        strict_upper=np.triu(np.ones((n, n), dtype=bool), 1),
        left=np.concatenate((i, j)),
        right=np.concatenate((j, i)),
        ji=j * n + i,
    )
    for a in frame:
        a.flags.writeable = False
    return frame


@dataclass(frozen=True)
class LegendrianPointInstance:
    n: int
    c: float
    f_val: float
    f_prime: float
    h: Array
    h_star: Array

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        h_star = np.asarray(self.h_star, dtype=float)
        if self.n < 2:
            raise ValueError("n must be >= 2")
        shape = (self.n + 1, self.n, self.n)
        if h.shape != shape or h_star.shape != shape:
            raise ValueError(f"h and h_star must have shape {shape}")
        forms = np.array((h, h_star))  # the kernel's (2, n+1, n, n) slice of this instance
        forms.flags.writeable = False
        object.__setattr__(self, "_forms", forms)
        object.__setattr__(self, "h", forms[0])
        object.__setattr__(self, "h_star", forms[1])
        _require_finite(self.c, self.f_val, self.f_prime, forms)
        if self.f_val <= 0.0:
            raise ValueError("f_val must be positive")

    # Derived data, computed on first use by the B = 1 call of the kernel
    # (module functions bound late); ``derive_batch`` fills it for whole stacks.
    _violations = cached_property(lambda self: _find_violations(_xi_values([self]), self._forms[None])[0])
    _derived = cached_property(lambda self: _derive(self))

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
        """Instance from decoded JSON; a malformed value raises ValueError naming its key.

        ``data`` must be an object with an integral ``n``, numbers ``c``, ``f``
        and ``f_prime`` and nested lists of numbers ``h`` and ``h_star``.
        """
        if not isinstance(data, dict):
            raise ValueError(f"instance must be a JSON object, got {type(data).__name__}")
        for key in ("n", "c", "f", "f_prime", "h", "h_star"):
            if key not in data:
                raise ValueError(f"instance is missing key {key!r}")
        n = _json_number(data, "n")
        if not (isinstance(n, numbers.Integral) or float(n).is_integer()):
            raise ValueError(f"instance key 'n' must be an integer, got {n!r}")
        return LegendrianPointInstance(
            n=int(n),
            c=float(_json_number(data, "c")),
            f_val=float(_json_number(data, "f")),
            f_prime=float(_json_number(data, "f_prime")),
            h=_json_form(data, "h"),
            h_star=_json_form(data, "h_star"),
        )

    @staticmethod
    def from_json(text: str) -> "LegendrianPointInstance":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("instance JSON is nested too deeply") from None
        return LegendrianPointInstance.from_dict(data)


def _json_number(data: dict, key: str) -> numbers.Real:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"instance key {key!r} must be a number, got {value!r}")
    return value


def _json_form(data: dict, key: str) -> Array:
    try:
        form = np.asarray(data[key])
        if form.dtype.kind in "iuf":
            return form.astype(float, copy=False)
    except ValueError:  # ragged nesting
        pass
    raise ValueError(f"instance key {key!r} must be a nested list of numbers")


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


def _require_finite(c: float, f_val: float, f_prime: float, forms: Array) -> None:
    if not (math.isfinite(c) and math.isfinite(f_val) and math.isfinite(f_prime) and np.isfinite(forms).all()):
        raise ValueError("c, f, f_prime, h and h_star must be finite")


def _find_violations(xi: Array, forms: Array) -> list[tuple]:
    """The violation tuple of every form pair of a (B, 2, n+1, n, n) stack, whose xi-slices must be xi I."""
    count, n = len(forms), forms.shape[-1]
    frame = _frame(n)
    asym = (np.abs(forms - forms.swapaxes(-1, -2)) > VALIDATE_TOL) & frame.strict_upper
    xi_bad = np.abs(forms[:, :, n] - xi[:, None, None, None] * frame.eye) > VALIDATE_TOL
    found: list[tuple] = [()] * count
    if not (asym.any() or xi_bad.any()):
        return found
    for b in np.flatnonzero(asym.reshape(count, -1).any(axis=1) | xi_bad.reshape(count, -1).any(axis=1)):
        violations: list[tuple[str, int, int, int]] = []
        for k, name in enumerate(("h", "h_star")):
            violations += [(name, int(a), int(i), int(j)) for a, i, j in zip(*np.nonzero(asym[b, k]))]
            violations += [(name, n, int(i), int(j)) for i, j in zip(*np.nonzero(xi_bad[b, k]))]
        found[b] = tuple(violations)
    return found


def _xi_values(insts: Sequence[LegendrianPointInstance]) -> Array:
    """The forced xi value -(f'/f) of every instance."""
    return np.array([-(inst.f_prime / inst.f_val) for inst in insts])


def require_valid(inst: LegendrianPointInstance) -> None:
    _require_no_violations(validate(inst))


def _require_no_violations(violations: Sequence[tuple]) -> None:
    if violations:
        raise ValueError(f"invalid Legendrian instance: first violations {list(violations[:5])}")


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


def means_and_traceless(inst: LegendrianPointInstance) -> MeanData:
    require_valid(inst)
    return inst._derived[0]


@dataclass(frozen=True)
class ShapeOperators:
    """Shape operators per normal direction and their traceless parts.

    A[alpha] is the operator of u_{alpha+1} for the primal connection (dual
    pairing: <h*(X,Y), u> = g(A_u X, Y), so A comes from the h* slices), and
    A_star[alpha] from the h slices; A0 is their mean.  S-variants subtract
    the matching mean curvature times I (H*, H, H0) and are trace-free.  The
    six are views of ``stack``, one read-only (6, n+1, n, n) array.
    """

    A: Array
    A_star: Array
    A0: Array
    S: Array
    S_star: Array
    S0: Array
    stack: Array = field(repr=False, compare=False)


def shape_operators(inst: LegendrianPointInstance) -> ShapeOperators:
    require_valid(inst)
    return inst._derived[1]


_Derived = tuple[MeanData, ShapeOperators, float]  # the memoized derivation: means, operators, rho_perp


def _derive(inst: LegendrianPointInstance) -> _Derived:
    """The derivation of one instance: the B = 1 call of ``_derive_stack``."""
    return _derive_stack([inst], inst._forms[None])[0]


def _derive_stack(insts: Sequence[LegendrianPointInstance], forms: Array) -> list[_Derived]:
    """The derivation of every instance of a stack, with its (B, 2, n+1, n, n) forms, as the memo holds it."""
    cterm = np.array([2.0 * inst.c / (4.0 * inst.f_val**2) for inst in insts])
    ops, means, mean_sq, tau_sq, rho_perp = _derive_arrays(forms, cterm)
    rows = zip(_mean_rows(means, mean_sq, tau_sq), ops, rho_perp.tolist())
    return [(m, ShapeOperators(*stack, stack=stack), row_rho_perp) for m, stack, row_rho_perp in rows]


def _mean_rows(means: Array, mean_sq: Array, tau_sq: Array) -> Iterator[MeanData]:
    """The ``MeanData`` of every row of ``_derive_arrays``'s means and norms, each built when it is read."""
    for (Hs, H, H0), (Hs_sq, H_sq, H0_sq), (taus, tau, tau0) in zip(means, mean_sq.tolist(), tau_sq.tolist()):
        yield MeanData(H, Hs, H0, H_sq, Hs_sq, H0_sq, tau, taus, tau0)


def _derive_arrays(forms: Array, cterm: Array) -> tuple[Array, Array, Array, Array, Array]:
    """The derivation of a (B, 2, n+1, n, n) stack of forms h, h* with (B,) c-terms 2c/4f^2, as arrays.

    Returns the read-only (B, 6, n+1, n, n) operator stack, the read-only
    (B, 3, n+1) means H*, H, H0, their (B, 3) squared norms, the (B, 3)
    traceless norms tau*, tau, tau0, and the (B,) rho_perp bracketed from the
    operators (see the module docstring).
    """
    count, n = len(forms), forms.shape[-1]
    ops = np.empty((count, 6, n + 1, n, n))  # A, A*, A0, S, S*, S0
    ops[:, :2] = forms[:, ::-1]
    np.add(ops[:, 0], ops[:, 1], out=ops[:, 2])
    ops[:, 2] *= 0.5
    means = np.empty((count, 3, n + 1))  # H*, H, H0 = (H + H*)/2
    np.einsum("bfaii->bfa", ops[:, :2], out=means[:, :2])
    means[:, :2] /= n
    np.add(means[:, 0], means[:, 1], out=means[:, 2])
    means[:, 2] *= 0.5
    np.subtract(ops[:, :3], means[..., None, None] * _frame(n).eye, out=ops[:, 3:])
    tau_sq = np.square(ops[:, 3:]).reshape(count, 3, -1).sum(axis=2)  # tau*, tau, tau0
    # a stacked (1, n+1) @ (n+1, 1) product adds like the 1-d H @ H
    mean_sq = (means[..., None, :] @ means[..., None]).reshape(count, 3)
    ops.flags.writeable = means.flags.writeable = False  # shared by every caller
    return ops, means, mean_sq, tau_sq, _rho_perp_stack(cterm, ops)


def derive_batch(insts: Sequence[LegendrianPointInstance]) -> None:
    """Validate and derive same-n instances in one stacked pass, memoizing each one's share.

    The symmetry and xi-slice check and the derivation (means, traceless
    norms, operators, rho_perp) each run once for the whole stack.  Afterwards
    every accessor of these instances reads its memo; a value an instance had
    already memoized is kept.
    """
    if any(inst.n != insts[0].n for inst in insts):
        raise ValueError("a stacked pass needs instances of one dimension n")
    forms = np.stack([inst._forms for inst in insts])
    violations = _find_violations(_xi_values(insts), forms)
    for inst, found, derived in zip(insts, violations, _derive_stack(insts, forms)):
        memo = vars(inst)
        memo.setdefault("_violations", found)
        memo.setdefault("_derived", derived)


def ambient_plane_curvature(c: float, f_val: float, f_prime: float) -> float:
    """c/4f^2 - (f'/f)^2: ambient curvature of tangent planes of the warp."""
    return c / (4.0 * f_val**2) - (f_prime / f_val) ** 2


def rho_statistical(inst: LegendrianPointInstance) -> float:
    """Sum of K(e_i,e_j) + K*(e_i,e_j) over i < j, divided by n(n-1), in closed form."""
    require_valid(inst)
    m = means_and_traceless(inst)
    return _rho_pair(inst.n, ambient_plane_curvature(inst.c, inst.f_val, inst.f_prime), m)[0]


def _rho_pair(n: int, ambient: float, m: MeanData) -> tuple[float, float]:
    """rho and rho0 from the ambient term and the norms of ``m``."""
    nn1 = n * (n - 1)
    rho = (ambient + 2.0 * m.norm_H0_sq - (2.0 / nn1) * m.norm_tau0_sq - 0.5 * m.norm_H_sq
           + m.norm_tau_sq / (2.0 * nn1) - 0.5 * m.norm_Hstar_sq + m.norm_taustar_sq / (2.0 * nn1))
    return rho, ambient + m.norm_H0_sq - m.norm_tau0_sq / nn1


def rho_perp_statistical(inst: LegendrianPointInstance) -> float:
    """Normalized normal scalar curvature of R-perp + R*-perp, summed over phi-pairs.

    The bracket part [A*_r, A_s] + [A_r, A*_s] is rearranged through the mean
    operators as 4[A0_r, A0_s] - [A_r, A_s] - [A*_r, A*_s].  Pairs involving
    xi contribute nothing because A_xi is a multiple of the identity.  The
    value is memoized on the instance with the rest of its derivation.
    """
    require_valid(inst)
    return inst._derived[2]


def _rho_perp_stack(cterm: Array, ops: Array) -> Array:
    """(B,) rho_perp from a (B, 6, n+1, n, n) operator stack and the (B,) c-terms 2c/4f^2."""
    count, n = len(ops), ops.shape[-1]
    frame = _frame(n)
    x = ops[:, :3, :n]  # A, A*, A0 on the phi-slots
    prod = np.take(x, frame.left, axis=2) @ np.take(x, frame.right, axis=2)
    # (x_r x_s)[j, i] and (x_s x_r)[j, i]; np.take keeps C order, so the sum adds row by row
    entries = np.take(prod.reshape(count, 3, len(frame.left), n * n), frame.ji, axis=3)
    pairs = len(frame.ji)
    bracket = entries[:, :, :pairs] - entries[:, :, pairs:]  # [x_r, x_s][j, i]: rows r < s, columns i < j
    comm = 4.0 * bracket[:, 2] - bracket[:, 0] - bracket[:, 1]
    comm = comm.reshape(count, -1)  # a view: comm is a fresh C-ordered array
    comm[:, :: pairs + 1] -= cterm[:, None]  # the diagonal (p, p) of each (P, P) block
    return np.sqrt(np.square(comm).sum(axis=1)) / (n * (n - 1))


def rho_levicivita(inst: LegendrianPointInstance) -> float:
    """base + ||H0||^2 - ||tau0||^2/(n(n-1)), the Levi-Civita normalization."""
    m = means_and_traceless(inst)
    return _rho_pair(inst.n, ambient_plane_curvature(inst.c, inst.f_val, inst.f_prime), m)[1]


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
    require_valid(inst)
    return _scalars(means_and_traceless(inst), rho_statistical(inst), rho_levicivita(inst),
                    rho_perp_statistical(inst))


def _scalars(m: MeanData, rho: float, rho_zero: float, rho_perp: float) -> CurvatureScalars:
    return CurvatureScalars(rho, rho_perp, rho_zero, m.norm_H_sq, m.norm_Hstar_sq, m.norm_H0_sq,
                            m.norm_tau_sq, m.norm_taustar_sq, m.norm_tau0_sq)


def _stacked_curvature_scalars(c: float, f_val: float, f_prime: float, forms: Array) -> Iterator[CurvatureScalars]:
    """The curvature scalars of every row of a (B, 2, n+1, n, n) stack of valid forms sharing (c, f, f').

    The stack is derived in one kernel call; a row's scalars are formed from
    its floats, by the single-instance formulas, only when the row is read.
    """
    _, means, mean_sq, tau_sq, rho_perp = _derive_arrays(forms, np.full(len(forms), 2.0 * c / (4.0 * f_val**2)))
    ambient = ambient_plane_curvature(c, f_val, f_prime)
    for m, row_rho_perp in zip(_mean_rows(means, mean_sq, tau_sq), rho_perp.tolist()):
        yield _scalars(m, *_rho_pair(forms.shape[-1], ambient, m), row_rho_perp)
