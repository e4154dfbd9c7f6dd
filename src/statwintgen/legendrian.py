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

Instances are immutable (read-only arrays, finite fields, n >= 2, f > 0, all
checked by the constructor), so their derived data is memoized on the
instance: the violation list, and one derivation that holds ``MeanData``, the
operator stack and rho_perp (``ShapeOperators`` is built on first request).
The kernels take arrays: ``_find_violations`` a (B, 2, n+1, n, n) stack of
forms h, h* with its xi values, and ``_derive_arrays`` the forms with their
c-terms 2c/4f^2, read row by row through ``_derive_rows``.  The constructor
copies its forms and scans and derives its B = 1 row on first use;
``_instance_rows`` builds a sweep chunk's instances as read-only rows of the
one stack they were drawn as, their memo filled from one kernel pass as they
are built.  A drawn stack is valid as built (``wintgen._fields_and_forms``
gathers it symmetric and xi-exact from checked arguments), so its rows are
neither checked nor scanned: their violation lists are ``()``.
``wintgen._bound_scorer`` derives a stack with no instance at all, its forms
gathered from the trial parameters in one take, and runs ``_rho_pair`` on its
(B,) columns.  The derivation fills one (B, 6, n+1, n, n)
stack (A = h*, A* = h, A0, S, S*, S0): it takes the means H*, H and
H0 = (H + H*)/2 in one einsum, copies A, A* and A0 to the S rows and
subtracts the means from their diagonals only, S = A - H I (an exact-zero
off-diagonal entry keeps its sign, which only its square is read for), and
reads the three traceless norms off the S rows, so the chain brackets the
very operators whose norms rho uses.  rho_perp brackets only the phi-pairs
r < s, in one batched matmul.  The constants of each n are cached read-only
(``_frame``).  Every floating-point operation runs in the order of the plain
per-form formulas, whatever B is, and rho and rho0 are formed from each
row's floats, or its columns, by the same formulas, so results match them bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
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
    diagonal (p, p) of the (P, P) entry matrix.  ``delta`` is that term's
    (n(n+1)/2, P) mask over all slot pairs r < s <= n (xi included), in
    ``np.triu_indices(n + 1, 1)`` order: 1.0 where (r, s) = (i, j).
    """

    eye: Array
    strict_upper: Array
    left: Array
    right: Array
    ji: Array
    delta: Array


@lru_cache(maxsize=32)
def _frame(n: int) -> _Frame:
    i, j = np.triu_indices(n, 1)
    r, s = np.triu_indices(n + 1, 1)
    frame = _Frame(
        eye=np.eye(n),
        strict_upper=np.triu(np.ones((n, n), dtype=bool), 1),
        left=np.concatenate((i, j)),
        right=np.concatenate((j, i)),
        ji=j * n + i,
        delta=((r[:, None] == i) & (s[:, None] == j)) * 1.0,
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
        h, h_star = np.asarray(self.h, dtype=float), np.asarray(self.h_star, dtype=float)
        _require_dimension(self.n)
        shape = (self.n + 1, self.n, self.n)
        if h.shape != shape or h_star.shape != shape:
            raise ValueError(f"h and h_star must have shape {shape}")
        forms = np.array((h, h_star))  # the kernel's (2, n+1, n, n) slice of this instance, a copy
        if not (np.isfinite(forms).all() and all(map(math.isfinite, (self.c, self.f_val, self.f_prime)))):
            raise ValueError("c, f, f_prime, h and h_star must be finite")
        if self.f_val <= 0.0:
            raise ValueError(f"f must be positive, got {self.f_val!r}")
        forms.flags.writeable = False
        vars(self).update(h=forms[0], h_star=forms[1], _forms=forms)

    # Derived data, computed on first use by the B = 1 call of the kernels
    # (module functions bound late); ``_instance_rows`` fills it as it builds a sweep chunk's rows.
    _violations = cached_property(
        lambda self: _find_violations(_finite_xi(np.array([-(self.f_prime / self.f_val)])), self._forms[None])[0])
    _derived = cached_property(
        lambda self: next(_derive_rows(self._forms[None], np.array([2.0 * self.c / (4.0 * self.f_val**2)]))))
    _operators = cached_property(lambda self: ShapeOperators(*self._derived[1], stack=self._derived[1]))

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
        and ``f_prime`` and nested lists of numbers ``h`` and ``h_star``.  Every
        number, a form's leaves included, is a real that is not a bool (``_is_number``).
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


def _is_number(kind: type) -> bool:
    """The one rule for a number of an instance file, a scalar or a leaf of a form: a real that is not a bool."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _json_number(data: dict, key: str) -> numbers.Real:
    value = data[key]
    if not _is_number(type(value)):
        raise ValueError(f"instance key {key!r} must be a number, got {value!r}")
    return value


def _json_form(data: dict, key: str) -> Array:
    """A regular nested list of numbers as a float array, flattened level by level; each leaf is read as
    ``float`` reads it, so an integer too large for a double raises OverflowError."""
    leaves, shape = [data[key]], []
    while (kinds := {*map(type, leaves)}) == {list} and len(sizes := {*map(len, leaves)}) == 1:
        shape += sizes
        leaves = [*chain.from_iterable(leaves)]
    if all(map(_is_number, kinds)):
        try:
            return np.fromiter(leaves, float, len(leaves)).reshape(shape)
        except ValueError:  # more axes than an array holds
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
    memoized on the instance; each call returns a fresh list.  A non-finite
    -(f'/f) (a finite f' over a tiny f) raises OverflowError.
    """
    return list(inst._violations)


def _require_dimension(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")


def _finite_xi(xi: Array) -> Array:
    """The forced values xi = -f'/f, unchanged; a non-finite one (a finite f' over a tiny f) raises OverflowError."""
    if not np.isfinite(xi).all():
        raise OverflowError("non-finite xi = -f'/f")
    return xi


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


def require_valid(inst: LegendrianPointInstance) -> None:
    if violations := validate(inst):
        raise ValueError(f"invalid Legendrian instance: first violations {violations[:5]}")


class MeanData(NamedTuple):
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


class ShapeOperators(NamedTuple):
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
    stack: Array


def shape_operators(inst: LegendrianPointInstance) -> ShapeOperators:
    require_valid(inst)
    return inst._operators


_Derived = tuple[MeanData, Array, float]  # the memoized derivation: means, operator stack, rho_perp


def _derive_rows(forms: Array, cterm: Array) -> Iterator[_Derived]:
    """The derivation of every row of a (B, 2, n+1, n, n) stack of forms with (B,) c-terms, as the memo holds it."""
    ops, means, mean_sq, tau_sq, rho_perp = _derive_arrays(forms, cterm)
    return zip(map(_mean_data, means, mean_sq.tolist(), tau_sq.tolist()), ops, rho_perp.tolist())


def _mean_data(means, mean_sq, tau_sq) -> MeanData:
    """``MeanData`` from the means H*, H, H0, their squared norms and tau*, tau, tau0: a row's, or (B,) columns."""
    (Hs, H, H0), (Hs_sq, H_sq, H0_sq), (taus, tau, tau0) = means, mean_sq, tau_sq
    return MeanData(H, Hs, H0, H_sq, Hs_sq, H0_sq, tau, taus, tau0)


def _derive_arrays(forms: Array, cterm: Array) -> tuple[Array, Array, Array, Array, Array]:
    """The derivation of a (B, 2, n+1, n, n) stack of forms h, h* with (B,) (or one) c-terms 2c/4f^2, as arrays.

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
    ops[:, 3:] = ops[:, :3]
    ops.reshape(count, 6, n + 1, n * n)[:, 3:, :, :: n + 1] -= means[..., None]  # S = A - H I: the diagonal only
    tau_sq = np.square(ops[:, 3:]).reshape(count, 3, -1).sum(axis=2)  # tau*, tau, tau0
    # a stacked (1, n+1) @ (n+1, 1) product adds like the 1-d H @ H
    mean_sq = (means[..., None, :] @ means[..., None]).reshape(count, 3)
    ops.flags.writeable = means.flags.writeable = False  # shared by every caller
    return ops, means, mean_sq, tau_sq, _rho_perp_stack(cterm, ops)


def _instance_rows(n: int, fields: Array, forms: Array) -> list[LegendrianPointInstance]:
    """The instances of a (B, 2, n+1, n, n) stack of forms h, h* with their (B, 3) fields c, f, f', valid as built.

    The callers gather the stack with ``wintgen._fields_and_forms`` from checked arguments, so every row is
    symmetric and xi-exact with finite fields and f > 0: no row is checked again, and each row's violation
    memo is ``()`` with no scan.  Each row's ``h``, ``h_star`` and forms are read-only views of the stack,
    and its derivation memo is filled from one pass of the kernels, with the c-terms 2c/4f^2 as a column:
    ``np.float_power`` is libm pow, as Python's ``**`` is, so each is the lone instance's float."""
    values = fields.tolist()
    forms.flags.writeable = False
    with np.errstate(over="ignore"):  # where f^2 overflows, Python's ** in ambient_plane_curvature raises
        cterm = 2.0 * fields[:, 0] / (4.0 * np.float_power(fields[:, 1], 2))
    rows = [object.__new__(LegendrianPointInstance) for _ in values]
    for inst, (c, f, fp), form, derived in zip(rows, values, forms, _derive_rows(forms, cterm)):
        vars(inst).update(n=n, c=c, f_val=f, f_prime=fp, h=form[0], h_star=form[1], _forms=form,
                          _violations=(), _derived=derived)
    return rows


def ambient_plane_curvature(c: float, f_val: float, f_prime: float) -> float:
    """c/4f^2 - (f'/f)^2: ambient curvature of tangent planes of the warp."""
    return c / (4.0 * f_val**2) - (f_prime / f_val) ** 2


def rho_statistical(inst: LegendrianPointInstance) -> float:
    """Sum of K(e_i,e_j) + K*(e_i,e_j) over i < j, divided by n(n-1), in closed form."""
    require_valid(inst)
    m = means_and_traceless(inst)
    return _rho_pair(inst.n, ambient_plane_curvature(inst.c, inst.f_val, inst.f_prime), m)[0]


def _rho_pair(n: int, ambient: float, m: MeanData) -> tuple[float, float]:
    """rho and rho0 from the ambient term and the norms of ``m``: floats, or (B,) columns."""
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
    """(B,) rho_perp from a (B, 6, n+1, n, n) operator stack and the (B,) (or one) c-terms 2c/4f^2."""
    count, n = len(ops), ops.shape[-1]
    frame = _frame(n)
    x = ops[:, :3, :n]  # A, A*, A0 on the phi-slots
    prod = x.take(frame.left, axis=2) @ x.take(frame.right, axis=2)
    # (x_r x_s)[j, i] and (x_s x_r)[j, i]; take keeps C order, so the sum adds row by row
    entries = prod.reshape(count, 3, len(frame.left), n * n).take(frame.ji, axis=3)
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


class CurvatureScalars(NamedTuple):
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
