"""Generalized Wintgen bound for Legendrian point data, with diagnostics.

``main_inequality`` evaluates the bound

    rho_perp <= 2 rho - 8 rho0 + (1/4f^2)(2f|c| - c + 4 f'^2)
               + 4||H0||^2 + ||H||^2 + ||H*||^2

term by term and reports the slack.  ``inequality_chain`` retraces the proof
skeleton step by step (Cauchy-Schwarz on the normal-curvature summands, the
S-operator bound, Lu's commutator inequality, the closed-form substitution,
the final constant).  Its fifth step *is* the stated bound, with the report's
own terms, rhs and verdict, and every step is judged by the bound's one rule,
``_judge``.  A sixth diagnostic step, ``final_bound_rederived``, redoes the
last substitution: that gives the constant (1/4f^2)(2f|c| + 6c - 24 f'^2),
which differs from the printed one by 7(c/4f^2 - (f'/f)^2); the two coincide
only when c = 4 f'^2.  Sweeps therefore flag instances where the printed
constant fails while the rederived bound (and every earlier chain step) holds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterable
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .legendrian import (
    CurvatureScalars,
    LegendrianPointInstance,
    _derive_arrays,
    _finite_xi,
    _frame,
    _instance_rows,
    _mean_data,
    _require_dimension,
    _rho_pair,
    _scalars,
    ambient_plane_curvature,
    curvature_scalars,
    require_valid,
    shape_operators,
)
from .tensor_core import commutator, instance_rng, instance_uniforms

SLACK_TOL = 1e-9

Array = np.ndarray


# ---------------------------------------------------------------------------
# Main inequality report
# ---------------------------------------------------------------------------


class ChainStep(NamedTuple):
    step: str
    lhs: float
    rhs: float
    holds: bool

    def as_dict(self) -> dict:
        return {"step": self.step, "lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


class WintgenReport(NamedTuple):
    seed: str | None
    n: int
    c: float
    f: float
    f_prime: float
    lhs: float
    rhs_terms: dict[str, float]
    rhs: float
    slack: float
    holds: bool
    chain: list[ChainStep]

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "c": self.c,
            "f": self.f,
            "f_prime": self.f_prime,
            "lhs": self.lhs,
            "rhs_terms": dict(self.rhs_terms),
            "rhs": self.rhs,
            "slack": self.slack,
            "holds": self.holds,
            "chain": [s.as_dict() for s in self.chain],
        }


def curvature_constant(c: float, f: float, f_prime: float) -> float:
    """(1/4f^2)(2f|c| - c + 4 f'^2), the constant of the stated bound."""
    return (2.0 * f * abs(c) - c + 4.0 * f_prime * f_prime) / (4.0 * f * f)


def rederived_curvature_constant(c: float, f: float, f_prime: float) -> float:
    """(1/4f^2)(2f|c| + 6c - 24 f'^2) = |c|/2f + 6(c/4f^2 - (f'/f)^2).

    Constant obtained by redoing the final substitution of the proof chain;
    exceeds the printed one by -7(c/4f^2 - (f'/f)^2).
    """
    return (2.0 * f * abs(c) + 6.0 * c - 24.0 * f_prime * f_prime) / (4.0 * f * f)


def _rhs_terms(c: float, f: float, f_prime: float, scalars: CurvatureScalars) -> dict[str, float]:
    return {
        "two_rho": 2.0 * scalars.rho,
        "minus_eight_rho_zero": -8.0 * scalars.rho_zero,
        "curvature_constant": curvature_constant(c, f, f_prime),
        "four_norm_H0_sq": 4.0 * scalars.norm_H0_sq,
        "norm_H_sq": scalars.norm_H_sq,
        "norm_Hstar_sq": scalars.norm_Hstar_sq,
    }


def _rhs_sum(terms: Iterable):
    """The rhs terms, floats or (B,) columns, added left to right from 0.0 (builtin sum() compensates from 3.12)."""
    rhs = 0.0
    for term in terms:
        rhs += term
    return rhs


def _slack(rhs: float, lhs: float) -> float:
    """rhs - lhs; a non-finite slack (so a non-finite lhs or rhs) has no verdict: it raises OverflowError."""
    slack = rhs - lhs
    if not math.isfinite(slack):
        raise OverflowError(f"non-finite bound (lhs={lhs!r}, rhs={rhs!r})")
    return slack


def _holds_with_compensation(terms: Collection[float], lhs: float, slack: float) -> bool:
    """Re-evaluate near-violations in compensated summation before flagging."""
    if slack >= -SLACK_TOL:
        return True
    compensated = math.fsum([*terms, -lhs])
    return compensated >= -SLACK_TOL


def _judge(terms: Collection[float], lhs: float) -> tuple[float, float, bool]:
    """rhs, slack and verdict of ``lhs <= sum(terms)``: the one rule for every comparison."""
    rhs = _rhs_sum(terms)
    slack = _slack(rhs, lhs)
    return rhs, slack, _holds_with_compensation(terms, lhs, slack)


def inequality_chain(inst: LegendrianPointInstance, scalars: CurvatureScalars) -> list[ChainStep]:
    """Per-step verdicts of the proof skeleton, each against the exact rho_perp.

    cauchy_schwarz          per-summand (l+m+n+w)^2 <= 4(l^2+m^2+n^2+w^2)
    s_operator_bound        trace-free operator form with the c^2 n^2(n-1)^2/4f^2 term
    lu_bound                after Lu: |c|/2f + (4||tau0||^2 + ||tau||^2 + ||tau*||^2)/n(n-1)
    substitution_bound      lu_bound rewritten through the closed form of rho
    final_bound             the stated bound itself: main_inequality's terms, rhs and verdict
    final_bound_rederived   those terms with the constant obtained by redoing the substitution

    Every step is a list of rhs terms, summed in order and judged by ``_judge``.
    """
    require_valid(inst)
    n = inst.n
    nn1 = n * (n - 1)
    f, fp, c = inst.f_val, inst.f_prime, inst.c
    ops = shape_operators(inst)
    lhs = scalars.rho_perp
    cterm = 2.0 * c / (4.0 * f * f)

    # Step 1: Cauchy-Schwarz applied inside every squared summand, one per entry [j, i], i < j, of every
    # slot pair r < s.  x ** 2 is np.float_power (libm pow, as Python's ** rounds), and np.add.accumulate
    # adds the summands strictly left to right, pair by pair, so the sum is the plain loop's, bit for bit.
    frame = _frame(n)
    slots = [(r, s) for r in range(n + 1) for s in range(r + 1, n + 1)]  # np.triu_indices(n + 1, 1) order
    brackets = np.array([[commutator(x[r], x[s]) for r, s in slots] for x in (ops.A0, ops.A, ops.A_star)])
    sq = np.float_power(brackets.reshape(3, len(slots), n * n)[..., frame.ji], 2)
    summands = 4.0 * (16.0 * sq[0] + sq[1] + sq[2] + np.float_power(cterm * frame.delta, 2))
    b1 = math.sqrt(np.add.accumulate(summands.ravel())[-1]) / nn1

    # Step 2: operator norms with the quoted c-term.  Each row sum of the squared entries adds as numpy's
    # sum of one n x n matrix does; the pairs' 16 F(S0) + F(S) + F(S*) are then added in order.
    brackets = np.array([[commutator(x[r], x[s]) for r in range(n) for s in range(n)]
                         for x in (ops.S0, ops.S, ops.S_star)])
    norms = np.square(brackets).reshape(3, n * n, n * n).sum(axis=2)
    quad = np.add.accumulate(16.0 * norms[0] + norms[1] + norms[2])[-1]
    b2 = (2.0 / nn1) * math.sqrt(c * c / (4.0 * f * f) * n * n * (n - 1) ** 2 + 0.25 * quad)

    bound = _rhs_terms(c, f, fp, scalars)
    rederived = {**bound, "curvature_constant": rederived_curvature_constant(c, f, fp)}
    steps = {
        "cauchy_schwarz": [b1],
        "s_operator_bound": [b2],
        # Step 3: Lu's inequality collapses the commutator sums to traceless norms.
        "lu_bound": [abs(c) / (2.0 * f),
                     (4.0 * scalars.norm_tau0_sq + scalars.norm_tau_sq + scalars.norm_taustar_sq) / nn1],
        # Step 4: eliminate ||tau||^2 + ||tau*||^2 through the closed form of rho.
        "substitution_bound": [abs(c) / (2.0 * f), 8.0 * scalars.norm_tau0_sq / nn1, 2.0 * scalars.rho,
                               -cterm, 2.0 * (fp / f) ** 2, -4.0 * scalars.norm_H0_sq, scalars.norm_H_sq,
                               scalars.norm_Hstar_sq],
        "final_bound": bound.values(),
        "final_bound_rederived": rederived.values(),
    }
    verdicts = ((name, *_judge(terms, lhs)) for name, terms in steps.items())
    return [ChainStep(name, lhs, rhs, holds) for name, rhs, _, holds in verdicts]


def main_inequality(
    inst: LegendrianPointInstance,
    seed: str | None = None,
    include_chain: bool = True,
) -> WintgenReport:
    """Evaluate the generalized Wintgen bound on a validated instance."""
    require_valid(inst)
    scalars = curvature_scalars(inst)
    terms = _rhs_terms(inst.c, inst.f_val, inst.f_prime, scalars)
    lhs = scalars.rho_perp
    rhs, slack, holds = _judge(terms.values(), lhs)
    chain = inequality_chain(inst, scalars) if include_chain else []
    return WintgenReport(
        seed=seed,
        n=inst.n,
        c=inst.c,
        f=inst.f_val,
        f_prime=inst.f_prime,
        lhs=lhs,
        rhs_terms=terms,
        rhs=rhs,
        slack=slack,
        holds=holds,
        chain=chain,
    )


# ---------------------------------------------------------------------------
# Random instances and sweeps
# ---------------------------------------------------------------------------


def random_instance(
    n: int,
    c_range: tuple[float, float] = (-4.0, 4.0),
    f_range: tuple[float, float] = (0.5, 3.0),
    fprime_range: tuple[float, float] = (-2.0, 2.0),
    magnitude: float = 1.0,
    seed: int = 0,
    index: int = 0,
) -> LegendrianPointInstance:
    """Random instance, valid by construction; the same for the same arguments, whatever chunk draws it.

    It reads doubles index k to (index + 1) k - 1 of ``PCG64(seed)``, with
    k = 3 + 2n^3, in a fixed order: c, f, f', then the phi-slices of h (alpha
    ascending), then those of h*; each slice is a symmetrized uniform
    [-magnitude, magnitude] matrix.  xi-slices are set to the forced -(f'/f) I
    exactly.  The arguments are checked as ``sweep`` checks them.  The instance
    is built by the public constructor, so its derived data waits for first use.
    """
    _check_draw_args(n, c_range, f_range, fprime_range, magnitude)
    fields, forms = _draw(n, c_range, f_range, fprime_range, magnitude, seed, range(index, index + 1))
    ((c, f, fp),) = fields.tolist()
    return LegendrianPointInstance(n=n, c=c, f_val=f, f_prime=fp, h=forms[0, 0], h_star=forms[0, 1])


def _random_instances(n: int, c_range, f_range, fprime_range, magnitude: float, seed: int,
                      indices: range) -> list[LegendrianPointInstance]:
    """``random_instance`` for every index of a step-1 range, as the rows ``legendrian._instance_rows`` builds of
    the one draw.  The draw is valid as built, so no row is checked or scanned: the caller checked the
    arguments (``_check_draw_args``), ``_draw`` refuses an unbounded span and ``_fields_and_forms`` a non-finite
    xi before any row is built."""
    return _instance_rows(n, *_draw(n, c_range, f_range, fprime_range, magnitude, seed, indices))


def _draw(n: int, c_range, f_range, fprime_range, magnitude: float, seed: int,
          indices: range) -> tuple[Array, Array]:
    """The draws of ``random_instance`` for every index of a step-1 range, as ``_fields_and_forms`` returns
    them, (fields, forms): each index's own row of ``instance_uniforms`` (it does not depend on the range)
    mapped as numpy's ``uniform`` maps it, low + (high - low) u, columns 0-2 to c, f and f', the rest to the
    upper triangles.  numpy's refusals are raised here, in its order: the seed's and the index's before the
    ranges'."""
    u = instance_uniforms(seed, indices, 3 + 2 * n ** 3)
    bounds = [(float(a), float(b)) for a, b in (c_range, f_range, fprime_range, (-magnitude, magnitude))]
    low, span = np.array([(a, b - a) for a, b in bounds]).T  # Python floats: an infinite span raises no warning
    if not np.isfinite(span).all():
        raise OverflowError("high - low range exceeds valid bounds")
    return _fields_and_forms(n, low[:3] + span[:3] * u[:, :3], low[3] + span[3] * u[:, 3:])


def _check_draw_args(n: int, c_range, f_range, fprime_range, magnitude: float) -> None:
    """Refuse, before any draw, an ``n``, range or ``magnitude`` that ``_draw`` cannot draw from."""
    _require_dimension(n)
    for name, (low, high) in (("c_range", c_range), ("f_range", f_range), ("fprime_range", fprime_range)):
        if not low <= high:
            raise ValueError(f"{name} must have low <= high, got ({low!r}, {high!r})")
    if not magnitude >= 0.0:
        raise ValueError(f"magnitude must be >= 0, got {magnitude!r}")
    if not f_range[0] > 0.0:
        raise ValueError(f"f_range must be positive, got ({f_range[0]!r}, {f_range[1]!r})")


def _fields_and_forms(n: int, params, upper: Array) -> tuple[Array, Array]:
    """(B, 3) fields (c, f, f') ``params`` as floats, and the forms ``_forms_from_upper`` gathers from the
    phi-slices' upper triangles ``upper`` with the xi values -f'/f: the arguments of
    ``legendrian._instance_rows``, symmetric and xi-exact as built.  A non-finite xi (a finite f' over a
    tiny f) raises OverflowError before any form is gathered."""
    fields = np.asarray(params, dtype=float)
    with np.errstate(over="ignore"):  # _finite_xi refuses an overflow by name
        xi = _finite_xi(-(fields[:, 2] / fields[:, 1]))
    return fields, _forms_from_upper(n, xi, upper.reshape(len(upper), -1))


@lru_cache(maxsize=64)
def _upper_gather(n: int, width: int) -> Array:
    """Read-only flat index of the (2, n+1, n, n) forms h, h* into a row of 2n phi-slices of ``width`` entries (h
    slices first), then xi and xi * 0.0, the entries of xi I.  A slice holds its upper triangle i <= j, packed
    (width n(n+1)/2) or as an n x n matrix whose lower triangle is not read; (j, i) reads the entry (i, j)."""
    i, j = np.triu_indices(n)
    tri = np.empty((n, n), dtype=np.intp)
    tri[i, j] = tri[j, i] = np.arange(len(i)) if width < n * n else i * n + j
    phi = (width * np.arange(2 * n)[:, None, None] + tri).reshape(2, n, n, n)
    xi = np.broadcast_to(2 * n * width + 1 - np.eye(n, dtype=np.intp), (2, 1, n, n))
    index = np.concatenate((phi, xi), axis=1).ravel()
    index.flags.writeable = False
    return index


def _forms_from_upper(n: int, xi: float | Array, upper: Array) -> Array:
    """(B, 2, n+1, n, n) forms h, h* in one gather through ``_upper_gather``: phi-slices mirrored from a (B, 2n
    width) stack of upper triangles, each entry + 0.0 (so -0.0 reads 0.0), xi-slices the forced values xi
    ((B,), or one for all) times I, set exactly."""
    rows = np.empty((len(upper), upper.shape[1] + 2))
    np.add(upper, 0.0, out=rows[:, :-2])
    rows[:, -2], rows[:, -1] = xi, xi * 0.0
    return rows.take(_upper_gather(n, upper.shape[1] // (2 * n)), axis=1).reshape(len(upper), 2, n + 1, n, n)


# Floats of kernel scratch per stacked pass: a sweep chunk holds as many
# instances as fit (at least one), so memory stays bounded at any count and n.
SWEEP_CHUNK_FLOATS = 1 << 18


def sweep_chunk(n: int) -> int:
    """Instances per stacked pass of ``sweep`` at dimension ``n``.

    Per instance the kernel holds about n^2 (8(n+1) + 9n(n-1)) floats: the
    forms, the operator stack, and the phi-pair products it brackets.
    """
    return max(1, SWEEP_CHUNK_FLOATS // (n * n * (8 * (n + 1) + 9 * n * (n - 1))))


def sweep(
    n: int,
    count: int,
    seed: int,
    c_range: tuple[float, float] = (-4.0, 4.0),
    f_range: tuple[float, float] = (0.5, 3.0),
    fprime_range: tuple[float, float] = (-2.0, 2.0),
    magnitude: float = 1.0,
) -> list[WintgenReport]:
    """Reports for ``count`` seeded instances, ordered by instance index, without chains.

    ``n``, the ranges and ``magnitude`` are checked once, before any
    instance is drawn; a bad one raises ValueError naming it.  Each chunk of
    ``sweep_chunk(n)`` instances is drawn in one pass, from the doubles that
    ``random_instance`` reads, into one forms stack, whose rows are the instances,
    valid as drawn and derived once as a stack; each report is ``main_inequality`` reading memoized data.
    """
    _check_draw_args(n, c_range, f_range, fprime_range, magnitude)
    out = []
    chunk = sweep_chunk(n)
    for start in range(0, count, chunk):
        indices = range(start, min(start + chunk, count))
        insts = _random_instances(n, c_range, f_range, fprime_range, magnitude, seed, indices)
        out += [main_inequality(inst, seed=f"{seed}-{index}", include_chain=False)
                for index, inst in zip(indices, insts)]
    return out


# ---------------------------------------------------------------------------
# Sharpness search
# ---------------------------------------------------------------------------


class SharpnessResult(NamedTuple):
    best_instance: LegendrianPointInstance
    min_slack: float
    trace: list[float]
    evaluations: int
    restarts: int
    hard_violation: bool


def _bound_scorer(n: int, c: float, f: float, fp: float) -> Callable[[Array], tuple[list[float], list[float]]]:
    """The bound's column scorer for one (c, f, f'), whose xi, c-term and ambient term it forms once: it maps
    a (B, nparams) stack to every row's rhs and lhs, ``main_inequality``'s bit for bit.  The forms are one
    ``_forms_from_upper`` gather of the packed upper triangles and xi, as a sweep's of its draws, so they are
    not validated again (``sharpness_search`` checks c, f and fp are finite), and are derived by one call of
    the shared kernel ``_derive_arrays``; ``_rho_pair``, ``_rhs_terms`` and ``_rhs_sum`` run on their (B,)
    columns, where only +, -, * and / act.  ``_slack`` reads a row, or raises."""
    xi, cterm = _finite_xi(np.array([-(fp / f)]))[0], np.array([2.0 * c / (4.0 * f**2)])
    ambient = ambient_plane_curvature(c, f, fp)

    def columns(params: Array) -> tuple[list[float], list[float]]:
        _, means, mean_sq, tau_sq, rho_perp = _derive_arrays(_forms_from_upper(n, xi, params), cterm)
        m = _mean_data(means.swapaxes(0, 1), mean_sq.T, tau_sq.T)
        scalars = _scalars(m, *_rho_pair(n, ambient, m), rho_perp)
        return _rhs_sum(_rhs_terms(c, f, fp, scalars).values()).tolist(), rho_perp.tolist()

    return columns


SHARPNESS_FIRST_STEP = 0.25
SHARPNESS_MIN_STEP = 1e-6


def _sharpness_pass_rows(n: int) -> int:
    """Most trials in one pass of ``sharpness_search``, its tree and chain together: they cost about the pass's
    fixed numpy calls, worth some 264 of the 3n(n-1) per-matrix products a row makes (one trial at n >= 8).
    At n = 2 the 44 rows are a whole sweep that does not move: a 26-row tree and the 18-row chain after it.
    That is never more than a sweep's ``sweep_chunk(n)`` instances."""
    return max(1, 264 // (3 * n * (n - 1)))


def _sharpness_depth(n: int) -> int:
    """Levels m of a pass's outcome tree: the most whose 3^m - 1 trials fit in ``_sharpness_pass_rows(n)``."""
    return next(m for m in range(64) if 3 ** (m + 1) - 1 > _sharpness_pass_rows(n))


@lru_cache(maxsize=64)
def _pass_signs(rows: int, depth: int) -> tuple[Array, Array]:
    """The (rows, coordinates from the first) signs of a pass's trials and where they move: the tree's 3^depth - 1
    level by level, (+) and (-) at l after each outcome path (+, -, none) of the levels before it, then the
    all-none chain, trials t = 2 depth, ... of the pass, trial t moving coordinate t // 2 by + if t is even."""
    paths = [(*p, s) for level in range(depth) for p in product((1.0, -1.0, 0.0), repeat=level) for s in (1.0, -1.0)]
    paths += [(0.0,) * (t // 2) + (1.0 - 2.0 * (t % 2),) for t in range(2 * depth, 2 * depth + rows - len(paths))]
    signs = np.array([path + (0.0,) * (len(paths[-1]) - len(path)) for path in paths])
    moves = signs != 0.0
    signs.flags.writeable = moves.flags.writeable = False
    return signs, moves


def sharpness_search(n: int, c: float, f: float, fprime: float, iterations: int, seed: int) -> SharpnessResult:
    """Random-restart coordinate hill climb minimizing the slack.

    Coordinates are the phi-slice entries of h and h*, drawn from [-1, 1] at
    each start; each sweep tries +/- step on every coordinate and moves to
    the first trial that lowers the slack, halves the step after a fruitless
    sweep, and restarts from a fresh draw once the step drops below
    ``SHARPNESS_MIN_STEP``.  ``iterations`` is the total slack-evaluation
    budget.  The trace records the best slack after every improvement.  The
    best instance is judged by ``main_inequality``; a failed bound is a hard
    violation.  A sweep is scored in tree passes: one ``_bound_scorer`` call
    scores every trial the climb can reach on the next ``_sharpness_depth(n)``
    coordinates, then those after them on the path that never moves, up to the
    sweep's end, the budget and ``_sharpness_pass_rows(n)`` rows, and the pass
    is read along the climb's path, each row read an evaluation.  A trial adds
    +/- step only where it moves: the climb is one trial at a time's, bit for bit.
    """
    _require_dimension(n)
    for name, value in (("c", c), ("f", f), ("fprime", fprime)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not f > 0.0:
        raise ValueError(f"f must be positive, got {f!r}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations!r}")
    nparams = 2 * n * (n * (n + 1) // 2)
    widest, levels, columns = _sharpness_pass_rows(n), _sharpness_depth(n), _bound_scorer(n, c, f, fprime)
    rng = instance_rng(seed, 0)
    evaluations = restarts = 0
    best_params = params = None
    best_slack = current = math.inf
    step = 0.0  # below SHARPNESS_MIN_STEP: the climb begins with a fresh draw
    trace: list[float] = []

    def read(row: int) -> bool:
        """Evaluate a row of the pass; move to its trial if it lowers the slack."""
        nonlocal evaluations, params, current, best_params, best_slack
        evaluations += 1
        value = _slack(rhs[row], lhs[row])
        if not value < current:
            return False
        params, current = trials[row], value
        if value < best_slack:
            best_slack, best_params = value, params
            trace.append(value)
        return True

    while evaluations < iterations:
        if step < SHARPNESS_MIN_STEP:  # a fresh start, always taken
            step, current, restarts = SHARPNESS_FIRST_STEP, math.inf, restarts + 1
            trials = rng.uniform(-1.0, 1.0, size=(1, nparams))
            rhs, lhs = columns(trials)
            read(0)
            continue
        improved, position = False, 0  # trial 2k moves coordinate k by +step, trial 2k + 1 by -step
        while position < 2 * nparams and evaluations < iterations:
            first, k0 = position % 2, position // 2  # an odd first trial (-) only opens a chain
            depth = 0 if first else min(levels, nparams - k0, iterations - evaluations)
            tree, start = 3 ** depth - 1, position + 2 * depth  # start: the all-none chain's first trial
            rows = tree + max(0, min(widest - tree, 2 * nparams - start, iterations - evaluations - 2 * depth))
            signs, moves = _pass_signs(widest + 1, depth)
            span = min(signs.shape[1], nparams - k0)
            trials = params[None].repeat(rows, axis=0)
            block = trials[:, k0:k0 + span]
            np.add(block, step * signs[first:first + rows, :span], out=block, where=moves[first:first + rows, :span])
            rhs, lhs = columns(trials)
            node = 0  # the outcome path so far in base 3: + is 0, - is 1, none is 2
            for level in range(depth):
                row = 3 ** level - 1 + 2 * node
                node = 3 * node + next((o for o in (0, 1) if evaluations < iterations and read(row + o)), 2)
            # the row of the first move: one on the tree ends the pass as the tree's last row would
            hit = tree - 1 if node < tree else next((row for row in range(tree, rows) if read(row)), None)
            improved |= hit is not None
            position = start + rows - tree if hit is None else 2 * ((start + hit - tree) // 2 + 1)
        if not improved:
            step *= 0.5

    best_instance = _instance_rows(n, *_fields_and_forms(n, [(c, f, fprime)], best_params[None]))[0]
    hard = not main_inequality(best_instance, include_chain=False).holds
    return SharpnessResult(
        best_instance=best_instance,
        min_slack=best_slack,
        trace=trace,
        evaluations=evaluations,
        restarts=restarts,
        hard_violation=hard,
    )
