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
from collections.abc import Collection, Iterator
from dataclasses import dataclass, field

import numpy as np

from .legendrian import (
    CurvatureScalars,
    LegendrianPointInstance,
    _finite_xi,
    _frame,
    _require_dimension,
    _stacked_curvature_scalars,
    curvature_scalars,
    derive_batch,
    require_valid,
    shape_operators,
)
from .tensor_core import _triu_indices, commutator, instance_rng, instance_uniforms, symmetrize_upper

SLACK_TOL = 1e-9

Array = np.ndarray


# ---------------------------------------------------------------------------
# Main inequality report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    step: str
    lhs: float
    rhs: float
    holds: bool

    def as_dict(self) -> dict:
        return {"step": self.step, "lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


@dataclass(frozen=True)
class WintgenReport:
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
    chain: list[ChainStep] = field(default_factory=list)

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


def _rhs_and_slack(terms: Collection[float], lhs: float) -> tuple[float, float]:
    """Sum of the rhs terms and its slack over ``lhs``.

    A non-finite slack (and so a non-finite lhs or rhs) has no verdict: it
    raises OverflowError instead of reporting a violation.
    """
    rhs = 0.0
    for term in terms:  # left to right: builtin sum() compensates from CPython 3.12 on
        rhs += term
    slack = rhs - lhs
    if not math.isfinite(slack):
        raise OverflowError(f"non-finite bound (lhs={lhs!r}, rhs={rhs!r})")
    return rhs, slack


def _holds_with_compensation(terms: Collection[float], lhs: float, slack: float) -> bool:
    """Re-evaluate near-violations in compensated summation before flagging."""
    if slack >= -SLACK_TOL:
        return True
    compensated = math.fsum([*terms, -lhs])
    return compensated >= -SLACK_TOL


def _judge(terms: Collection[float], lhs: float) -> tuple[float, float, bool]:
    """rhs, slack and verdict of ``lhs <= sum(terms)``: the one rule for every comparison."""
    rhs, slack = _rhs_and_slack(terms, lhs)
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
    """Validated random instance; deterministic in (seed, index).

    Draw order is fixed: c, f, f', then the phi-slices of h (alpha ascending),
    then those of h*; each slice is a symmetrized uniform [-magnitude,
    magnitude] matrix.  xi-slices are set to the forced -(f'/f) I exactly.
    The arguments are checked as ``sweep`` checks them.
    """
    _check_draw_args(n, c_range, f_range, fprime_range, magnitude)
    return _random_instances(n, c_range, f_range, fprime_range, magnitude, seed, range(index, index + 1))[0][0]


def _random_instances(n: int, c_range, f_range, fprime_range, magnitude: float, seed: int,
                      indices: range) -> tuple[list[LegendrianPointInstance], Array, Array]:
    """``random_instance`` for every index of a step-1 range, returned as ``_instances_from_upper``: the
    doubles u of ``instance_uniforms`` mapped as numpy's ``uniform`` maps them, low + (high - low) u, columns
    0-2 to c, f and f', the rest to the upper triangles.  numpy's refusals are raised here, in its order."""
    u = instance_uniforms(seed, indices, 3 + 2 * n ** 3)
    bounds = [(float(a), float(b)) for a, b in (c_range, f_range, fprime_range, (-magnitude, magnitude))]
    low, span = np.array([(a, b - a) for a, b in bounds]).T  # Python floats: an infinite span raises no warning
    if not np.isfinite(span).all():
        raise OverflowError("high - low range exceeds valid bounds")
    upper = (low[3] + span[3] * u[:, 3:]).reshape(len(indices), 2 * n, n, n)
    return _instances_from_upper(n, (low[:3] + span[:3] * u[:, :3]).tolist(), upper)


def _check_draw_args(n: int, c_range, f_range, fprime_range, magnitude: float) -> None:
    """Refuse, before any draw, an ``n``, range or ``magnitude`` that ``_random_instances`` cannot draw from."""
    _require_dimension(n)
    for name, (low, high) in (("c_range", c_range), ("f_range", f_range), ("fprime_range", fprime_range)):
        if not low <= high:
            raise ValueError(f"{name} must have low <= high, got ({low!r}, {high!r})")
    if not magnitude >= 0.0:
        raise ValueError(f"magnitude must be >= 0, got {magnitude!r}")
    if not f_range[0] > 0.0:
        raise ValueError(f"f_range must be positive, got ({f_range[0]!r}, {f_range[1]!r})")


def _instances_from_upper(n: int, params: list[tuple[float, float, float]],
                          upper: Array) -> tuple[list[LegendrianPointInstance], Array, Array]:
    """Instances with fields (c, f, f') and the forms of ``_forms_from_upper``, with those forms and xi values."""
    xi = np.array([-(fp / f) for _, f, fp in params])
    forms = _forms_from_upper(n, xi, upper)
    return [LegendrianPointInstance(n=n, c=c, f_val=f, f_prime=fp, h=form[0], h_star=form[1])
            for (c, f, fp), form in zip(params, forms)], forms, xi


def _forms_from_upper(n: int, xi: Array, upper: Array) -> Array:
    """(B, 2, n+1, n, n) forms h, h*: phi-slices mirrored from a (B, 2n, n, n) stack of
    upper triangles, xi-slices the (B,) forced values xi times I, set exactly.  A non-finite
    xi = -f'/f (a finite f' over a tiny f) raises OverflowError."""
    _finite_xi(xi)
    forms = np.empty((len(upper), 2, n + 1, n, n))  # h, h*
    forms[:, :, :n] = symmetrize_upper(upper).reshape(len(upper), 2, n, n, n)
    forms[:, :, n] = xi[:, None, None, None] * _frame(n).eye
    return forms


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
    ``sweep_chunk(n)`` instances is drawn in one pass, from the streams that
    ``random_instance`` draws, into one forms stack, which ``legendrian.derive_batch``
    validates and derives once; each report is ``main_inequality`` reading memoized data.
    """
    _check_draw_args(n, c_range, f_range, fprime_range, magnitude)
    out = []
    chunk = sweep_chunk(n)
    for start in range(0, count, chunk):
        indices = range(start, min(start + chunk, count))
        insts, forms, xi = _random_instances(n, c_range, f_range, fprime_range, magnitude, seed, indices)
        derive_batch(insts, forms, xi)
        out += [main_inequality(inst, seed=f"{seed}-{index}", include_chain=False)
                for index, inst in zip(indices, insts)]
    return out


# ---------------------------------------------------------------------------
# Sharpness search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpnessResult:
    best_instance: LegendrianPointInstance
    min_slack: float
    trace: list[float]
    evaluations: int
    restarts: int
    hard_violation: bool


def _upper_from_params(n: int, params: Array) -> Array:
    """Decode a (B, nparams) stack of upper-triangle phi-slice entries, h slices first, to (B, 2n, n, n)."""
    upper = np.zeros((len(params), 2 * n, n, n))
    i, j = _triu_indices(n)
    upper[:, :, i, j] = params.reshape(len(params), 2 * n, -1)
    return upper


def _stacked_bound(n: int, c: float, f: float, fp: float, params: Array) -> Iterator[float]:
    """The slack of the stated bound at every row of a (B, nparams) stack, in order, without instances.

    The forms are built as ``_instances_from_upper`` builds them, symmetric and xi-exact,
    so they are not validated again (``sharpness_search`` checks c, f and fp are finite),
    and derived in one kernel call; a row's slack (``main_inequality``'s, bit for bit)
    is formed, or raises, when it is read.
    """
    forms = _forms_from_upper(n, np.full(len(params), -(fp / f)), _upper_from_params(n, params))
    for scalars in _stacked_curvature_scalars(c, f, fp, forms):
        yield _rhs_and_slack(_rhs_terms(c, f, fp, scalars).values(), scalars.rho_perp)[1]


SHARPNESS_FIRST_STEP = 0.25
SHARPNESS_MIN_STEP = 1e-6


def _sharpness_pass_rows(n: int) -> int:
    """Most trials in one pass of ``sharpness_search``: together they cost about the pass's fixed numpy
    calls, worth some 256 of the 3n(n-1) per-matrix products a row makes (one trial at n >= 8)."""
    return max(1, min(sweep_chunk(n), 256 // (3 * n * (n - 1))))


def sharpness_search(n: int, c: float, f: float, fprime: float, iterations: int, seed: int) -> SharpnessResult:
    """Random-restart coordinate hill climb minimizing the slack.

    Coordinates are the phi-slice entries of h and h*, drawn from [-1, 1] at
    each start; each sweep tries +/- step on every coordinate and moves to
    the first trial that lowers the slack, halves the step after a fruitless
    sweep, and restarts from a fresh draw once the step drops below
    ``SHARPNESS_MIN_STEP``.  ``iterations`` is the total slack-evaluation
    budget.  The trace records the best slack after every improvement.  The
    best instance is judged by ``main_inequality``; a failed bound is a hard
    violation.  A sweep is scored in speculative passes: one ``_stacked_bound``
    call scores the next trials in order, (k, +step), (k, -step), (k+1, +step),
    ..., up to the sweep's end, the budget and ``_sharpness_pass_rows(n)``;
    rows are read in order, each an evaluation, up to the first that lowers
    the slack, and the next pass starts at coordinate k+1.  So the result is
    that of one trial at a time, bit for bit.
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
    widest = _sharpness_pass_rows(n)
    # trial 2k moves coordinate k by +step, trial 2k + 1 by -step
    coordinate, sign, pass_rows = np.arange(2 * nparams) // 2, np.tile((1.0, -1.0), nparams), np.arange(widest)
    rng = instance_rng(seed, 0)
    evaluations = 0
    restarts = 0
    best_params = params = None
    best_slack = current = math.inf
    step = 0.0  # below SHARPNESS_MIN_STEP: the climb begins with a fresh draw
    trace: list[float] = []

    def score(trials: Array) -> int | None:
        """Read a pass's slacks in order and take the first improvement; its row, or None."""
        nonlocal evaluations, params, current, best_params, best_slack
        for row, value in enumerate(_stacked_bound(n, c, f, fprime, trials)):
            evaluations += 1
            if value < current:
                params, current = trials[row], value
                if value < best_slack:
                    best_slack, best_params = value, params
                    trace.append(value)
                return row
        return None

    while evaluations < iterations:
        if step < SHARPNESS_MIN_STEP:  # a fresh start, always taken
            step, current, restarts = SHARPNESS_FIRST_STEP, math.inf, restarts + 1
            score(rng.uniform(-1.0, 1.0, size=(1, nparams)))
            continue
        improved = False
        position = 0
        while position < 2 * nparams and evaluations < iterations:
            rows = min(widest, 2 * nparams - position, iterations - evaluations)
            trials = np.repeat(params[None], rows, axis=0)
            trials[pass_rows[:rows], coordinate[position:position + rows]] += step * sign[position:position + rows]
            row = score(trials)
            if row is None:
                position += rows
            else:
                improved = True
                position = 2 * ((position + row) // 2 + 1)
        if not improved:
            step *= 0.5

    best_instance = _instances_from_upper(n, [(c, f, fprime)], _upper_from_params(n, best_params[None]))[0][0]
    hard = not main_inequality(best_instance, include_chain=False).holds
    return SharpnessResult(
        best_instance=best_instance,
        min_slack=best_slack,
        trace=trace,
        evaluations=evaluations,
        restarts=restarts,
        hard_violation=hard,
    )
