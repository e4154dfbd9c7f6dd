"""The tree-pass sharpness climb against the serial climb, and its column scorer against the single-instance route."""

from __future__ import annotations

import math

import numpy as np
import pytest

import sharpness_oracle
from sharpness_oracle import serial_sharpness_search
from statwintgen import wintgen as wg
from statwintgen.legendrian import _find_violations, curvature_scalars

FAMILIES = {
    "zero": (0.0, 1.0, 0.0),
    "umbilic": (0.0, 1.0, 1.0),
    "positive-c": (4.0, 1.0, 0.0),
    "mixed": (-3.0, 0.7, 0.4),
}


def _assert_same_climb(got: wg.SharpnessResult, want: wg.SharpnessResult) -> None:
    assert got.trace == want.trace
    assert got.min_slack == want.min_slack
    assert (got.evaluations, got.restarts, got.hard_violation) == (want.evaluations, want.restarts,
                                                                   want.hard_violation)
    assert got.best_instance.to_json() == want.best_instance.to_json()


@pytest.mark.parametrize("iterations", [1, 2, 3, 25, 150])
@pytest.mark.parametrize("family", FAMILIES, ids=str)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_climb_equals_the_serial_climb(n, family, iterations):
    args = (n, *FAMILIES[family], iterations, 11)
    _assert_same_climb(wg.sharpness_search(*args), serial_sharpness_search(*args))


def test_stacked_climb_equals_the_serial_climb_across_restarts():
    args = (2, 0.0, 1.0, 0.0, 2500, 5)
    want = serial_sharpness_search(*args)
    assert want.restarts >= 2
    _assert_same_climb(wg.sharpness_search(*args), want)


@pytest.mark.parametrize("family", FAMILIES, ids=str)
@pytest.mark.parametrize("n, budgets", [(2, range(1, 41)), (3, range(1, 21))])
def test_every_budget_ends_the_tree_climb_as_the_serial_climb(n, budgets, family):
    # a budget of b stops the first tree pass, at coordinates 0, 1, ..., after b - 1 reads: at every level
    for iterations in budgets:
        args = (n, *FAMILIES[family], iterations, 11)
        _assert_same_climb(wg.sharpness_search(*args), serial_sharpness_search(*args))


@pytest.mark.parametrize("n, width, depth, budgets", [(8, 1, 0, range(1, 61)), (4, 7, 1, range(145, 191))])
def test_passes_from_odd_positions_equal_the_serial_climb(monkeypatch, n, width, depth, budgets):
    # n = 8: every pass is one trial and no tree, and half of them start at a (-) trial;
    # n = 4: a fruitless pass (a tree of 2, a chain of 5) ends at a (+) trial, so the next starts at its (-)
    assert (wg._sharpness_pass_rows(n), wg._sharpness_depth(n)) == (width, depth)
    depths = []  # the tree depth of every pass: 0 at n = 4 only where the pass starts at a (-) trial
    signs = wg._pass_signs
    monkeypatch.setattr(wg, "_pass_signs", lambda rows, m: depths.append(m) or signs(rows, m))
    for iterations in budgets:
        args = (n, *FAMILIES["mixed"], iterations, 4)
        _assert_same_climb(wg.sharpness_search(*args), serial_sharpness_search(*args))
    assert 0 in depths


def _serial_restart_evaluations(monkeypatch, args) -> list[int]:
    """The evaluations the serial climb has made before each of its fresh draws."""
    count, draws = [0], []
    serial, rng_for = sharpness_oracle.serial_slack, sharpness_oracle.instance_rng

    class CountingRng:
        def __init__(self, rng):
            self.rng = rng

        def uniform(self, *a, **k):
            draws.append(count[0])
            return self.rng.uniform(*a, **k)

    with monkeypatch.context() as m:
        m.setattr(sharpness_oracle, "serial_slack", lambda *a: count.__setitem__(0, count[0] + 1) or serial(*a))
        m.setattr(sharpness_oracle, "instance_rng", lambda *a: CountingRng(rng_for(*a)))
        serial_sharpness_search(*args)
    return draws


def _pass_before_the_second_draw(monkeypatch, n, iterations) -> int:
    """The rows of the pass that precedes the second fresh draw of an umbilic climb at seed 5; budgets that end in
    it, at the draw and just after agree with the serial climb."""
    args = (n, *FAMILIES["umbilic"], iterations, 5)
    restart = _serial_restart_evaluations(monkeypatch, args)[1]
    rows = []  # the rows of every pass, in order
    scorer = wg._bound_scorer

    def recording_scorer(*constants):
        columns = scorer(*constants)
        return lambda params: rows.append(len(params)) or columns(params)

    with monkeypatch.context() as m:
        m.setattr(wg, "_bound_scorer", recording_scorer)
        want = serial_sharpness_search(*args)
        assert want.restarts == 2
        _assert_same_climb(wg.sharpness_search(*args), want)
    for budget in range(restart - 2, restart + 3):
        args = (n, *FAMILIES["umbilic"], budget, 5)
        _assert_same_climb(wg.sharpness_search(*args), serial_sharpness_search(*args))
    return rows[rows.index(1, 1) - 1]


def test_restarts_after_a_cut_tree_pass_equal_the_serial_climb(monkeypatch):
    # the last pass of a fruitless n = 3 sweep is a tree cut to depth 1 by the sweep's end (coordinate 35 of 36)
    assert _pass_before_the_second_draw(monkeypatch, 3, 5000) == 3 ** 1 - 1


def test_a_fruitless_n2_sweep_is_one_pass(monkeypatch):
    # an n = 2 pass is as wide as a sweep that does not move (a 26-row tree for coordinates 0-2 and an 18-row
    # chain for 3-11), so no lone pass is left for the last coordinate before the fresh draw
    assert wg._sharpness_pass_rows(2) == 3 ** 3 - 1 + 2 * (12 - 3) and wg._sharpness_depth(2) == 3
    assert _pass_before_the_second_draw(monkeypatch, 2, 1500) == 44


def test_pass_width_rule():
    assert [wg._sharpness_pass_rows(n) for n in (2, 3, 5, 8, 40)] == [44, 14, 4, 1, 1]
    assert all(1 <= wg._sharpness_pass_rows(n) <= wg.sweep_chunk(n) for n in range(2, 64))


def test_pass_depth_rule():
    assert [wg._sharpness_depth(n) for n in (2, 3, 5, 8, 40)] == [3, 2, 1, 0, 0]
    for n in range(2, 64):
        m = wg._sharpness_depth(n)
        assert 3 ** m - 1 <= wg._sharpness_pass_rows(n) < 3 ** (m + 1) - 1


def test_discarded_rows_are_never_read(monkeypatch):
    """Every row the serial climb does not evaluate raises when read; the climb neither raises nor changes."""
    args = (2, -3.0, 0.7, 0.4, 400, 3)
    serial_trials = []  # every trial the serial climb evaluates, in order, as bytes
    serial = sharpness_oracle.serial_slack
    monkeypatch.setattr(sharpness_oracle, "serial_slack",
                        lambda *a: serial_trials.append(a[-1].tobytes()) or serial(*a))
    want = serial_sharpness_search(*args)
    scorer = wg._bound_scorer
    read = discarded = 0

    def poisoned_scorer(*constants):
        columns = scorer(*constants)

        def poisoned(params):
            nonlocal read, discarded
            rhs, lhs = columns(params)
            rows = {trial.tobytes(): row for row, trial in enumerate(params)}
            evaluated = set()  # the rows of this pass's serial trials: those the serial climb takes next
            while read < len(serial_trials) and serial_trials[read] in rows:
                evaluated.add(rows[serial_trials[read]])
                read += 1
            discarded += len(params) - len(evaluated)
            return [x if row in evaluated else math.nan for row, x in enumerate(rhs)], lhs

        return poisoned

    monkeypatch.setattr(wg, "_bound_scorer", poisoned_scorer)
    _assert_same_climb(wg.sharpness_search(*args), want)
    assert read == want.evaluations and discarded > 0


def _scalar_route(n, c, f, fp, params):
    """The rhs terms and the slack, or the OverflowError, of one parameter vector through a decoded instance."""
    inst = sharpness_oracle.instance_from_params(n, c, f, fp, params)
    scalars = curvature_scalars(inst)
    terms = list(wg._rhs_terms(c, f, fp, scalars).values())
    try:
        return terms, wg._slack(wg._rhs_sum(terms), scalars.rho_perp)
    except OverflowError as exc:
        return terms, exc


def _stacks(n):
    rng = np.random.default_rng(n)
    nparams = 2 * n * (n * (n + 1) // 2)
    scale = np.array([1.0, 1e-300, 1e150, 1e3, 1.0, 1e-300, 1e150, 0.5])[:, None]
    for c, f, fp in [(0.0, 1.0, 0.0), (-3.0, 0.7, 0.4), (4.0, 1.0, 0.0), (2.5, 1.3, -0.9), (1e-300, 2.0, 1e-300)]:
        yield c, f, fp, scale * rng.uniform(-1.0, 1.0, (len(scale), nparams))
    for c in (0.0, -0.0):
        for fp in (0.0, -0.0):
            zeros = np.zeros((4, nparams))
            zeros[1::2] = -0.0
            zeros[2:, ::3] *= -1.0
            yield c, 1.0, fp, zeros


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_bound_scorer_equals_the_scalar_route_bit_for_bit(n):
    zero_slacks = overflows = 0
    for c, f, fp, params in _stacks(n):
        rhs, lhs = wg._bound_scorer(n, c, f, fp)(params)  # a non-finite row raises only when it is read
        for row, trial in enumerate(params):
            terms, want = _scalar_route(n, c, f, fp, trial)
            if isinstance(want, OverflowError):
                overflows += 1
                with pytest.raises(OverflowError) as exc:
                    wg._slack(rhs[row], lhs[row])
                assert str(exc.value) == str(want)
                continue
            got = wg._slack(rhs[row], lhs[row])
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
            if got == 0.0:
                zero_slacks += 1
                plain = sum(terms) - _lhs(n, c, f, fp, trial)
                assert plain == 0.0 and math.copysign(1.0, plain) == math.copysign(1.0, got)
    assert zero_slacks >= 16 and overflows > 0


def _lhs(n, c, f, fp, params):
    return curvature_scalars(sharpness_oracle.instance_from_params(n, c, f, fp, params)).rho_perp


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_forms_from_upper_are_valid_by_construction(n):
    # the passes do not re-check their forms: symmetric and xi-exact as built, they have no violation
    for c, f, fp, params in _stacks(n):
        xi = np.full(len(params), -(fp / f))
        forms = wg._forms_from_upper(n, xi, params)
        assert np.isfinite(forms).all()
        assert _find_violations(xi, forms) == [()] * len(params)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_gather_decode_equals_the_masked_select_bit_for_bit(n):
    # one gather of packed or n x n upper triangles and xi, -0.0 entries made 0.0 as the masked select made them
    assert not wg._upper_gather(n, n * (n + 1) // 2).flags.writeable and not wg._upper_gather(n, n * n).flags.writeable
    for c, f, fp, params in _stacks(n):
        xi = np.full(len(params), -(fp / f))
        upper = sharpness_oracle.upper_from_params(n, params)
        upper[:, :, 1:, 0] = np.nan  # the lower triangle of the n x n layout is never read
        want = sharpness_oracle.forms_from_upper(n, xi, upper)
        for got in (wg._forms_from_upper(n, xi[0], params), wg._forms_from_upper(n, xi, params),
                    wg._forms_from_upper(n, xi, upper.reshape(len(upper), -1))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, value", [("c", math.inf), ("c", -math.inf), ("c", math.nan), ("f", math.inf),
                                         ("f", math.nan), ("fprime", math.inf), ("fprime", math.nan)])
def test_sharpness_search_refuses_a_non_finite_field_by_name(name, value):
    args = {"n": 2, "c": 0.0, "f": 1.0, "fprime": 0.0, "iterations": 5, "seed": 1, name: value}
    with pytest.raises(ValueError) as err:
        wg.sharpness_search(**args)
    assert str(err.value) == f"{name} must be finite, got {value!r}"
