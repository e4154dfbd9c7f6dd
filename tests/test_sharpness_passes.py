"""The stacked sharpness climb against the serial climb and the single-instance route."""

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


def test_pass_width_rule():
    assert [wg._sharpness_pass_rows(n) for n in (2, 3, 5, 8, 40)] == [42, 14, 4, 1, 1]
    assert all(1 <= wg._sharpness_pass_rows(n) <= wg.sweep_chunk(n) for n in range(2, 64))


def test_discarded_rows_are_never_read(monkeypatch):
    """Rows after a pass's accepted one raise when read; the climb neither raises nor changes."""
    args = (2, -3.0, 0.7, 0.4, 400, 3)
    serial_values = []  # every slack the serial climb evaluates, in order
    serial = sharpness_oracle.serial_slack
    monkeypatch.setattr(sharpness_oracle, "serial_slack",
                        lambda *a: serial_values.append(serial(*a)) or serial_values[-1])
    want = serial_sharpness_search(*args)
    stacked = wg._stacked_bound
    read = discarded = 0

    def poisoned(*a):
        nonlocal read, discarded
        slacks = list(stacked(*a))
        rows = 0  # the rows the serial climb also evaluates: the rows this pass must read
        while rows < len(slacks) and slacks[rows] == serial_values[read + rows]:
            rows += 1
        read += rows
        discarded += len(slacks) - rows
        yield from slacks[:rows]
        if rows < len(slacks):
            raise OverflowError("non-finite bound in a discarded row")

    monkeypatch.setattr(wg, "_stacked_bound", poisoned)
    _assert_same_climb(wg.sharpness_search(*args), want)
    assert read == want.evaluations and discarded > 0


def _scalar_route(n, c, f, fp, params):
    """The rhs terms and the slack, or the OverflowError, of one parameter vector through a decoded instance."""
    inst = sharpness_oracle.instance_from_params(n, c, f, fp, params)
    scalars = curvature_scalars(inst)
    terms = list(wg._rhs_terms(c, f, fp, scalars).values())
    try:
        return terms, wg._rhs_and_slack(terms, scalars.rho_perp)[1]
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
def test_stacked_bound_equals_the_scalar_route_bit_for_bit(n):
    zero_slacks = overflows = 0
    for c, f, fp, params in _stacks(n):
        start = 0
        while start < len(params):  # a raising row ends its pass; the next pass starts after it
            slacks = wg._stacked_bound(n, c, f, fp, params[start:])
            for trial in params[start:]:
                start += 1
                terms, want = _scalar_route(n, c, f, fp, trial)
                if isinstance(want, OverflowError):
                    overflows += 1
                    with pytest.raises(OverflowError) as exc:
                        next(slacks)
                    assert str(exc.value) == str(want)
                    break
                got = next(slacks)
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
        forms = wg._forms_from_upper(n, xi, wg._upper_from_params(n, params))
        assert np.isfinite(forms).all()
        assert _find_violations(xi, forms) == [()] * len(params)


@pytest.mark.parametrize("name, value", [("c", math.inf), ("c", -math.inf), ("c", math.nan), ("f", math.inf),
                                         ("f", math.nan), ("fprime", math.inf), ("fprime", math.nan)])
def test_sharpness_search_refuses_a_non_finite_field_by_name(name, value):
    args = {"n": 2, "c": 0.0, "f": 1.0, "fprime": 0.0, "iterations": 5, "seed": 1, name: value}
    with pytest.raises(ValueError) as err:
        wg.sharpness_search(**args)
    assert str(err.value) == f"{name} must be finite, got {value!r}"
