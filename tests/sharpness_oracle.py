"""The serial sharpness hill climb (test oracle).

``wintgen.sharpness_search`` scores each coordinate sweep in stacked passes
and discards the rows after the first improvement.  This module keeps the
climb it must reproduce: one trial at a time, each scored by the
single-instance route (a ``LegendrianPointInstance`` decoded through the
n x n upper triangles, as sweeps build their forms, and its
``curvature_scalars``).  It also keeps the decode that mirrored the upper
triangles by a masked select, which the one-gather decode must equal.  The
module name has no ``test_`` prefix, so pytest imports it without collecting
it.
"""

from __future__ import annotations

import math

import numpy as np

from statwintgen import wintgen as wg
from statwintgen.legendrian import _instance_rows, curvature_scalars
from statwintgen.tensor_core import instance_rng


def forms_from_upper(n: int, xi: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """(B, 2, n+1, n, n) forms h, h*: phi-slices mirrored from a (B, 2n, n, n) stack of upper triangles by one
    masked select, + 0.0 (so -0.0 reads 0.0), xi-slices the (B,) forced values xi times I."""
    forms = np.empty((len(upper), 2, n + 1, n, n))
    mirrored = np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.swapaxes(-1, -2)) + 0.0
    forms[:, :, :n] = mirrored.reshape(len(upper), 2, n, n, n)
    forms[:, :, n] = xi[:, None, None, None] * np.eye(n)
    return forms


def upper_from_params(n: int, params: np.ndarray) -> np.ndarray:
    """Decode a (B, nparams) stack of upper-triangle phi-slice entries, h slices first, to (B, 2n, n, n)."""
    upper = np.zeros((len(params), 2 * n, n, n))
    i, j = np.triu_indices(n)
    upper[:, :, i, j] = params.reshape(len(params), 2 * n, -1)
    return upper


def instance_from_params(n: int, c: float, f: float, fprime: float, params):
    """The instance whose phi-slice upper triangles, h slices first, are ``params``."""
    return _instance_rows(n, *wg._fields_and_forms(n, [(c, f, fprime)], upper_from_params(n, params[None])))[0]


def serial_slack(n: int, c: float, f: float, fprime: float, params) -> float:
    """Slack of the stated bound at one parameter vector, through a decoded instance."""
    inst = instance_from_params(n, c, f, fprime, params)
    scalars = curvature_scalars(inst)
    return wg._slack(wg._rhs_sum(wg._rhs_terms(c, f, fprime, scalars).values()), scalars.rho_perp)


def serial_sharpness_search(n: int, c: float, f: float, fprime: float, iterations: int,
                            seed: int) -> wg.SharpnessResult:
    """Random-restart coordinate hill climb, one slack evaluation per trial."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    if not f > 0.0:
        raise ValueError(f"f must be positive, got {f!r}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations!r}")
    nparams = 2 * n * (n * (n + 1) // 2)
    rng = instance_rng(seed, 0)
    evaluations = 0
    restarts = 0
    best_params = params = None
    best_slack = current = math.inf
    step = wg.SHARPNESS_FIRST_STEP
    trace: list[float] = []

    def accept(trial, value: float) -> None:
        nonlocal params, current, best_params, best_slack
        params, current = trial, value
        if value < best_slack:
            best_slack, best_params = value, trial.copy()
            trace.append(value)

    def fresh_start() -> None:
        nonlocal evaluations, restarts, step
        step = wg.SHARPNESS_FIRST_STEP
        trial = rng.uniform(-1.0, 1.0, size=nparams)
        evaluations += 1
        restarts += 1
        accept(trial, serial_slack(n, c, f, fprime, trial))

    fresh_start()
    while evaluations < iterations:
        improved = False
        for k in range(nparams):
            if evaluations >= iterations:
                break
            for direction in (1.0, -1.0):
                if evaluations >= iterations:
                    break
                trial = params.copy()
                trial[k] += direction * step
                value = serial_slack(n, c, f, fprime, trial)
                evaluations += 1
                if value < current:
                    accept(trial, value)
                    improved = True
                    break
        if not improved:
            step *= 0.5
            if step < wg.SHARPNESS_MIN_STEP:
                if evaluations >= iterations:
                    break
                fresh_start()

    best_instance = instance_from_params(n, c, f, fprime, best_params)
    hard = not wg.main_inequality(best_instance, include_chain=False).holds
    return wg.SharpnessResult(
        best_instance=best_instance,
        min_slack=best_slack,
        trace=trace,
        evaluations=evaluations,
        restarts=restarts,
        hard_violation=hard,
    )
