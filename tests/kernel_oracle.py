"""The stacked derivation, batch-major, as it formed S through a means-times-identity temporary (test oracle).

``legendrian._derive_arrays`` forms the traceless operators by copying the
shape operators and subtracting the means on their diagonals only.  This
module keeps the earlier kernel, which subtracted a whole (B, 3, n+1, n, n)
``means * I`` stack, and its ``np.take`` bracket pass.  It is also the
batch-major reference: its arrays put the rows first, (B, 6, n+1, n, n)
operators, (B, 3, n+1) means and (B, 3) norms, where the kernel is
kind-major, (6, B, n+1, n, n), (3, B, n+1) and (3, B); the tests compare
them after ``np.moveaxis``.  The two must agree bit for bit on every
returned array except S, whose exact-zero off-diagonal entries may differ in
sign (A - 0.0 * H against A).  The module name has no ``test_`` prefix, so
pytest imports it without collecting it.
"""

from __future__ import annotations

import numpy as np

from statwintgen.legendrian import _frame


def derive_arrays(forms: np.ndarray, cterm: np.ndarray) -> tuple[np.ndarray, ...]:
    """Operator stack, means, their squared norms, traceless norms and rho_perp of a (B, 2, n+1, n, n) stack."""
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
    mean_sq = (means[..., None, :] @ means[..., None]).reshape(count, 3)
    return ops, means, mean_sq, tau_sq, rho_perp_stack(cterm, ops)


def rho_perp_stack(cterm: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """(B,) rho_perp bracketed from the phi-pairs r < s of A, A* and A0."""
    count, n = len(ops), ops.shape[-1]
    frame = _frame(n)
    x = ops[:, :3, :n]
    prod = np.take(x, frame.left, axis=2) @ np.take(x, frame.right, axis=2)
    entries = np.take(prod.reshape(count, 3, len(frame.left), n * n), frame.ji, axis=3)
    pairs = len(frame.ji)
    bracket = entries[:, :, :pairs] - entries[:, :, pairs:]
    comm = 4.0 * bracket[:, 2] - bracket[:, 0] - bracket[:, 1]
    comm = comm.reshape(count, -1)
    comm[:, :: pairs + 1] -= cterm[:, None]
    return np.sqrt(np.square(comm).sum(axis=1)) / (n * (n - 1))
