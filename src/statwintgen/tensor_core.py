"""Shared numerical kernel.

Dense matrix helpers (Frobenius norms, commutators), the one central-difference
primitive (``grid`` and ``grid_partials``) for array-valued fields of several
variables, per-instance seeded generators, upper-triangle mirroring and box
sampling.  Everything here is double precision and pure: inputs are never
mutated, outputs are fresh arrays.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

DEFAULT_FD_STEP = 1e-5


def as_square_matrix(m) -> np.ndarray:
    """Validate and return a finite square matrix as a float ndarray."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries, sum_ij M_ij^2."""
    a = as_square_matrix(m)
    return float(np.sum(a * a))


def commutator(a, b) -> np.ndarray:
    """Matrix commutator AB - BA."""
    am = as_square_matrix(a)
    bm = as_square_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am @ bm - bm @ am


@lru_cache(maxsize=32)
def _grid_signs(dim: int) -> np.ndarray:
    """Read-only (1 + 2 dim, dim) signs: 0 in row 0, +1 at [1 + 2a, a], -1 at [2 + 2a, a], 0 elsewhere."""
    axes = np.arange(dim)
    signs = np.zeros((1 + 2 * dim, dim))
    signs[1 + 2 * axes, axes] = 1.0
    signs[2 + 2 * axes, axes] = -1.0
    signs.flags.writeable = False
    return signs


def grid(points, step: float) -> np.ndarray:
    """Each point of an (N, dim) stack followed by its central-difference points, an (N (1 + 2 dim), dim) stack.

    Row ``(1 + 2 dim) i`` is point i, then rows ``+ 1 + 2a`` and ``+ 2 + 2a``
    are that point moved by ``+step`` and ``-step`` along axis a.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x = np.asarray(points, dtype=float)[:, None, :]
    signs = _grid_signs(x.shape[-1])
    # the unshifted coordinates are copied, not offset by 0.0, so a -0.0 stays -0.0
    return np.where(signs == 0.0, x, x + signs * step).reshape(-1, x.shape[-1])


def grid_partials(values: np.ndarray, count: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """(values, partials) at ``count`` points from a field's values on their ``grid(points, step)``.

    ``values`` has one row per grid point, (count (1 + 2 dim), ...); the
    values come back as (count, ...) and the partials as (count, dim, ...).
    """
    values = values.reshape((count, -1) + values.shape[1:])
    return values[:, 0], (values[:, 1::2] - values[:, 2::2]) / (2.0 * step)


def instance_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for instance ``index`` under ``seed``.

    Every sweep element derives its own generator this way, so results do not
    depend on evaluation order.
    """
    return np.random.default_rng([int(seed), int(index)])


@lru_cache(maxsize=32)
def _triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of the upper triangle i <= j < n."""
    i, j = np.triu_indices(n)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@lru_cache(maxsize=32)
def _upper_mask(n: int) -> np.ndarray:
    """Read-only (n, n) mask of the upper triangle i <= j."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def symmetrize_upper(raw: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle (including diagonal) onto the lower one, per matrix of a stack."""
    a = np.asarray(raw, dtype=float)
    # one masked select, not index gathers, so a single matrix costs few numpy calls;
    # + 0.0 turns -0.0 into 0.0, as a sum with the zero triangle did
    return np.where(_upper_mask(a.shape[-1]), a, a.swapaxes(-1, -2)) + 0.0


def sample_points(
    dim: int,
    count: int,
    rng: np.random.Generator,
    box: Sequence[tuple[float, float]] | None = None,
) -> np.ndarray:
    """Uniform sample points from a per-axis box (default [-1, 1]^dim)."""
    lo = np.full(dim, -1.0)
    hi = np.full(dim, 1.0)
    if box is not None:
        for axis, (a, b) in enumerate(box):
            lo[axis], hi[axis] = a, b
    return rng.uniform(lo, hi, size=(count, dim))
