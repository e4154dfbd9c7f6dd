"""Shared numerical kernel.

The commutator of two square arrays of one shape (checked where they come
from), the one derivative primitive for array-valued fields of several
variables (the complex-step ``jet`` of a stack of points and its split
``jet_partials``), and seeded streams (a generator per (seed, index), and the
instances' doubles of one counter-addressed stream per seed).  Everything
here is pure: inputs are never mutated, outputs are fresh arrays.
"""

from __future__ import annotations

import numpy as np

# the complex step: a power of two, so dividing by it is exact, and its square is far below one ulp of any value
JET_STEP = 2.0**-100


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator AB - BA of two square arrays of one shape.

    The operands are used as given, with no conversion and no check: the package passes views of the
    operator stack of an instance checked where it entered, and an instance whose operators overflow
    already has a non-finite bound, which ``wintgen._slack`` refuses before the chain runs.
    """
    return a @ b - b @ a


def jet(points) -> np.ndarray:
    """Each point of an (N, dim) stack followed by its complex-step points, an (N (1 + dim), dim) complex stack.

    Row ``(1 + dim) i`` is point i, and row ``(1 + dim) i + 1 + a`` is that point
    moved by ``i JET_STEP`` along axis a; every row of a point has its real coordinates.
    """
    x = np.asarray(points, dtype=float)
    rows = np.empty((len(x), 1 + x.shape[-1], x.shape[-1]), dtype=complex)
    rows.real = x[:, None, :]
    rows.imag = JET_STEP * np.eye(1 + x.shape[-1], x.shape[-1], -1)
    return rows.reshape(-1, x.shape[-1])


def jet_partials(values: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, partials) at ``count`` points from a holomorphic field's values on their ``jet(points)``.

    ``values`` has one row per jet row, (count (1 + dim), ...); the values come back as the real
    (count, ...) and the partials as (count, dim, ...), each Im F(x + i JET_STEP e_a) / JET_STEP.
    """
    values = values.reshape((count, -1) + values.shape[1:])
    return values[:, 0].real.copy(), values[:, 1:].imag / JET_STEP


def instance_rng(seed: int, index: int = 0) -> np.random.Generator:
    """The generator ``default_rng([seed, index])``: the sharpness search's restart stream is index 0.

    Sweeps and ``random_instance`` do not draw from it; they read ``instance_uniforms``."""
    return np.random.default_rng([int(seed), int(index)])


def instance_uniforms(seed: int, indices: range, k: int) -> np.ndarray:
    """(len(indices), k) doubles: the row of an index is doubles index k to (index + 1) k - 1 of ``PCG64(seed)``.

    Each instance owns its k consecutive doubles of the seed's one stream, reached by PCG's jump-ahead, so a
    row depends on (seed, index, k) only, whatever range it is drawn in.  A negative seed or index raises
    numpy's ValueError (``PCG64.advance`` would wrap a negative index), and so does an index whose last double
    lies at or past 2^128, the stream's period (``advance`` reduces modulo it, so that index would alias)."""
    if indices.step != 1:
        raise ValueError(f"indices must have step 1, got {indices!r}")
    bits = np.random.PCG64(int(seed))
    if indices and indices.start < 0:
        raise ValueError("expected non-negative integer")
    if indices and indices.stop * k > 2**128:
        raise ValueError(f"index {indices.stop - 1} reads past the stream's 2^128 doubles ({k} per index)")
    bits.advance(indices.start * k)
    return np.random.Generator(bits).random(len(indices) * k).reshape(len(indices), k)

