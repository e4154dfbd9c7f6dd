"""Shared numerical kernel.

The commutator of two square arrays of one shape (checked where they come
from), the one derivative primitive for array-valued fields of several
variables (the complex-step ``jet`` of a stack of points and its split
``jet_partials``), per-instance seeded streams (a generator, or a chunk's
draws at once, bit for bit) and the upper-triangle indices.  Everything here
is pure: inputs are never mutated, outputs are fresh arrays.
"""

from __future__ import annotations

from functools import lru_cache

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
    """Independent, reproducible stream for instance ``index`` under ``seed``.

    Every sweep element draws from this stream, so results do not depend on
    evaluation order; ``instance_uniforms`` draws it for a whole chunk.
    """
    return np.random.default_rng([int(seed), int(index)])


# numpy's SeedSequence hash (a pool of four uint32 words) and PCG64 seeding; the uint32
# constants are 0-d arrays, which numpy multiplies faster than its scalars
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R, _SHIFT = (np.array(v, dtype=np.uint32) for v in (0xCA01F9DD, 0x4973F715, 16))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_WORDS = np.array([0, 1, 2, 3] * 2)  # generate_state(4, uint64) hashes the pool cyclically


@lru_cache(maxsize=1)
def _unused_seed() -> np.random.SeedSequence:
    """Seeds the one PCG64 per call cheaply; each row sets its state.  Built on the first draw, so a
    command that draws nothing never imports ``numpy.random``."""
    return np.random.SeedSequence(0)


@lru_cache(maxsize=8)
def _hash_constants(words: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read-only (xor, multiplier) uint32 constants, (4, 1) or (8, 1), of SeedSequence's vector steps for
    ``words`` >= 4 entropy words: filling the pool, one mixing round per source word (the source's own row
    unused where it is a pool word), then generate_state.  Hash call k xors constant k, then multiplies by
    constant k + 1."""
    mix = [0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & _MASK32 for k in range(4 * words + 2)]
    state = [0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK32 for k in range(9)]
    calls = [range(4), *([4 + 3 * s + d - (d > s) for d in range(4)] for s in range(4)),
             *(range(4 * e, 4 * e + 4) for e in range(4, words))]
    steps = [([mix[c] for c in row], [mix[c + 1] for c in row]) for row in calls] + [(state[:8], state[1:])]
    constants = [tuple(np.array(v, dtype=np.uint32)[:, None] for v in step) for step in steps]
    for step in constants:
        for array in step:
            array.flags.writeable = False
    return constants


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    t = (value ^ xor) * mul
    return t ^ (t >> _SHIFT)


def instance_uniforms(seed: int, indices: range, k: int) -> np.ndarray:
    """(len(indices), k) doubles: row i is ``instance_rng(seed, indices[i]).random(k)``, bit for bit.

    numpy's SeedSequence hash of [seed, index] runs as uint32 array operations on each block of 2^32
    indices, which share every entropy word but the index's lowest.  Each row then seeds one PCG64 and
    draws k doubles in numpy's own stream.  A negative seed or index raises numpy's ValueError."""
    if indices.step != 1:
        raise ValueError(f"indices must have step 1, got {indices!r}")
    seed, first, count = int(seed), indices.start, len(indices)
    if seed < 0 or (count and first < 0):
        raise ValueError("expected non-negative integer")
    if indices.stop > (cut := (first | _MASK32) + 1):  # the range spans blocks: one call per block
        return np.concatenate([instance_uniforms(seed, range(first, cut), k),
                               instance_uniforms(seed, range(cut, indices.stop), k)])
    sizes = [max(1, (v.bit_length() + 31) // 32) for v in (seed, first)]  # little-endian 32-bit words, >= 1
    entropy = [v >> 32 * i & _MASK32 for v, size in zip((seed, first), sizes) for i in range(size)]
    words = np.array(entropy + [0] * (4 - len(entropy)), dtype=np.uint32)[:, None].repeat(count, axis=1)
    words[sizes[0]] = np.arange(first & _MASK32, (first & _MASK32) + count, dtype=np.uint32)
    (xor, mul), *rounds, state_constants = _hash_constants(len(words))  # the pool is padded with zero words
    pool = _hashmix(words[:4], xor, mul)
    for s, (xor, mul) in enumerate(rounds):  # every pool word absorbs each source word but itself
        r = _MIX_L * pool - _MIX_R * _hashmix(pool[s] if s < 4 else words[s], xor, mul)
        mixed = r ^ (r >> _SHIFT)
        if s < 4:
            mixed[s] = pool[s]
        pool = mixed
    state = _hashmix(pool[_STATE_WORDS], *state_constants).T.astype("<u4", order="C").view("<u8")
    out = np.empty((count, k))
    gen = np.random.Generator(np.random.PCG64(_unused_seed()))
    for row, (s_hi, s_lo, q_hi, q_lo) in enumerate(state.tolist()):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) % (1 << 128)  # PCG64 seeding: two LCG steps, initstate between
        gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) % (1 << 128), "inc": inc}}
        gen.random(out=out[row])
    return out


@lru_cache(maxsize=32)
def _triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of the upper triangle i <= j < n."""
    i, j = np.triu_indices(n)
    i.flags.writeable = j.flags.writeable = False
    return i, j

