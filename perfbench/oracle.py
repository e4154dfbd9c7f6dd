"""Definitional oracle for the generalized Wintgen bound.

Recomputes lhs, rhs and slack of

    rho_perp <= 2 rho - 8 rho0 + (1/4f^2)(2f|c| - c + 4 f'^2)
               + 4||H0||^2 + ||H||^2 + ||H*||^2

from explicit sums over the adapted frame.  It shares no code with the
package: sectional curvatures come from the Gauss equation pair by pair,
normal curvature entries from explicit commutator components, and the mean
curvature vectors from slice traces.  The benchmark uses it to check
program output without a stored reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OracleValues:
    lhs: float
    rhs: float
    slack: float


def _dot(u, v) -> float:
    return sum(a * b for a, b in zip(u, v))


def wintgen_bound(n: int, c: float, f: float, fp: float, h, h_star) -> OracleValues:
    """lhs/rhs/slack of the stated bound for one Legendrian point instance.

    ``h[alpha, i, j]`` is <h(e_i, e_j), u_{alpha+1}> with u_{n+1} = xi; the
    shape operators of the primal connection come from ``h_star`` and those
    of the dual connection from ``h`` (dual pairing).
    """
    h = np.asarray(h, dtype=float).tolist()
    hs = np.asarray(h_star, dtype=float).tolist()
    m = n + 1
    nn1 = n * (n - 1)
    base = c / (4.0 * f * f) - (fp / f) ** 2
    h0 = [[[0.5 * (x + y) for x, y in zip(rx, ry)] for rx, ry in zip(sx, sy)] for sx, sy in zip(h, hs)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def column(form, i, j):
        return [form[a][i][j] for a in range(m)]

    # Gauss equation for both induced connections and for Levi-Civita.
    stat_sum = 0.0
    lc_sum = 0.0
    for i, j in pairs:
        k_nabla = base + _dot(column(hs, i, i), column(h, j, j)) - _dot(column(h, i, j), column(hs, i, j))
        k_star = base + _dot(column(h, i, i), column(hs, j, j)) - _dot(column(hs, i, j), column(h, i, j))
        k_lc = base + _dot(column(h0, i, i), column(h0, j, j)) - _dot(column(h0, i, j), column(h0, i, j))
        stat_sum += k_nabla + k_star
        lc_sum += k_lc
    rho = stat_sum / nn1
    rho0 = 2.0 * lc_sum / nn1

    mean = [sum(h[a][i][i] for i in range(n)) / n for a in range(m)]
    mean_star = [sum(hs[a][i][i] for i in range(n)) / n for a in range(m)]
    mean0 = [0.5 * (x + y) for x, y in zip(mean, mean_star)]

    # Normal curvature: <(R-perp + R*-perp)(e_i, e_j) u_r, u_s> component by
    # component, with the space-form term on phi-pairs.
    a_op, a_star = hs, h
    cterm = 2.0 * c / (4.0 * f * f)
    total = 0.0
    for r in range(m):
        for s in range(r + 1, m):
            ar, asr, as_, ass = a_op[r], a_star[r], a_op[s], a_star[s]
            for i, j in pairs:
                entry = 0.0
                for k in range(n):
                    entry += asr[j][k] * as_[k][i] - as_[j][k] * asr[k][i]
                    entry += ar[j][k] * ass[k][i] - ass[j][k] * ar[k][i]
                if s < n:
                    delta = (i == r and j == s) - (i == s and j == r)
                    entry -= cterm * delta
                total += entry * entry
    lhs = math.sqrt(total) / nn1

    constant = (2.0 * f * abs(c) - c + 4.0 * fp * fp) / (4.0 * f * f)
    rhs = (
        2.0 * rho
        - 8.0 * rho0
        + constant
        + 4.0 * _dot(mean0, mean0)
        + _dot(mean, mean)
        + _dot(mean_star, mean_star)
    )
    return OracleValues(lhs=lhs, rhs=rhs, slack=rhs - lhs)


def close(a: float, b: float, tol: float = 1e-10) -> bool:
    """|a - b| <= tol, relative once |b| exceeds 1."""
    return abs(a - b) <= tol * max(1.0, abs(b))
