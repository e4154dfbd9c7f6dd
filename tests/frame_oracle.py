"""Definitional frame sums of the normalized curvature scalars (test oracle).

The package computes rho and rho_perp in closed form.  This module computes
them by their definitions in the adapted frames, one term at a time:

- ``gauss_sectional``: g(R(e_i,e_j)e_j,e_i) of either induced connection by
  the Gauss equation;
- ``normal_curvature_entry``: <(R-perp + R*-perp)(e_i,e_j) u_{r+1}, u_{s+1}>
  from explicit brackets of the shape operators plus the space-form term;
- ``rho`` and ``rho_perp``: plain loops over all tangent pairs i < j and, for
  rho_perp, all normal pairs r < s including xi.

It reads ``inst.h`` and ``inst.h_star`` directly and calls nothing from
``statwintgen``, so it is independent of the routes it checks.  The module
name has no ``test_`` prefix, so pytest imports it without collecting it.
"""

from __future__ import annotations

import math

import numpy as np


def gauss_sectional(inst, i: int, j: int, which: str = "nabla") -> float:
    """g(R(e_i,e_j)e_j,e_i) of the induced connection, via the Gauss equation.

    Primal: base + <h*(e_i,e_i), h(e_j,e_j)> - <h(e_i,e_j), h*(e_i,e_j)>
    with base = c/4f^2 - (f'/f)^2; the starred form swaps h and h*.  Indices
    are zero-based and must differ.
    """
    if i == j:
        raise ValueError("sectional contraction needs i != j")
    if not (0 <= i < inst.n and 0 <= j < inst.n):
        raise ValueError("frame index out of range")
    base = inst.c / (4.0 * inst.f_val**2) - (inst.f_prime / inst.f_val) ** 2
    h, hs = inst.h, inst.h_star
    if which == "nabla":
        return base + float(hs[:, i, i] @ h[:, j, j]) - float(h[:, i, j] @ hs[:, i, j])
    if which == "nabla_star":
        return base + float(h[:, i, i] @ hs[:, j, j]) - float(hs[:, i, j] @ h[:, i, j])
    raise ValueError(f"unknown connection {which!r}")


def normal_curvature_entries(inst, r: int, s: int) -> np.ndarray:
    """out[i, j] = normal_curvature_entry(inst, r, s, i, j) for every i, j.

    Bracket part [A*_r, A_s] + [A_r, A*_s] at (e_j, e_i), where A_u comes from
    the h* slices and A*_u from the h slices (dual pairing), minus the
    space-form term (2c/4f^2)(delta_ir delta_js - delta_is delta_jr) on
    phi-pairs; pairs involving xi (r or s = n) carry no space-form term.
    """
    a, a_star = inst.h_star, inst.h
    comm = (a_star[r] @ a[s] - a[s] @ a_star[r]) + (a[r] @ a_star[s] - a_star[s] @ a[r])
    out = comm.T.copy()
    if r < inst.n and s < inst.n:
        cterm = 2.0 * inst.c / (4.0 * inst.f_val**2)
        out[r, s] -= cterm
        out[s, r] += cterm
    return out


def normal_curvature_entry(inst, r: int, s: int, i: int, j: int) -> float:
    """Combined normal curvature <(R-perp + R*-perp)(e_i,e_j) u_{r+1}, u_{s+1}>."""
    return float(normal_curvature_entries(inst, r, s)[i, j])


def rho(inst) -> float:
    """Sum of both sectional curvatures over frame pairs i < j, divided by n(n-1)."""
    n = inst.n
    acc = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            acc += gauss_sectional(inst, i, j, "nabla") + gauss_sectional(inst, i, j, "nabla_star")
    return acc / (n * (n - 1))


def rho_perp(inst) -> float:
    """Root of the squared normal curvature entries over r < s and i < j, divided by n(n-1)."""
    n = inst.n
    total = 0.0
    for r in range(n + 1):
        for s in range(r + 1, n + 1):
            entries = normal_curvature_entries(inst, r, s)
            for i in range(n):
                for j in range(i + 1, n):
                    total += float(entries[i, j]) ** 2
    return math.sqrt(total) / (n * (n - 1))
