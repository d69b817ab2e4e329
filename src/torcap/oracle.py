"""Independent brute-force cross checks.

Everything here recomputes quantities from first principles by exhaustive
scans over boxed coefficient vectors, deliberately sharing as little code as
possible with the optimized routines it validates.  Scans are integer-only
on the hot path and cached per (polygon, box).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import toric
from .errors import BoxTooSmall
from .lattice import MomentPolygon, det2
from .toric import TorusDivisor


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _floor_div(p: int, q: int) -> int:
    return p // q


@lru_cache(maxsize=toric.CACHE_SIZE)
def _objective(p: MomentPolygon):
    """Integer objective: weights W and denominator L with
    D . A = (sum a_i W_i) / L for the polarization A."""
    y = toric.build_surface(p)
    n = len(y.rays)
    q = toric.intersection_matrix(y)
    ample = toric.associated_divisor(p)
    w = [sum(q[i][j] * ample.coeffs[j] for j in range(n)) for i in range(n)]
    denom = 1
    for wi in w:
        denom = denom * wi.denominator // math.gcd(denom, wi.denominator)
    scaled = tuple(int(wi * denom) for wi in w)
    return scaled, denom


def _nef_int(rays, dets, a) -> Optional[list[tuple[int, int, int]]]:
    """Integer nef test for integral coefficients a.

    Returns the scaled cone linearizations (Mx, My, det) with m = M/det,
    or None when some support inequality fails.
    """
    n = len(rays)
    ms = []
    for i in range(n):
        j = (i + 1) % n
        vi, vj = rays[i], rays[j]
        d = dets[i]
        mx = -a[i] * vj[1] + a[j] * vi[1]
        my = -a[j] * vi[0] + a[i] * vj[0]
        for l in range(n):
            vl = rays[l]
            if vl[0] * mx + vl[1] * my < -d * a[l]:
                return None
        ms.append((mx, my, d))
    return ms


def _h0_int(rays, a, ms) -> int:
    """Lattice points of the section polytope of a nef integral divisor,
    whose vertices are the cone linearizations in ms."""
    y_lo = min(_ceil_div(my, d) for (_mx, my, d) in ms)
    y_hi = max(_floor_div(my, d) for (_mx, my, d) in ms)
    total = 0
    for yy in range(y_lo, y_hi + 1):
        lo, hi = None, None
        empty = False
        for (vx, vy), ai in zip(rays, a):
            rhs = -ai - vy * yy
            if vx > 0:
                b = _ceil_div(rhs, vx)
                if lo is None or b > lo:
                    lo = b
            elif vx < 0:
                b = _floor_div(rhs, vx)
                if hi is None or b < hi:
                    hi = b
            elif rhs > 0:
                empty = True
                break
        if not empty and hi >= lo:
            total += hi - lo + 1
    return total


@lru_cache(maxsize=toric.CACHE_SIZE)
def _nef_table(p: MomentPolygon, box: int):
    """All nef integral divisors with coefficients in [0, box], as
    (scaled value, coefficient vector, h0), sorted."""
    y = toric.build_surface(p)
    rays = y.rays
    n = len(rays)
    dets = [det2(rays[i], rays[(i + 1) % n]) for i in range(n)]
    weights, denom = _objective(p)
    entries = []
    for a in itertools.product(range(box + 1), repeat=n):
        ms = _nef_int(rays, dets, a)
        if ms is None:
            continue
        value = sum(ai * wi for ai, wi in zip(a, weights))
        entries.append((value, a, _h0_int(rays, a, ms)))
    entries.sort()
    return tuple(entries), denom


def brute_calg(p: MomentPolygon, k: int, box: int = 6) -> Fraction:
    return brute_calg_witness(p, k, box)[0]


def brute_calg_witness(p: MomentPolygon, k: int, box: int = 6) -> tuple[Fraction, TorusDivisor]:
    """Minimum pairing with the polarization over all nef integral divisors
    with coefficients in [0, box] and at least k+1 sections.

    Raises BoxTooSmall when nothing in the box is feasible or the optimum
    touches the box boundary (a better vector might sit outside).
    """
    if k < 0:
        raise ValueError("capacity index must be nonnegative")
    entries, denom = _nef_table(p, box)
    best = None
    for value, a, h0 in entries:
        if h0 < k + 1:
            continue
        if best is not None and value > best:
            raise BoxTooSmall("every optimal vector touches the box boundary")
        best = value
        # prefer a witness away from the boundary: only when every vector
        # attaining the optimum touches it is the box declared too small
        if all(ai < box for ai in a):
            return Fraction(value, denom), TorusDivisor(tuple(Fraction(ai) for ai in a))
    if best is None:
        raise BoxTooSmall("no feasible divisor inside the box")
    raise BoxTooSmall("every optimal vector touches the box boundary")


@lru_cache(maxsize=toric.CACHE_SIZE)
def _index_data(p: MomentPolygon):
    """Integer intersection matrix and anticanonical row sums (smooth only)."""
    y = toric.build_surface(p)
    if not y.smooth:
        raise ValueError("index scan needs a smooth surface")
    n = len(y.rays)
    q = toric.intersection_matrix(y)
    qi = [[int(q[i][j]) for j in range(n)] for i in range(n)]
    rowsum = [sum(row) for row in qi]
    return tuple(tuple(row) for row in qi), tuple(rowsum)


@lru_cache(maxsize=toric.CACHE_SIZE)
def _index_table(p: MomentPolygon, box: int):
    """All coefficient vectors in [0, box] as (scaled value, vector, index),
    sorted by value then vector."""
    qi, rowsum = _index_data(p)
    n = len(qi)
    weights, denom = _objective(p)
    entries = []
    for a in itertools.product(range(box + 1), repeat=n):
        idx = 0
        for i in range(n):
            ai = a[i]
            if ai:
                row = qi[i]
                idx += ai * (sum(row[j] * a[j] for j in range(n)) + rowsum[i])
        value = sum(ai * wi for ai, wi in zip(a, weights))
        entries.append((value, a, idx))
    entries.sort()
    return tuple(entries), denom


def sw_infimum(p: MomentPolygon, k: int, box: int = 6) -> Fraction:
    return sw_infimum_witness(p, k, box)[0]


def sw_infimum_witness(p: MomentPolygon, k: int, box: int = 6) -> tuple[Fraction, TorusDivisor]:
    """Minimum pairing with the polarization over effective integral divisors
    with coefficients in [0, box] and index at least 2k (smooth surface).

    The index of D is D . (D - K); nonnegative coefficient vectors are all
    effective, so this scans the degree-k part of the effective cone.
    """
    if k < 0:
        raise ValueError("index bound must be nonnegative")
    entries, denom = _index_table(p, box)
    best = None
    for value, a, idx in entries:
        if idx < 2 * k:
            continue
        if best is not None and value > best:
            raise BoxTooSmall("every optimal vector touches the box boundary")
        best = value
        if all(ai < box for ai in a):
            return Fraction(value, denom), TorusDivisor(tuple(Fraction(ai) for ai in a))
    if best is None:
        raise BoxTooSmall("no divisor of sufficient index inside the box")
    raise BoxTooSmall("every optimal vector touches the box boundary")


def sw_equals_nef(p: MomentPolygon, k: int, box: int = 6) -> tuple[Fraction, Fraction, bool]:
    """Compare the index-constrained infimum with the section-constrained one.

    On smooth surfaces the two agree; this recomputes both by brute force
    and reports (index value, section value, equal)."""
    sw = sw_infimum(p, k, box)
    nef = brute_calg(p, k, box)
    return sw, nef, sw == nef


def preferable_check(p: MomentPolygon, d: TorusDivisor) -> bool:
    """Validate the nef replacement procedure on one input.

    The output must be integral, nef, pair no worse against the
    polarization, and have index at least that of the input."""
    y = toric.build_surface(p)
    d0 = toric.preferable_nef(y, d)
    ample = toric.associated_divisor(p)
    return (
        d0.is_integral
        and toric.is_nef(y, d0)
        and toric.intersect(y, d0, ample) <= toric.intersect(y, d, ample)
        and toric.index(y, d0) >= toric.index(y, d)
    )
