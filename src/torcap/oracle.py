"""Independent brute-force cross checks.

Everything here recomputes quantities from first principles by exhaustive
scans over boxed coefficient vectors, deliberately sharing as little code as
possible with the optimized routines it validates: the scans read only the
polygon's rays and support numbers, and take their intersection numbers
(`_base.intersection_numbers`), nef test and section counts from their own
cone determinants, not from the fast path's row constants.  `toric` is
imported only to wrap a witness in a `TorusDivisor` and by
`preferable_check`, which validates `toric` itself.  One cached table per
(polygon, box) walks the vectors of the box best-first from the zero
vector, by their pairing with the polarization and then lexicographically;
a query reads that walk from the cheapest vector until it passes its
optimal value.  Nefness with sections, and the index, are computed at most
once per vector and table, and only on vectors some query has read, so a
query that repeats or extends an earlier one reads stored counts.
"""

from __future__ import annotations

import heapq
import math
from array import array
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Optional

from ._base import CACHE_SIZE, det2, intersection_numbers
from ._polygon import MomentPolygon
from .errors import BoxTooSmall, IndexTooSmall, InvalidInput

if TYPE_CHECKING:
    from .toric import TorusDivisor


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


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
    y_hi = max(my // d for (_mx, my, d) in ms)
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
                b = rhs // vx
                if hi is None or b < hi:
                    hi = b
            elif rhs > 0:
                empty = True
                break
        if not empty and hi >= lo:
            total += hi - lo + 1
    return total


class _BoxTable:
    """The vectors of [0, box]^n in (value, lexicographic) order, as far as
    the walks have asked for them, and their measures so far.

    The value is the pairing with the polarization in units of 1/denom.  The
    walk starts at the zero vector, and a heap holds its frontier as (value,
    vector, place of the vector's last nonzero coefficient).  Popping a
    vector pushes the vectors one unit above it at that place and later
    ones: each vector is pushed once, by the vector with its last nonzero
    coefficient one lower, which comes first in the order, so the vectors
    pop in order.  The coefficients of the walked vectors are kept in one
    flat integer array, as they lie in [0, box]; their values and measures,
    which grow with the polygon's coordinates, in lists.
    """

    def __init__(self, p: MomentPolygon, box: int):
        rays, n = p._normals, len(p)
        # its own cone determinants, not the fan's row constants of the fast path
        self.box, self.rays = box, rays
        self.dets = tuple(det2(rays[i], rays[(i + 1) % n]) for i in range(n))
        self.smooth = all(d == 1 for d in self.dets)
        q = intersection_numbers(rays, self.dets)
        # A . D_i for the polarization A, whose coefficients are the support numbers
        support = [a for (_u, a) in p.edge_data()]
        weights = [sum(q[i][j] * support[j] for j in range(n)) for i in range(n)]
        self.denom = math.lcm(*(w.denominator for w in weights))
        self.weights = [int(w * self.denom) for w in weights]
        # integral on a smooth surface, where the index is defined
        self._q = [[int(c) for c in row] for row in q] if self.smooth else None
        self._rowsum = [sum(row) for row in self._q] if self.smooth else None
        # walked vector i has value values[i] and coefficients
        # coeffs[i * n:(i + 1) * n]; a negative box holds no vector
        self.values, self.coeffs = [], array("B" if box < 256 else "q")
        self._heap = [(0, (0,) * n, 0)] if box >= 0 else []
        # measure name -> measures of the first walked vectors
        self.measured: dict[str, list[int]] = {}

    def sections(self, a) -> int:
        """h0 of a nef divisor, -1 for one that is not nef."""
        ms = _nef_int(self.rays, self.dets, a)
        return -1 if ms is None else _h0_int(self.rays, a, ms)

    def index(self, a) -> int:
        """D . (D - K) = sum_i a_i (sum_j q_ij a_j + sum_j q_ij), as K = -sum D_j."""
        q, rowsum, n = self._q, self._rowsum, len(a)
        idx = 0
        for i in range(n):
            if a[i]:
                row = q[i]
                idx += a[i] * (sum(row[j] * a[j] for j in range(n)) + rowsum[i])
        return idx

    def vector(self, i: int) -> tuple[int, ...]:
        """The coefficients of walked vector i."""
        n = len(self.rays)
        return tuple(self.coeffs[i * n:(i + 1) * n])

    def _pop(self) -> bool:
        """Walk one vector further; False when the box is exhausted."""
        if not self._heap:
            return False
        heap, box, weights = self._heap, self.box, self.weights
        value, a, last = heapq.heappop(heap)
        self.values.append(value)
        self.coeffs.extend(a)
        for j in range(last, len(a)):
            if a[j] < box:
                heapq.heappush(heap, (value + weights[j], a[:j] + (a[j] + 1,) + a[j + 1:], j))
        return True

    def walk(self, name: str) -> Iterator[tuple[int, int, int]]:
        """(position, value, measure by the method name) for the vectors of
        the box in order: the stored measures first, then each further vector
        measured as the caller reads on."""
        measures, measure = self.measured.setdefault(name, []), getattr(self, name)
        yield from zip(range(len(measures)), self.values, measures)
        while len(measures) < len(self.values) or self._pop():
            i = len(measures)
            measures.append(measure(self.vector(i)))
            yield i, self.values[i], measures[i]


@lru_cache(maxsize=CACHE_SIZE)
def _box_table(p: MomentPolygon, box: int) -> _BoxTable:
    return _BoxTable(p, box)


def _boxed_min(table: _BoxTable, name: str, need: int,
               empty_msg: str) -> tuple[Fraction, tuple[int, ...]]:
    """Least value over the vectors of the box whose measure by the method
    name is at least need, with the first optimal vector (in lexicographic
    order) off the box boundary, as its integer coefficients.

    Reads the walk only until it passes the optimal value, so a vector is
    measured at most once per table, and only when some query reached it.
    Raises BoxTooSmall with empty_msg when no vector of the box is feasible,
    and when every optimal vector touches the boundary (a better vector
    might sit outside).
    """
    best = None
    for i, value, m in table.walk(name):
        if best is not None and value > best:
            break
        if m >= need:
            best = value
            # prefer a witness away from the boundary: only when every vector
            # attaining the optimum touches it is the box declared too small
            a = table.vector(i)
            if max(a) < table.box:
                return Fraction(value, table.denom), a
    if best is None:
        raise BoxTooSmall(empty_msg)
    raise BoxTooSmall("every optimal vector touches the box boundary")


def _sections_min(p: MomentPolygon, k: int, box: int) -> tuple[Fraction, tuple[int, ...]]:
    """`brute_calg_witness` with the witness as its coefficient vector."""
    if k < 0:
        raise IndexTooSmall("capacity index must be nonnegative")
    return _boxed_min(_box_table(p, box), "sections", k + 1, "no feasible divisor inside the box")


def _index_min(p: MomentPolygon, k: int, box: int) -> tuple[Fraction, tuple[int, ...]]:
    """`sw_infimum_witness` with the witness as its coefficient vector."""
    if k < 0:
        raise IndexTooSmall("index bound must be nonnegative")
    table = _box_table(p, box)
    if not table.smooth:
        raise InvalidInput("index scan needs a smooth surface")
    return _boxed_min(table, "index", 2 * k, "no divisor of sufficient index inside the box")


def _with_divisor(found: tuple[Fraction, tuple[int, ...]]) -> tuple[Fraction, TorusDivisor]:
    from .toric import TorusDivisor

    value, a = found
    return value, TorusDivisor(a)


def brute_calg(p: MomentPolygon, k: int, box: int = 6) -> Fraction:
    return _sections_min(p, k, box)[0]


def brute_calg_witness(p: MomentPolygon, k: int, box: int = 6) -> tuple[Fraction, TorusDivisor]:
    """Minimum pairing with the polarization over all nef integral divisors
    with coefficients in [0, box] and at least k+1 sections.

    Raises BoxTooSmall when nothing in the box is feasible or the optimum
    touches the box boundary (a better vector might sit outside).
    """
    return _with_divisor(_sections_min(p, k, box))


def sw_infimum(p: MomentPolygon, k: int, box: int = 6) -> Fraction:
    return _index_min(p, k, box)[0]


def sw_infimum_witness(p: MomentPolygon, k: int, box: int = 6) -> tuple[Fraction, TorusDivisor]:
    """Minimum pairing with the polarization over effective integral divisors
    with coefficients in [0, box] and index at least 2k (smooth surface).

    The index of D is D . (D - K); nonnegative coefficient vectors are all
    effective, so this scans the degree-k part of the effective cone.
    """
    return _with_divisor(_index_min(p, k, box))


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
    from . import toric

    y = toric.build_surface(p)
    d0 = toric.preferable_nef(y, d)
    ample = toric.associated_divisor(p)
    return (
        d0.is_integral
        and toric.is_nef(y, d0)
        and toric.intersect(y, d0, ample) <= toric.intersect(y, d, ample)
        and toric.index(y, d0) >= toric.index(y, d)
    )
