"""Independent brute-force cross checks.

Everything here recomputes quantities from first principles by exhaustive
scans over boxed coefficient vectors, deliberately sharing as little code as
possible with the optimized routines it validates: the scans read only the
polygon's rays and support numbers, and take their intersection numbers
(`_base.intersection_numbers`), nef test and section counts from their own
cone determinants, not from the fast path's row constants.  `toric` is
imported only to wrap a witness in a `TorusDivisor` and by
`preferable_check`, which validates `toric` itself.  One cached table per
(polygon, box) ranks the vectors of the box by their pairing with the
polarization, sorting them lazily; a query walks that ranking from the
cheapest vector.  Nefness with sections, and the index, are computed at
most once per vector and table, on a prefix of the ranking at most twice
as long as the longest walk, so a query that repeats or extends an earlier
walk reads stored counts.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from bisect import bisect_left
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
    """Every coefficient vector of [0, box]^n in (value, vector) order, and
    the measures the walks have asked for so far.

    The value is the pairing with the polarization in units of 1/denom.
    A vector is one integer key, value * (box+1)^n + its index in
    itertools.product order, so sorting the keys sorts the pairs.  The keys
    of the vectors with last coefficient c are head + c * unit, where head
    holds the sorted keys of the other coefficients; they are sorted lazily,
    all keys below a threshold at a time.  Each measure ("sections" or
    "index") covers a prefix of the keys that doubles whenever a walk runs
    past it.
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
        # integral on a smooth surface, where the index is defined
        self._q = [[int(c) for c in row] for row in q] if self.smooth else None
        self._rowsum = [sum(row) for row in self._q] if self.smooth else None
        side = max(box + 1, 0)  # a negative box holds no vector
        self.size = side ** n
        # the key of one unit of coefficient i: its value and its index place
        units = [int(w * self.denom) * self.size + side ** (n - 1 - i) for i, w in enumerate(weights)]
        head = [0]
        for unit in units[:-1]:
            steps = [c * unit for c in range(side)]
            head = [x + s for x in head for s in steps]
        head.sort()
        self._head, self._offsets = head, [c * units[-1] for c in range(side)]
        # every key below _upto is in keys; the all-box vector has the largest key
        self._upto, self._end = 0, box * sum(units) + 1
        self.keys = array("q") if self._end <= 2 ** 63 else []
        # an index decodes as the first n//2 coefficients and the rest
        self._low = side ** (n - n // 2)
        self._digits = (list(itertools.product(range(side), repeat=n // 2)),
                        list(itertools.product(range(side), repeat=n - n // 2)))
        # measure name -> measures of the first keys, each measure larger
        # than all before it, and the position where it first occurs
        self.walked: dict[str, tuple[array, array, array]] = {}

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

    def _read(self, stop: int) -> None:
        """Sort at least the first stop keys into keys."""
        head, upto = self._head, self._upto
        if len(self.keys) >= stop or upto == self._end:
            return
        # the run with c = 0 alone holds the missing keys below the next threshold
        i = bisect_left(head, upto) + stop - len(self.keys)
        self._upto = head[i] if i < len(head) else self._end
        self.keys.extend(sorted(itertools.chain.from_iterable(
            map(off.__add__, head[bisect_left(head, upto - off):bisect_left(head, self._upto - off)])
            for off in self._offsets)))

    def value(self, pos: int) -> int:
        return self.keys[pos] // self.size

    def vectors(self, start: int, stop: int) -> Iterator[tuple[int, ...]]:
        """Coefficient vectors of the keys from position start to stop,
        decoded by maps: a walk through the whole box spends its time here."""
        ranks = [key % self.size for key in self.keys[start:stop]]
        high, low = self._digits
        his = map(operator.floordiv, ranks, itertools.repeat(self._low))
        los = map(operator.mod, ranks, itertools.repeat(self._low))
        return map(operator.add, map(high.__getitem__, his), map(low.__getitem__, los))

    def measure_more(self, name: str) -> bool:
        """Measure as many keys again by the method name; False when all are."""
        measures, peaks, firsts = self.walked[name]
        done = len(measures)
        if done == self.size:
            return False
        stop = min(2 * done + 1, self.size)
        self._read(stop)
        batch = list(map(getattr(self, name), self.vectors(done, stop)))
        measures.extend(batch)
        for pos, m in enumerate(batch, done):
            if not peaks or m > peaks[-1]:
                peaks.append(m)
                firsts.append(pos)
        return True


@lru_cache(maxsize=CACHE_SIZE)
def _box_table(p: MomentPolygon, box: int) -> _BoxTable:
    return _BoxTable(p, box)


def _boxed_min(table: _BoxTable, name: str, need: int,
               empty_msg: str) -> tuple[Fraction, tuple[int, ...]]:
    """Least value over the vectors of the box whose measure by the method
    name is at least need, with the first optimal vector (in lexicographic
    order) off the box boundary, as its integer coefficients.

    A vector is measured at most once per table, and only while the
    measured prefix is at most twice what some walk has read.  Raises
    BoxTooSmall with empty_msg when no vector of the box is feasible, and
    when every optimal vector touches the boundary (a better vector might
    sit outside).
    """
    measures, peaks, firsts = table.walked.setdefault(name, (array("q"), array("q"), array("q")))
    # the first feasible vector is where the first peak of at least need occurs
    while (i := bisect_left(peaks, need)) == len(peaks):
        if not table.measure_more(name):
            raise BoxTooSmall(empty_msg)
    pos = firsts[i]
    best = table.value(pos)
    while table.value(pos) == best:
        # prefer a witness away from the boundary: only when every vector
        # attaining the optimum touches it is the box declared too small
        if measures[pos] >= need:
            a = next(table.vectors(pos, pos + 1))
            if all(ai < table.box for ai in a):
                return Fraction(best, table.denom), a
        pos += 1
        if pos == len(measures) and not table.measure_more(name):
            break
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
