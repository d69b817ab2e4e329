"""ECH capacities of ellipsoids and concave toric domains.

Both are lattice-point arithmetic and need no fan, divisor or capacity
search: an ellipsoid's capacities are the sorted values a*m + b*n, and a
concave toric domain's come from the ball packing of its weight expansion
through a max-plus convolution.  All values are exact rationals.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from operator import add

from ._base import _Record, det2, frac
from .errors import IterationLimit, NotConcave

ALG = "alg"
ECH_ELLIPSOID = "ech-ellipsoid"
ECH_CONVEX = "ech-convex"
ECH_CONCAVE = "ech-concave"

WEIGHT_EXPANSION_CAP = 100_000


class CapacitySequence(_Record):
    """Capacities c_0, c_1, ..., tagged with how they were computed."""

    _fields = ("values", "kind")

    def __init__(self, values: tuple[Fraction, ...], kind: str):
        self.__dict__.update(values=values, kind=kind)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def ech_ellipsoid(a, b, k: int) -> Fraction:
    """k-th ECH capacity of the ellipsoid with areas a, b: the (k+1)-th
    smallest value of a*m + b*n over nonnegative integers m, n."""
    if k < 0:
        raise ValueError("capacity index must be nonnegative")
    return ech_ellipsoid_capacities(a, b, k)[k]


def ech_ellipsoid_capacities(a, b, k_max: int) -> CapacitySequence:
    """ECH capacities c_0, ..., c_k_max of the ellipsoid with areas a, b."""
    a, b = frac(a), frac(b)
    if a <= 0 or b <= 0:
        raise ValueError("ellipsoid needs positive areas")
    denom = math.lcm(a.denominator, b.denominator)
    vals = _ellipsoid_values(int(a * denom), int(b * denom), k_max)
    return CapacitySequence(tuple(Fraction(v, denom) for v in vals), ECH_ELLIPSOID)


def _ellipsoid_values(ia: int, ib: int, k_max: int) -> list[int]:
    """The k_max + 1 smallest values ia*m + ib*n over nonnegative m, n."""
    if ia == ib:
        # a scaled ball: value d*ia at the d+1 indices d(d+1)/2, ..., d(d+3)/2
        return [ia * ((math.isqrt(8 * k + 1) - 1) // 2) for k in range(k_max + 1)]
    # the k+1 smallest values all have m + n <= k: every (m', n') <= (m, n)
    # gives a value no larger, and there are more than k of those when m + n > k.
    # One ascending run ia*m + ib*n, m = 0..k-n, per n, merged lazily.
    runs = [range(ib * n, ib * n + ia * (k_max - n) + 1, ia) for n in range(k_max + 1)]
    return list(itertools.islice(heapq.merge(*runs), k_max + 1))


class ConcaveDomain(_Record):
    """Toric domain under a convex decreasing piecewise linear graph.

    The chain runs from (0, b) on the y axis to (a, 0) on the x axis with
    strictly increasing x, strictly decreasing y and strictly increasing
    slopes; the domain is the region between the chain and the axes.
    """

    _fields = ("chain",)

    def __init__(self, chain: tuple[tuple[Fraction, Fraction], ...]):
        pts = tuple((frac(x), frac(y)) for x, y in chain)
        if len(pts) < 2:
            raise NotConcave("chain needs at least two vertices")
        if pts[0][0] != 0 or pts[0][1] <= 0:
            raise NotConcave("chain must start on the positive y axis")
        if pts[-1][1] != 0 or pts[-1][0] <= 0:
            raise NotConcave("chain must end on the positive x axis")
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            if x2 <= x1 or y2 >= y1:
                raise NotConcave("chain must move strictly right and down")
        for i in range(len(pts) - 2):
            e1 = (pts[i + 1][0] - pts[i][0], pts[i + 1][1] - pts[i][1])
            e2 = (pts[i + 2][0] - pts[i + 1][0], pts[i + 2][1] - pts[i + 1][1])
            if det2(e1, e2) <= 0:
                raise NotConcave("chain slopes must strictly increase")
        self.__dict__["chain"] = pts

    @classmethod
    def ellipsoid(cls, a, b) -> "ConcaveDomain":
        a, b = frac(a), frac(b)
        return cls(((Fraction(0), b), (a, Fraction(0))))

    @classmethod
    def ball(cls, c) -> "ConcaveDomain":
        return cls.ellipsoid(c, c)


def concave_weights(omega: ConcaveDomain) -> tuple[Fraction, ...]:
    """Weight expansion: ball areas of the standard triangle decomposition.

    Repeatedly carves out the largest triangle with legs on the axes and
    shears the two leftover corners back into concave position.
    """
    out: list[Fraction] = []
    stack = [omega.chain]
    for _ in range(WEIGHT_EXPANSION_CAP):
        if not stack:
            return tuple(out)
        chain = stack.pop()
        r = min(x + y for (x, y) in chain)
        out.append(r)
        touching = [i for i, (x, y) in enumerate(chain) if x + y == r]
        i_first, i_last = touching[0], touching[-1]
        # leftover above the cut, sheared so the cut line becomes the x axis
        if i_first > 0:
            upper = tuple((x, x + y - r) for (x, y) in chain[: i_first + 1])
            stack.append(upper)
        # leftover right of the cut, sheared onto the y axis
        if i_last < len(chain) - 1:
            lower = tuple((x + y - r, y) for (x, y) in chain[i_last:])
            stack.append(lower)
    raise IterationLimit("weight expansion did not terminate")


def ech_concave(omega: ConcaveDomain, k: int) -> Fraction:
    if k < 0:
        raise ValueError("capacity index must be nonnegative")
    return ech_concave_capacities(omega, k)[k]


def ech_concave_capacities(omega: ConcaveDomain, k_max: int) -> CapacitySequence:
    """ECH capacities of a concave toric domain."""
    values, denom = _concave_values(omega, k_max)
    return CapacitySequence(tuple(Fraction(v, denom) for v in values), ECH_CONCAVE)


def _concave_values(omega: ConcaveDomain, k_max: int) -> tuple[list[int], int]:
    """ECH capacities c_0, ..., c_k_max of a concave toric domain, as
    integers over one denominator: (values, denom).

    The domain decomposes into balls with the weight expansion areas, and
    the capacity sequence of a disjoint union is the max-plus convolution
    of the summands' sequences.  The convolution runs over integers, in
    units of one over the common denominator of the weights.
    """
    weights = concave_weights(omega)
    denom = math.lcm(*(w.denominator for w in weights))
    ball = _ellipsoid_values(1, 1, k_max)
    # max-plus with the empty domain's zero sequence is the identity on a
    # nondecreasing sequence, so the first summand starts the accumulator
    first, *rest = (int(w * denom) for w in weights)
    acc = [first * v for v in ball]
    for iw in rest:
        scaled = [iw * v for v in ball]
        acc = [max(map(add, acc[: k + 1], scaled[k::-1])) for k in range(k_max + 1)]
    return acc, denom
