"""ECH capacities of ellipsoids and concave toric domains.

Both are lattice-point arithmetic and need no fan, divisor or capacity
search: an ellipsoid's capacities are the sorted values a*m + b*n, and a
concave toric domain's come from the ball packing of its weight expansion
through a max-plus convolution.  The expansion comes in runs of equal
balls, each carve that repeats being taken once with its multiplicity, and
a run of m balls enters the convolution as the m-fold max-plus power of
the ball sequence, in closed form.  So the cost follows the number of runs,
not of balls: E(1000001/1000000, 1) has 1,000,001 balls in two runs.  The
expansion and the convolution run on integers over one denominator; every
value returned is an exact rational.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from operator import add

from ._base import _Record, det2, frac, integer_view
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
    return ech_ellipsoid_capacities(a, b, k)[k]


def _check_index(k: int) -> None:
    if k < 0:
        raise ValueError("capacity index must be nonnegative")


def ech_ellipsoid_capacities(a, b, k_max: int) -> CapacitySequence:
    """ECH capacities c_0, ..., c_k_max of the ellipsoid with areas a, b."""
    _check_index(k_max)
    a, b = frac(a), frac(b)
    if a <= 0 or b <= 0:
        raise ValueError("ellipsoid needs positive areas")
    denom = math.lcm(a.denominator, b.denominator)
    vals = _ellipsoid_values(int(a * denom), int(b * denom), k_max)
    return CapacitySequence(tuple(Fraction(v, denom) for v in vals), ECH_ELLIPSOID)


def _ellipsoid_values(ia: int, ib: int, k_max: int) -> list[int]:
    """The k_max + 1 smallest values ia*m + ib*n over nonnegative m, n."""
    if ia == ib:
        return [ia * v for v in _balls_values(1, k_max)]
    # the k+1 smallest values all have m + n <= k: every (m', n') <= (m, n)
    # gives a value no larger, and there are more than k of those when m + n > k.
    # One ascending run ia*m + ib*n, m = 0..k-n, per n, merged lazily.
    runs = [range(ib * n, ib * n + ia * (k_max - n) + 1, ia) for n in range(k_max + 1)]
    return list(itertools.islice(heapq.merge(*runs), k_max + 1))


class ConcaveDomain(_Record):
    """Toric domain under a convex decreasing piecewise linear graph.

    The chain runs from (0, b) on the y axis to (a, 0) on the x axis with
    strictly increasing x, strictly decreasing y and strictly increasing
    slopes; the domain is the region between the chain and the axes.  As
    `MomentPolygon` does, it keeps the integer view _ipts, the chain scaled
    by _scale, the lcm of its denominators; validation and the weight
    expansion run on that view.
    """

    _fields = ("chain",)

    def __init__(self, chain: tuple[tuple[Fraction, Fraction], ...]):
        pts = tuple((frac(x), frac(y)) for x, y in chain)
        if len(pts) < 2:
            raise NotConcave("chain needs at least two vertices")
        scale, ipts = integer_view(pts)
        if ipts[0][0] != 0 or ipts[0][1] <= 0:
            raise NotConcave("chain must start on the positive y axis")
        if ipts[-1][1] != 0 or ipts[-1][0] <= 0:
            raise NotConcave("chain must end on the positive x axis")
        for (x1, y1), (x2, y2) in zip(ipts, ipts[1:]):
            if x2 <= x1 or y2 >= y1:
                raise NotConcave("chain must move strictly right and down")
        for (x0, y0), (x1, y1), (x2, y2) in zip(ipts, ipts[1:], ipts[2:]):
            if det2((x1 - x0, y1 - y0), (x2 - x1, y2 - y1)) <= 0:
                raise NotConcave("chain slopes must strictly increase")
        self.__dict__.update(chain=pts, _scale=scale, _ipts=ipts)

    @classmethod
    def ellipsoid(cls, a, b) -> "ConcaveDomain":
        a, b = frac(a), frac(b)
        return cls(((Fraction(0), b), (a, Fraction(0))))

    @classmethod
    def ball(cls, c) -> "ConcaveDomain":
        return cls.ellipsoid(c, c)


def _weight_runs(omega: ConcaveDomain) -> list[tuple[Fraction, int]]:
    """Weight expansion in run form: (weight, multiplicity) pairs, adjacent
    weights distinct, whose expansion is `concave_weights` in order."""
    return [(Fraction(r, omega._scale), q) for r, q in _integer_runs(omega)]


def _integer_runs(omega: ConcaveDomain) -> list[tuple[int, int]]:
    """`_weight_runs` with each weight times omega._scale, an integer.

    Repeatedly carves out the largest triangle with legs on the axes,
    r = min(x + y), and shears the two leftover corners back into concave
    position.  When the end (r, 0) is the only vertex on the cut, the one
    leftover is the chain under y -> y - (r - x), and the same carve repeats
    until another vertex reaches x_i + y_i - q(r - x_i) <= r: the run takes
    q carves at once.  The start (0, r) is symmetric, under x -> x - (r - y).
    """
    runs: list[tuple[int, int]] = []
    stack = [omega._ipts]
    while stack:
        chain = stack.pop()
        sums = [x + y for (x, y) in chain]
        r = min(sums)
        touching = [i for i, s in enumerate(sums) if s == r]
        i_first, i_last = touching[0], touching[-1]
        if i_first == len(chain) - 1:
            # only the end is on the cut: q carves, then a vertex reaches it
            q = min(-((r - s) // (r - x)) for (x, _), s in zip(chain, sums[:-1]))
            stack.append(tuple((x, y - q * (r - x)) for (x, y) in chain))
        elif i_last == 0:
            # only the start is on the cut
            q = min(-((r - s) // (r - y)) for (_, y), s in zip(chain[1:], sums[1:]))
            stack.append(tuple((x - q * (r - y), y) for (x, y) in chain))
        else:
            q = 1
            # leftover above the cut, sheared so the cut line becomes the x axis
            if i_first > 0:
                upper = tuple((x, x + y - r) for (x, y) in chain[: i_first + 1])
                stack.append(upper)
            # leftover right of the cut, sheared onto the y axis
            if i_last < len(chain) - 1:
                lower = tuple((x + y - r, y) for (x, y) in chain[i_last:])
                stack.append(lower)
        if runs and runs[-1][0] == r:
            q += runs.pop()[1]
        runs.append((r, q))
    return runs


def concave_weights(omega: ConcaveDomain) -> tuple[Fraction, ...]:
    """Weight expansion: ball areas of the standard triangle decomposition,
    one per ball, in carving order.

    Raises IterationLimit, before building the tuple, when the expansion
    holds more than WEIGHT_EXPANSION_CAP balls; `_weight_runs` has no cap.
    """
    runs = _weight_runs(omega)
    count = sum(m for _, m in runs)
    if count > WEIGHT_EXPANSION_CAP:
        raise IterationLimit(f"weight expansion has {count} balls, "
                             f"more than {WEIGHT_EXPANSION_CAP}")
    return tuple(itertools.chain.from_iterable(itertools.repeat(w, m) for w, m in runs))


def ech_concave(omega: ConcaveDomain, k: int) -> Fraction:
    return ech_concave_capacities(omega, k)[k]


def ech_concave_capacities(omega: ConcaveDomain, k_max: int) -> CapacitySequence:
    """ECH capacities of a concave toric domain."""
    _check_index(k_max)
    values, denom = _concave_values(omega, k_max)
    return CapacitySequence(tuple(Fraction(v, denom) for v in values), ECH_CONCAVE)


def _concave_values(omega: ConcaveDomain, k_max: int) -> tuple[list[int], int]:
    """ECH capacities c_0, ..., c_k_max of a concave toric domain, as
    integers over one denominator: (values, denom).

    The domain decomposes into balls with the weight expansion areas, and
    the capacity sequence of a disjoint union is the max-plus convolution
    of the summands' sequences.  A run of m balls of area w is one summand,
    w times the m-fold max-plus power of the unit ball's sequence, so the
    convolutions number one fewer than the runs, whatever the weight count.
    They run over integers, in units of one over the common denominator of
    the weights.
    """
    runs = _integer_runs(omega)
    # the weights are r / omega._scale; their common denominator is denom
    g = math.gcd(omega._scale, *(r for r, _ in runs))
    denom = omega._scale // g
    acc = None
    for r, m in runs:
        iw = r // g
        power = [iw * v for v in _balls_values(m, k_max)]
        # max-plus with the empty domain's zero sequence is the identity on a
        # nondecreasing sequence, so the first run starts the accumulator
        acc = power if acc is None else [max(map(add, acc[: k + 1], power[k::-1]))
                                         for k in range(k_max + 1)]
    return acc, denom


def _balls_values(m: int, k_max: int) -> list[int]:
    """ECH capacities c_0, ..., c_k_max of m disjoint unit balls.

    c_k is the largest d_1 + ... + d_m with sum N(d_i) <= k, where
    N(d) = d(d+1)/2 is the first index at which a unit ball has capacity d.
    N is convex, so a total D is reached first by the most even split,
    q + 1 in r balls and q in the rest for D = q*m + r.  For m >= k_max
    this gives c_k = k.
    """
    out: list[int] = []
    total = 0
    while len(out) <= k_max:
        total += 1
        q, r = divmod(total, m)
        first = (r * (q + 1) * (q + 2) + (m - r) * q * (q + 1)) // 2
        out.extend([total - 1] * (first - len(out)))
    return out[: k_max + 1]
