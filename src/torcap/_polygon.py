"""The polygon core: `MomentPolygon` and the integer kernels the capacity
table runs on, `line_count` for the points of one line and `count_points`,
its sum over the rows, and `lattice_width`, which the width bound compares
the capacities with.  `lattice` re-exports its public names as the same
objects; `_fan_rows`, the one check of a fan's turns and winding, is read
here by `MomentPolygon` and `toric.ToricSurface`."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._base import _Record, det2, frac, integer_view
from .errors import InvalidInput, NotConvex, ZeroArea

Point = tuple[Fraction, Fraction]
IntVec = tuple[int, int]


def cross(o: Point, a: Point, b: Point):
    """Signed area (x2) of the triangle o, a, b."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def primitive(v: IntVec) -> IntVec:
    """Divide an integer vector by the gcd of its entries."""
    g = math.gcd(v[0], v[1])
    if g == 0:
        raise InvalidInput("zero vector has no primitive form")
    return (v[0] // g, v[1] // g)


def _fan_rows(rays: Sequence[IntVec]) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """(d, e, winds_once) for the cyclic integer vectors v = rays: the row
    constants d[i] = det(v[i], v[i+1]) and e[i] = det(v[i-1], v[i+1]), so
    that on the fan's surface D . D_i = (a[i-1] d[i] - a[i] e[i] + a[i+1]
    d[i-1]) / (d[i-1] d[i]), and whether exactly one step leaves the lower
    half plane.  The vectors form a fan when every step turns strictly left,
    every d[i] > 0, and they wind around 0 once, winds_once."""
    n = len(rays)
    d = tuple(det2(rays[i], rays[(i + 1) % n]) for i in range(n))
    e = tuple(det2(rays[i - 1], rays[(i + 1) % n]) for i in range(n))
    # when each step turns left by less than a half turn, the vectors wind
    # around the origin once exactly when one step leaves the lower half plane
    lower = [v[1] < 0 or (v[1] == 0 and v[0] < 0) for v in rays]
    return d, e, sum(lower[i - 1] and not lower[i] for i in range(n)) == 1


class MomentPolygon(_Record):
    """Strictly convex polygon with rational vertices, counterclockwise.

    The vertex tuple is canonicalized to start at the lexicographically
    smallest vertex so that equality is structural.
    """

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[Point, ...]):
        pts = tuple((frac(x), frac(y)) for x, y in vertices)
        if len(pts) < 3:
            raise ZeroArea("a polygon needs at least 3 vertices")
        # the integer view: vertices times _scale, twice its area, and per
        # edge i (from vertex i to i+1) its inward primitive normal, (0, 0) on
        # a zero edge
        scale, ipts = integer_view(pts)
        area2 = sum(det2(v, w) for v, w in zip(ipts, ipts[1:] + ipts[:1]))
        if area2 == 0:
            raise ZeroArea("polygon has zero area")
        if area2 < 0:
            raise NotConvex("vertices must be listed counterclockwise")
        normals = tuple(primitive((v[1] - w[1], w[0] - v[0])) if v != w else (0, 0)
                        for v, w in zip(ipts, ipts[1:] + ipts[:1]))
        # d[i] has the sign of the turn at vertex i + 1, and is 0 at a zero edge
        d, e, winds_once = _fan_rows(normals)
        for turn in d:
            if turn == 0:
                raise NotConvex("three consecutive vertices are collinear")
            if turn < 0:
                raise NotConvex("polygon is not convex")
        # every turn is left, so only a star polygon's normals fail to wind once
        if not winds_once:
            raise NotConvex("polygon winds around more than once")
        # start at the least vertex; the record hash is computed once, as
        # table lookups hash a polygon often
        s = min(range(len(pts)), key=lambda i: ipts[i])
        pts = pts[s:] + pts[:s]
        self.__dict__.update(
            vertices=pts, _hash=hash((pts,)), _scale=scale, _ipts=ipts[s:] + ipts[:s],
            _area2=area2, _normals=normals[s:] + normals[:s], _d=d[s:] + d[:s], _e=e[s:] + e[:s])

    def __hash__(self):
        return self._hash

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_data(self) -> list[tuple[IntVec, Fraction]]:
        """Per edge i (from vertex i to i+1): (inward primitive normal u,
        support number a) with <u, x> = -a on the edge."""
        return [(u, Fraction(-(u[0] * x + u[1] * y), self._scale))
                for u, (x, y) in zip(self._normals, self._ipts)]

    def constraints(self) -> list[tuple[int, int, Fraction]]:
        """Half plane description: (ux, uy, c) meaning ux*x + uy*y >= c."""
        return [(u[0], u[1], -a) for (u, a) in self.edge_data()]


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0: the coefficients of
    the recursion egcd(a, 0) = (|a|, sign a, 0), egcd(a, b) = (g, y, x -
    (a // b) y) for (g, x, y) = egcd(b, a % b), sign 0 = 1, run as a loop
    that keeps a = x0 A + y0 B and b = x1 A + y1 B for the inputs A, B."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        t = a // b
        a, b = b, a - t * b
        x0, y0, x1, y1 = x1, y1, x0 - t * x1, y0 - t * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def line_cuts(u: IntVec, rays: Sequence[IntVec], others) -> list[tuple[int, int, int]]:
    """(i, <(p, q), v_i>, det(u, v_i)) for the rays v_i, i in others, with
    (p, q) fixed by <(p, q), u> = 1; u is primitive, a ray or not."""
    _g, p, q = egcd(*u)
    ux, uy = u
    cuts = []
    for i in others:
        x, y = rays[i]
        cuts.append((i, p * x + q * y, ux * y - uy * x))
    return cuts


def line_count(cuts, coeffs: Sequence[int], c: int) -> int:
    """Lattice points m of the line <m, u> = -c with <m, v_i> >= -coeffs[i]
    for the rays i of cuts = line_cuts(u, rays, others), which must bound the
    line on both sides: m = -c (p, q) + lam (-u[1], u[0]) with lam det(u, v_i)
    >= c <(p, q), v_i> - coeffs[i].  With u = v_j, c = a_j and every other
    ray this is h(a) - h(a - e_j), nef or not."""
    lo = hi = None
    for i, g, dt in cuts:
        r = c * g - coeffs[i]
        if dt > 0:
            t = -(-r // dt)
            if lo is None or t > lo:
                lo = t
        elif dt < 0:
            t = r // dt
            if hi is None or t < hi:
                hi = t
        elif r > 0:
            return 0
    count = hi - lo + 1
    return count if count > 0 else 0


def count_points(rays: Sequence[IntVec], coeffs: Sequence[int]) -> int:
    """Integer points m with <m, v_i> >= -a_i for the rays v_i of a complete
    fan, in counterclockwise order, and integers a_i: the lattice points of
    a polygon from its inward edge normals, or of a section polytope.

    The sum of `line_count` over the rows m_y = y, each the line <m, (0, -1)>
    = -y.  The fan is complete, so the cone around (0, -1) puts the polytope
    below its linearization, and likewise upward: the rows lie between the
    per-cone linearizations.  For a nef divisor no row is empty.
    """
    n = len(rays)
    # y coordinates of the cone linearizations, times the cone determinants
    ms = [(-coeffs[(i + 1) % n] * rays[i][0] + coeffs[i] * rays[(i + 1) % n][0],
           det2(rays[i], rays[(i + 1) % n])) for i in range(n)]
    rows = line_cuts((0, -1), rays, range(n))
    total = 0
    for y in range(min(-(-my // d) for my, d in ms), max(my // d for my, d in ms) + 1):
        total += line_count(rows, coeffs, y)
    return total


def edge_lengths(p: MomentPolygon) -> tuple[int, ...]:
    """Lattice lengths of the edges of the integer polygon p._scale * p, per
    edge i from vertex i to i+1.  Divided by p._scale they are the pairings
    of the polarization with the boundary curves of p's surface."""
    ipts = p._ipts
    return tuple(math.gcd(w[0] - v[0], w[1] - v[1]) for v, w in zip(ipts, ipts[1:] + ipts[:1]))


def _width(ipts, l: IntVec) -> int:
    vals = [l[0] * x + l[1] * y for x, y in ipts]
    return max(vals) - min(vals)


def lattice_width(p: MomentPolygon) -> tuple[Fraction, IntVec]:
    """Minimal directional lattice extent and a minimizing primitive direction.

    The width w(l) = max - min of <l, x> over p is a norm on directions; the
    generalized Gauss reduction in it (Kaib-Schnorr) ends in a basis a, b with
    w(a) <= w(b) <= w(b - t a) for all integers t, which attains both
    successive minima.  Returned is +-a, which attains the first, normalized
    to x > 0 or x = 0 < y.
    """
    vs = p._ipts

    def f(t: int) -> int:  # the width along b - t a
        return _width(vs, (b[0] - t * a[0], b[1] - t * a[1]))

    a, b = (1, 0), (0, 1)
    wa, wb = _width(vs, a), _width(vs, b)
    while True:
        if wa > wb:
            a, b, wa, wb = b, a, wb, wa
        if f(1) >= wb:
            a = (-a[0], -a[1])  # f is convex: below w(b) on one side of 0 at most
            if f(1) >= wb:
                break
        # f(t) >= t w(a) - w(b), so its first minimum t >= 1 is at most 2 w(b) / w(a)
        lo, hi = 0, 2 * wb // wa
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if f(mid + 1) >= f(mid) else (mid, hi)
        b, wb = (b[0] - hi * a[0], b[1] - hi * a[1]), f(hi)
    # of +-a, the larger has x > 0 or x = 0 < y
    return Fraction(wa, p._scale), max(a, (-a[0], -a[1]))
