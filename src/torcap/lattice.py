"""Exact rational planar lattice geometry.

Polygons with rational vertices, unimodular affine maps, areas, lattice point
counts and lattice width.  Each polygon keeps its vertices scaled by the lcm
of their denominators, so its geometry runs on integers; results are returned
as `fractions.Fraction`, and no floating point enters anywhere.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Sequence

from ._base import _Record, det2, frac, integer_view
from .errors import ChopTooLarge, NoSmoothVertex, NotConvex, ZeroArea

Point = tuple[Fraction, Fraction]
IntVec = tuple[int, int]


def point(x, y) -> Point:
    return (frac(x), frac(y))


def cross(o: Point, a: Point, b: Point):
    """Signed area (x2) of the triangle o, a, b."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def primitive(v: IntVec) -> IntVec:
    """Divide an integer vector by the gcd of its entries."""
    g = math.gcd(v[0], v[1])
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return (v[0] // g, v[1] // g)


class UnimodularAffineMap(_Record):
    """x -> M x + t with M an integer matrix of determinant +-1."""

    _fields = ("m", "t")

    def __init__(self, m: tuple[IntVec, IntVec], t: Point):  # m by rows
        d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if d not in (1, -1):
            raise ValueError("matrix determinant must be +-1")
        self.__dict__.update(m=m, t=(frac(t[0]), frac(t[1])))

    @classmethod
    def identity(cls) -> "UnimodularAffineMap":
        return cls(((1, 0), (0, 1)), (Fraction(0), Fraction(0)))

    @classmethod
    def translation(cls, v) -> "UnimodularAffineMap":
        return cls(((1, 0), (0, 1)), (frac(v[0]), frac(v[1])))

    @property
    def det(self) -> int:
        return self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]

    def __call__(self, p: Point) -> Point:
        x, y = frac(p[0]), frac(p[1])
        return (
            self.m[0][0] * x + self.m[0][1] * y + self.t[0],
            self.m[1][0] * x + self.m[1][1] * y + self.t[1],
        )

    def compose(self, other: "UnimodularAffineMap") -> "UnimodularAffineMap":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        a, b = self.m
        c, d = other.m
        m = (
            (a[0] * c[0] + a[1] * d[0], a[0] * c[1] + a[1] * d[1]),
            (b[0] * c[0] + b[1] * d[0], b[0] * c[1] + b[1] * d[1]),
        )
        return UnimodularAffineMap(m, self(other.t))

    def inverse(self) -> "UnimodularAffineMap":
        d = self.det
        a, b = self.m[0]
        c, e = self.m[1]
        inv = ((e * d, -b * d), (-c * d, a * d))
        ti = (
            -(inv[0][0] * self.t[0] + inv[0][1] * self.t[1]),
            -(inv[1][0] * self.t[0] + inv[1][1] * self.t[1]),
        )
        return UnimodularAffineMap(inv, ti)


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
        # the integer view: vertices times _scale, and per edge i (from vertex
        # i to i+1) its inward primitive normal
        scale, ipts = integer_view(pts)
        n = len(pts)
        area2 = sum(det2(ipts[i], ipts[(i + 1) % n]) for i in range(n))
        if area2 == 0:
            raise ZeroArea("polygon has zero area")
        if area2 < 0:
            raise NotConvex("vertices must be listed counterclockwise")
        for i in range(n):
            c = cross(ipts[i], ipts[(i + 1) % n], ipts[(i + 2) % n])
            if c == 0:
                raise NotConvex("three consecutive vertices are collinear")
            if c < 0:
                raise NotConvex("polygon is not convex")
        start = min(range(n), key=lambda i: ipts[i])
        ipts = ipts[start:] + ipts[:start]
        pts = pts[start:] + pts[:start]
        normals = tuple(primitive((v[1] - w[1], w[0] - v[0]))
                        for v, w in zip(ipts, ipts[1:] + ipts[:1]))
        # every turn is left and less than a half turn, so the normals wind
        # around the origin once, and form a complete fan, exactly when one
        # step leaves the lower half plane; a star polygon winds more often
        lower = [u[1] < 0 or (u[1] == 0 and u[0] < 0) for u in normals]
        if sum(lower[i - 1] and not lower[i] for i in range(n)) != 1:
            raise NotConvex("polygon winds around more than once")
        # the record hash, computed once: table lookups hash a polygon often
        self.__dict__.update(
            vertices=pts, _hash=hash((pts,)), _scale=scale, _ipts=ipts,
            _normals=normals)

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


def area(p: MomentPolygon) -> Fraction:
    """Exact Euclidean area by the shoelace formula."""
    vs = p.vertices
    n = len(vs)
    return sum(det2(vs[i], vs[(i + 1) % n]) for i in range(n)) / 2


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def line_cuts(u: IntVec, rays: Sequence[IntVec], others) -> list[tuple[int, int, int]]:
    """(i, <(p, q), v_i>, det(u, v_i)) for the rays v_i, i in others, with
    (p, q) fixed by <(p, q), u> = 1; u is primitive, a ray or not."""
    _g, p, q = egcd(*u)
    return [(i, p * rays[i][0] + q * rays[i][1], det2(u, rays[i])) for i in others]


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

    The sum of `line_count` over the rows m_y = y.  The fan is complete, so
    the cone around (0, -1) puts the polytope below its linearization, and
    likewise upward: the rows lie between the per-cone linearizations.  For
    a nef divisor no row is empty.
    """
    n = len(rays)
    # y coordinates of the cone linearizations, times the cone determinants
    ms = [(-coeffs[(i + 1) % n] * rays[i][0] + coeffs[i] * rays[(i + 1) % n][0],
           det2(rays[i], rays[(i + 1) % n])) for i in range(n)]
    # the row m_y = y is the line <m, (0, -1)> = -y
    cuts = line_cuts((0, -1), rays, range(n))
    total = 0
    for y in range(min(-(-my // d) for my, d in ms), max(my // d for my, d in ms) + 1):
        total += line_count(cuts, coeffs, y)
    return total


def halfplane_vertices(cons: Sequence[tuple[int, int, Fraction]]) -> list[Point]:
    """Vertices of the (bounded) region cut out by the half planes.

    Returns the deduplicated corner points; empty list if infeasible.
    """
    pts: list[Point] = []
    n = len(cons)
    for i in range(n):
        ai, bi, ci = cons[i]
        for j in range(i + 1, n):
            aj, bj, cj = cons[j]
            d = ai * bj - bi * aj
            if d == 0:
                continue
            x = Fraction(ci * bj - bi * cj, d)
            y = Fraction(ai * cj - ci * aj, d)
            if all(a * x + b * y >= c for a, b, c in cons):
                q = (x, y)
                if q not in pts:
                    pts.append(q)
    return pts


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Strict convex hull, counterclockwise, collinear points dropped."""
    pts = sorted(set((frac(x), frac(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    # collinear input leaves only its two extreme points
    return lower[:-1] + upper[:-1]


def lattice_count(p: MomentPolygon) -> int:
    """Number of integer points in the closed polygon."""
    # <u, x> >= -a on the polygon, a = -<u, v> / scale at the edge's first vertex v
    return count_points(p._normals, [-(u[0] * x + u[1] * y) // p._scale
                                     for u, (x, y) in zip(p._normals, p._ipts)])


def edge_lengths(p: MomentPolygon) -> tuple[int, ...]:
    """Lattice lengths of the edges of the integer polygon p._scale * p, per
    edge i from vertex i to i+1.  Divided by p._scale they are the pairings
    of the polarization with the boundary curves of p's surface."""
    ipts = p._ipts
    return tuple(math.gcd(w[0] - v[0], w[1] - v[1]) for v, w in zip(ipts, ipts[1:] + ipts[:1]))


def boundary_lattice_count(p: MomentPolygon) -> int:
    """Number of integer points on the boundary (integral-vertex polygons)."""
    lengths = edge_lengths(p)
    # an edge vector is integral exactly when p._scale divides its lattice length
    if any(length % p._scale for length in lengths):
        raise ValueError("boundary count needs integral vertices")
    return sum(lengths) // p._scale


def translate(p: MomentPolygon, v) -> MomentPolygon:
    vx, vy = frac(v[0]), frac(v[1])
    return MomentPolygon(tuple((x + vx, y + vy) for x, y in p.vertices))


def scale(p: MomentPolygon, s) -> MomentPolygon:
    s = frac(s)
    if s <= 0:
        raise ValueError("scale factor must be positive")
    return MomentPolygon(tuple((s * x, s * y) for x, y in p.vertices))


def apply(t: UnimodularAffineMap, p: MomentPolygon) -> MomentPolygon:
    vs = [t(v) for v in p.vertices]
    if t.det < 0:
        vs.reverse()
    return MomentPolygon(tuple(vs))


def contains(p: MomentPolygon, q: MomentPolygon) -> bool:
    """True iff q is contained in p (vertices against p's half planes)."""
    cons = p.constraints()
    return all(a * x + b * y >= c for (x, y) in q.vertices for a, b, c in cons)


def contains_point(p: MomentPolygon, pt) -> bool:
    x, y = frac(pt[0]), frac(pt[1])
    return all(a * x + b * y >= c for a, b, c in p.constraints())


def minkowski_sum(p: MomentPolygon, q: MomentPolygon) -> MomentPolygon:
    sums = [(a[0] + b[0], a[1] + b[1]) for a in p.vertices for b in q.vertices]
    return MomentPolygon(tuple(convex_hull(sums)))


def mixed_area(p: MomentPolygon, q: MomentPolygon) -> Fraction:
    """area(p (+) q) - area(p) - area(q), with (+) the Minkowski sum."""
    return area(minkowski_sum(p, q)) - area(p) - area(q)


def _width(ipts, l: IntVec) -> int:
    vals = [l[0] * x + l[1] * y for x, y in ipts]
    return max(vals) - min(vals)


def width_along(p: MomentPolygon, l: IntVec) -> Fraction:
    return Fraction(_width(p._ipts, l), p._scale)


def _area2_perimeter(p: MomentPolygon) -> tuple[int, int]:
    """Twice the area and the l1 perimeter of the integer polygon p._scale * p."""
    edges = list(zip(p._ipts, p._ipts[1:] + p._ipts[:1]))
    return (sum(det2(a, b) for a, b in edges),
            sum(abs(b[0] - a[0]) + abs(b[1] - a[1]) for a, b in edges))


def lattice_width(p: MomentPolygon) -> tuple[Fraction, IntVec]:
    """Minimal directional lattice extent and a minimizing primitive direction.

    Directions l = (a, b), a > 0 or a = 0 < b, are walked in the order
    (|l|^2, |b|, b, a); the first narrowest wins.  The width along l is at
    least 2*rho*|l| with rho >= area / (l1 perimeter), so the walk stops once
    |l| passes best / (2*rho), best the narrowest width so far.
    """
    vs = p._ipts
    area2, perim = _area2_perimeter(p)
    best, best_dir = _width(vs, (1, 0)), (1, 0)
    # one stream b = 0, -1, 1, -2, 2, ... per a (b = 1, 2, ... for a = 0), merged;
    # popping (a, 0) opens stream a + 1.  The stop reads |l|^2 area2^2 > (best perim)^2
    heap = [(1, 0, 0, 1), (1, 1, 1, 0)]
    while heap[0][0] * area2 * area2 <= (best * perim) ** 2:
        _norm, _abs, b, a = heapq.heappop(heap)
        nb = b + 1 if a == 0 else -b if b < 0 else -b - 1
        heapq.heappush(heap, (a * a + nb * nb, abs(nb), nb, a))
        if a and not b:
            heapq.heappush(heap, ((a + 1) ** 2, 0, 0, a + 1))
        if math.gcd(a, b) == 1:
            w = _width(vs, (a, b))
            if w < best:
                best, best_dir = w, (a, b)
    return Fraction(best, p._scale), best_dir


def vertex_directions(p: MomentPolygon, i: int) -> tuple[IntVec, IntVec]:
    """Primitive directions of the two edges leaving vertex i:
    (toward next vertex, toward previous vertex)."""
    u = p._normals
    (ax, ay), (bx, by) = u[i], u[(i - 1) % len(u)]
    # the inward normal of an edge is its direction turned by +90 degrees
    return (ay, -ax), (-by, bx)


def smooth_vertices(p: MomentPolygon) -> list[int]:
    """Indices of vertices whose primitive edge directions span the lattice."""
    u = p._normals
    return [i for i in range(len(u)) if det2(u[i - 1], u[i]) == 1]


def normalize(p: MomentPolygon) -> tuple[MomentPolygon, UnimodularAffineMap]:
    """Move a smooth vertex to the origin with its edges along e1 and e2.

    Returns (T(p), T).  The chosen vertex is the lexicographically smallest
    smooth vertex, which makes the result deterministic.
    """
    smooth = smooth_vertices(p)
    if not smooth:
        raise NoSmoothVertex("polygon has no smooth vertex")
    i = min(smooth, key=lambda j: p.vertices[j])
    v = p.vertices[i]
    d_next, d_prev = vertex_directions(p, i)
    # columns (d_next, d_prev) have determinant +1 at a convex CCW vertex
    a, b = d_next
    c, d = d_prev
    m = ((d, -c), (-b, a))
    t = UnimodularAffineMap(m, (Fraction(0), Fraction(0)))
    shift = t(v)
    t = UnimodularAffineMap(m, (-shift[0], -shift[1]))
    return apply(t, p), t


def corner_chop(p: MomentPolygon, i: int, eps) -> MomentPolygon:
    """Cut the triangle of 'size' eps off vertex i.

    The two new vertices sit eps primitive steps along the incident edges and
    must land strictly inside them.
    """
    eps = frac(eps)
    if eps <= 0:
        raise ChopTooLarge("chop parameter must be positive")
    n = len(p.vertices)
    v = p.vertices[i]
    d_next, d_prev = vertex_directions(p, i)
    for d, other in ((d_next, p.vertices[(i + 1) % n]), (d_prev, p.vertices[(i - 1) % n])):
        step = other[0] - v[0] if d[0] != 0 else other[1] - v[1]
        lam = Fraction(step, d[0]) if d[0] != 0 else Fraction(step, d[1])
        if eps >= lam:
            raise ChopTooLarge("chop does not fit strictly inside the incident edges")
    a = (v[0] + eps * d_prev[0], v[1] + eps * d_prev[1])
    b = (v[0] + eps * d_next[0], v[1] + eps * d_next[1])
    vs = list(p.vertices)
    vs[i:i + 1] = [a, b]
    return MomentPolygon(tuple(vs))


def unit_triangle() -> MomentPolygon:
    return MomentPolygon(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(1))))


def rectangle(a, b) -> MomentPolygon:
    a, b = frac(a), frac(b)
    return MomentPolygon(((Fraction(0), Fraction(0)), (a, Fraction(0)), (a, b),
                          (Fraction(0), b)))


def triangle(a, b) -> MomentPolygon:
    """Right triangle with legs a (along x) and b (along y)."""
    a, b = frac(a), frac(b)
    return MomentPolygon(((Fraction(0), Fraction(0)), (a, Fraction(0)),
                          (Fraction(0), b)))
