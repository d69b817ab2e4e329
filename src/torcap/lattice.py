"""Exact rational planar lattice geometry.

Polygons with rational vertices, unimodular affine maps, areas, mixed areas,
lattice point counts, smooth vertices and their normal form.  Each polygon
keeps its vertices scaled by the lcm of their denominators, so its geometry
runs on integers; results are returned as `fractions.Fraction`, and no
floating point enters anywhere.

Re-exported as the same objects from `_polygon`, the core that the capacity
table, `toric` and the verdicts load without this module: `MomentPolygon`,
`primitive`, `egcd`, `line_cuts`, `line_count`, `count_points`,
`edge_lengths`, `lattice_width`, `Point` and `IntVec`.
"""

from __future__ import annotations

from fractions import Fraction

from ._base import _Record, det2, frac
from ._polygon import (  # noqa: F401  (re-exported)
    IntVec,
    MomentPolygon,
    Point,
    count_points,
    edge_lengths,
    egcd,
    lattice_width,
    line_count,
    line_cuts,
    primitive,
)
from .errors import ChopTooLarge, InvalidInput, NoSmoothVertex


class UnimodularAffineMap(_Record):
    """x -> M x + t with M an integer matrix of determinant +-1."""

    _fields = ("m", "t")

    def __init__(self, m: tuple[IntVec, IntVec], t: Point):  # m by rows
        # a Fraction or float entry would move lattice points off the lattice
        if not all(isinstance(c, int) for row in m for c in row):
            raise InvalidInput("matrix entries must be integers")
        if det2(*m) not in (1, -1):
            raise InvalidInput("matrix determinant must be +-1")
        self.__dict__.update(m=m, t=(frac(t[0]), frac(t[1])))

    @classmethod
    def identity(cls) -> "UnimodularAffineMap":
        return cls(((1, 0), (0, 1)), (Fraction(0), Fraction(0)))

    @property
    def det(self) -> int:
        return det2(*self.m)

    def __call__(self, p: Point) -> Point:
        x, y = frac(p[0]), frac(p[1])
        return (
            self.m[0][0] * x + self.m[0][1] * y + self.t[0],
            self.m[1][0] * x + self.m[1][1] * y + self.t[1],
        )


def area(p: MomentPolygon) -> Fraction:
    """Exact Euclidean area, from twice the area of the integer view."""
    return Fraction(p._area2, 2 * p._scale ** 2)


def lattice_count(p: MomentPolygon) -> int:
    """Number of integer points in the closed polygon."""
    # <u, x> >= -a on the polygon, a = -<u, v> / scale at the edge's first vertex v
    return count_points(p._normals, [-(u[0] * x + u[1] * y) // p._scale
                                     for u, (x, y) in zip(p._normals, p._ipts)])


def scale(p: MomentPolygon, s) -> MomentPolygon:
    s = frac(s)
    if s <= 0:
        raise InvalidInput("scale factor must be positive")
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


def mixed_area(p: MomentPolygon, q: MomentPolygon) -> Fraction:
    """area(p (+) q) - area(p) - area(q), with (+) the Minkowski sum: the sum
    over the edges i of p of the lattice length l_i times q's extent
    -min <u_i, x> against the inward normal u_i, in the integer views."""
    return Fraction(sum(l * -min(u[0] * x + u[1] * y for x, y in q._ipts)
                        for u, l in zip(p._normals, edge_lengths(p))), p._scale * q._scale)


def vertex_directions(p: MomentPolygon, i: int) -> tuple[IntVec, IntVec]:
    """Primitive directions of the two edges leaving vertex i:
    (toward next vertex, toward previous vertex)."""
    u = p._normals
    (ax, ay), (bx, by) = u[i], u[(i - 1) % len(u)]
    # the inward normal of an edge is its direction turned by +90 degrees
    return (ay, -ax), (-by, bx)


def smooth_vertices(p: MomentPolygon) -> list[int]:
    """Indices of vertices whose primitive edge directions span the lattice."""
    return [i for i in range(len(p._d)) if p._d[i - 1] == 1]


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
