"""Shared helpers: seeded pseudo-random geometry generators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from torcap import _table
from torcap.ech import ConcaveDomain
from torcap.lattice import MomentPolygon, UnimodularAffineMap, cross, primitive
from torcap.toric import ToricSurface


def convex_hull(points) -> list:
    """Strict convex hull, counterclockwise, collinear points dropped, by
    Andrew's monotone chain: the tests' hull reference."""
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    # collinear input leaves only its two extreme points
    return lower[:-1] + upper[:-1]


def _polygon(*vertices) -> MomentPolygon:
    return MomentPolygon(tuple((Fraction(x), Fraction(y)) for x, y in vertices))


# many-edge polygons, where the capacity search is slowest: the 3x3 square
# with its corners chopped by 1 (8 edges, area 7), and the 12-gon with edges
# +-(1, 0), +-(2, 1), +-(1, 1), +-(1, 2), +-(0, 1), +-(1, -1) (area 24)
OCTAGON = _polygon((1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1))
TWELVE_GON = _polygon((0, 0), (1, -1), (2, -1), (4, 0), (5, 1), (6, 3), (6, 4), (5, 5),
                      (4, 5), (2, 4), (1, 3), (0, 1))


@pytest.fixture
def table_builds(monkeypatch):
    """Horizons of the capacity tables built during a test, which starts
    from an empty table cache."""
    builds = []
    compute = _table._compute_table

    def spy(p, k_max):
        builds.append(k_max)
        return compute(p, k_max)

    monkeypatch.setattr(_table, "_compute_table", spy)
    monkeypatch.setattr(_table, "_TABLES", {})
    return builds


def _ref_corners(y: ToricSurface, a) -> list:
    """Corners of the section polytope <m, v_i> >= -a_i, counterclockwise
    from the least: the meeting points of every two non-parallel lines
    <m, v_i> = -a_i that lie in every half plane, and their strict convex
    hull.  Solved over the integers for the polytope times the lcm of the
    denominators of a."""
    scale = math.lcm(*(Fraction(c).denominator for c in a))
    b = [int(c * scale) for c in a]
    pts = []
    for i, (vi, bi) in enumerate(zip(y.rays, b)):
        for vj, bj in zip(y.rays[i + 1:], b[i + 1:]):
            det = vi[0] * vj[1] - vi[1] * vj[0]
            if det == 0:
                continue
            # m = (x, yy) / det by Cramer's rule, with det made positive
            x, yy = bj * vi[1] - bi * vj[1], bi * vj[0] - bj * vi[0]
            if det < 0:
                x, yy, det = -x, -yy, -det
            if all(vx * x + vy * yy >= -c * det for (vx, vy), c in zip(y.rays, b)):
                pts.append((Fraction(x, det * scale), Fraction(yy, det * scale)))
    return convex_hull(pts)


def section_points(y: ToricSurface, a) -> list:
    """Lattice points of the section polytope of the coefficients a, tested
    one by one over the bounding box of its corners, which `_ref_corners`
    finds without `line_cuts`."""
    corners = _ref_corners(y, a)
    if not corners:
        return []
    xs, ys = [c[0] for c in corners], [c[1] for c in corners]
    return [(x, yy) for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1)
            for yy in range(math.ceil(min(ys)), math.floor(max(ys)) + 1)
            if all(vx * x + vy * yy >= -ai for (vx, vy), ai in zip(y.rays, a))]


def random_lattice_polygon(rng: random.Random, size: int = 4) -> MomentPolygon:
    """Convex lattice polygon inside [0, size]^2 with at least 3 vertices."""
    while True:
        pts = [(Fraction(rng.randint(0, size)), Fraction(rng.randint(0, size)))
               for _ in range(rng.randint(4, 8))]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            return MomentPolygon(tuple(hull))


def random_fan(rng: random.Random) -> ToricSurface:
    """Complete fan of 3-9 random primitive rays with entries in [-4, 4]."""
    while True:
        vectors = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 9))]
        rays = {primitive(v) for v in vectors if v != (0, 0)}
        rays = sorted(rays, key=lambda v: math.atan2(v[1], v[0]))
        try:
            return ToricSurface(tuple(rays))
        except ValueError:
            continue


def random_domain_polygon(rng: random.Random, size: int = 4) -> MomentPolygon:
    """Convex lattice polygon with the origin corner and both axis edges."""
    a = rng.randint(1, size)
    b = rng.randint(1, size)
    pts = [(Fraction(0), Fraction(0)), (Fraction(a), Fraction(0)), (Fraction(0), Fraction(b))]
    for _ in range(rng.randint(0, 3)):
        pts.append((Fraction(rng.randint(0, size)), Fraction(rng.randint(0, size))))
    return MomentPolygon(tuple(convex_hull(pts)))


def random_chain(rng: random.Random) -> ConcaveDomain:
    """Concave chain with 2-6 vertices: edges with rational steps of
    denominator at most 4, in order of increasing slope."""
    n = rng.randint(2, 6)
    while True:
        edges = {(Fraction(rng.randint(1, 6), rng.randint(1, 4)),
                  -Fraction(rng.randint(1, 6), rng.randint(1, 4))) for _ in range(n - 1)}
        if len(edges) == n - 1 and len({dy / dx for dx, dy in edges}) == n - 1:
            break
    pts = [(Fraction(0), -sum(dy for _, dy in edges))]
    for dx, dy in sorted(edges, key=lambda e: e[1] / e[0]):
        pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
    return ConcaveDomain(tuple(pts))


def random_unimodular(rng: random.Random) -> UnimodularAffineMap:
    """Product of random shears with a random integer translation."""
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-2, 2)
        if rng.random() < 0.5:
            s = ((1, k), (0, 1))
        else:
            s = ((1, 0), (k, 1))
        m = (
            (m[0][0] * s[0][0] + m[0][1] * s[1][0], m[0][0] * s[0][1] + m[0][1] * s[1][1]),
            (m[1][0] * s[0][0] + m[1][1] * s[1][0], m[1][0] * s[0][1] + m[1][1] * s[1][1]),
        )
    t = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
    return UnimodularAffineMap(m, t)
