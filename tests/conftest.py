"""Shared helpers: seeded pseudo-random geometry generators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from torcap import capacities
from torcap.lattice import MomentPolygon, UnimodularAffineMap, convex_hull, primitive
from torcap.toric import ToricSurface, TorusDivisor, support_vertices


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
    compute = capacities._compute_table

    def spy(p, k_max):
        builds.append(k_max)
        return compute(p, k_max)

    monkeypatch.setattr(capacities, "_compute_table", spy)
    monkeypatch.setattr(capacities, "_TABLES", {})
    return builds


def section_points(y: ToricSurface, a) -> list:
    """Lattice points of the section polytope of the coefficients a, tested
    one by one over the bounding box of its corners."""
    corners = support_vertices(y, TorusDivisor(tuple(a)))
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
