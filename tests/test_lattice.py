import math
import random
from fractions import Fraction

import pytest

from conftest import convex_hull, random_lattice_polygon, random_unimodular
from torcap import _polygon, lattice
from torcap.errors import ChopTooLarge, NoSmoothVertex, NotConvex, ZeroArea
from torcap.lattice import MomentPolygon, UnimodularAffineMap


def test_canonical_vertex_rotation():
    p = MomentPolygon(((1, 0), (0, 1), (0, 0)))
    assert p.vertices[0] == (0, 0)
    q = MomentPolygon(((0, 0), (1, 0), (0, 1)))
    assert p == q


def test_rejects_clockwise():
    with pytest.raises(NotConvex):
        MomentPolygon(((0, 0), (0, 1), (1, 0)))


def test_rejects_collinear_triple():
    with pytest.raises(NotConvex):
        MomentPolygon(((0, 0), (1, 0), (2, 0), (0, 1)))


def test_rejects_degenerate():
    with pytest.raises(ZeroArea):
        MomentPolygon(((0, 0), (1, 1), (2, 2)))


def test_rejects_nonconvex():
    with pytest.raises(NotConvex):
        MomentPolygon(((0, 0), (3, 0), (1, 1), (3, 3), (0, 3)))


# every turn is left and twice the area is 32, but the edges wind twice
PENTAGRAM = ((0, 3), (-2, -3), (3, 1), (-3, 1), (2, -3))
# a unimodular triangle far from the axes: lattice width 1 along (49, -8)
SKEWED_TRIANGLE = MomentPolygon(((8, 49), (25, 153), (16, 98)))


def test_rejects_star_polygon():
    with pytest.raises(NotConvex, match="winds around more than once"):
        MomentPolygon(PENTAGRAM)


def test_edge_data_unit_square():
    p = lattice.rectangle(1, 1)
    assert p.edge_data() == [
        ((0, 1), Fraction(0)),
        ((-1, 0), Fraction(1)),
        ((0, -1), Fraction(1)),
        ((1, 0), Fraction(0)),
    ]


def test_area_scaling():
    t = lattice.unit_triangle()
    assert lattice.area(t) == Fraction(1, 2)
    assert lattice.area(lattice.scale(t, 3)) == Fraction(9, 2)
    assert lattice.area(lattice.scale(t, Fraction(1, 2))) == Fraction(1, 8)


def test_lattice_count_known():
    assert lattice.lattice_count(lattice.unit_triangle()) == 3
    assert lattice.lattice_count(lattice.rectangle(2, 3)) == 12
    assert lattice.lattice_count(lattice.triangle(1, 2)) == 4
    half = MomentPolygon(((0, 0), (Fraction(3, 2), 0), (0, Fraction(3, 2))))
    assert lattice.lattice_count(half) == 3


def _brute_count(p):
    xs = [v[0] for v in p.vertices]
    ys = [v[1] for v in p.vertices]
    total = 0
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert min(xs) >= -6 and max(xs) <= 6
            if all(a * x + b * y >= c for a, b, c in p.constraints()):
                total += 1
    return total


def test_lattice_count_random_against_pointwise_scan():
    rng = random.Random(11)
    for _ in range(40):
        p = random_lattice_polygon(rng, size=5)
        assert lattice.lattice_count(p) == _brute_count(p)


def test_pick_formula_on_random_lattice_polygons():
    rng = random.Random(12)
    for _ in range(40):
        p = random_lattice_polygon(rng, size=5)
        a = lattice.area(p)
        b = sum(lattice.edge_lengths(p))
        assert lattice.lattice_count(p) == a + Fraction(b, 2) + 1


def test_apply_preserves_area_and_count():
    rng = random.Random(14)
    for _ in range(25):
        p = random_lattice_polygon(rng, size=4)
        t = random_unimodular(rng)
        q = lattice.apply(t, p)
        assert lattice.area(q) == lattice.area(p)
        assert lattice.lattice_count(q) == lattice.lattice_count(p)


def test_mixed_area():
    s = lattice.rectangle(1, 1)
    assert lattice.mixed_area(s, s) == 2 * lattice.area(s)
    t = lattice.unit_triangle()
    assert lattice.mixed_area(s, t) == lattice.mixed_area(t, s)
    assert lattice.mixed_area(lattice.scale(s, 3), t) == 3 * lattice.mixed_area(s, t)
    assert lattice.mixed_area(lattice.scale(t, 2), t) == 2
    assert lattice.mixed_area(s, lattice.rectangle(2, 3)) == 5
    # the edge sum runs over p's edges only, so symmetry is a check
    rng = random.Random(15)
    for _ in range(200):
        p = MomentPolygon(tuple(_random_rational_vertices(rng)))
        q = MomentPolygon(tuple(_random_rational_vertices(rng)))
        m = lattice.mixed_area(p, q)
        assert m == lattice.mixed_area(q, p)
        assert lattice.mixed_area(p, p) == 2 * lattice.area(p)
        v = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        moved = MomentPolygon(tuple((x + v[0], y + v[1]) for x, y in q.vertices))
        assert lattice.mixed_area(p, moved) == m
        k = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        assert lattice.mixed_area(p, lattice.scale(q, k)) == k * m


def _egcd_reference(a, b):
    """The recursion egcd is defined by."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _egcd_reference(b, a % b)
    return (g, y, x - (a // b) * y)


def test_egcd_matches_its_recursive_definition():
    # `line_cuts` reads its constants off the coefficients, so egcd must
    # return the recursion's (g, x, y), not just some Bezout pair
    pairs = [(a, b) for a in range(-60, 61) for b in range(-60, 61) if (a, b) != (0, 0)]
    rng = random.Random(2804)
    pairs += [(rng.randint(-10 ** 18, 10 ** 18), rng.randint(-10 ** 18, 10 ** 18))
              for _ in range(1000)]
    for a, b in pairs:
        g, x, y = lattice.egcd(a, b)
        assert (g, x, y) == _egcd_reference(a, b), (a, b)
        assert a * x + b * y == g == math.gcd(a, b)


def test_width_along():
    # the reference width that the lattice-width tests measure against
    vs = lattice.rectangle(2, 3).vertices
    assert _ref_width(vs, (1, 0)) == 2
    assert _ref_width(vs, (0, 1)) == 3
    assert _ref_width(vs, (1, 1)) == 5


def test_lattice_width_known():
    assert lattice.lattice_width(lattice.rectangle(2, 3)) == (2, (1, 0))
    assert lattice.lattice_width(lattice.rectangle(1, 5)) == (1, (1, 0))
    w, d = lattice.lattice_width(lattice.unit_triangle())
    assert w == 1
    # a thin sheared strip is only narrow in a non-axis direction
    sheared = lattice.apply(
        UnimodularAffineMap(((1, 0), (5, 1)), (0, 0)), lattice.rectangle(1, 5)
    )
    w, d = lattice.lattice_width(sheared)
    assert w == 1 and _ref_width(sheared.vertices, d) == 1


def test_lattice_width_unimodular_invariance():
    rng = random.Random(15)
    for _ in range(20):
        p = random_lattice_polygon(rng, size=4)
        t = random_unimodular(rng)
        assert lattice.lattice_width(p)[0] == lattice.lattice_width(lattice.apply(t, p))[0]


def test_lattice_width_is_attained_and_minimal_nearby():
    rng = random.Random(16)
    for _ in range(15):
        p = random_lattice_polygon(rng, size=5)
        w, d = lattice.lattice_width(p)
        assert _ref_width(p.vertices, d) == w
        for a in range(-7, 8):
            for b in range(-7, 8):
                if (a, b) != (0, 0):
                    assert _ref_width(p.vertices, (a, b)) >= w


def test_lattice_width_evaluates_few_directions(monkeypatch):
    # the reduction bisects for each reduction coefficient, so the width
    # evaluations grow with the log of the coordinates, however far from the
    # axes the narrowest direction lies: the strip of lattice width 1 along
    # its edge normal (8, -5), the triangle narrowest along (49, -8) and the
    # parallelogram sheared by 10^9 each take a few dozen
    thin = lattice.apply(UnimodularAffineMap(((5, 8), (8, 13)), (0, 0)), lattice.rectangle(10, 1))
    n = 10 ** 9
    sheared = MomentPolygon(((0, 0), (1, 0), (n + 1, 1), (n, 1)))
    calls = []
    width = _polygon._width

    def spy(ipts, l):
        calls.append(l)
        return width(ipts, l)

    monkeypatch.setattr(_polygon, "_width", spy)
    for p, expected, bound in ((thin, (1, (8, -5)), 60), (SKEWED_TRIANGLE, (1, (49, -8)), 60),
                               (sheared, (1, (0, 1)), 120)):
        calls.clear()
        assert lattice.lattice_width(p) == expected
        assert len(calls) < bound, p.vertices


def test_smooth_vertices():
    assert lattice.smooth_vertices(lattice.unit_triangle()) == [0, 1, 2]
    assert lattice.smooth_vertices(lattice.rectangle(1, 1)) == [0, 1, 2, 3]
    sing = lattice.triangle(1, 2)
    smooth = lattice.smooth_vertices(sing)
    assert len(smooth) == 2
    assert all(sing.vertices[i] != (1, 0) for i in smooth)


def test_normalize_places_smooth_corner_at_origin():
    rng = random.Random(17)
    done = 0
    while done < 20:
        p = random_lattice_polygon(rng, size=4)
        if not lattice.smooth_vertices(p):
            continue
        done += 1
        q, t = lattice.normalize(p)
        assert q == lattice.apply(t, p)
        assert (Fraction(0), Fraction(0)) in q.vertices
        i = q.vertices.index((Fraction(0), Fraction(0)))
        d_next, d_prev = lattice.vertex_directions(q, i)
        assert {d_next, d_prev} == {(1, 0), (0, 1)}


def test_normalize_translated_triangle():
    p = MomentPolygon(((1, 1), (2, 1), (1, 2)))
    q, t = lattice.normalize(p)
    assert q == lattice.unit_triangle()
    assert t.m == ((1, 0), (0, 1))
    assert t.t == (-1, -1)


def test_normalize_without_smooth_vertex():
    # every corner of this triangle is a singular cone
    p = MomentPolygon(((0, 0), (2, 1), (1, 3)))
    assert lattice.smooth_vertices(p) == []
    with pytest.raises(NoSmoothVertex):
        lattice.normalize(p)


def test_corner_chop():
    sq = lattice.rectangle(1, 1)
    chopped = lattice.corner_chop(sq, sq.vertices.index((1, 1)), Fraction(1, 2))
    assert len(chopped) == 5
    assert lattice.area(chopped) == 1 - Fraction(1, 8)
    at_origin = lattice.corner_chop(sq, sq.vertices.index((0, 0)), Fraction(1, 2))
    assert set(at_origin.vertices) == {
        (Fraction(1, 2), 0), (1, 0), (1, 1), (0, 1), (0, Fraction(1, 2))
    }
    with pytest.raises(ChopTooLarge):
        lattice.corner_chop(sq, 0, 1)
    with pytest.raises(ChopTooLarge):
        lattice.corner_chop(sq, 0, Fraction(-1, 2))


def test_contains():
    big = lattice.rectangle(2, 2)
    assert lattice.contains(big, lattice.rectangle(1, 1))
    assert not lattice.contains(lattice.rectangle(1, 1), big)


def test_convex_hull_of_collinear_points():
    assert convex_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]


def test_random_lattice_polygon_spans_area():
    rng = random.Random(42)
    for _ in range(300):
        # a 3x3 grid makes collinear draws common
        p = random_lattice_polygon(rng, size=2)
        assert lattice.area(p) > 0


# --- the integer view against Fraction formulas ---------------------------

RATIONAL_SCALES = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(3))


def _random_rational_vertices(rng):
    """Counterclockwise vertices of a rational polygon with 3-8 edges: a
    lattice hull under a random shear, rescaled and translated by a rational
    vector."""
    while True:
        pts = [(Fraction(rng.randint(0, 6)), Fraction(rng.randint(0, 6)))
               for _ in range(rng.randint(3, 12))]
        hull = convex_hull(pts)
        if 3 <= len(hull) <= 8:
            break
    shear = random_unimodular(rng)
    hull = [shear(v) for v in hull]
    s = rng.choice(RATIONAL_SCALES)
    t = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    return [(s * x + t[0], s * y + t[1]) for x, y in hull]


def _ref_primitive(v):
    d = math.lcm(v[0].denominator, v[1].denominator)
    x, y = int(v[0] * d), int(v[1] * d)
    g = math.gcd(x, y)
    return (x // g, y // g)


def _ref_edge_data(vs):
    out = []
    for v, w in zip(vs, vs[1:] + vs[:1]):
        u = _ref_primitive((v[1] - w[1], w[0] - v[0]))
        out.append((u, -(u[0] * v[0] + u[1] * v[1])))
    return out


def _ref_vertex_directions(vs, i):
    v, nxt, prv = vs[i], vs[(i + 1) % len(vs)], vs[i - 1]
    return (_ref_primitive((nxt[0] - v[0], nxt[1] - v[1])),
            _ref_primitive((prv[0] - v[0], prv[1] - v[1])))


def _ref_width(vs, l):
    vals = [l[0] * x + l[1] * y for x, y in vs]
    return max(vals) - min(vals)


def _ref_lattice_width(vs):
    """Minimal width and the first minimizing direction in the order
    (|l|^2, |b|, b, a) over l = (a, b) with a > 0, or a = 0 and b > 0."""
    n = len(vs)
    area = sum(vs[i][0] * vs[(i + 1) % n][1] - vs[(i + 1) % n][0] * vs[i][1]
               for i in range(n)) / 2
    xs, ys = [x for x, _ in vs], [y for _, y in vs]
    diam_sq = (max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2
    # area <= diameter * Euclidean width, and width(l) >= |l| * Euclidean width,
    # so a direction with |l|^2 * area^2 > best^2 * diam_sq is never narrower;
    # the axes and the primitive edge normals bound the lattice width above
    best = min(_ref_width(vs, u) for u in [(1, 0), (0, 1)] + [
        _ref_primitive((v[1] - w[1], w[0] - v[0])) for v, w in zip(vs, vs[1:] + vs[:1])])
    r = math.isqrt(math.floor(best ** 2 * diam_sq / area ** 2)) + 1
    cands = sorted(((a, b) for a in range(0, r + 1) for b in range(-r, r + 1)
                    if (a > 0 or b > 0) and math.gcd(a, b) == 1),
                   key=lambda l: (l[0] ** 2 + l[1] ** 2, abs(l[1]), l[1], l[0]))
    best = None
    for l in cands:
        if best is not None and (l[0] ** 2 + l[1] ** 2) * area ** 2 > best[0] ** 2 * diam_sq:
            break
        w = _ref_width(vs, l)
        if best is None or w < best[0]:
            best = (w, l)
    return best


def test_integer_view_matches_fraction_formulas():
    rng = random.Random(61)
    for _ in range(200):
        vs = _random_rational_vertices(rng)
        k = rng.randrange(len(vs))
        p = MomentPolygon(tuple(vs[k:] + vs[:k]))
        start = vs.index(min(vs))
        canonical = vs[start:] + vs[:start]
        assert list(p.vertices) == canonical
        assert p == MomentPolygon(tuple(vs))
        edges = _ref_edge_data(canonical)
        assert p.edge_data() == edges
        assert p.constraints() == [(u[0], u[1], -a) for u, a in edges]
        dirs = [_ref_vertex_directions(canonical, i) for i in range(len(vs))]
        assert [lattice.vertex_directions(p, i) for i in range(len(vs))] == dirs
        assert lattice.smooth_vertices(p) == [
            i for i, (d_next, d_prev) in enumerate(dirs) if abs(lattice.det2(d_next, d_prev)) == 1]
        assert lattice.lattice_width(p) == _ref_lattice_width(canonical)


def _skewed(rng, p):
    """p under a random unimodular map with entries in [-9, 9] and a
    rational translation."""
    while True:
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(2))
        if lattice.det2(*m) in (1, -1):
            t = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)), rng.randint(-9, 9))
            return lattice.apply(UnimodularAffineMap(m, t), p)


def test_lattice_width_matches_reference_on_skewed_polygons():
    rng = random.Random(62)
    for i in range(60):
        p = _skewed(rng, random_lattice_polygon(rng, size=rng.choice((2, 3, 4))))
        p = lattice.scale(p, RATIONAL_SCALES[i % len(RATIONAL_SCALES)])
        assert lattice.lattice_width(p) == _ref_lattice_width(list(p.vertices)), p.vertices
    # polar bodies: the hull of +-u*, +-v* for the dual basis u*, v* of a
    # lattice basis u, v with |det| <= 3, for half of them with +-s (u* + v*),
    # where several directions tie for the narrowest
    rng = random.Random(63)
    for i in range(300):
        while True:
            u, v = ((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(2))
            d = lattice.det2(u, v)
            if 1 <= abs(d) <= 3:
                break
        us, vs = (Fraction(v[1], d), Fraction(-v[0], d)), (Fraction(-u[1], d), Fraction(u[0], d))
        pts = [us, vs]
        if i % 2:
            s = Fraction(rng.randint(1, 3), rng.randint(2, 4))
            pts.append((s * (us[0] + vs[0]), s * (us[1] + vs[1])))
        p = MomentPolygon(tuple(convex_hull(pts + [(-x, -y) for x, y in pts])))
        assert lattice.lattice_width(p) == _ref_lattice_width(list(p.vertices)), p.vertices
    # integer vertices keep the reference's 70,000 width evaluations fast
    assert lattice.lattice_width(SKEWED_TRIANGLE) == _ref_lattice_width(
        [(8, 49), (25, 153), (16, 98)]) == (1, (49, -8))


@pytest.mark.parametrize("s", RATIONAL_SCALES[1:])
@pytest.mark.parametrize("vertices, error, message", [
    (((0, 0), (1, 1)), ZeroArea, "a polygon needs at least 3 vertices"),
    (((0, 0), (1, 1), (2, 2)), ZeroArea, "polygon has zero area"),
    (((0, 0), (1, 0), (2, 0), (0, 1)), NotConvex, "three consecutive vertices are collinear"),
    (((0, 0), (0, 1), (1, 0)), NotConvex, "vertices must be listed counterclockwise"),
    (((0, 0), (3, 0), (1, 1), (3, 3), (0, 3)), NotConvex, "polygon is not convex"),
    (PENTAGRAM, NotConvex, "winds around more than once"),
])
def test_rejects_rational_bad_polygons(vertices, error, message, s):
    t = (Fraction(1, 3), Fraction(-5, 7))
    with pytest.raises(error, match=message):
        MomentPolygon(tuple((s * x + t[0], s * y + t[1]) for x, y in vertices))
