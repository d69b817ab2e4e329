import gc
import heapq
import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (OCTAGON, TWELVE_GON, convex_hull, random_chain, random_domain_polygon,
                      random_fan, random_lattice_polygon, random_unimodular, section_points)
from torcap import _base, _polygon, _table, capacities, corpus, ech, lattice, oracle, toric
from torcap.capacities import ConcaveDomain
from torcap.errors import (IndexTooSmall, InvalidInput, IterationLimit, NoSmoothVertex,
                           NonPositiveArea, NotConcave, NotDomainPolygon, TorcapError)
from torcap.lattice import MomentPolygon
from torcap.toric import TorusDivisor


def test_calg_zero_index():
    for p in corpus.CORPUS.values():
        assert capacities.calg(p, 0) == 0


def test_negative_horizon_raises_like_negative_index():
    square, ball = lattice.rectangle(1, 1), ConcaveDomain.ball(1)
    for call in (lambda: capacities.alg_capacities(square, -1),
                 lambda: capacities.ech_convex_capacities(square, -1),
                 lambda: capacities.ech_concave_capacities(ball, -1),
                 lambda: capacities.ech_ellipsoid_capacities(1, 2, -1),
                 lambda: capacities.calg(square, -1),
                 lambda: capacities.calg_witness(square, -1),
                 lambda: capacities.ech_convex(square, -1),
                 lambda: capacities.ech_concave(ball, -1),
                 lambda: capacities.ech_ellipsoid(1, 2, -1)):
        with pytest.raises(ValueError, match="capacity index must be nonnegative"):
            call()


def test_calg_triangle_is_staircase():
    t = lattice.unit_triangle()
    for k in range(21):
        assert capacities.calg(t, k) == capacities.ech_ellipsoid(1, 1, k)


def test_calg_known_values():
    assert capacities.calg(lattice.rectangle(1, 1), 1) == 1
    r = lattice.rectangle(2, 3)
    assert [capacities.calg(r, k) for k in (1, 2, 3)] == [2, 4, 5]


def test_calg_monotone_in_k():
    for name in ("unit-square", "chopped-square", "singular-triangle"):
        p = corpus.CORPUS[name]
        vals = [capacities.calg(p, k) for k in range(11)]
        assert vals == sorted(vals)


def test_calg_witness_is_optimal_nef():
    rng = random.Random(31)
    for _ in range(10):
        p = random_domain_polygon(rng, size=3)
        k = rng.randint(1, 6)
        val, d = capacities.calg_witness(p, k)
        y = toric.build_surface(p)
        assert d.is_integral
        assert toric.is_nef(y, d)
        assert toric.h0(y, d) >= k + 1
        assert toric.intersect(y, d, toric.associated_divisor(p)) == val


def test_calg_scaling():
    t = lattice.unit_triangle()
    sq = lattice.rectangle(1, 1)
    for s in (2, 3, Fraction(5, 2)):
        for k in range(11):
            assert capacities.calg(lattice.scale(t, s), k) == s * capacities.calg(t, k)
            assert capacities.calg(lattice.scale(sq, s), k) == s * capacities.calg(sq, k)


def test_calg_unimodular_invariance():
    rng = random.Random(32)
    for p in (lattice.unit_triangle(), lattice.rectangle(1, 2),
              corpus.CORPUS["chopped-square"]):
        base = [capacities.calg(p, k) for k in range(8)]
        for _ in range(20):
            q = lattice.apply(random_unimodular(rng), p)
            assert [capacities.calg(q, k) for k in range(8)] == base


def test_calg_inclusion_monotone():
    rng = random.Random(33)
    pairs = 0
    while pairs < 100:
        small = random_domain_polygon(rng, size=3)
        big = random_domain_polygon(rng, size=4)
        if not lattice.contains(big, small) or small == big:
            continue
        pairs += 1
        for k in range(21):
            assert capacities.calg(small, k) <= capacities.calg(big, k)


def test_calg_chop_monotone():
    rng = random.Random(34)
    done = 0
    while done < 30:
        p = random_domain_polygon(rng, size=4)
        i = rng.randrange(len(p.vertices))
        try:
            q = lattice.corner_chop(p, i, Fraction(1, rng.randint(2, 4)))
        except Exception:
            continue
        done += 1
        for k in range(21):
            assert capacities.calg(q, k) <= capacities.calg(p, k)


# fans in which every cone is singular, so the search gauge has several
# residue classes
NO_SMOOTH_CONE = (
    ((0, 0), (2, 1), (1, 2)),              # cone determinants 3, 3, 3
    ((-1, 0), (0, -1), (1, 0), (0, 1)),    # 2, 2, 2, 2
    ((-2, -2), (3, -2), (1, 3), (-1, 1)),  # 5, 7, 2, 3
    ((-3, -1), (3, -3), (3, 3), (0, 2)),   # 3, 3, 2, 4
)


# no smooth cone and vertices off the lattice: the support numbers of the
# integer view share the factor 3, 2 (the first two) or none with its scale
NO_SMOOTH_CONE_RATIONAL = (
    ((Fraction(1, 3), 0), (Fraction(4, 3), 0), (1, 1)),
    ((0, Fraction(1, 2)), (1, 0), (Fraction(3, 2), 2), (1, 2)),
) + tuple(tuple((Fraction(2, 3) * x, Fraction(2, 3) * y) for x, y in verts)
          for verts in NO_SMOOTH_CONE)


def test_calg_without_smooth_cone_matches_oracle():
    for verts, box in ([(verts, 5) for verts in NO_SMOOTH_CONE]
                       + [(verts, 6) for verts in NO_SMOOTH_CONE_RATIONAL]):
        p = MomentPolygon(verts)
        assert min(toric.build_surface(p).cone_dets) >= 2
        for k in range(9):
            assert capacities.calg(p, k) == oracle.brute_calg(p, k, box=box), (verts, k)


def test_calg_witness_without_smooth_cone():
    for verts in NO_SMOOTH_CONE:
        p = MomentPolygon(verts)
        y = toric.build_surface(p)
        for k in range(9):
            val, d = capacities.calg_witness(p, k)
            assert d.is_integral
            assert toric.is_nef(y, d)
            assert toric.h0(y, d) >= k + 1
            assert toric.intersect(y, d, toric.associated_divisor(p)) == val


def _lex_vectors(ranges, weights, budget):
    """Integer vectors in the ranges with weighted sum at most budget, in
    lexicographic order; the weights are positive."""
    if not ranges:
        yield ()
        return
    rest = sum(w * r.start for w, r in zip(weights[1:], ranges[1:]))
    for c in ranges[0]:
        if c * weights[0] + rest > budget:
            return
        for tail in _lex_vectors(ranges[1:], weights[1:], budget - c * weights[0]):
            yield (c, *tail)


def _first_optimal_witnesses(p, k_max):
    """(value, coefficients) for k = 0..k_max: the first optimal integral nef
    divisor in the documented order, by a scan of every gauge-form vector of
    value at most c_k_max.  The gauge cone s is the first of least
    determinant; (a_s, a_{s+1}) runs over [0, det)^2 in lexicographic order,
    skipping pairs whose class was already taken, and a_{s+2}, ..., a_{s-1}
    run lexicographically."""
    y = toric.build_surface(p)
    n = len(y.rays)
    weights = toric.pairings(y, toric.associated_divisor(p))
    dets = y.cone_dets
    s = dets.index(min(dets))
    order = [(s + j) % n for j in range(2, n)]
    v0, v1, det = y.rays[s], y.rays[(s + 1) % n], dets[s]
    # (r0, r1) and (q0, q1) are in one class when their difference is
    # (<u, v0>, <u, v1>) for an integral u
    reps = []
    for r in itertools.product(range(det), repeat=2):
        if not any((v1[1] * (r[0] - q[0]) - v0[1] * (r[1] - q[1])) % det == 0
                   and (v0[0] * (r[1] - q[1]) - v1[0] * (r[0] - q[0])) % det == 0
                   for q in reps):
            reps.append(r)
    # v0 is primitive, so a linear function sets a_s = 0, and those that
    # vanish on v0 shift a_{s+1} by multiples of det: the search's gauge
    assert reps == [(0, t) for t in range(det)], (v0, v1)
    top = capacities.calg(p, k_max)
    best = [None] * (k_max + 1)
    for r0, r1 in reps:
        # the corner m of the cone (v0, v1) lies in the section polytope of a
        # nef divisor, so a_i >= -<m, v_i>, and the value bounds each a_i above
        mx = Fraction(-r0 * v1[1] + r1 * v0[1], det)
        my = Fraction(-r1 * v0[0] + r0 * v1[0], det)
        low = [math.ceil(-(mx * y.rays[i][0] + my * y.rays[i][1])) for i in order]
        budget = top - r0 * weights[s] - r1 * weights[(s + 1) % n]
        spare = budget - sum(weights[i] * c for i, c in zip(order, low))
        ranges = [range(c, c + math.floor(spare / weights[i]) + 1) for i, c in zip(order, low)]
        for rest in _lex_vectors(ranges, [weights[i] for i in order], budget):
            a = [0] * n
            for i, c in zip((s, (s + 1) % n, *order), (r0, r1, *rest)):
                a[i] = c
            d = TorusDivisor(tuple(a))
            if not toric.is_nef(y, d):
                continue
            value = sum(w * c for w, c in zip(weights, a))
            for k in range(min(toric.h0(y, d), k_max + 1)):
                if best[k] is None or value < best[k][0]:
                    best[k] = (value, d.coeffs)
    return best


def test_witness_is_the_first_optimal_gauge_vector():
    rng = random.Random(43)
    polygons = list(corpus.CORPUS.values()) + [MomentPolygon(v) for v in NO_SMOOTH_CONE]
    for _ in range(20):
        hull = random_lattice_polygon(rng, size=4)
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        polygons.append(MomentPolygon(tuple((scale * x, scale * y) for x, y in hull.vertices)))
    for p in polygons:
        for k, expected in enumerate(_first_optimal_witnesses(p, 6)):
            val, d = capacities.calg_witness(p, k)
            assert (val, d.coeffs) == expected, (p.vertices, k)


def test_calg_large_horizon_closed_forms():
    k_max = 200
    rect = capacities.alg_capacities(corpus.CORPUS["rect-2x3"], k_max)
    tri = capacities.alg_capacities(corpus.CORPUS["singular-triangle"], k_max)
    # singular-triangle is the ellipsoid E(1, 2): the (k+1)-th smallest m + 2n
    staircase = sorted(m + 2 * n for m in range(k_max + 1) for n in range(k_max // 2 + 1))
    for k in range(k_max + 1):
        # rect-2x3 is the polydisk P(2, 3): the least n for each m is
        # ceil((k+1)/(m+1)) - 1
        polydisk = min(2 * m + 3 * (-(-(k + 1) // (m + 1)) - 1) for m in range(k + 1))
        assert rect[k] == polydisk, k
        assert tri[k] == staircase[k], k


def test_line_count_is_a_section_count_difference():
    rng = random.Random(37)
    fans = [toric.build_surface(p) for p in corpus.CORPUS.values()]
    fans += [toric.build_surface(p) for p in (OCTAGON, TWELVE_GON)]
    fans += [random_fan(rng) for _ in range(20)]
    seen = {"not nef": 0, "empty": 0, "not a ray": 0}
    for y in fans:
        n = len(y.rays)
        for _ in range(25):
            a = [rng.randint(-3, 5) for _ in range(n)]
            j = rng.randrange(n)
            h = lattice.count_points(y.rays, a)
            assert h == len(section_points(y, a)), (y.rays, a)
            seen["not nef"] += not toric.is_nef(y, TorusDivisor(tuple(a)))
            seen["empty"] += h == 0
            below = a[:j] + [a[j] - 1] + a[j + 1:]
            cuts = lattice.line_cuts(y.rays[j], y.rays, [i for i in range(n) if i != j])
            assert lattice.line_count(cuts, a, a[j]) == \
                h - lattice.count_points(y.rays, below), (y.rays, a, j)
            # along a direction u that is no ray, the lines <m, u> = -c
            # through the corners cover the polytope
            corners = toric.support_vertices(y, TorusDivisor(tuple(a)))
            for u in ((0, -1), (1, 1), (2, -3)):
                if u in y.rays:
                    continue
                cs = [-(u[0] * x + u[1] * yy) for x, yy in corners] or [0]
                cuts = lattice.line_cuts(u, y.rays, range(n))
                assert sum(lattice.line_count(cuts, a, c)
                           for c in range(math.floor(min(cs)) - 1, math.ceil(max(cs)) + 2)) == h
                seen["not a ray"] += h > 0
    assert min(seen.values()) >= 50, seen


def test_edge_count_is_line_count_on_nef_vectors():
    # nef vectors: the support numbers of a point set on a random fan, which
    # often have rows 0, and random vectors that are nef on a fan without a
    # smooth cone, whose lines often miss the lattice
    rng = random.Random(53)
    fans = [toric.build_surface(MomentPolygon(v)) for v in NO_SMOOTH_CONE]
    seen = {"zero row": 0, "no point": 0, "negative row": 0}
    pairs = 0
    while pairs < 300:
        if rng.random() < 0.5:
            y = random_fan(rng)
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
            a = [max(-(vx * x + vy * yy) for x, yy in pts) for vx, vy in y.rays]
        else:
            y = rng.choice(fans)
            a = [rng.randint(-2, 4) for _ in y.rays]
        rows = toric.pairings(y, TorusDivisor(tuple(a)))
        n = len(a)
        for j in range(n):
            cuts = lattice.line_cuts(y.rays[j], y.rays, [i for i in range(n) if i != j])
            count = lattice.line_count(cuts, a, a[j])
            if rows[j] < 0:
                # where a row is negative, nef or not, its line holds no point
                assert count == 0, (y.rays, a, j)
                seen["negative row"] += 1
            elif min(rows) >= 0:
                assert _table._edge_count(cuts, a, j, a[j]) == count, (y.rays, a, j)
                seen["zero row"] += rows[j] == 0
                seen["no point"] += count == 0
        pairs += min(rows) >= 0
    assert min(seen.values()) >= 20, seen


def test_floor_lemma_of_the_cone_vertex():
    # the search's floors: with the fan rotated to start at cone s, gauge
    # class r1 has its cone vertex m_0 on <m, v_0> = 0 and <m, v_1> = -r1,
    # and X_l = -<m_0, v_l>.  X is the divisor of a linear function, so every
    # row vanishes on it, and a row with e_i <= 0 holds on every vector b >=
    # ceil(X): such a row does not fall as any coefficient rises
    rng = random.Random(59)
    seen = {"zero rows": 0, "e <= 0 rows": 0, "off the lattice": 0}
    for _ in range(60):
        y = random_fan(rng)
        n = len(y.rays)
        for s in range(n):
            v, d, e = (t[s:] + t[:s] for t in (y.rays, y._d, y._e))

            def row(b, i):
                return b[i - 1] * d[i] - b[i] * e[i] + b[(i + 1) % n] * d[i - 1]

            for r1 in range(d[0]):
                x = [Fraction(r1 * (v[0][0] * vy - v[0][1] * vx), d[0]) for vx, vy in v]
                assert x[0] == 0 and x[1] == r1
                assert all(row(x, i) == 0 for i in range(n)), (v, r1)
                seen["zero rows"] += n
                seen["off the lattice"] += any(t.denominator > 1 for t in x)
                b = [math.ceil(t) + rng.choice((0, 0, 1, 3)) for t in x]
                for i in range(n):
                    if e[i] <= 0:
                        assert row(b, i) >= 0, (v, r1, b, i)
                        seen["e <= 0 rows"] += 1
    assert min(seen.values()) >= 500, seen


def test_line_count_calls_of_many_edge_tables(monkeypatch):
    # the carried section count moves through nef vectors, where two cuts
    # decide each line; counting every unit move with `line_count` took
    # 86,042 and 25,990 calls
    calls = []
    count = _table.line_count
    monkeypatch.setattr(_table, "line_count", lambda *args: calls.append(1) or count(*args))
    hexagon = MomentPolygon(((1, 0), (3, 1), (4, 3), (3, 4), (1, 3), (0, 1)))
    assert min(hexagon._d) == 3
    made = []
    for p, k_max in ((OCTAGON, 100), (hexagon, 60)):
        calls.clear()
        _table._compute_table(p, k_max)
        made.append(len(calls))
    assert made == [1993, 223]
    assert 3 * made[0] <= 86042 and 3 * made[1] <= 25990


def test_table_cuts_the_lines_of_the_moving_coefficients(monkeypatch):
    # coefficient 0 carries the gauge a_s = 0 and never moves, so one build
    # of an n-gon's table cuts n - 1 lines, once for all gauge classes
    calls = []
    cuts = _table.line_cuts
    monkeypatch.setattr(_table, "line_cuts", lambda *args: calls.append(1) or cuts(*args))
    triangle = MomentPolygon(((0, 0), (2, 1), (1, 2)))
    assert min(triangle._d) == 3
    for p in (triangle, corpus.CORPUS["chopped-square"], OCTAGON):
        calls.clear()
        _table._compute_table(p, 12)
        assert len(calls) == len(p) - 1, p


def test_value_bound_of_a_polygon_with_a_large_g():
    # the hexagon's support numbers are integers and its vertex denominators
    # have lcm 70, so g = p._scale = 70 and P0 = p, whose least multiple with 9
    # sections bounds the values at k = 8.  Bounded by 70 p instead, the least
    # multiple of the lattice polygon P', the search made 21,738 level calls
    # in seconds, not 353
    p = MomentPolygon(((-25, 10), (-8, Fraction(3, 2)), (Fraction(-2, 5), Fraction(-2, 5)),
                       (0, 0), (Fraction(-1, 2), 1), (Fraction(-16, 7), Fraction(17, 7))))
    supports = [-(u[0] * x + u[1] * y) for u, (x, y) in zip(p._normals, p._ipts)]
    assert math.gcd(p._scale, *supports) == 70
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "search":
            calls.append(1)
            if len(calls) > 1000:
                raise RuntimeError("the value bound leaves too many vectors")

    sys.setprofile(profile)
    try:
        values, denom, _ = _table._compute_table(p, 8)
    finally:
        sys.setprofile(None)
    assert len(calls) == 353
    assert (values, denom) == ([0, 530, 728, 1085, 1258, 1456, 1680, 1813, 1986], 70)


def _table_within(p, k_max, budget):
    """_compute_table(p, k_max), raising once the lines it runs in `_table`
    and `_polygon` pass budget: a count of work, not of wall time."""
    files = {_table.__file__, _polygon.__file__}
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > budget:
                raise RuntimeError(f"the table build ran more than {budget} lines")
        return trace

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace if frame.f_code.co_filename in files else None)
    try:
        return _table._compute_table(p, k_max)
    finally:
        sys.settrace(outer)


def test_gauge_of_a_cone_with_a_large_determinant():
    # every cone of the triangle has determinant at least 300, so the gauge
    # cone has 300 classes, one per a_{s+1} < 300 at a_s = 0: 56,085 lines.
    # A scan of [0, 300)^2 for one representative per class ran 329,690
    p = MomentPolygon(((0, -1), (300, 0), (0, 1)))
    assert min(p._d) == 300
    values, denom, _ = _table_within(p, 5, 100_000)
    assert (values, denom) == ([0, 2, 4, 6, 8, 10], 1)


def test_value_bound_of_a_large_polygon_with_a_large_g():
    # the support numbers of P' = 2 p share the factor g = 2 with its scale,
    # so the bound is the least multiple of P0 = p with 3 sections, p itself:
    # the rows of p count its points in 17,331 lines.  Moving a carried
    # count out to p one unit at a time ran 15,020,240
    p = MomentPolygon(((0, 0), (500, 0), (0, Fraction(1001, 2))))
    values, denom, _ = _table_within(p, 2, 50_000)
    assert [Fraction(v, denom) for v in values] == [0, 500, Fraction(1001, 2)]


def test_calg_at_ehrhart_indices_is_the_multiple_of_the_polygon():
    # for a lattice polygon P, mP has L(m) = (area2 m^2 + perimeter m) / 2 + 1
    # lattice points, and at k = L(m) - 1 the capacity is that of mP itself,
    # m area2 = 2 m Area(P): no nef divisor with as many sections is cheaper
    rng = random.Random(59)
    polygons = [p for p in corpus.CORPUS.values() if p._scale == 1]
    polygons += [random_lattice_polygon(rng, size=5) for _ in range(100)]
    anchors = 0
    for p in polygons:
        area2, perimeter = p._area2, sum(lattice.edge_lengths(p))
        ks = []
        m = 1
        while (area2 * m * m + perimeter * m) // 2 <= 60:
            ks.append((m, (area2 * m * m + perimeter * m) // 2))
            m += 1
        seq = capacities.alg_capacities(p, ks[-1][1]) if ks else ()
        for m, k in ks:
            assert seq[k] == m * area2, (p.vertices, m, k)
            anchors += 1
    assert anchors >= 200


def test_calg_is_at_most_k_times_the_lattice_width():
    # a segment of k + 1 lattice points along a primitive direction l is the
    # section polytope of a nef divisor whose value is k times P's width
    # along l, so c_k <= k LW(P), with LW the lattice width; at k = 1 this
    # is the Gromov width bound, with equality on the unit square and on 2P^2
    rng = random.Random(63)
    polygons = [*corpus.CORPUS.values(), OCTAGON]
    polygons += [lattice.scale(random_lattice_polygon(rng, size=rng.choice((2, 3, 4))), s)
                 for s in (1, Fraction(1, 2), Fraction(2, 3)) for _ in range(70)]
    equalities = 0
    for p in polygons:
        lw, seq = lattice.lattice_width(p)[0], capacities.alg_capacities(p, 30)
        for k in range(31):
            assert seq[k] <= k * lw, (p.vertices, k)
            equalities += k > 0 and seq[k] == k * lw
    assert equalities >= 300  # 343 of 6,630 at k >= 1
    # c_1 = LW: the least segment is the unit one across the lattice-width
    # direction, on every rational polygon, singular or not; the table
    # search and the Gauss reduction share no code
    hulls = []
    while len(hulls) < 1200:
        d = rng.choice((1, 2, 3))
        pts = [(Fraction(rng.randint(0, 5 * d), d), Fraction(rng.randint(0, 5 * d), d))
               for _ in range(rng.randint(3, 7))]
        hull = convex_hull(pts)
        if len(hull) >= 3:
            hulls.append(MomentPolygon(tuple(hull)))
    assert sum(not lattice.smooth_vertices(p) for p in hulls) >= 300  # 666 of 1,200
    for p in [*corpus.CORPUS.values(), OCTAGON, *hulls]:
        assert capacities.calg(p, 1) == lattice.lattice_width(p)[0], p.vertices


def test_row_counter_matches_count_points():
    # count_points sums the rows of the section polytope, nef or not
    rng = random.Random(38)
    seen = {"not nef": 0, "empty": 0}
    for _ in range(30):
        y = random_fan(rng)
        n = len(y.rays)
        for _ in range(10):
            a = [rng.randint(-3, 4) for _ in range(n)]
            h = lattice.count_points(y.rays, a)
            assert h == len(section_points(y, a)), (y.rays, a)
            seen["not nef"] += not toric.is_nef(y, TorusDivisor(tuple(a)))
            seen["empty"] += h == 0
    assert min(seen.values()) >= 30, seen


def test_polarization_weights_are_intersection_numbers():
    rng = random.Random(41)
    polygons = list(corpus.CORPUS.values())
    for _ in range(30):
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        hull = random_lattice_polygon(rng, size=5)
        polygons.append(MomentPolygon(tuple((scale * x, scale * y) for x, y in hull.vertices)))
    for p in polygons:
        y = toric.build_surface(p)
        ample = toric.associated_divisor(p)
        expected = tuple(sum(row[j] * c for j, c in enumerate(ample.coeffs))
                         for row in toric.intersection_matrix(y))
        assert toric.pairings(y, ample) == expected, p.vertices


def test_search_reads_weights_and_fan_off_the_polygon():
    # the capacity search takes p._normals as the fan and the edge lengths
    # over p._scale as the pairings of the polarization
    rng = random.Random(47)
    polygons = list(corpus.CORPUS.values())
    for _ in range(300):
        hull = random_lattice_polygon(rng, size=rng.choice((3, 4, 6)))
        scale = rng.choice((1, 1, Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)))
        polygons.append(lattice.scale(hull, scale))
    for p in polygons:
        # the fan checks of ToricSurface hold for every polygon's normals
        toric.ToricSurface(p._normals)
        weights = tuple(Fraction(w, p._scale) for w in lattice.edge_lengths(p))
        assert weights == toric.pairings(toric.build_surface(p), toric.associated_divisor(p)), \
            p.vertices


@pytest.mark.parametrize("p, k_max", [(OCTAGON, 100), (TWELVE_GON, 20)])
def test_many_edge_witnesses_are_feasible_and_attain_the_value(p, k_max):
    y = toric.build_surface(p)
    ample = toric.associated_divisor(p)
    values, denom, vecs = _table._compute_table(p, k_max)
    assert len(values) == len(vecs) == k_max + 1
    for k, (val, vec) in enumerate(zip(values, vecs)):
        d = TorusDivisor(vec)
        assert toric.is_nef(y, d), k
        assert lattice.count_points(y.rays, vec) >= k + 1, k
        assert toric.intersect(y, d, ample) == Fraction(val, denom), k


def test_one_table_build_per_sequence(table_builds):
    seq = capacities.alg_capacities(corpus.CORPUS["chopped-square"], 65)
    assert table_builds == [65]
    assert len(seq) == 66


def test_table_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(_table, "_TABLES", {})
    for i in range(_base.CACHE_SIZE + 1):
        capacities.calg(MomentPolygon(((i, 0), (i + 1, 0), (i + 1, 1), (i, 1))), 1)
    assert len(_table._TABLES) == _base.CACHE_SIZE


def test_calg_search_leaves_no_cyclic_garbage(monkeypatch):
    # the search closure holds itself through its cell; left uncut, that
    # cycle leaves each build's closures, cells and lists to the collector
    monkeypatch.setattr(_table, "_TABLES", {})
    hexagon = MomentPolygon(((1, 0), (3, 1), (4, 3), (3, 4), (1, 3), (0, 1)))
    kite = MomentPolygon(((0, 0), (1, 0), (2, 2), (-1, 2)))
    pentagon = MomentPolygon(((0, 0), (3, 0), (3, 1), (1, 2), (0, 2)))
    gc.collect()
    gc.disable()
    try:
        for p in (*corpus.CORPUS.values(), OCTAGON, hexagon, kite):
            capacities.alg_capacities(p, 12)
        gw, _lw, _holds = capacities.width_bound_check(pentagon, 16)
        for c in (gw, Fraction(65, 64) * gw):
            capacities.embedding_verdict(ConcaveDomain.ball(c), pentagon, 16)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ech_ellipsoid_values():
    assert [capacities.ech_ellipsoid(1, 1, k) for k in range(8)] == [0, 1, 1, 2, 2, 2, 3, 3]
    assert [capacities.ech_ellipsoid(1, 2, k) for k in range(8)] == [0, 1, 2, 2, 3, 3, 4, 4]
    assert capacities.ech_ellipsoid(2, 3, 1) == 2
    assert capacities.ech_ellipsoid(Fraction(1, 2), Fraction(3, 2), 2) == 1


def _heap_staircase(a, b, k_max):
    """The k_max + 1 smallest a*m + b*n, taken in order from a heap."""
    heap, seen, out = [(Fraction(0), 0, 0)], {(0, 0)}, []
    while len(out) <= k_max:
        value, m, n = heapq.heappop(heap)
        out.append(value)
        for mn in ((m + 1, n), (m, n + 1)):
            if mn not in seen:
                seen.add(mn)
                heapq.heappush(heap, (a * mn[0] + b * mn[1], *mn))
    return out


def test_ech_ellipsoid_capacities_match_heap_merge():
    for a, b, k_max in ((1, 2, 400), (Fraction(3, 4), Fraction(5, 6), 200), (2, 2, 300),
                        (Fraction(3, 4), Fraction(3, 4), 200)):
        seq = capacities.ech_ellipsoid_capacities(a, b, k_max)
        assert list(seq.values) == _heap_staircase(a, b, k_max)
        assert all(isinstance(v, Fraction) for v in seq.values)
        assert [capacities.ech_ellipsoid(a, b, k) for k in range(41)] == list(seq.values[:41])


def test_ech_ellipsoid_capacities_memory_is_linear():
    tracemalloc.start()
    try:
        seq = capacities.ech_ellipsoid_capacities(1, 2, 3000)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seq[3000] == _heap_staircase(1, 2, 3000)[3000]
    assert peak < 10 * 2**20


_HALF = Fraction(1, 2)
_SQUARE_FAN = toric.build_surface(lattice.rectangle(1, 1))
# one cone of determinant 2
_SINGULAR_FAN = toric.build_surface(MomentPolygon(((0, 0), (1, 0), (0, 2))))


@pytest.mark.parametrize("call, error, message", [
    (lambda: capacities.ech_concave_capacities(ConcaveDomain.ball(1), -1), IndexTooSmall,
     "capacity index must be nonnegative"),
    (lambda: oracle.brute_calg(lattice.rectangle(1, 1), -1), IndexTooSmall,
     "capacity index must be nonnegative"),
    (lambda: oracle.sw_infimum(lattice.rectangle(1, 1), -1), IndexTooSmall,
     "index bound must be nonnegative"),
    (lambda: capacities.xi_width(lattice.rectangle(1, 1), ConcaveDomain.ball(1), 0), IndexTooSmall,
     "k_max must be at least 1"),
    (lambda: capacities.embedding_verdict(ConcaveDomain.ball(1), lattice.rectangle(1, 1), 0),
     IndexTooSmall, "k_max must be at least 1"),
    (lambda: capacities.ech_ellipsoid_capacities(Fraction(-1, 2), 1, 3), NonPositiveArea,
     "ellipsoid needs positive areas"),
    (lambda: lattice.primitive((0, 0)), InvalidInput, "zero vector has no primitive form"),
    (lambda: lattice.UnimodularAffineMap(((2, 0), (0, 1)), (0, 0)), InvalidInput,
     "matrix determinant must be \\+-1"),
    # determinant 1, but (1/2, 0) (0, 2) maps the unit square, of lattice
    # width 1, to a rectangle of lattice width 1/2
    (lambda: lattice.UnimodularAffineMap(((_HALF, 0), (0, 2)), (0, 0)), InvalidInput,
     "matrix entries must be integers"),
    (lambda: lattice.UnimodularAffineMap(((1.0, 0), (0, 1)), (0, 0)), InvalidInput,
     "matrix entries must be integers"),
    (lambda: lattice.scale(lattice.rectangle(1, 1), 0), InvalidInput,
     "scale factor must be positive"),
    (lambda: toric.ToricSurface(((1, 0), (0, 1))), InvalidInput,
     "a complete fan needs at least 3 rays"),
    (lambda: toric.ToricSurface(((2, 0), (0, 1), (-1, -1))), InvalidInput,
     "ray \\(2, 0\\) is not primitive"),
    (lambda: toric.ToricSurface(((1, 0), (-1, -1), (0, 1))), InvalidInput,
     "rays must be strictly counterclockwise and complete"),
    (lambda: toric.divisor(_SQUARE_FAN, (0, 1, 0)), InvalidInput,
     "coefficient count must match ray count"),
    (lambda: toric.is_effective(_SQUARE_FAN, TorusDivisor((_HALF, 0, 0, 0))), InvalidInput,
     "effectivity test expects an integral divisor"),
    (lambda: toric.ip_transform(_SINGULAR_FAN, TorusDivisor((0, 0, 0))), InvalidInput,
     "isoparametric transform needs a smooth surface"),
    (lambda: toric.ip_transform(_SQUARE_FAN, TorusDivisor((_HALF, 0, 0, 0))), InvalidInput,
     "isoparametric transform needs an integral divisor"),
    (lambda: toric.preferable_nef(_SINGULAR_FAN, TorusDivisor((0, 0, 0))), InvalidInput,
     "preferable-nef procedure needs a smooth surface"),
    (lambda: toric.round_down_nef(_SQUARE_FAN, TorusDivisor((-1, 0, 0, 0))), InvalidInput,
     "round-down expects a nef divisor"),
    # nef, with the section polytope the point (0, 1/2)
    (lambda: toric.round_down_nef(_SQUARE_FAN, TorusDivisor((-_HALF, 0, _HALF, 0))), InvalidInput,
     "section polytope contains no lattice point"),
    (lambda: oracle.sw_infimum(MomentPolygon(((0, 0), (1, 0), (0, 2))), 1), InvalidInput,
     "index scan needs a smooth surface"),
], ids=["check-index", "oracle-index", "oracle-index-bound", "xi-width-horizon",
        "verdict-horizon", "ellipsoid-area", "zero-vector", "unimodular-det",
        "unimodular-fraction", "unimodular-float", "scale-positive", "fan-size",
        "fan-primitive", "fan-order", "coefficient-count", "effective-integral", "ip-smooth",
        "ip-integral", "preferable-smooth", "round-down-nef", "round-down-empty", "oracle-smooth"])
def test_input_errors_are_typed_value_errors(call, error, message):
    with pytest.raises(error, match=f"^{message}$") as info:
        call()
    assert isinstance(info.value, TorcapError) and isinstance(info.value, ValueError)


def test_ech_ellipsoid_needs_positive_areas():
    for a, b in ((0, 1), (1, 0), (-1, 2), (Fraction(-1, 2), Fraction(-1, 3))):
        with pytest.raises(ValueError):
            capacities.ech_ellipsoid(a, b, 3)
        with pytest.raises(ValueError):
            capacities.ech_ellipsoid_capacities(a, b, 3)
    with pytest.raises(ValueError):
        capacities.ech_ellipsoid(1, 1, -1)


def test_ech_ellipsoid_symmetry_and_scaling():
    for k in range(12):
        assert capacities.ech_ellipsoid(2, 5, k) == capacities.ech_ellipsoid(5, 2, k)
        assert capacities.ech_ellipsoid(3, 6, k) == 3 * capacities.ech_ellipsoid(1, 2, k)


def test_ech_convex_requires_domain_polygon():
    shifted = MomentPolygon(((1, 1), (2, 1), (2, 2), (1, 2)))
    with pytest.raises(NotDomainPolygon):
        capacities.ech_convex(shifted, 1)
    with pytest.raises(NotDomainPolygon):
        capacities.ech_convex(lattice.MomentPolygon(((0, 0), (2, 1), (1, 3))), 1)
    # the origin is a vertex, but its next edge leaves the first quadrant
    with pytest.raises(NotDomainPolygon):
        capacities.ech_convex(lattice.MomentPolygon(((0, 0), (1, -1), (1, 1))), 1)


def test_ech_convex_matches_ellipsoid_on_triangles():
    for a, b in ((1, 1), (1, 2), (2, 2)):
        t = lattice.triangle(a, b)
        for k in range(15):
            assert capacities.ech_convex(t, k) == capacities.ech_ellipsoid(a, b, k)


def test_ech_convex_capacities_are_the_alg_capacities():
    domains = [p for p in corpus.CORPUS.values() if capacities.is_domain_polygon(p)]
    assert len(domains) >= 5
    for p in domains:
        assert capacities.ech_convex_capacities(p, 20) == capacities.alg_capacities(p, 20)


def test_concave_domain_validation():
    with pytest.raises(NotConcave):
        ConcaveDomain(((Fraction(0), Fraction(1)),))
    # vertices of different denominators, checked on the chain's integer view
    F = Fraction
    for chain, message in (
            (((F(1, 7), F(1)), (F(2), F(0))), "start on the positive y axis"),
            (((F(0), F(1)), (F(1, 2), F(-1, 5))), "end on the positive x axis"),
            (((F(0), F(1)), (F(1, 3), F(2, 3)), (F(1), F(0))), "slopes must strictly increase"),
            (((F(0), F(1)), (F(1, 2), F(1, 3)), (F(2, 5), F(1, 7)), (F(1), F(0))),
             "strictly right and down")):
        with pytest.raises(NotConcave, match=message):
            ConcaveDomain(chain)
    with pytest.raises(NotConcave):
        ConcaveDomain(((Fraction(1), Fraction(1)), (Fraction(2), Fraction(0))))
    with pytest.raises(NotConcave):
        # slopes flatten then steepen: the graph bulges away from the origin
        ConcaveDomain(((Fraction(0), Fraction(2)), (Fraction(2), Fraction(1)),
                       (Fraction(3), Fraction(0))))
    ConcaveDomain(((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1)),
                   (Fraction(3), Fraction(0))))


def test_ellipsoid_is_the_generic_two_vertex_chain():
    # the direct constructor must build the record the generic one builds
    rng = random.Random(2805)
    pairs = [(1, 1), (2, 3), (Fraction(1, 2), 5)]
    pairs += [(Fraction(rng.randint(1, 60), rng.randint(1, 12)),
               Fraction(rng.randint(1, 60), rng.randint(1, 12))) for _ in range(200)]
    for a, b in pairs:
        direct, generic = ConcaveDomain.ellipsoid(a, b), ConcaveDomain(((0, b), (a, 0)))
        assert direct == generic and repr(direct) == repr(generic)
        assert [type(c) for pt in direct.chain for c in pt] == [Fraction] * 4
        assert (direct._scale, direct._ipts) == (generic._scale, generic._ipts)
        assert hash(direct) == hash(generic)
        assert ech._concave_values(direct, 30) == ech._concave_values(generic, 30)
    assert ConcaveDomain.ball(Fraction(3, 4)) == ConcaveDomain(((0, Fraction(3, 4)), (Fraction(3, 4), 0)))
    # b is checked first, with the generic constructor's error and message
    for a, b, message in ((1, 0, "start on the positive y axis"),
                          (0, 0, "start on the positive y axis"),
                          (-1, Fraction(-1, 2), "start on the positive y axis"),
                          (0, 1, "end on the positive x axis"),
                          (Fraction(-2, 3), 5, "end on the positive x axis")):
        for build in (lambda: ConcaveDomain.ellipsoid(a, b),
                      lambda: ConcaveDomain(((0, b), (a, 0)))):
            with pytest.raises(NotConcave, match=message):
                build()


def test_concave_weights():
    assert capacities.concave_weights(ConcaveDomain.ball(1)) == (1,)
    assert capacities.concave_weights(ConcaveDomain.ellipsoid(1, 2)) == (1, 1)
    assert capacities.concave_weights(ConcaveDomain.ellipsoid(2, 3)) == (2, 1, 1)


def _chain_area(omega):
    pts = ((Fraction(0), Fraction(0)),) + tuple(reversed(omega.chain))
    n = len(pts)
    return sum(lattice.det2(pts[i], pts[(i + 1) % n]) for i in range(n)) / 2


def test_concave_weights_preserve_area():
    rng = random.Random(35)
    domains = [
        ConcaveDomain.ellipsoid(3, 5),
        ConcaveDomain.ellipsoid(Fraction(3, 2), Fraction(5, 7)),
        ConcaveDomain(((Fraction(0), Fraction(3)), (Fraction(1), Fraction(1)),
                       (Fraction(3), Fraction(0)))),
    ]
    for _ in range(10):
        b = Fraction(rng.randint(2, 5))
        mid = (Fraction(rng.randint(1, 3)), Fraction(1))
        a = mid[0] + Fraction(rng.randint(1, 4))
        try:
            domains.append(ConcaveDomain(((Fraction(0), b), mid, (a, Fraction(0)))))
        except NotConcave:
            continue
    for omega in domains:
        ws = capacities.concave_weights(omega)
        assert sum(w * w for w in ws) / 2 == _chain_area(omega)


def test_ech_concave_matches_ellipsoid():
    for a, b, k_max in ((1, 1, 14), (1, 2, 14), (2, 3, 14), (Fraction(3, 2), 1, 14), (5, 3, 14),
                        (Fraction(201, 200), 1, 30)):
        omega = ConcaveDomain.ellipsoid(a, b)
        for k in range(k_max + 1):
            assert capacities.ech_concave(omega, k) == capacities.ech_ellipsoid(a, b, k)


def _flat_weights(omega):
    """The weight expansion one ball at a time, by the stack of leftover
    pieces, popped last in first out."""
    out = []
    stack = [omega.chain]
    while stack:
        chain = stack.pop()
        r = min(x + y for (x, y) in chain)
        out.append(r)
        touching = [i for i, (x, y) in enumerate(chain) if x + y == r]
        i_first, i_last = touching[0], touching[-1]
        if i_first > 0:
            stack.append(tuple((x, x + y - r) for (x, y) in chain[: i_first + 1]))
        if i_last < len(chain) - 1:
            stack.append(tuple((x + y - r, y) for (x, y) in chain[i_last:]))
    return tuple(out)


def test_integer_runs_expand_to_flat_expansion():
    rng = random.Random(61)
    for _ in range(600):
        omega = random_chain(rng)
        runs = ech._integer_runs(omega)
        assert all(m >= 1 for _, m in runs)
        assert all(r1 != r2 for (r1, _), (r2, _) in zip(runs, runs[1:]))
        flat = tuple(r for r, m in runs for _ in range(m))
        assert flat == tuple(w * omega._scale for w in _flat_weights(omega))
        assert flat == tuple(w * omega._scale for w in capacities.concave_weights(omega))


def test_integer_runs_of_near_degenerate_chains():
    omega = ConcaveDomain.ellipsoid(Fraction(201, 200), 1)
    assert omega._scale == 200
    assert ech._integer_runs(omega) == [(200, 1), (1, 200)]
    omega = ConcaveDomain.ellipsoid(Fraction(1000001, 1000000), 1)
    assert omega._scale == 1000000
    assert ech._integer_runs(omega) == [(1000000, 1), (1, 1000000)]


def test_concave_weights_cap_counts_runs():
    omega = ConcaveDomain.ellipsoid(Fraction(1000001, 1000000), 1)
    tracemalloc.start()
    try:
        with pytest.raises(IterationLimit):
            capacities.concave_weights(omega)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the flat tuple of 1,000,001 weights would take 8 MB of pointers alone
    assert peak < 1_000_000


def test_ech_concave_matches_ellipsoid_at_high_index():
    for a in (Fraction(201, 200), Fraction(1000001, 1000000)):
        omega = ConcaveDomain.ellipsoid(a, 1)
        assert (capacities.ech_concave_capacities(omega, 1000).values
                == capacities.ech_ellipsoid_capacities(a, 1, 1000).values)


def test_steep_chain_at_high_index():
    # 2,000 balls of area 1 and 1,996,000 of area 1/2: c_k = k for k <= 2000
    omega = ConcaveDomain(((Fraction(0), Fraction(10**6)), (Fraction(1, 2), Fraction(1000)),
                           (Fraction(1), Fraction(0))))
    start = time.perf_counter()
    values = capacities.ech_concave_capacities(omega, 1000).values
    assert time.perf_counter() - start < 1
    assert values == tuple(range(1001))


def test_ech_concave_at_index_zero():
    rng = random.Random(63)
    for _ in range(20):
        omega = random_chain(rng)
        denom = math.lcm(*(w.denominator for w in _flat_weights(omega)))
        assert ech._concave_values(omega, 0) == ([0], denom)
        assert capacities.ech_concave_capacities(omega, 0).values == (0,)


def _fraction_maxplus(omega, k_max):
    # ball capacities: d for d(d+1)/2 <= k < (d+1)(d+2)/2
    ball = [Fraction(d) for d in range(k_max + 1) for _ in range(d + 1)][: k_max + 1]
    acc = [Fraction(0)] * (k_max + 1)
    for w in _flat_weights(omega):
        scaled = [w * c for c in ball]
        acc = [max(acc[j] + scaled[k - j] for j in range(k + 1)) for k in range(k_max + 1)]
    return tuple(acc)


def test_ech_concave_matches_fraction_maxplus():
    omega = ConcaveDomain(((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1, 2)),
                           (Fraction(3, 2), Fraction(0))))
    assert capacities.ech_concave_capacities(omega, 40).values == _fraction_maxplus(omega, 40)
    rng = random.Random(62)
    for _ in range(100):
        omega, k_max = random_chain(rng), rng.randint(1, 30)
        assert (capacities.ech_concave_capacities(omega, k_max).values
                == _fraction_maxplus(omega, k_max))


def test_ech_concave_inclusion_monotone():
    small = ConcaveDomain(((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1, 2)),
                           (Fraction(2), Fraction(0))))
    big = ConcaveDomain.ellipsoid(3, 3)
    for k in range(20):
        assert capacities.ech_concave(small, k) <= capacities.ech_concave(big, k)


def test_embedding_verdict_obstructed():
    fat_ball = ConcaveDomain.ellipsoid(Fraction(11, 10), Fraction(11, 10))
    v = capacities.embedding_verdict(fat_ball, lattice.rectangle(1, 1), 10)
    assert not v.compatible
    assert v.first_violation == 1
    assert v.domain_capacity == Fraction(11, 10)
    assert v.target_capacity == 1


def test_embedding_verdict_compatible():
    v = capacities.embedding_verdict(
        ConcaveDomain.ellipsoid(1, 2), lattice.rectangle(1, 2), 50
    )
    assert v.compatible
    assert v.k_max == 50
    assert v.first_violation is None


def test_embedding_verdict_identity_region():
    v = capacities.embedding_verdict(
        ConcaveDomain.ellipsoid(1, 1), lattice.unit_triangle(), 30
    )
    assert v.compatible


def test_verdicts_need_a_smooth_vertex():
    # every corner of the diamond is a singular cone
    diamond = MomentPolygon(((-1, 0), (0, -1), (1, 0), (0, 1)))
    assert lattice.smooth_vertices(diamond) == []
    with pytest.raises(NoSmoothVertex):
        capacities.embedding_verdict(ConcaveDomain.ball(1), diamond, 5)
    with pytest.raises(NoSmoothVertex):
        capacities.xi_width(diamond, ConcaveDomain.ball(1), 5)
    with pytest.raises(NoSmoothVertex):
        capacities.width_bound_check(diamond, 5)


def test_verdict_never_obstructed_for_included_domains():
    rng = random.Random(36)
    done = 0
    while done < 20:
        p = random_domain_polygon(rng, size=4)
        a = min(x for x, y in p.vertices if y == 0 and x > 0)
        b = min(y for x, y in p.vertices if x == 0 and y > 0)
        omega = ConcaveDomain.ellipsoid(a, b)
        done += 1
        v = capacities.embedding_verdict(omega, p, 12)
        assert v.compatible, (p.vertices, a, b, v)


def test_verdict_and_width_build_one_table(table_builds):
    p = corpus.CORPUS["chopped-square"]
    capacities.embedding_verdict(ConcaveDomain.ball(1), p, 30)
    assert table_builds == [30]
    capacities.xi_width(lattice.rectangle(2, 3), ConcaveDomain.ball(1), 25)
    assert table_builds == [30, 25]


def test_integer_verdicts_match_fraction_definitions():
    # chain and polygon denominators differ, so the integer comparisons
    # cross two different denominators
    rng = random.Random(64)
    k_max = 12
    done = 0
    while done < 40:
        p = lattice.scale(random_lattice_polygon(rng, size=4), rng.choice((1, Fraction(1, 2))))
        if not lattice.smooth_vertices(p):
            continue
        done += 1
        s = rng.choice((Fraction(2, 5), Fraction(1, 3)))
        omega = ConcaveDomain(tuple((s * x, s * y) for x, y in random_chain(rng).chain))
        target = [capacities.calg(p, k) for k in range(k_max + 1)]
        dom = [capacities.ech_concave(omega, k) for k in range(k_max + 1)]
        ratios = [target[k] / dom[k] for k in range(1, k_max + 1)]
        res = capacities.xi_width(p, omega, k_max)
        assert res.value == min(ratios)
        assert res.argmin_k == 1 + ratios.index(min(ratios))
        v = capacities.embedding_verdict(omega, p, k_max)
        bad = [k for k in range(1, k_max + 1) if dom[k] > target[k]]
        if bad:
            k = bad[0]
            assert (v.compatible, v.first_violation) == (False, k)
            assert (v.domain_capacity, v.target_capacity) == (dom[k], target[k])
        else:
            assert v.compatible and v.first_violation is None


def test_xi_width():
    res = capacities.xi_width(lattice.rectangle(2, 3), ConcaveDomain.ball(1), 20)
    assert res.value == 2
    assert res.argmin_k == 1
    assert res.stable


def test_xi_width_stable_flag_is_a_heuristic():
    """`stable` only says the minimizer lies in the first half of the
    horizon: here a longer horizon finds a smaller ratio past k = 200.  The
    regression case for an exact width verdict (the ROADMAP item on Cremona
    reduction)."""
    p = MomentPolygon(((0, 1), (4, 0), (4, 3), (2, 4), (1, 3)))
    omega = ConcaveDomain(((0, Fraction(5, 4)), (3, 0)))
    assert capacities.xi_width(p, omega, 200) == capacities.XiWidth(
        value=Fraction(12, 5), argmin_k=2, k_max=200, stable=True)
    assert capacities.xi_width(p, omega, 300) == capacities.XiWidth(
        value=Fraction(424, 177), argmin_k=285, k_max=300, stable=False)


def test_gromov_width_bound_is_the_unit_ball_width():
    # c_1(B(1)) = 1 and c_1 = LW, so the bound is at most its k = 1 term,
    # LW, which the first-minimizer tie-break picks when the bound is LW
    for p in corpus.CORPUS.values():
        res = capacities.gromov_width_bound(p, 16)
        assert res == capacities.xi_width(p, ConcaveDomain.ball(1), 16), p.vertices
        gw, lw, holds = capacities.width_bound_check(p, 16)
        assert gw == res.value and lw == capacities.calg(p, 1)
        assert holds and (gw < lw or res.argmin_k == 1), p.vertices


def test_ball_values_cache_is_bounded_and_immutable():
    assert ech._balls_values.cache_parameters()["maxsize"] == _base.CACHE_SIZE
    for m, k_max in ((1, 16), (3, 40), (50, 20)):
        values = ech._balls_values(m, k_max)
        assert isinstance(values, tuple) and len(values) == k_max + 1
        assert ech._balls_values(m, k_max) is values


def test_gromov_width_rectangles():
    for a2 in (2, 5, 10):
        res = capacities.gromov_width_bound(lattice.rectangle(1, a2), 20)
        assert res.value == 1


def test_width_bound_check_known():
    assert capacities.width_bound_check(lattice.rectangle(1, 1), 20) == (1, 1, True)
    assert capacities.width_bound_check(lattice.scale(lattice.unit_triangle(), 2), 20) == (2, 2, True)
    assert capacities.width_bound_check(lattice.rectangle(1, 5), 20) == (1, 1, True)
    assert capacities.width_bound_check(lattice.rectangle(2, 3), 20) == (2, 2, True)


def test_width_bound_holds_on_corpus():
    for p in corpus.CORPUS.values():
        gw, lw, ok = capacities.width_bound_check(p, 15)
        assert ok
