import heapq
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (OCTAGON, TWELVE_GON, random_chain, random_domain_polygon, random_fan,
                      random_lattice_polygon, random_unimodular, section_points)
from torcap import capacities, corpus, ech, lattice, oracle, toric
from torcap.capacities import ConcaveDomain
from torcap.errors import (IterationLimit, NoSmoothVertex, NotAmple, NotConcave, NotDomainPolygon,
                           TorcapError)
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


def test_calg_without_smooth_cone_matches_oracle():
    for verts in NO_SMOOTH_CONE:
        p = MomentPolygon(verts)
        assert min(toric.build_surface(p).cone_dets) >= 2
        for k in range(9):
            assert capacities.calg(p, k) == oracle.brute_calg(p, k, box=5), (verts, k)


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
    values, denom, vecs = capacities._compute_table(p, k_max)
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


def test_table_build_makes_no_h0_call(monkeypatch):
    def h0(y, d):
        raise AssertionError("h0 called")

    monkeypatch.setattr(toric, "h0", h0)
    for name in ("chopped-square", "singular-triangle", "rect-2x3"):
        values, _denom, vecs = capacities._compute_table(corpus.CORPUS[name], 30)
        assert len(values) == len(vecs) == 31


def test_value_bound_counts_few_multiples(monkeypatch):
    # multiples of the polarization with too few points by the area and
    # perimeter bound are not counted; each gauge class counts once more
    calls = []
    count = lattice.count_points
    monkeypatch.setattr(lattice, "count_points", lambda rays, a: calls.append(a) or count(rays, a))
    for p in corpus.CORPUS.values():
        calls.clear()
        capacities._compute_table(p, 100)
        assert len(calls) <= 3 + min(toric.build_surface(p).cone_dets), p.vertices


def test_table_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(capacities, "_TABLES", {})
    for i in range(toric.CACHE_SIZE + 1):
        capacities.calg(lattice.translate(lattice.rectangle(1, 1), (i, 0)), 1)
    assert len(capacities._TABLES) <= toric.CACHE_SIZE


def test_non_positive_weight_raises_typed_error(monkeypatch):
    lengths = lattice.edge_lengths
    monkeypatch.setattr(lattice, "edge_lengths", lambda p: tuple(-w for w in lengths(p)))
    monkeypatch.setattr(capacities, "_TABLES", {})
    with pytest.raises(NotAmple) as info:
        capacities.calg(lattice.rectangle(1, 1), 1)
    assert isinstance(info.value, TorcapError)


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
    shifted = lattice.translate(lattice.rectangle(1, 1), (1, 1))
    with pytest.raises(NotDomainPolygon):
        capacities.ech_convex(shifted, 1)
    with pytest.raises(NotDomainPolygon):
        capacities.ech_convex(lattice.MomentPolygon(((0, 0), (2, 1), (1, 3))), 1)


def test_ech_convex_matches_ellipsoid_on_triangles():
    for a, b in ((1, 1), (1, 2), (2, 2)):
        t = lattice.triangle(a, b)
        for k in range(15):
            assert capacities.ech_convex(t, k) == capacities.ech_ellipsoid(a, b, k)


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


def test_weight_runs_expand_to_flat_expansion():
    rng = random.Random(61)
    for _ in range(600):
        omega = random_chain(rng)
        runs = ech._weight_runs(omega)
        assert all(m >= 1 for _, m in runs)
        assert all(w1 != w2 for (w1, _), (w2, _) in zip(runs, runs[1:]))
        flat = tuple(w for w, m in runs for _ in range(m))
        assert flat == _flat_weights(omega) == capacities.concave_weights(omega)


def test_weight_runs_of_near_degenerate_chains():
    assert ech._weight_runs(ConcaveDomain.ellipsoid(Fraction(201, 200), 1)) == [
        (1, 1), (Fraction(1, 200), 200)]
    assert ech._weight_runs(ConcaveDomain.ellipsoid(Fraction(1000001, 1000000), 1)) == [
        (1, 1), (Fraction(1, 1000000), 1000000)]


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
