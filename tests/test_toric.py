import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (OCTAGON, TWELVE_GON, _ref_corners, random_fan, random_lattice_polygon,
                      section_points)
from torcap import corpus, lattice, oracle, toric
from torcap.errors import (IterationLimit, NotContractible, NotEffective, NotInSW,
                           SingularSurfaceChi)
from torcap.lattice import MomentPolygon
from torcap.toric import TorusDivisor


PLANE = toric.build_surface(lattice.unit_triangle())
QUADRIC = toric.build_surface(lattice.rectangle(1, 1))


def test_build_surface_rays():
    assert PLANE.rays == ((0, 1), (-1, -1), (1, 0))
    assert QUADRIC.rays == ((0, 1), (-1, 0), (0, -1), (1, 0))
    sing = toric.build_surface(lattice.triangle(1, 2))
    assert sing.rays == ((0, 1), (-2, -1), (1, 0))
    assert sing.cone_dets == (2, 1, 1)
    assert not sing.smooth
    assert len(sing) == len(lattice.triangle(1, 2))


def test_a_surface_is_its_fan():
    # the polarization stays on the polygon: polygons with one inner normal
    # fan give one surface, and resolving it does not depend on the polygon
    a = toric.build_surface(lattice.rectangle(1, 1))
    b = toric.build_surface(lattice.rectangle(2, 2))
    assert a == b and hash(a) == hash(b)
    for p in corpus.CORPUS.values():
        fan = toric.ToricSurface(p._normals)
        assert toric.resolve(toric.build_surface(p)) == toric.resolve(fan)


def test_rejects_bad_fans():
    with pytest.raises(ValueError):
        toric.ToricSurface(((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        toric.ToricSurface(((1, 0), (0, 1), (0, -1)))
    with pytest.raises(ValueError):
        toric.ToricSurface(((2, 0), (0, 1), (-1, -1)))
    # distinct primitive rays, each step counterclockwise, winding twice
    with pytest.raises(ValueError, match="strictly counterclockwise and complete"):
        toric.ToricSurface(((1, 0), (-1, 5), (-5, -2), (1, -3), (4, 3), (-3, 4), (-2, -5), (5, -1)))
    # a repeated ray is a zero step, or winds a second time
    for rays in (((1, 0), (1, 0), (0, 1), (-1, -1)),
                 ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 0), (0, 1), (-1, 0), (0, -1))):
        with pytest.raises(ValueError, match="strictly counterclockwise and complete"):
            toric.ToricSurface(rays)


def test_plane_intersection_numbers():
    h = TorusDivisor((0, 0, 1))
    assert toric.intersect(PLANE, h, h) == 1
    k = toric.canonical_divisor(PLANE)
    assert toric.intersect(PLANE, k, k) == 9
    for kk in (1, 2, 3, 5):
        d = TorusDivisor((0, 0, kk))
        assert toric.index(PLANE, d) == kk * kk + 3 * kk
        assert toric.chi(PLANE, d) == (kk + 1) * (kk + 2) / Fraction(2)


def test_quadric_intersection_numbers():
    d1 = toric.prime_divisor(QUADRIC, 0)
    d2 = toric.prime_divisor(QUADRIC, 1)
    assert toric.intersect(QUADRIC, d1, d1) == 0
    assert toric.intersect(QUADRIC, d1, d2) == 1
    k = toric.canonical_divisor(QUADRIC)
    assert toric.divisor_class(QUADRIC, -1 * k) == toric.divisor_class(
        QUADRIC, 2 * toric.prime_divisor(QUADRIC, 2) + 2 * toric.prime_divisor(QUADRIC, 3)
    )
    for a, b in ((1, 1), (2, 3), (0, 4)):
        d = a * toric.prime_divisor(QUADRIC, 2) + b * toric.prime_divisor(QUADRIC, 3)
        assert toric.index(QUADRIC, d) == 2 * a * b + 2 * a + 2 * b


def test_self_intersections_after_chop():
    y = toric.build_surface(corpus.CORPUS["f2-polygon"])
    self_ints = [toric.ray_self_intersection(y, i) for i in range(4)]
    assert -2 in self_ints
    y1 = toric.build_surface(corpus.CORPUS["chopped-triangle"])
    assert [toric.ray_self_intersection(y1, i) for i in range(4)].count(-1) == 1


def test_polytope_divisor_is_ample_on_own_fan():
    for p in corpus.CORPUS.values():
        y = toric.build_surface(p)
        a = toric.associated_divisor(p)
        assert toric.is_nef(y, a)
        assert toric.is_ample(y, a)


def test_nef_but_not_ample():
    # a pullback class is nef but contracts the exceptional curve
    y = toric.build_surface(corpus.CORPUS["chopped-triangle"])
    h = toric.polytope_divisor(y, lattice.unit_triangle())
    assert toric.is_nef(y, h)
    assert not toric.is_ample(y, h)


def test_nef_and_ample_agree_with_oracle_certificate():
    """The pairing tests against the global certificate: every cone
    linearization satisfies every support inequality (nef), and no two
    adjacent ones coincide (ample)."""
    rng = random.Random(29)
    fans = [toric.build_surface(p) for p in list(corpus.CORPUS.values()) + [OCTAGON, TWELVE_GON]]
    fans += [random_fan(rng) for _ in range(40)]
    seen = {"nef": 0, "not nef": 0, "nef, not ample": 0}
    for y in fans:
        n = len(y.rays)
        divisors = [toric.polytope_divisor(y, random_lattice_polygon(rng, size=3))]
        divisors += [TorusDivisor(tuple(rng.randint(-2, 4) for _ in range(n))) for _ in range(6)]
        divisors += [TorusDivisor(tuple(Fraction(rng.randint(-4, 8), rng.randint(1, 3))
                                        for _ in range(n))) for _ in range(6)]
        for d in divisors:
            assert -d == (-1) * d
            scale = math.lcm(*(c.denominator for c in d.coeffs))
            ms = oracle._nef_int(y.rays, y.cone_dets, [int(scale * c) for c in d.coeffs])
            nef = ms is not None
            vertices = [(Fraction(mx, dt), Fraction(my, dt)) for mx, my, dt in ms or ()]
            ample = nef and all(vertices[i - 1] != vertices[i] for i in range(n))
            assert toric.is_nef(y, d) == nef, (y.rays, d)
            assert toric.is_ample(y, d) == ample, (y.rays, d)
            seen["nef"] += nef
            seen["not nef"] += not nef
            seen["nef, not ample"] += nef and not ample
    assert seen["nef"] >= 50 and seen["not nef"] >= 50 and seen["nef, not ample"] >= 20, seen


def test_h0_matches_polytope_count():
    rng = random.Random(21)
    for _ in range(30):
        p = random_lattice_polygon(rng, size=4)
        y = toric.build_surface(p)
        d = toric.associated_divisor(p)
        assert toric.h0(y, d) == lattice.lattice_count(p)
        poly = toric.support_polytope(y, d)
        assert poly == p


def test_support_vertices_match_pairwise_corners():
    """The corners read off the rays' lines are the pairwise meeting points
    of the lines inside every half plane, in their hull's order.  Random
    coefficients seldom give a segment, so every fourth fan gets the
    negative -v of a ray v and a_{-v} = -a_v, which puts the section
    polytope on the line <m, v> = -a_v: a segment, a point or nothing."""
    rng = random.Random(7)
    seen = Counter()
    for n in range(4000):
        y = random_fan(rng)
        if n % 4 == 0:
            v = rng.choice(y.rays)
            y = toric.ToricSurface(tuple(sorted(set(y.rays) | {(-v[0], -v[1])},
                                                key=lambda w: math.atan2(w[1], w[0]))))
        a = [Fraction(rng.randint(-4, 6), rng.randint(1, 3)) for _ in y.rays]
        if n % 4 == 0:
            a[y.rays.index((-v[0], -v[1]))] = -a[y.rays.index(v)]
        corners = toric.support_vertices(y, TorusDivisor(tuple(a)))
        assert corners == _ref_corners(y, a), (y.rays, a)
        seen[("empty", "point", "segment", "polygon")[min(len(corners), 3)]] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_h0_of_ineffective_divisor():
    d = TorusDivisor((-1, 0, 0))
    assert toric.h0(PLANE, d) == 0
    assert not toric.is_effective(PLANE, d)
    assert toric.is_effective(PLANE, TorusDivisor((1, 0, 0)))


def test_chi_singular_surface():
    y = toric.build_surface(lattice.triangle(1, 2))
    a = toric.associated_divisor(lattice.triangle(1, 2))
    assert toric.chi(y, a) == 4
    with pytest.raises(SingularSurfaceChi):
        toric.chi(y, TorusDivisor((0, 0, -1)))


def _random_nef(rng, p, y):
    """Sample nef integral divisors by rejection from a nonnegative box."""
    n = len(y.rays)
    while True:
        d = TorusDivisor(tuple(Fraction(rng.randint(0, 4)) for _ in range(n)))
        if toric.is_nef(y, d):
            return d


def test_noether_pick_and_mixed_area_on_random_nef_divisors():
    rng = random.Random(22)
    names = list(corpus.SMOOTH_NAMES)
    for _ in range(200):
        p = corpus.CORPUS[rng.choice(names)]
        y = toric.build_surface(p)
        d = _random_nef(rng, p, y)
        # sections of a nef divisor are counted by the index
        assert toric.h0(y, d) == 1 + toric.index(y, d) / 2
        e = _random_nef(rng, p, y)
        pd = toric.support_polytope(y, d)
        pe = toric.support_polytope(y, e)
        if pd is not None:
            assert toric.intersect(y, d, d) == 2 * lattice.area(pd)
        if pd is not None and pe is not None:
            assert toric.intersect(y, d, e) == lattice.mixed_area(pd, pe)


def test_divisor_class_mod_linear_shifts():
    rng = random.Random(23)
    for name in corpus.SMOOTH_NAMES:
        y = toric.build_surface(corpus.CORPUS[name])
        n = len(y.rays)
        for _ in range(20):
            d = TorusDivisor(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))
            m = (rng.randint(-3, 3), rng.randint(-3, 3))
            shifted = d + toric.linear_shift(y, m)
            assert toric.divisor_class(y, d) == toric.divisor_class(y, shifted)
            assert toric.intersect(y, d, d) == toric.intersect(y, shifted, shifted)
            assert toric.h0(y, d) == toric.h0(y, shifted)


def test_ip_transform_reaches_pullback():
    y = toric.build_surface(corpus.CORPUS["chopped-triangle"])
    h = toric.polytope_divisor(y, lattice.unit_triangle())
    exc = next(i for i in range(4) if toric.ray_self_intersection(y, i) == -1)
    d = h + toric.prime_divisor(y, exc)
    assert not toric.is_nef(y, d)
    out = toric.iterate_ip(y, d)
    assert toric.is_nef(y, out)
    assert toric.divisor_class(y, out) == toric.divisor_class(y, h)


def test_ip_transform_requires_sections():
    with pytest.raises(NotEffective):
        toric.ip_transform(PLANE, TorusDivisor((0, 0, -1)))


def test_iterate_ip_preserves_h0_on_random_effective_divisors():
    rng = random.Random(24)
    names = list(corpus.SMOOTH_NAMES)
    done = 0
    while done < 100:
        p = corpus.CORPUS[rng.choice(names)]
        y = toric.build_surface(p)
        n = len(y.rays)
        d = TorusDivisor(tuple(Fraction(rng.randint(-2, 4)) for _ in range(n)))
        if toric.h0(y, d) == 0:
            continue
        done += 1
        out = toric.iterate_ip(y, d)
        assert toric.is_nef(y, out)
        assert out.is_integral
        assert toric.h0(y, out) == toric.h0(y, d)
        ample = toric.associated_divisor(p)
        assert toric.intersect(y, out, ample) <= toric.intersect(y, d, ample)


def test_preferable_nef_properties():
    from torcap import oracle

    rng = random.Random(25)
    names = list(corpus.SMOOTH_NAMES)
    done = 0
    while done < 60:
        name = rng.choice(names)
        p = corpus.CORPUS[name]
        y = toric.build_surface(p)
        n = len(y.rays)
        d = TorusDivisor(tuple(Fraction(rng.randint(-2, 4)) for _ in range(n)))
        if toric.h0(y, d) == 0 or toric.index(y, d) < 0:
            continue
        done += 1
        assert oracle.preferable_check(p, d)


def test_preferable_nef_raises(monkeypatch):
    with pytest.raises(NotInSW):
        toric.preferable_nef(QUADRIC, TorusDivisor((-1, 0, 0, 0)))
    # the loop reads IP_ITERATION_CAP at call time; at 0 it gives up at once
    monkeypatch.setattr(toric, "IP_ITERATION_CAP", 0)
    with pytest.raises(IterationLimit, match="preferable-nef procedure did not terminate"):
        toric.preferable_nef(QUADRIC, TorusDivisor((1, 0, 0, 0)))


def test_round_down_nef():
    half = TorusDivisor((Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)))
    assert toric.is_nef(PLANE, half)
    out = toric.round_down_nef(PLANE, half)
    assert out.is_integral
    assert toric.is_nef(PLANE, out)
    assert toric.h0(PLANE, out) == toric.h0(PLANE, half)
    a = toric.associated_divisor(lattice.unit_triangle())
    assert toric.intersect(PLANE, out, a) <= toric.intersect(PLANE, half, a)


def test_round_down_nef_random():
    rng = random.Random(26)
    for name in corpus.SMOOTH_NAMES:
        p = corpus.CORPUS[name]
        y = toric.build_surface(p)
        a = toric.associated_divisor(p)
        for _ in range(10):
            s = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            d = s * a
            out = toric.round_down_nef(y, d)
            assert out.is_integral and toric.is_nef(y, out)
            assert toric.h0(y, out) == toric.h0(y, d)
            assert toric.intersect(y, out, a) <= toric.intersect(y, d, a)


def test_round_down_nef_singular_fans():
    """The coefficient of ray v is -min <v, m> over the lattice points m of
    the floored section polytope, found by a pointwise scan."""
    rng = random.Random(27)
    polygons = [corpus.CORPUS["singular-triangle"], OCTAGON, TWELVE_GON]
    polygons += [random_lattice_polygon(rng, size=5) for _ in range(15)]
    seen = {"singular": 0, "pushed": 0, "empty": 0}
    for p in polygons:
        y = toric.build_surface(p)
        a = toric.associated_divisor(p)
        seen["singular"] += not y.smooth
        for _ in range(8):
            d = Fraction(rng.randint(1, 8), rng.randint(2, 7)) * a
            if rng.random() < 0.5:
                # the same class moved off the lattice
                d = d + toric.linear_shift(y, (Fraction(rng.randint(0, 5), rng.randint(2, 5)),
                                               Fraction(rng.randint(0, 5), rng.randint(2, 5))))
            floored = [math.floor(c) for c in d.coeffs]
            pts = section_points(y, floored)
            if not pts:
                seen["empty"] += 1
                with pytest.raises(ValueError, match="section polytope contains no lattice point"):
                    toric.round_down_nef(y, d)
                continue
            expected = tuple(-min(vx * x + vy * yy for x, yy in pts) for vx, vy in y.rays)
            assert toric.round_down_nef(y, d).coeffs == expected, (y.rays, d.coeffs)
            seen["pushed"] += list(expected) != floored
    assert seen["singular"] >= 8 and seen["pushed"] >= 20 and seen["empty"] >= 5, seen


def test_coefficient_count_must_match_ray_count():
    p = lattice.rectangle(2, 3)
    y, a = toric.build_surface(p), toric.associated_divisor(p)
    short, long = TorusDivisor((1, 1, 1)), TorusDivisor((1, 1, 1, 1, 5))
    for call in (lambda: toric.intersect(y, short, a), lambda: toric.is_nef(y, long),
                 lambda: toric.h0(y, long), lambda: toric.h0(y, short),
                 lambda: toric.support_vertices(y, short)):
        with pytest.raises(ValueError, match="coefficient count must match ray count"):
            call()


def test_blow_down():
    y = toric.build_surface(corpus.CORPUS["chopped-triangle"])
    exc = next(i for i in range(4) if toric.ray_self_intersection(y, i) == -1)
    down = toric.blow_down(y, exc)
    assert set(down.rays) == set(PLANE.rays)
    with pytest.raises(NotContractible, match="self-intersection is not -1"):
        toric.blow_down(PLANE, 0)
    # ray (0, 1) has self-intersection -1, but both of its cones have
    # determinant 2
    kite = toric.ToricSurface(((2, 1), (0, 1), (-2, 1), (0, -1)))
    assert toric.ray_self_intersection(kite, 1) == -1
    assert kite.cone_dets[:2] == (2, 2)
    with pytest.raises(NotContractible, match="adjacent cones are not smooth"):
        toric.blow_down(kite, 1)


def test_resolve():
    sing = toric.build_surface(lattice.triangle(1, 2))
    smooth = toric.resolve(sing)
    assert smooth.smooth
    assert set(sing.rays) <= set(smooth.rays)
    assert (-1, 0) in smooth.rays
    # already smooth fans come back unchanged
    assert toric.resolve(PLANE).rays == PLANE.rays


def test_resolve_keeps_support_polytope():
    # pulling the polarization back to the resolution does not move its polygon
    for p in (lattice.triangle(1, 2), lattice.triangle(2, 3)):
        smooth = toric.resolve(toric.build_surface(p))
        d = toric.polytope_divisor(smooth, p)
        assert toric.is_nef(smooth, d)
        assert toric.support_polytope(smooth, d) == p


def _fixpoint_resolve(rays) -> tuple:
    """Insert a ray into every singular cone of the fan, over and over until
    no cone changes, each ray found by a rational ceiling and made primitive:
    the reference for `toric.resolve`, which resolves each cone in one pass."""
    rays = list(rays)
    changed = True
    while changed:
        changed, out = False, []
        for u, v in zip(rays, rays[1:] + rays[:1]):
            out.append(u)
            d = u[0] * v[1] - u[1] * v[0]
            if d > 1:
                _g, s, t = lattice.egcd(u[0], -u[1])
                k = math.ceil(Fraction(1 - (t * v[1] - s * v[0]), d))
                out.append(lattice.primitive((t + k * u[0], s + k * u[1])))
                changed = True
        rays = out
    return tuple(rays)


def test_resolve_matches_fixpoint_insertion():
    rng = random.Random(29)
    fans = [toric.build_surface(random_lattice_polygon(rng, size=18)) for _ in range(500)]
    # the cones from (1, 0) to (-a, det) and from (-a, det) to (0, -1) have
    # determinants det and a
    for det, a in ((1000, 999), (3001, 1000), (1024, 1023), (2310, 1009), (1999, 1998),
                   (1001, 500)):
        fans.append(toric.ToricSurface(((1, 0), (-a, det), (0, -1))))
    for y in fans:
        assert toric.resolve(y).rays == _fixpoint_resolve(y.rays), y.rays


def test_resolve_worse_singularities():
    rng = random.Random(27)
    for _ in range(20):
        p = random_lattice_polygon(rng, size=5)
        y = toric.build_surface(p)
        r = toric.resolve(y)
        assert r.smooth
        assert set(y.rays) <= set(r.rays)
