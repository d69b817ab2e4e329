import functools
import itertools
import random
from fractions import Fraction

import pytest

from conftest import OCTAGON
from torcap import capacities, corpus, lattice, oracle, toric
from torcap.errors import BoxTooSmall
from torcap.toric import TorusDivisor


def test_brute_matches_fast_on_small_corpus():
    for name in ("unit-triangle", "unit-square", "singular-triangle"):
        p = corpus.CORPUS[name]
        for k in range(6):
            assert oracle.brute_calg(p, k, box=6) == capacities.calg(p, k)


def test_brute_witness_is_feasible():
    p = corpus.CORPUS["chopped-square"]
    y = toric.build_surface(p)
    for k in range(4):
        val, d = oracle.brute_calg_witness(p, k, box=6)
        assert toric.is_nef(y, d)
        assert toric.h0(y, d) >= k + 1
        assert toric.intersect(y, d, toric.associated_divisor(p)) == val


def test_brute_matches_fast_on_octagon():
    # box 3 is the smallest box that holds an optimal vector off its boundary
    # for every k <= 8
    with pytest.raises(BoxTooSmall):
        oracle.brute_calg(OCTAGON, 8, box=2)
    for k in range(9):
        assert oracle.brute_calg(OCTAGON, k, box=3) == capacities.calg(OCTAGON, k), k


def test_scans_hold_values_past_64_bits():
    """The walked values of the triangle with legs 10^20 pass 2^63 by k = 3,
    and on the Hirzebruch polygon (0,0) (10^20+1,0) (1,1) (0,1) the index
    measure of its curve of self-intersection -10^20 is -2 10^20 + 2."""
    big = 10**20
    triangle = lattice.triangle(big, big)
    for k in range(4):
        assert oracle.brute_calg(triangle, k, box=3) == capacities.calg(triangle, k), k
    assert capacities.calg(triangle, 3) == 2 * big
    hirzebruch = lattice.MomentPolygon(((0, 0), (big + 1, 0), (1, 1), (0, 1)))
    for k in range(4):
        assert oracle.sw_infimum(hirzebruch, k, box=3) == capacities.calg(hirzebruch, k), k


def test_box_table_reads_no_fan_row_constants():
    """The oracle's weights, nef test and smoothness use its own cone
    determinants, not the row constants _d and _e that `_polygon._fan_rows`
    leaves on the polygon for the fast path."""
    p = corpus.CORPUS["chopped-square"]
    ks = range(2, 8)
    expected = [(oracle.brute_calg(p, k), oracle.sw_infimum(p, k)) for k in ks]
    doubled = lattice.MomentPolygon(p.vertices)
    doubled.__dict__.update(_d=tuple(2 * x for x in p._d), _e=tuple(2 * x for x in p._e))
    assert doubled == p and doubled._d != p._d
    oracle._box_table.cache_clear()
    try:
        assert [(oracle.brute_calg(doubled, k), oracle.sw_infimum(doubled, k)) for k in ks] == expected
    finally:
        oracle._box_table.cache_clear()


def test_box_too_small():
    with pytest.raises(BoxTooSmall):
        oracle.brute_calg(lattice.unit_triangle(), 20, box=2)
    with pytest.raises(BoxTooSmall):
        oracle.sw_infimum(lattice.unit_triangle(), 20, box=2)
    # a negative box holds no vector at all
    for box in (-2, -1):
        with pytest.raises(BoxTooSmall, match="no feasible divisor"):
            oracle.brute_calg(lattice.unit_triangle(), 0, box=box)
        with pytest.raises(BoxTooSmall, match="no divisor of sufficient index"):
            oracle.sw_infimum(lattice.unit_triangle(), 0, box=box)


def test_sw_infimum_known_plane_values():
    # on the plane the index constraint picks out multiples of a line
    t = lattice.unit_triangle()
    assert oracle.sw_infimum(t, 0, box=6) == 0
    assert oracle.sw_infimum(t, 1, box=6) == 1
    assert oracle.sw_infimum(t, 3, box=6) == 2


def test_sw_never_exceeds_nef_optimum():
    for name in corpus.SMOOTH_NAMES:
        p = corpus.CORPUS[name]
        for k in range(5):
            assert oracle.sw_infimum(p, k, box=6) <= oracle.brute_calg(p, k, box=6)


def test_sw_equals_nef_on_smooth_corpus():
    for name in corpus.SMOOTH_NAMES:
        p = corpus.CORPUS[name]
        for k in range(5):
            sw, nef, eq = oracle.sw_equals_nef(p, k, box=6)
            assert eq, (name, k, sw, nef)


def test_sw_rejects_singular_surface():
    with pytest.raises(ValueError):
        oracle.sw_infimum(corpus.CORPUS["singular-triangle"], 1, box=4)


def test_sw_witness_has_required_index():
    p = corpus.CORPUS["unit-square"]
    y = toric.build_surface(p)
    for k in range(5):
        val, d = oracle.sw_infimum_witness(p, k, box=6)
        assert toric.index(y, d) >= 2 * k
        assert toric.h0(y, d) >= 1
        assert toric.intersect(y, d, toric.associated_divisor(p)) == val


BOUNDARY = "every optimal vector touches the box boundary"


def _reference(p, box):
    """Every vector in [0, box]^n with its pairing against the polarization,
    sorted, and its section count (-1 when not nef) and index, computed on
    first use with toric's Fraction routines."""
    y = toric.build_surface(p)
    ample = toric.associated_divisor(p)
    divisors = {a: TorusDivisor(tuple(Fraction(c) for c in a))
                for a in itertools.product(range(box + 1), repeat=len(y.rays))}
    rows = sorted((toric.intersect(y, d, ample), a) for a, d in divisors.items())

    @functools.cache
    def sections(a):
        d = divisors[a]
        return toric.h0(y, d) if toric.is_nef(y, d) else -1

    @functools.cache
    def index(a):
        return toric.index(y, divisors[a])

    return rows, sections, index


def _reference_min(rows, box, feasible, empty_msg):
    """Least value over the feasible vectors in [0, box]^n with the first
    optimal vector off the boundary, or the BoxTooSmall message."""
    found = ((value, a) for value, a in rows if max(a) <= box and feasible(a))
    first = next(found, None)
    if first is None:
        return empty_msg
    for value, a in itertools.chain([first], found):
        if value > first[0]:
            break
        if max(a) < box:
            return value, a
    return BOUNDARY


def _outcome(fn, p, k, box):
    try:
        value, d = fn(p, k, box)
    except BoxTooSmall as exc:
        return str(exc)
    return value, tuple(int(c) for c in d.coeffs)


def test_boxed_scans_match_fraction_reference():
    # the corpus polygons of at most 5 edges, and a singular triangle whose
    # support numbers share the factor 3 with its vertex denominator
    polygons = [(name, p) for name, p in corpus.CORPUS.items() if len(p.vertices) <= 5]
    polygons.append(("thirds-triangle", lattice.MomentPolygon(
        ((Fraction(1, 3), 0), (Fraction(4, 3), 0), (1, 1)))))
    seen = set()
    for name, p in polygons:
        smooth = toric.build_surface(p).smooth
        rows, sections, index = _reference(p, 4)
        # box 0 holds the zero vector alone
        for box in range(0, 5):
            for k in range(9):
                want = _reference_min(rows, box, lambda a: sections(a) >= k + 1,
                                      "no feasible divisor inside the box")
                assert _outcome(oracle.brute_calg_witness, p, k, box) == want, (name, box, k)
                seen.add(want if isinstance(want, str) else "value")
                if smooth:
                    want = _reference_min(rows, box, lambda a: index(a) >= 2 * k,
                                          "no divisor of sufficient index inside the box")
                    assert _outcome(oracle.sw_infimum_witness, p, k, box) == want, (name, box, k)
                    seen.add(want if isinstance(want, str) else "value")
    assert seen == {"value", BOUNDARY, "no feasible divisor inside the box",
                    "no divisor of sufficient index inside the box"}


def test_preferable_check_on_random_divisors():
    rng = random.Random(41)
    names = list(corpus.SMOOTH_NAMES)
    done = 0
    while done < 40:
        p = corpus.CORPUS[rng.choice(names)]
        y = toric.build_surface(p)
        n = len(y.rays)
        d = TorusDivisor(tuple(Fraction(rng.randint(-2, 4)) for _ in range(n)))
        if toric.h0(y, d) == 0 or toric.index(y, d) < 0:
            continue
        done += 1
        assert oracle.preferable_check(p, d)


def test_each_vector_is_measured_once_per_box(monkeypatch):
    # rows that end in SKIP walk most of the box; the queries after them
    # read the stored measures instead of measuring the same vectors again
    p, box = corpus.CORPUS["two-chop-square"], 3
    measured = {"sections": [], "index": []}
    for name in measured:
        original = getattr(oracle._BoxTable, name)

        def counted(self, a, original=original, name=name):
            measured[name].append(a)
            return original(self, a)

        monkeypatch.setattr(oracle._BoxTable, name, counted)
    oracle._box_table.cache_clear()
    ks = list(range(31))
    shuffled = random.Random(5).sample(ks, len(ks))
    runs = [[(_outcome(oracle.brute_calg_witness, p, k, box),
              _outcome(oracle.sw_infimum_witness, p, k, box)) for k in order]
            for order in (ks, shuffled)]
    assert runs[1] == [runs[0][k] for k in shuffled]
    assert sum(BOUNDARY in row for row in runs[0]) >= 10
    for name, vectors in measured.items():
        assert len(set(vectors)) == len(vectors) > 0, name
    oracle._box_table.cache_clear()

