"""The public value types: immutable records with dataclass-style equality,
hash and repr."""

import copy
import dataclasses
from fractions import Fraction

import pytest

from torcap import capacities, corpus, lattice, toric
from torcap.capacities import CapacitySequence, ConcaveDomain, EmbeddingVerdict, XiWidth
from torcap.lattice import MomentPolygon, UnimodularAffineMap
from torcap.toric import ToricSurface, TorusDivisor


def _samples():
    """Two equal but distinct instances of each record type."""
    def pair(make):
        return make(), make()

    square = corpus.CORPUS["unit-square"]
    return [
        pair(lambda: UnimodularAffineMap(((1, 1), (0, 1)), (1, Fraction(1, 2)))),
        pair(lambda: MomentPolygon(((1, 1), (0, 1), (0, 0), (1, 0)))),
        pair(lambda: toric.build_surface(lattice.rectangle(2, 3))),
        pair(lambda: TorusDivisor((1, Fraction(1, 2), 0))),
        pair(lambda: capacities.alg_capacities(square, 4)),
        pair(lambda: ConcaveDomain(((0, 2), (1, Fraction(1, 2)), (Fraction(3, 2), 0)))),
        pair(lambda: capacities.embedding_verdict(ConcaveDomain.ball(2), square, 4)),
        pair(lambda: capacities.xi_width(square, ConcaveDomain.ball(1), 6)),
    ]


SAMPLES = _samples()
FIELDS = {
    UnimodularAffineMap: ("m", "t"),
    MomentPolygon: ("vertices",),
    ToricSurface: ("rays",),
    TorusDivisor: ("coeffs",),
    CapacitySequence: ("values",),
    ConcaveDomain: ("chain",),
    EmbeddingVerdict: ("compatible", "k_max", "first_violation", "domain_capacity",
                       "target_capacity"),
    XiWidth: ("value", "argmin_k", "k_max", "stable"),
}


def test_eight_record_types_are_covered():
    assert [type(a) for a, _ in SAMPLES] == list(FIELDS)


@pytest.mark.parametrize("a, b", SAMPLES, ids=lambda r: type(r).__name__)
def test_equality_hash_and_repr_match_a_frozen_dataclass(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # the frozen dataclass over the same fields and values
    names = FIELDS[type(a)]
    twin = dataclasses.make_dataclass(type(a).__name__, names, frozen=True)(
        *(getattr(a, name) for name in names))
    assert repr(a) == repr(twin)
    assert hash(a) == hash(twin)
    assert copy.deepcopy(a) == a


@pytest.mark.parametrize("a, b", SAMPLES, ids=lambda r: type(r).__name__)
def test_no_attribute_can_be_set_or_deleted(a, b):
    for name in (*FIELDS[type(a)], *(n for n in vars(a) if n.startswith("_")), "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    assert a == b


def test_polygon_private_view_is_read_only():
    p = corpus.CORPUS["unit-square"]
    for name in ("_scale", "_ipts", "_normals"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
        with pytest.raises(AttributeError):
            delattr(p, name)


def test_records_of_different_types_are_never_equal():
    coeffs = (Fraction(1), Fraction(2), Fraction(3))
    assert TorusDivisor(coeffs) != CapacitySequence(coeffs)
    assert TorusDivisor(coeffs) != coeffs
    records = [a for a, _ in SAMPLES]
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            assert a != b


def test_literal_reprs():
    p = MomentPolygon(((1, 0), (0, 1), (0, 0)))
    assert repr(p) == ("MomentPolygon(vertices=((Fraction(0, 1), Fraction(0, 1)), "
                       "(Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))))")
    assert repr(EmbeddingVerdict(compatible=True, k_max=3)) == (
        "EmbeddingVerdict(compatible=True, k_max=3, first_violation=None, "
        "domain_capacity=None, target_capacity=None)")


def test_positional_and_keyword_construction():
    rays = ((1, 0), (0, 1), (-1, -1))
    assert ToricSurface(rays) == ToricSurface(rays=rays)
    t = lattice.unit_triangle()
    assert EmbeddingVerdict(True, 3) == EmbeddingVerdict(compatible=True, k_max=3)
    v = EmbeddingVerdict(False, 5, 2, Fraction(2), Fraction(3, 2))
    assert v == EmbeddingVerdict(compatible=False, k_max=5, first_violation=2,
                                 domain_capacity=Fraction(2), target_capacity=Fraction(3, 2))
    assert XiWidth(Fraction(1), 1, 5, True) == XiWidth(value=1, argmin_k=1, k_max=5, stable=True)
    assert CapacitySequence((Fraction(0),)) == CapacitySequence(values=(0,))
    assert UnimodularAffineMap(m=((1, 0), (0, 1)), t=(0, 0)) == UnimodularAffineMap.identity()
    assert MomentPolygon(vertices=t.vertices) == t
    assert TorusDivisor(coeffs=(1, 2)).coeffs == (Fraction(1), Fraction(2))
    assert ConcaveDomain(chain=((0, 1), (1, 0))) == ConcaveDomain.ball(1)
    with pytest.raises(TypeError):
        EmbeddingVerdict(True)
