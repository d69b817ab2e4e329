"""Helpers shared by the geometry, table, oracle and ECH modules: exact
rational coercion, integer views of rational points, the 2x2 determinant,
the intersection numbers of a fan, the immutable record base, the
per-polygon cache size and `CapacitySequence`, which holds algebraic and
ECH capacities alike."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .errors import IndexTooSmall

# entries kept by each per-polygon cache
CACHE_SIZE = 128


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def integer_view(pts: Sequence) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(scale, ipts): the lcm of the denominators of the rational points pts,
    and the points times scale, which are integral."""
    scale = math.lcm(*(c.denominator for pt in pts for c in pt))
    return scale, tuple((x.numerator * (scale // x.denominator),
                         y.numerator * (scale // y.denominator)) for x, y in pts)


def det2(u: Sequence, v: Sequence):
    """Determinant of the 2x2 matrix with rows (or columns) u, v."""
    return u[0] * v[1] - u[1] * v[0]


def intersection_numbers(rays: Sequence, dets: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Pairings D_i . D_j of the boundary divisors of the fan with the rays,
    given its cone determinants det_i = det(v_i, v_{i+1}): 1/det_i on
    adjacent rays i and i+1, -det(v_{i-1}, v_{i+1}) / (det_{i-1} det_i) on
    the diagonal, and 0 for disjoint boundary divisors."""
    n = len(rays)
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        q[i][j] = q[j][i] = Fraction(1, dets[i])
        q[i][i] = Fraction(-det2(rays[i - 1], rays[j]), dets[i - 1] * dets[i])
    return tuple(map(tuple, q))


class _Record:
    """Immutable value with equality, hash and repr over the attributes
    named in the class's `_fields`, as a frozen dataclass has them.  An
    `__init__` fills `self.__dict__`; after it no attribute can be set or
    deleted."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # the field values as one tuple, even for a single field
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CapacitySequence(_Record):
    """Capacities c_0, c_1, ..., equal when their values are."""

    _fields = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        self.__dict__.update(values=values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def _check_index(k: int) -> None:
    if k < 0:
        raise IndexTooSmall("capacity index must be nonnegative")
