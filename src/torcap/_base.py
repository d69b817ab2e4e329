"""Helpers shared by the geometry and the ECH modules: exact rational
coercion, integer views of rational points, the 2x2 determinant, the
immutable record base and the size of the per-polygon caches."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

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
