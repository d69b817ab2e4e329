"""Helpers shared by the geometry and the ECH modules: exact rational
coercion, the 2x2 determinant and the immutable record base."""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Sequence


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
