"""Built-in polygon corpus.

A small spread of moment polygons used by the command line verifiers and the
test suite: smooth and singular, integral and rational, few and many edges.

`CORPUS` (name to polygon) and `SMOOTH_NAMES` (the names whose surface is
smooth) are built on first access, so importing this module loads no
geometry.
"""

from __future__ import annotations

from fractions import Fraction


def _chop_at(p, vertex, eps):
    from . import lattice

    v = (Fraction(vertex[0]), Fraction(vertex[1]))
    i = p.vertices.index(v)
    return lattice.corner_chop(p, i, eps)


def _corpus() -> dict:
    """The polygons by name."""
    from . import lattice

    square = lattice.rectangle(1, 1)
    chopped_square = _chop_at(square, (1, 1), Fraction(1, 2))
    return {
        "unit-triangle": lattice.unit_triangle(),
        "double-triangle": lattice.triangle(2, 2),
        "unit-square": square,
        "rect-2x3": lattice.rectangle(2, 3),
        "rect-1x5": lattice.rectangle(1, 5),
        "chopped-square": chopped_square,
        "chopped-triangle": _chop_at(lattice.unit_triangle(), (1, 0), Fraction(1, 3)),
        "two-chop-square": _chop_at(chopped_square, (0, 1), Fraction(1, 4)),
        "singular-triangle": lattice.triangle(1, 2),
        "f2-polygon": lattice.MomentPolygon((
            (Fraction(0), Fraction(0)), (Fraction(3), Fraction(0)),
            (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))),
    }


def _smooth_names() -> tuple:
    # CORPUS through the module, which builds it on first access
    from . import corpus, lattice

    return tuple(name for name, p in corpus.CORPUS.items()
                 if len(lattice.smooth_vertices(p)) == len(p))


_BUILDERS = {"CORPUS": _corpus, "SMOOTH_NAMES": _smooth_names}


def __getattr__(name: str):
    build = _BUILDERS.get(name)
    if build is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = build()
    return value
