"""Capacity sequences and embedding obstructions.

Algebraic capacities of polarized toric surfaces, ECH capacities of convex
toric domains, embedding verdicts, the Xi-width and the lattice width bound,
on integers over one denominator; every value returned is an exact rational.
A convex domain's ECH capacities are the `alg_capacities` of its polygon.
No `toric` or `lattice` code is loaded: the width bound reads the lattice
width from the polygon core.
Re-exported as the same objects: from `_table`, the capacity table's `calg`,
`calg_witness` and `alg_capacities`; from `ech`, the ellipsoid and concave
capacities, `ConcaveDomain` and `CapacitySequence`.  Private names are not
re-exported: the table's search and cache live in `_table`, which looks
them up there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._base import _Record
from ._polygon import MomentPolygon, lattice_width
from ._table import _ensure_table, alg_capacities, calg, calg_witness  # noqa: F401  (re-exported)
from .ech import (  # noqa: F401  (re-exported)
    CapacitySequence,
    ConcaveDomain,
    _concave_values,
    concave_weights,
    ech_concave,
    ech_concave_capacities,
    ech_ellipsoid,
    ech_ellipsoid_capacities,
)
from .errors import IndexTooSmall, NoSmoothVertex, NotDomainPolygon


def is_domain_polygon(p: MomentPolygon) -> bool:
    """True iff p has the origin as a vertex with its two incident edges
    along the axes, which puts the convex p in the first quadrant: the
    inward normals of the edges out of vertex 0 are (0, 1) and (1, 0)."""
    return p.vertices[0] == (0, 0) and p._normals[0] == (0, 1) and p._normals[-1] == (1, 0)


def ech_convex(p: MomentPolygon, k: int) -> Fraction:
    """k-th ECH capacity of the convex toric domain over p."""
    return ech_convex_capacities(p, k)[k]


def ech_convex_capacities(p: MomentPolygon, k_max: int) -> CapacitySequence:
    """ECH capacities c_0, ..., c_k_max of the convex toric domain over p:
    the algebraic capacities of the associated polarized surface."""
    if not is_domain_polygon(p):
        raise NotDomainPolygon("convex toric domain needs an origin corner with axis edges")
    return alg_capacities(p, k_max)


def _verdict_inputs(omega: ConcaveDomain, p: MomentPolygon,
                    k_max: int) -> tuple[list[int], int, list[int], int]:
    """(dom, dom_denom, target, denom): c_k(omega) = dom[k] / dom_denom and
    calg(p, k) = target[k] / denom for k <= k_max, checked for a comparison,
    which needs k_max >= 1 and a smooth vertex, a cone of determinant 1."""
    if k_max < 1:
        raise IndexTooSmall("k_max must be at least 1")
    if 1 not in p._d:
        raise NoSmoothVertex("target polygon has no smooth vertex")
    dom, dom_denom = _concave_values(omega, k_max)
    target, denom, _vecs = _ensure_table(p, k_max)
    return dom, dom_denom, target, denom


class EmbeddingVerdict(_Record):
    """Outcome of the capacity comparison for embedding a concave domain
    into a polarized toric surface."""

    _fields = ("compatible", "k_max", "first_violation", "domain_capacity", "target_capacity")

    def __init__(self, compatible: bool, k_max: int, first_violation: Optional[int] = None,
                 domain_capacity: Optional[Fraction] = None,
                 target_capacity: Optional[Fraction] = None):
        self.__dict__.update(compatible=compatible, k_max=k_max, first_violation=first_violation,
                             domain_capacity=domain_capacity, target_capacity=target_capacity)


def embedding_verdict(omega: ConcaveDomain, p: MomentPolygon, k_max: int) -> EmbeddingVerdict:
    """Compare ECH capacities of the domain with algebraic capacities of the
    target for k = 1..k_max.

    Any index where the domain capacity exceeds the target capacity rules
    the embedding out; otherwise the test is passed (which does not by
    itself construct an embedding).
    """
    dom, dom_denom, target, denom = _verdict_inputs(omega, p, k_max)
    for k in range(1, k_max + 1):
        if dom[k] * denom > target[k] * dom_denom:
            return EmbeddingVerdict(
                compatible=False,
                k_max=k_max,
                first_violation=k,
                domain_capacity=Fraction(dom[k], dom_denom),
                target_capacity=Fraction(target[k], denom),
            )
    return EmbeddingVerdict(compatible=True, k_max=k_max)


class XiWidth(_Record):
    """Best capacity ratio bound for scaling a concave domain into a target."""

    _fields = ("value", "argmin_k", "k_max", "stable")

    def __init__(self, value: Fraction, argmin_k: int, k_max: int, stable: bool):
        self.__dict__.update(value=value, argmin_k=argmin_k, k_max=k_max, stable=stable)


def xi_width(p: MomentPolygon, omega: ConcaveDomain, k_max: int) -> XiWidth:
    """min over 1 <= k <= k_max of calg(p, k) / c_k(omega).

    The largest s with s*omega passing the capacity test is this minimum.
    The stable flag records that the minimizer already appears in the first
    half of the horizon, a heuristic sign the value has converged.
    """
    dom, dom_denom, target, denom = _verdict_inputs(omega, p, k_max)
    # dom[k] > 0 for k >= 1, as c_1 is at least the first weight; the ratio is
    # target[k] / dom[k] times dom_denom / denom, compared by cross-multiplying
    best, argmin = (target[1], dom[1]), 1
    for k in range(2, k_max + 1):
        if target[k] * best[1] < best[0] * dom[k]:
            best, argmin = (target[k], dom[k]), k
    stable = argmin <= max(1, k_max // 2)
    return XiWidth(value=Fraction(best[0] * dom_denom, best[1] * denom), argmin_k=argmin,
                   k_max=k_max, stable=stable)


_UNIT_BALL = ConcaveDomain.ball(1)


def gromov_width_bound(p: MomentPolygon, k_max: int) -> XiWidth:
    """Upper bound for the Gromov width via the ball capacity ratios.

    Its k = 1 term is calg(p, 1) / c_1(B(1)) = calg(p, 1) = LW(p), the
    lattice width.  c_k is the least sum over p's edges of the lattice
    length times -min <u, m> over L, u the inward normal, for the convex
    hulls L of at least k + 1 lattice points.  Two lattice points span a
    segment g s, s primitive, whose sum is g times p's width along s
    turned by 90 degrees: the least is at g = 1, across the lattice-width
    direction.  The bound is at most LW.
    """
    return xi_width(p, _UNIT_BALL, k_max)


def width_bound_check(p: MomentPolygon, k_max: int) -> tuple[Fraction, Fraction, bool]:
    """(Gromov width bound, lattice width, bound holds).

    The capacity bound for balls never exceeds the lattice width of the
    moment polygon; the boolean reports this comparison for the horizon.
    As c_1(B(1)) = 1 and c_1 = LW (see `gromov_width_bound`), the bound is
    at most its k = 1 term LW, so the boolean is True on every input while
    the table search and the width reduction are both right.
    """
    gw = gromov_width_bound(p, k_max).value
    lw, _direction = lattice_width(p)
    return gw, lw, gw <= lw
