"""The polygon-to-surface dictionary.

Complete fans in the plane, torus-invariant divisors as coefficient tuples,
exact intersection numbers and the index D . (D - K) on simplicial surfaces,
nef/ample tests, section counts, the isoparametric transform, the
preferable-nef procedure, blow-downs and smooth resolution by ray
insertion.  Section polytopes are read one ray's line at a time, by
`line_cuts` of the polygon core, for their points and corners.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._base import _Record, det2, frac, intersection_numbers
from ._polygon import (
    MomentPolygon,
    Point,
    _fan_rows,
    count_points,
    egcd,
    line_count,
    line_cuts,
    primitive,
)
from .errors import (
    InvalidInput,
    IterationLimit,
    NotContractible,
    NotEffective,
    NotInSW,
)

IP_ITERATION_CAP = 10_000


class ToricSurface(_Record):
    """Complete simplicial fan in the plane, given by its rays, and no
    polarization: polygons with one inner normal fan give one surface.

    Rays are primitive integer vectors in strictly counterclockwise cyclic
    order, winding once; _d and _e keep their row constants (`_polygon._fan_rows`).
    """

    _fields = ("rays",)

    def __init__(self, rays: tuple[tuple[int, int], ...]):
        if len(rays) < 3:
            raise InvalidInput("a complete fan needs at least 3 rays")
        for v in rays:
            if primitive(v) != v:
                raise InvalidInput(f"ray {v} is not primitive")
        d, e, winds_once = _fan_rows(rays)
        if min(d) <= 0 or not winds_once:
            raise InvalidInput("rays must be strictly counterclockwise and complete")
        self.__dict__.update(rays=rays, _d=d, _e=e)

    def __len__(self) -> int:
        return len(self.rays)

    @property
    def cone_dets(self) -> tuple[int, ...]:
        return self._d

    @property
    def smooth(self) -> bool:
        return all(d == 1 for d in self._d)


class TorusDivisor(_Record):
    """Torus-invariant divisor, one rational coefficient per ray."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        self.__dict__["coeffs"] = tuple(frac(c) for c in coeffs)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


def build_surface(p: MomentPolygon) -> ToricSurface:
    """Surface of the inner normal fan of p."""
    return ToricSurface(p._normals)


def associated_divisor(p: MomentPolygon) -> TorusDivisor:
    """Ample boundary divisor with support numbers read off p's edges."""
    return TorusDivisor(tuple(a for (_u, a) in p.edge_data()))


def _check_count(y: ToricSurface, coeffs: Sequence) -> None:
    if len(coeffs) != len(y.rays):
        raise InvalidInput("coefficient count must match ray count")


def divisor(y: ToricSurface, coeffs: Sequence) -> TorusDivisor:
    _check_count(y, coeffs)
    return TorusDivisor(tuple(frac(c) for c in coeffs))


def ray_self_intersection(y: ToricSurface, i: int) -> Fraction:
    """Self-intersection of the boundary divisor of ray i: -e[i] / (d[i-1] d[i])."""
    return Fraction(-y._e[i], y._d[i - 1] * y._d[i])


def intersection_matrix(y: ToricSurface) -> tuple[tuple[Fraction, ...], ...]:
    """Pairings D_i . D_j of the boundary divisors.

    Adjacent rays meet in 1/det of their cone, non-adjacent boundary divisors
    are disjoint, and self-intersections come from the two adjacent cones.
    Its determinants are its own, so that it stays a reference for `pairings`.
    """
    rays, n = y.rays, len(y.rays)
    return intersection_numbers(rays, [det2(rays[i], rays[(i + 1) % n]) for i in range(n)])


def pairings(y: ToricSurface, d: TorusDivisor) -> tuple[Fraction, ...]:
    """The pairings D_i . D.  D_i meets only D_{i-1}, itself and D_{i+1}, so
    with the fan's row constants d, e (`_polygon._fan_rows`) and b the
    coefficients of D times the lcm L of their denominators,
    D_i . D = (b[i-1] d[i] - b[i] e[i] + b[i+1] d[i-1]) / (L d[i-1] d[i])."""
    _check_count(y, d.coeffs)
    dets, e, n = y._d, y._e, len(y.rays)
    scale = math.lcm(*(c.denominator for c in d.coeffs))
    b = [c.numerator * (scale // c.denominator) for c in d.coeffs]
    return tuple(Fraction(b[i - 1] * dets[i] - b[i] * e[i] + b[(i + 1) % n] * dets[i - 1],
                          scale * dets[i - 1] * dets[i])
                 for i in range(n))


def intersect(y: ToricSurface, d1: TorusDivisor, d2: TorusDivisor) -> Fraction:
    """D1 . D2 = sum_i a_i (D_i . D2), a the coefficients of D1."""
    _check_count(y, d1.coeffs)
    return sum((a * w for a, w in zip(d1.coeffs, pairings(y, d2))), Fraction(0))


def index(y: ToricSurface, d: TorusDivisor) -> Fraction:
    """D . (D - K) = sum_i (a_i + 1) (D_i . D), as K = -sum_i D_i."""
    return sum(((a + 1) * w for a, w in zip(d.coeffs, pairings(y, d))), Fraction(0))


def support_vertices(y: ToricSurface, d: TorusDivisor) -> list[Point]:
    """Corner points of the section polytope (may be 0, 1 or 2 dimensional),
    counterclockwise from the least.

    The line <m, v_j> = -a_j meets the polytope in an edge, a corner or
    nothing: its points -a_j (p, q) + lam (-v_j[1], v_j[0]) with lam between
    the other rays' bounds, `line_count`'s cuts without floors.  In fan order
    the ends of these pieces, larger lam first, run counterclockwise through
    the corners, a corner repeating where pieces meet."""
    _check_count(y, d.coeffs)
    rays, a = y.rays, d.coeffs
    ends: list[Point] = []
    for j, u in enumerate(rays):
        lo, hi = [], []
        for i, g, dt in line_cuts(u, rays, [i for i in range(len(rays)) if i != j]):
            if dt:
                (lo if dt > 0 else hi).append((a[j] * g - a[i]) / dt)
            elif a[j] * g > a[i]:
                break  # outside the half plane of the opposite ray
        else:
            # the fan is complete, so rays lie on both sides of the line
            if max(lo) <= min(hi):
                _g, p, q = egcd(*u)
                ends += [(-a[j] * p - lam * u[1], -a[j] * q + lam * u[0])
                         for lam in (min(hi), max(lo))]
    corners = [m for i, m in enumerate(ends) if m != ends[i - 1]] or ends[:1]
    s = min(range(len(corners)), key=corners.__getitem__, default=0)
    return corners[s:] + corners[:s]


def support_polytope(y: ToricSurface, d: TorusDivisor) -> Optional[MomentPolygon]:
    """Section polytope as a polygon; None when empty or lower dimensional."""
    pts = support_vertices(y, d)
    if len(pts) < 3:
        return None
    return MomentPolygon(tuple(pts))


def h0(y: ToricSurface, d: TorusDivisor) -> int:
    """Number of lattice points in the section polytope.  An integer point m
    has <m, v> >= -a exactly when <m, v> >= -floor(a)."""
    _check_count(y, d.coeffs)
    return count_points(y.rays, [math.floor(c) for c in d.coeffs])


def is_nef(y: ToricSurface, d: TorusDivisor) -> bool:
    """D . D_i >= 0 for every boundary curve: nefness is local on a complete
    simplicial surface."""
    return all(w >= 0 for w in pairings(y, d))


def is_ample(y: ToricSurface, d: TorusDivisor) -> bool:
    """D . D_i > 0 for every boundary curve (the toric Kleiman criterion)."""
    return all(w > 0 for w in pairings(y, d))


def is_effective(y: ToricSurface, d: TorusDivisor) -> bool:
    """True iff the class of d has an effective representative.

    Torus-invariant prime divisors generate the effective cone, so d is
    effective iff some shift by a linear function is coefficient-wise >= 0,
    i.e. iff the section polytope contains a lattice point (integral d).
    """
    if not d.is_integral:
        raise InvalidInput("effectivity test expects an integral divisor")
    return h0(y, d) >= 1


def ip_transform(y: ToricSurface, d: TorusDivisor) -> TorusDivisor:
    """One step of the isoparametric transform.

    Subtracts ceil((D.C)/(C.C)) times each boundary curve C meeting D
    negatively.  Requires a smooth surface and an effective integral divisor.
    """
    if not y.smooth:
        raise InvalidInput("isoparametric transform needs a smooth surface")
    if not d.is_integral:
        raise InvalidInput("isoparametric transform needs an integral divisor")
    if not is_effective(y, d):
        raise NotEffective("divisor has no sections")
    out = list(d.coeffs)
    for i, pairing in enumerate(pairings(y, d)):
        if pairing < 0:
            self_int = ray_self_intersection(y, i)
            if self_int >= 0:
                raise NotEffective("negative pairing with a non-negative curve")
            m = math.ceil(pairing / self_int)
            out[i] -= m
    return TorusDivisor(tuple(out))


def iterate_ip(y: ToricSurface, d: TorusDivisor) -> TorusDivisor:
    """Iterate the isoparametric transform until the divisor is nef, at most
    IP_ITERATION_CAP times, read at call time."""
    for _ in range(IP_ITERATION_CAP):
        if is_nef(y, d):
            return d
        d = ip_transform(y, d)
    raise IterationLimit("isoparametric transform did not stabilize")


def _minus_one_rays(y: ToricSurface) -> list[int]:
    return [i for i in range(len(y.rays)) if ray_self_intersection(y, i) == -1]


def preferable_nef(y: ToricSurface, d: TorusDivisor) -> TorusDivisor:
    """Nef integral divisor that is area- and index-preferable to d.

    d must be effective with nonnegative index.  Contractible boundary
    curves met non-positively are blown down (pulling the recursive result
    back); otherwise the isoparametric transform is iterated.
    """
    if not y.smooth:
        raise InvalidInput("preferable-nef procedure needs a smooth surface")
    if not d.is_integral or not is_effective(y, d) or index(y, d) < 0:
        raise NotInSW("divisor is not effective with nonnegative index")
    return _preferable_nef(y, d)


def _preferable_nef(y: ToricSurface, d: TorusDivisor) -> TorusDivisor:
    for _ in range(IP_ITERATION_CAP):
        w = pairings(y, d)
        if all(x >= 0 for x in w):
            return d
        neg = next((i for i in _minus_one_rays(y) if w[i] <= 0), None)
        if neg is not None:
            yb = blow_down(y, neg)
            db = TorusDivisor(tuple(c for j, c in enumerate(d.coeffs) if j != neg))
            db0 = _preferable_nef(yb, db)
            return pullback_through_blow_down(y, neg, db0)
        d = ip_transform(y, d)
    raise IterationLimit("preferable-nef procedure did not terminate")


def blow_down(y: ToricSurface, i: int) -> ToricSurface:
    """Contract the boundary curve of ray i (a (-1)-curve between smooth cones)."""
    if ray_self_intersection(y, i) != -1:
        raise NotContractible("self-intersection is not -1")
    if y._d[i - 1] != 1 or y._d[i] != 1:
        raise NotContractible("adjacent cones are not smooth")
    rays = tuple(v for j, v in enumerate(y.rays) if j != i)
    return ToricSurface(rays)


def pullback_through_blow_down(y: ToricSurface, i: int, d_down: TorusDivisor) -> TorusDivisor:
    """Pull a divisor on the blow-down of ray i back to y.

    The coefficient on the exceptional ray is forced by linearity of the
    support function on the merged cone: rays[i] = rays[i-1] + rays[i+1].
    """
    n = len(y.rays)
    down = [j for j in range(n) if j != i]
    coeffs = [Fraction(0)] * n
    for pos, j in enumerate(down):
        coeffs[j] = d_down.coeffs[pos]
    coeffs[i] = coeffs[(i - 1) % n] + coeffs[(i + 1) % n]
    return TorusDivisor(tuple(coeffs))


def round_down_nef(y: ToricSurface, d: TorusDivisor) -> TorusDivisor:
    """Integral nef divisor with the same lattice point count and no larger
    pairing against any ample divisor.

    Floors the coefficients, then pushes every slack hyperplane inward until
    it meets a lattice point of the section polytope: the new coefficient of
    ray j is the largest c <= floor(a_j) whose line <m, v_j> = -c does.
    """
    if not is_nef(y, d):
        raise InvalidInput("round-down expects a nef divisor")
    a = [math.floor(c) for c in d.coeffs]
    if not count_points(y.rays, a):
        raise InvalidInput("section polytope contains no lattice point")
    for j in range(len(a)):
        # moving the line of ray j in drops no lattice point of the polytope
        cuts = line_cuts(y.rays[j], y.rays, [i for i in range(len(a)) if i != j])
        while not line_count(cuts, a, a[j]):
            a[j] -= 1
    return TorusDivisor(tuple(a))


def resolve(y: ToricSurface) -> ToricSurface:
    """Smooth surface whose fan refines y's, by ray insertion.

    In every singular cone (u, v) the unique primitive w in the cone with
    det(u, w) = 1 is inserted after u; the cone (u, w) is smooth and the
    residual cone (w, v) has strictly smaller determinant, so inserting into
    it until it is smooth resolves each cone in one pass.
    """
    rays = []
    for i, u in enumerate(y.rays):
        v = y.rays[(i + 1) % len(y.rays)]
        rays.append(u)
        while det2(u, v) > 1:
            u = _hj_insert(u, v)
            rays.append(u)
    return ToricSurface(tuple(rays))


def _hj_insert(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """The w inside cone(u, v) with det(u, w) = 1, so primitive, and det(w, v)
    minimal."""
    # solve det(u, w0) = u0*wy - u1*wx = 1
    _g, s, t = egcd(u[0], -u[1])
    # u0*s + (-u1)*t = 1, so w0 = (t, s) has det(u, w0) = 1
    w0 = (t, s)
    d = det2(u, v)
    c = det2(w0, v)
    # w = w0 + k*u keeps det(u, w) = 1 and has det(w, v) = c + k*d;
    # the smallest positive value, at k = ceil((1 - c) / d), puts w inside the cone
    k = -((c - 1) // d)
    return (w0[0] + k * u[0], w0[1] + k * u[1])
