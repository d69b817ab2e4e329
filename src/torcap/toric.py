"""The polygon-to-surface dictionary.

Complete fans in the plane, torus-invariant divisors, exact intersection
numbers on simplicial surfaces, nef/ample tests, section counts, the
isoparametric transform, the preferable-nef procedure, blow-downs and smooth
resolution by ray insertion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._base import CACHE_SIZE, _Record, det2, frac  # noqa: F401  (CACHE_SIZE re-exported)
from .errors import (
    IterationLimit,
    NotContractible,
    NotEffective,
    NotInSW,
    SingularSurfaceChi,
)
from .lattice import (
    MomentPolygon,
    Point,
    convex_hull,
    count_points,
    egcd,
    halfplane_vertices,
    line_count,
    line_cuts,
    primitive,
)

IP_ITERATION_CAP = 10_000


class ToricSurface(_Record):
    """Complete simplicial fan in the plane, given by its rays.

    Rays are primitive integer vectors in strictly counterclockwise cyclic
    order; each adjacent pair spans a cone with positive determinant.
    """

    _fields = ("rays", "polygon")

    def __init__(self, rays: tuple[tuple[int, int], ...], polygon: Optional[MomentPolygon] = None):
        if len(rays) < 3:
            raise ValueError("a complete fan needs at least 3 rays")
        for v in rays:
            if primitive(v) != v:
                raise ValueError(f"ray {v} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        # each step turns by less than a half turn, so the rays wind around
        # the origin once exactly when one step leaves the lower half plane
        lower = [v[1] < 0 or (v[1] == 0 and v[0] < 0) for v in rays]
        if (any(det2(rays[i - 1], rays[i]) <= 0 for i in range(len(rays)))
                or sum(lower[i - 1] and not lower[i] for i in range(len(rays))) != 1):
            raise ValueError("rays must be strictly counterclockwise and complete")
        self.__dict__.update(rays=rays, polygon=polygon)

    def __len__(self) -> int:
        return len(self.rays)

    @property
    def cone_dets(self) -> tuple[int, ...]:
        n = len(self.rays)
        return tuple(det2(self.rays[i], self.rays[(i + 1) % n]) for i in range(n))

    @property
    def smooth(self) -> bool:
        return all(d == 1 for d in self.cone_dets)


class TorusDivisor(_Record):
    """Torus-invariant divisor, one rational coefficient per ray."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        self.__dict__["coeffs"] = tuple(frac(c) for c in coeffs)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __add__(self, other: "TorusDivisor") -> "TorusDivisor":
        return TorusDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TorusDivisor") -> "TorusDivisor":
        return TorusDivisor(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, s) -> "TorusDivisor":
        s = frac(s)
        return TorusDivisor(tuple(s * c for c in self.coeffs))

    def __neg__(self) -> "TorusDivisor":
        return TorusDivisor(tuple(-c for c in self.coeffs))


class DivisorClass(_Record):
    """Divisor modulo linear functions, as a canonical coset representative
    (the unique representative vanishing on the first two rays)."""

    _fields = ("rep",)

    def __init__(self, rep: tuple[Fraction, ...]):
        self.__dict__["rep"] = rep


def build_surface(p: MomentPolygon) -> ToricSurface:
    """Surface of the inner normal fan of p."""
    return ToricSurface(p._normals, polygon=p)


def associated_divisor(p: MomentPolygon) -> TorusDivisor:
    """Ample boundary divisor with support numbers read off p's edges."""
    return TorusDivisor(tuple(a for (_u, a) in p.edge_data()))


def canonical_divisor(y: ToricSurface) -> TorusDivisor:
    return TorusDivisor(tuple(Fraction(-1) for _ in y.rays))


def _check_count(y: ToricSurface, coeffs: Sequence) -> None:
    if len(coeffs) != len(y.rays):
        raise ValueError("coefficient count must match ray count")


def divisor(y: ToricSurface, coeffs: Sequence) -> TorusDivisor:
    _check_count(y, coeffs)
    return TorusDivisor(tuple(frac(c) for c in coeffs))


def prime_divisor(y: ToricSurface, i: int) -> TorusDivisor:
    return TorusDivisor(tuple(Fraction(1 if j == i else 0) for j in range(len(y.rays))))


def ray_self_intersection(y: ToricSurface, i: int) -> Fraction:
    """Self-intersection of the boundary divisor of ray i."""
    n = len(y.rays)
    vp, v, vn = y.rays[(i - 1) % n], y.rays[i], y.rays[(i + 1) % n]
    return Fraction(-det2(vp, vn), det2(vp, v) * det2(v, vn))


def intersection_matrix(y: ToricSurface) -> tuple[tuple[Fraction, ...], ...]:
    """Pairings D_i . D_j of the boundary divisors.

    Adjacent rays meet in 1/det of their cone, non-adjacent boundary divisors
    are disjoint, and self-intersections come from the two adjacent cones.
    """
    n = len(y.rays)
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        val = Fraction(1, det2(y.rays[i], y.rays[j]))
        q[i][j] += val
        q[j][i] += val
    for i in range(n):
        q[i][i] = ray_self_intersection(y, i)
    return tuple(tuple(row) for row in q)


def pairings(y: ToricSurface, d: TorusDivisor) -> tuple[Fraction, ...]:
    """The pairings D_i . D.  D_i meets only D_{i-1}, itself and D_{i+1}, so
    with d[i] = det(v[i], v[i+1]), e[i] = det(v[i-1], v[i+1]) and b the
    coefficients of D times the lcm L of their denominators,
    D_i . D = (b[i-1] d[i] - b[i] e[i] + b[i+1] d[i-1]) / (L d[i-1] d[i])."""
    _check_count(y, d.coeffs)
    v, dets, n = y.rays, y.cone_dets, len(y.rays)
    scale = math.lcm(*(c.denominator for c in d.coeffs))
    b = [c.numerator * (scale // c.denominator) for c in d.coeffs]
    return tuple(Fraction(b[i - 1] * dets[i] - b[i] * det2(v[i - 1], v[(i + 1) % n])
                          + b[(i + 1) % n] * dets[i - 1], scale * dets[i - 1] * dets[i])
                 for i in range(n))


def intersect(y: ToricSurface, d1: TorusDivisor, d2: TorusDivisor) -> Fraction:
    """D1 . D2 = sum_i a_i (D_i . D2), a the coefficients of D1."""
    _check_count(y, d1.coeffs)
    return sum((a * w for a, w in zip(d1.coeffs, pairings(y, d2))), Fraction(0))


def index(y: ToricSurface, d: TorusDivisor) -> Fraction:
    """D . (D - K)."""
    return intersect(y, d, d - canonical_divisor(y))


def chi(y: ToricSurface, d: TorusDivisor) -> Fraction:
    """Euler characteristic of the divisor sheaf.

    Smooth surfaces use the index formula chi = 1 + I/2; on singular
    surfaces only nef divisors are supported (via the lattice point count).
    """
    if y.smooth:
        return 1 + index(y, d) / 2
    if is_nef(y, d):
        return Fraction(h0(y, d))
    raise SingularSurfaceChi("chi of a non-nef divisor on a singular surface")


def divisor_constraints(y: ToricSurface, d: TorusDivisor) -> list[tuple[int, int, Fraction]]:
    """Half-plane description of the section polytope P_D:
    <ray_i, x> >= -a_i."""
    return [(v[0], v[1], -a) for v, a in zip(y.rays, d.coeffs)]


def support_vertices(y: ToricSurface, d: TorusDivisor) -> list[Point]:
    """Corner points of the section polytope (may be 0, 1 or 2 dimensional)."""
    return convex_hull(halfplane_vertices(divisor_constraints(y, d)))


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
        raise ValueError("effectivity test expects an integral divisor")
    return h0(y, d) >= 1


def linear_shift(y: ToricSurface, m: Sequence) -> TorusDivisor:
    """Divisor of the character with exponent m: coefficients <m, ray_i>."""
    mx, my = frac(m[0]), frac(m[1])
    return TorusDivisor(tuple(mx * v[0] + my * v[1] for v in y.rays))


def divisor_class(y: ToricSurface, d: TorusDivisor) -> DivisorClass:
    """Canonical coset representative vanishing on the first two rays."""
    v0, v1 = y.rays[0], y.rays[1]
    a0, a1 = d.coeffs[0], d.coeffs[1]
    det = det2(v0, v1)
    mx = Fraction(-a0 * v1[1] + a1 * v0[1], det)
    my = Fraction(-a1 * v0[0] + a0 * v1[0], det)
    shift = linear_shift(y, (mx, my))
    return DivisorClass((d + shift).coeffs)


def polytope_divisor(y: ToricSurface, p: MomentPolygon) -> TorusDivisor:
    """Divisor with support numbers of the polygon p on y's fan.

    Always nef; ample iff y's fan is the inner normal fan of p.
    """
    coeffs = []
    for v in y.rays:
        coeffs.append(-min(v[0] * x + v[1] * y_ for (x, y_) in p.vertices))
    return TorusDivisor(tuple(coeffs))


def ip_transform(y: ToricSurface, d: TorusDivisor) -> TorusDivisor:
    """One step of the isoparametric transform.

    Subtracts ceil((D.C)/(C.C)) times each boundary curve C meeting D
    negatively.  Requires a smooth surface and an effective integral divisor.
    """
    if not y.smooth:
        raise ValueError("isoparametric transform needs a smooth surface")
    if not d.is_integral:
        raise ValueError("isoparametric transform needs an integral divisor")
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


def iterate_ip(y: ToricSurface, d: TorusDivisor, cap: Optional[int] = None) -> TorusDivisor:
    """Iterate the isoparametric transform until the divisor is nef, at most
    cap times (IP_ITERATION_CAP, read at call time, when cap is None)."""
    for _ in range(IP_ITERATION_CAP if cap is None else cap):
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
        raise ValueError("preferable-nef procedure needs a smooth surface")
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
    n = len(y.rays)
    if ray_self_intersection(y, i) != -1:
        raise NotContractible("self-intersection is not -1")
    if det2(y.rays[(i - 1) % n], y.rays[i]) != 1 or det2(y.rays[i], y.rays[(i + 1) % n]) != 1:
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
        raise ValueError("round-down expects a nef divisor")
    a = [math.floor(c) for c in d.coeffs]
    if not count_points(y.rays, a):
        raise ValueError("section polytope contains no lattice point")
    for j in range(len(a)):
        # moving the line of ray j in drops no lattice point of the polytope
        cuts = line_cuts(y.rays[j], y.rays, [i for i in range(len(a)) if i != j])
        while not line_count(cuts, a, a[j]):
            a[j] -= 1
    return TorusDivisor(tuple(a))


def resolve(y: ToricSurface) -> ToricSurface:
    """Smooth surface whose fan refines y's, by ray insertion.

    In every singular cone the unique primitive w in the cone with
    det(u, w) = 1 against the left generator is inserted; the residual cone
    has strictly smaller determinant, so this terminates with all cones
    unimodular.
    """
    rays = list(y.rays)
    changed = True
    while changed:
        changed = False
        out = []
        n = len(rays)
        for i in range(n):
            u, v = rays[i], rays[(i + 1) % n]
            out.append(u)
            d = det2(u, v)
            if d > 1:
                out.append(_hj_insert(u, v))
                changed = True
        rays = out
    return ToricSurface(tuple(rays), polygon=y.polygon)


def _hj_insert(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Primitive w inside cone(u, v) with det(u, w) = 1 and det(w, v) minimal."""
    # solve det(u, w0) = u0*wy - u1*wx = 1
    _g, s, t = egcd(u[0], -u[1])
    # u0*s + (-u1)*t = 1, so w0 = (t, s) has det(u, w0) = 1
    w0 = (t, s)
    d = det2(u, v)
    c = det2(w0, v)
    # w = w0 + k*u keeps det(u, w) = 1 and has det(w, v) = c + k*d;
    # the smallest positive value puts w inside the cone
    k = math.ceil(Fraction(1 - c, d))
    w = (w0[0] + k * u[0], w0[1] + k * u[1])
    return primitive(w)
