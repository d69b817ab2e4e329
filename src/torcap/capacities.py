"""Capacity sequences and embedding obstructions.

Algebraic capacities of polarized toric surfaces, ECH capacities of convex
toric domains, embedding verdicts, the Xi-width and the lattice width bound.
The capacity search reads the fan, the support numbers and the pairings
with the polarization off the polygon's integer view, so this module loads
no `toric` code.  The search and the verdicts run on integers over one
denominator; every value returned is an exact rational.  The ECH
capacities of ellipsoids and concave toric domains live in `ech`, which
needs no toric code either; every name of it used here is re-exported from
this module as the same object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import lattice
from ._base import CACHE_SIZE, _Record, det2
from .ech import (  # noqa: F401  (re-exported)
    ALG,
    ECH_CONCAVE,
    ECH_CONVEX,
    ECH_ELLIPSOID,
    WEIGHT_EXPANSION_CAP,
    CapacitySequence,
    ConcaveDomain,
    _check_index,
    _concave_values,
    _ellipsoid_values,
    concave_weights,
    ech_concave,
    ech_concave_capacities,
    ech_ellipsoid,
    ech_ellipsoid_capacities,
)
from .errors import IterationLimit, NoSmoothVertex, NotAmple, NotDomainPolygon
from .lattice import MomentPolygon, line_count, line_cuts

if TYPE_CHECKING:
    from .toric import TorusDivisor


def calg(p: MomentPolygon, k: int) -> Fraction:
    """k-th algebraic capacity of the surface polarized by p."""
    values, denom, _vecs = _ensure_table(p, k)
    return Fraction(values[k], denom)


def calg_witness(p: MomentPolygon, k: int) -> tuple[Fraction, TorusDivisor]:
    """Capacity together with an optimal nef divisor.

    The witness is an integral nef divisor with at least k+1 sections
    minimizing the pairing with the polarization, in gauge form at the first
    cone s of least determinant: (a_s, a_{s+1}) is the first residue class,
    in order, that holds an optimal divisor, and within it the coefficients
    a_{s+2}, ..., a_{s-1} are the lexicographically smallest optimal ones.
    On a smooth cone the gauge is a_s = a_{s+1} = 0.
    """
    from .toric import TorusDivisor

    values, denom, vecs = _ensure_table(p, k)
    return Fraction(values[k], denom), TorusDivisor(tuple(Fraction(c) for c in vecs[k]))


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# (values, denom, witnesses), as `_compute_table` returns it
_Table = tuple[list[int], int, list[tuple[int, ...]]]

# the tables of the CACHE_SIZE polygons built last, oldest first
_TABLES: dict[MomentPolygon, _Table] = {}


def _ensure_table(p: MomentPolygon, k: int) -> _Table:
    """Capacity table of p covering index k, which must be nonnegative; a
    sequence is served by one build when its largest index is asked for
    first."""
    _check_index(k)
    table = _TABLES.get(p)
    if table is None or k >= len(table[0]):
        table = _compute_table(p, k)
        _TABLES.pop(p, None)
        _TABLES[p] = table
        if len(_TABLES) > CACHE_SIZE:
            del _TABLES[next(iter(_TABLES))]
    return table


def _gauge_classes(v0, v1) -> list[tuple[int, int]]:
    """One representative (a_0, a_1) per class of Z^2 modulo the pairs
    (<u, v0>, <u, v1>) for u in Z^2, the first of each in lexicographic
    order over [0, det)^2.  A smooth cone has the single class (0, 0)."""
    d = det2(v0, v1)
    seen = set()
    reps = []
    for r0 in range(d):
        for r1 in range(d):
            # the class is determined by d * (M^-1 r) mod d, M with rows v0, v1
            key = ((v1[1] * r0 - v0[1] * r1) % d, (v0[0] * r1 - v1[0] * r0) % d)
            if key not in seen:
                seen.add(key)
                reps.append((r0, r1))
    return reps


def _compute_table(p: MomentPolygon, k_max: int) -> _Table:
    """(values, denom, witnesses): for every capacity index k up to k_max,
    the capacity values[k] / denom and the coefficient vector witnesses[k]
    of an optimal divisor.

    The surface is that of p's inner normal fan p._normals, which p's
    constructor has checked to be complete.  Everything is read off p's
    integer view p._scale * p: the polarization has support number
    -<v_i, x> at a vertex x of edge i, and it pairs with the boundary curve
    D_i in the lattice length of edge i, both over p._scale.

    One bounded depth-first search serves all indices at once.  Divisors are
    taken once per linear equivalence class, in a gauge fixed at the first
    cone s of least determinant: (a_s, a_{s+1}) runs over the det_s residue
    classes modulo linear functions, and the remaining coefficients are set
    in cyclic order s+2, ..., s-1.  Nefness is local on a complete simplicial
    surface (D nef iff D.D_i >= 0 for every boundary curve), so each row is
    checked as soon as its three coefficients are set, and it floors the next
    coefficient: a level stops once its value, the next floor's and the least
    rest pass the value bound.  A leaf run starts only when rows s-2, s-1, s
    and the bound leave the last coefficient a range.  Each feasible vector
    updates all indices its section count covers.  That count is carried:
    the row scan runs once per gauge class, and a unit move of one
    coefficient adds or removes the lattice points of one line.
    """
    rays = p._normals
    n = len(rays)
    # pairing of each boundary divisor with the polarization; positive by
    # ampleness, so the objective is a positive linear form
    lengths = lattice.edge_lengths(p)
    if not all(w > 0 for w in lengths):
        raise NotAmple("polarization pairs non-positively with a boundary curve")
    # the pairings lengths[i] / p._scale over their least common denominator
    g = math.gcd(p._scale, *lengths)
    denom = p._scale // g
    iweights = tuple(w // g for w in lengths)

    # value bound: integral multiples of the polarization are nef with as
    # many sections as needed.  t p has at most area + l1-perimeter / 2 + 1
    # lattice points (Pick's formula on the hull of those points), so the
    # counts start at the first multiple where that reaches k_max + 1.  The
    # support numbers are base / scale in lowest terms
    supports = [-(u[0] * x + u[1] * y) for u, (x, y) in zip(rays, p._ipts)]
    g = math.gcd(p._scale, *supports)
    scale = p._scale // g
    base = tuple(a // g for a in supports)
    area2, perim = lattice._area2_perimeter(p)
    m = 1
    while m * scale * (m * scale * area2 + p._scale * perim) < 2 * p._scale ** 2 * k_max:
        m += 1
    while lattice.count_points(rays, tuple(m * c for c in base)) < k_max + 1:
        m += 1
    bound = sum(m * base[i] * iweights[i] for i in range(n))

    # rotate so that the gauge cone is (v[0], v[1]); d[j] = det(v[j], v[j+1])
    # and e[j] = det(v[j-1], v[j+1]), so that nef row j scaled by
    # d[j-1] * d[j] reads b[j-1] d[j] - b[j] e[j] + b[j+1] d[j-1] >= 0
    cone_dets = tuple(det2(rays[j], rays[(j + 1) % n]) for j in range(n))
    s = cone_dets.index(min(cone_dets))
    v = rays[s:] + rays[:s]
    w = iweights[s:] + iweights[:s]
    d = cone_dets[s:] + cone_dets[:s]
    e = tuple(det2(v[j - 1], v[(j + 1) % n]) for j in range(n))
    # the optimum per index; every vector searched has value at most bound
    vals = [bound + 1] * (k_max + 1)
    vecs: list[Optional[tuple[int, ...]]] = [None] * (k_max + 1)
    b = [0] * n
    last = n - 1
    wl = w[last]
    lines = [line_cuts(v[j], v, [i for i in range(n) if i != j]) for j in range(n)]
    # on a nef vector rays n-2 and 0 end the new edge n-1
    edge = line_cuts(v[last], v, (last - 1, 0))

    def leaves(c: int, partial: int) -> None:
        """Every nef completion by the last coefficient, c upward.

        c keeps rows n-2 and 0 nonnegative, and the run starts only when row
        n-1 and the value bound leave c a range.  The first vector's count is
        carried over from hb; raising c by one adds the points of edge n-1.
        """
        nonlocal bound, h
        r = b[last - 1] * d[last] + b[0] * d[last - 1]
        c_hi = (bound - partial) // wl
        if e[last] > 0:
            c_hi = min(c_hi, r // e[last])
        elif e[last] < 0:
            c = max(c, _ceil_div(r, e[last]))
        elif r < 0:
            return
        if c > c_hi:
            return
        b[last] = c
        for i in range(2, n):
            while hb[i] < b[i]:
                hb[i] += 1
                h += line_count(lines[i], hb, hb[i])
            while hb[i] > b[i]:
                h -= line_count(lines[i], hb, hb[i])
                hb[i] -= 1
        count = h
        value = partial + c * wl
        while True:
            # the per-index optima are nondecreasing, and a later vector wins
            # only with a strictly smaller value, so the entries this vector
            # improves end at its count
            k = count - 1 if count <= k_max else k_max
            if k >= 0 and value < vals[k]:
                if k == k_max:
                    # feasible at the top index: nothing more expensive can
                    # improve any entry of the table
                    bound = value
                vec = tuple(b)
                while k >= 0 and value < vals[k]:
                    vals[k], vecs[k] = value, vec
                    k -= 1
            c += 1
            value += wl
            if c > c_hi or value > bound:
                return
            b[last] = c
            count += line_count(edge, b, c)

    def search(j: int, partial: int, c: int) -> None:
        # b[j] runs upward from c, the least value that lows[j] and row j-1 allow
        if j == last:
            leaves(c, partial)
            return
        wj, wn, rest = w[j], w[j + 1], rest_min[j + 2]
        while True:
            value = partial + c * wj
            # least b[j+1] that keeps row j nonnegative; it does not fall as c
            # rises when e[j] >= 0, and then the first c over the bound ends j
            lo = max(lows[j + 1], _ceil_div(c * e[j] - b[j - 1] * d[j], d[j - 1]))
            if value + lo * wn + rest <= bound:
                b[j] = c
                search(j + 1, value, lo)
            elif e[j] >= 0 or value + rest_min[j + 1] > bound:
                return
            c += 1

    for r0, r1 in _gauge_classes(v[0], v[1]):
        b[0], b[1] = r0, r1
        # the cone vertex m_0 = -(x0, x1) / d[0] lies in the section polytope
        # of every nef divisor of this class, so b[l] >= ceil(-<m_0, v[l]>);
        # for l = 2 and l = n-1 these are the floors that rows 1 and 0 give
        x0 = v[1][1] * r0 - v[0][1] * r1
        x1 = v[0][0] * r1 - v[1][0] * r0
        lows = [_ceil_div(x0 * vx + x1 * vy, d[0]) for vx, vy in v]
        # h counts the section polytope of hb, which is moved one unit of one
        # coefficient at a time to the first vector of each leaf run
        hb, h = b[:], lattice.count_points(v, b)
        # least possible contribution of the coefficients from index j on
        rest_min = [0] * (n + 1)
        for j in range(last, 1, -1):
            rest_min[j] = rest_min[j + 1] + w[j] * lows[j]
        search(2, r0 * w[0] + r1 * w[1], lows[2])
    if None in vecs:
        # cannot happen: the bound is attained by a multiple of the
        # polarization, whose gauge representative lies in the search region
        raise IterationLimit("no optimal vector found")
    # undo the rotation: b[j] is the coefficient of ray s + j
    return vals, denom, [vec[n - s:] + vec[:n - s] for vec in vecs]


def alg_capacities(p: MomentPolygon, k_max: int) -> CapacitySequence:
    """c_0, ..., c_k_max, read from one capacity table."""
    values, denom, _vecs = _ensure_table(p, k_max)
    return CapacitySequence(tuple(Fraction(v, denom) for v in values[: k_max + 1]), ALG)


def is_domain_polygon(p: MomentPolygon) -> bool:
    """True iff p sits in the first quadrant with the origin as a vertex and
    its two incident edges along the axes."""
    if any(x < 0 or y < 0 for (x, y) in p.vertices):
        return False
    if p.vertices[0] != (0, 0):
        return False
    d_next, d_prev = lattice.vertex_directions(p, 0)
    return d_next == (1, 0) and d_prev == (0, 1)


def ech_convex(p: MomentPolygon, k: int) -> Fraction:
    """k-th ECH capacity of the convex toric domain over p.

    Agrees with the algebraic capacity of the associated polarized surface.
    """
    if not is_domain_polygon(p):
        raise NotDomainPolygon("convex toric domain needs an origin corner with axis edges")
    return calg(p, k)


def ech_convex_capacities(p: MomentPolygon, k_max: int) -> CapacitySequence:
    if not is_domain_polygon(p):
        raise NotDomainPolygon("convex toric domain needs an origin corner with axis edges")
    return CapacitySequence(alg_capacities(p, k_max).values, ECH_CONVEX)


def _require_smooth_vertex(p: MomentPolygon) -> None:
    """Embedding comparisons need a smooth fixed point on the target."""
    if not lattice.smooth_vertices(p):
        raise NoSmoothVertex("target polygon has no smooth vertex")


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
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    _require_smooth_vertex(p)
    dom, dom_denom = _concave_values(omega, k_max)
    target, denom, _vecs = _ensure_table(p, k_max)
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
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    _require_smooth_vertex(p)
    dom, dom_denom = _concave_values(omega, k_max)
    target, denom, _vecs = _ensure_table(p, k_max)
    # the ratio is target[k] / dom[k] times the constant dom_denom / denom;
    # the integer pairs (target[k], dom[k]) are compared by cross-multiplying
    best: Optional[tuple[int, int]] = None
    argmin = 0
    for k in range(1, k_max + 1):
        if dom[k] <= 0:
            continue
        if best is None or target[k] * best[1] < best[0] * dom[k]:
            best, argmin = (target[k], dom[k]), k
    if best is None:
        raise ValueError("domain has no positive capacity up to k_max")
    stable = argmin <= max(1, k_max // 2)
    return XiWidth(value=Fraction(best[0] * dom_denom, best[1] * denom), argmin_k=argmin,
                   k_max=k_max, stable=stable)


def gromov_width_bound(p: MomentPolygon, k_max: int) -> XiWidth:
    """Upper bound for the Gromov width via the ball capacity ratios."""
    return xi_width(p, ConcaveDomain.ball(1), k_max)


def width_bound_check(p: MomentPolygon, k_max: int) -> tuple[Fraction, Fraction, bool]:
    """(Gromov width bound, lattice width, bound holds).

    The capacity bound for balls never exceeds the lattice width of the
    moment polygon; the boolean reports this comparison for the horizon.
    """
    gw = gromov_width_bound(p, k_max).value
    lw, _direction = lattice.lattice_width(p)
    return gw, lw, gw <= lw
