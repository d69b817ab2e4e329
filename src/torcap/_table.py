"""The algebraic capacity table: one cached search per polygon, over the
polygon core alone, so it loads no `lattice` or `ech` code, and `toric`
only in `calg_witness`, for the divisor it returns.  `capacities`
re-exports its public names as the same objects; the private ones, the
search `_compute_table` and its cache `_TABLES`, live here alone, so tests
read and patch them here."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from ._base import CACHE_SIZE, CapacitySequence, _check_index
from ._polygon import MomentPolygon, count_points, edge_lengths, line_count, line_cuts

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
    cone s of least determinant: a_s = 0, a_{s+1} is the least t < det_s
    that holds an optimal divisor, and within it the coefficients
    a_{s+2}, ..., a_{s-1} are the lexicographically smallest optimal ones.
    On a smooth cone the gauge is a_s = a_{s+1} = 0.
    """
    from .toric import TorusDivisor

    values, denom, vecs = _ensure_table(p, k)
    return Fraction(values[k], denom), TorusDivisor(tuple(Fraction(c) for c in vecs[k]))


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


def _edge_count(cuts, coeffs, j: int, c: int) -> int:
    """`line_count(cuts, coeffs, c)` for the line <m, v_j> = -c of ray j,
    cuts = line_cuts(v_j, rays, others) with others the rays but j in order,
    when coeffs with coeffs[j] = c is nef: then its points are those of edge
    j, which the cuts of rays j-1 and j+1 end, with fixed signs."""
    n = len(coeffs)
    (_, g0, d0), (_, g1, d1) = cuts[j - 1], cuts[j % (n - 1)]
    return (c * g0 - coeffs[j - 1]) // d0 + (coeffs[(j + 1) % n] - c * g1) // d1 + 1


def _compute_table(p: MomentPolygon, k_max: int) -> _Table:
    """(values, denom, witnesses): for every capacity index k up to k_max,
    the capacity values[k] / denom and the coefficient vector witnesses[k]
    of an optimal divisor.

    The surface is that of p's inner normal fan p._normals, which p's
    constructor has checked to be complete, with row constants p._d, p._e.
    Everything is read off p's integer view P' = p._scale * p: the
    polarization has support number -<v_i, x> at a vertex x of edge i, and it
    pairs with the boundary curve D_i in the lattice length of edge i, both
    over p._scale.

    Every value is at most the bound, the value of m P0: P0 = P' / g, g the
    gcd of p._scale and the support numbers of P', and m the least multiple
    with k_max + 1 sections.  For g = 1, P0 = P' is a lattice polygon, and by
    Pick's formula m P' has (area2 m^2 + L m) / 2 + 1 lattice points, area2
    twice the area of P' and L its lattice perimeter.  For g > 1,
    `count_points` sums the rows of m P0, whose support numbers are m / g
    times those of P'.

    One bounded depth-first search serves all indices at once.  Divisors are
    taken once per linear equivalence class, in a gauge fixed at the first
    cone s of least determinant.  v_s is primitive, so a linear function
    sets a_s = 0, and those that vanish on v_s shift a_{s+1} by multiples of
    det_s: each class has one vector with a_s = 0 and 0 <= a_{s+1} < det_s.
    a_{s+1} runs over these in order, and the remaining coefficients are set
    in cyclic order s+2, ..., s-1.  Nefness is local on a complete simplicial
    surface (D nef iff D.D_i >= 0 for every boundary curve), so each row is
    checked as soon as its three coefficients are set, and it floors the next
    coefficient: a level stops once its value, the next floor's and the least
    rest pass the value bound.  The level of the last coefficient but one
    runs the leaf runs of the last inline; a run starts only when rows s-2,
    s-1, s and the bound leave the last coefficient a range.  On a triangle
    that level is the gauge coefficient a_{s+1}, taken at its one value.
    Each feasible vector updates all indices its section count covers.  That
    count is carried, and no row is scanned: it starts at 1 on the zero
    vector, whose section polytope is the origin, and a unit move of one
    coefficient adds or removes the lattice points of one line, cut once
    per table for each coefficient that moves: all but a_s.  Where the
    coefficient's row is negative the line holds no point; on a nef vector
    its neighbours' cuts count it, by `_edge_count`; else `line_count` does.
    Each gauge class moves coefficient s+1.  The first leaf run since
    level l was called restores the checkpoint of level l, the first leaf
    vector under its last call, nef and equal below l-1, raises coefficients
    from s-1 down, lowers them after, and checkpoints levels l, ..., n-2.
    Later runs only raise the last two, a_{s-1} before a_{s-2}, which keeps
    every row but s-1 nonnegative: by the floor lemma at the gauge loop
    below, no level's floor falls as its coefficient rises.
    """
    rays = p._normals
    n = len(rays)
    # pairing of each boundary divisor with the polarization; positive by
    # ampleness, so the objective is a positive linear form
    lengths = edge_lengths(p)
    # the pairings lengths[i] / p._scale over their least common denominator
    g_len = math.gcd(p._scale, *lengths)
    denom = p._scale // g_len
    iweights = tuple(w // g_len for w in lengths)

    # rotate so that the gauge cone is (v[0], v[1]), with the fan's row
    # constants d and e: nef row j scaled by d[j-1] * d[j] reads
    # b[j-1] d[j] - b[j] e[j] + b[j+1] d[j-1] >= 0
    s = p._d.index(min(p._d))
    v = rays[s:] + rays[:s]
    w = iweights[s:] + iweights[:s]
    d = p._d[s:] + p._d[:s]
    e = p._e[s:] + p._e[:s]

    b = [0] * n
    q, last = n - 2, n - 1
    wl, el, dl = w[last], e[last], d[last]
    # a unit move of coefficient j adds or removes the points of its line;
    # the leaf runs inline `_edge_count` on lines n-2 and n-1, where the cut
    # of ray 0 reads b[0] = 0, the gauge.  Coefficient 0 never moves, so ray
    # 0 has no line
    lines = [None] + [line_cuts(v[j], v, [i for i in range(n) if i != j]) for j in range(1, n)]
    line_q, line_last = lines[q], lines[last]
    (_, gq0, dq0), (_, gq1, dq1) = line_q[q - 1], line_q[q]
    (_, g0, d0), (_, g1, d1) = line_last[-1], line_last[0]
    # h counts the section polytope of hb, the zero vector's at first; nef
    # is set only while hb is nef
    hb, h, nef = [0] * n, 1, True

    def move(i: int, c: int) -> None:
        """Move hb[i] to c one unit at a time, carrying h.  A raise lifts
        rows i-1 and i+1 and lowers row i, r - hb[i] e[i]: where that row is
        negative, line i holds no point and hb is not nef.  `_edge_count`
        counts the other raises of a nef hb, `line_count` the rest."""
        nonlocal h, nef
        x, cuts, ei = hb[i], lines[i], e[i]
        r = hb[i - 1] * d[i] + hb[(i + 1) % n] * d[i - 1]
        while x < c:
            x += 1
            hb[i] = x
            if x * ei > r:
                nef = False
            else:
                h += _edge_count(cuts, hb, i, x) if nef else line_count(cuts, hb, x)
        while x > c:
            h -= line_count(cuts, hb, x)
            nef = False
            x -= 1
            hb[i] = x

    # value bound: the least multiple m of the support numbers of P0 = P' / g
    # with k_max + 1 sections, g their gcd with p._scale
    supports = [-(u[0] * x + u[1] * y) for u, (x, y) in zip(rays, p._ipts)]
    g = math.gcd(p._scale, *supports)
    if g == 1:
        # m P' has (area2 m^2 + L m) / 2 + 1 lattice points
        area2, perimeter = p._area2, sum(lengths)
        m = 1
        while m * (area2 * m + perimeter) < 2 * k_max:
            m += 1
    else:
        # m P0 has support numbers m a / g; its rows count its points
        m = 0
        while count_points(rays, [m * a // g for a in supports]) <= k_max:
            m += 1
    bound = m * sum(a // g * wi for a, wi in zip(supports, iweights))

    # the optimum per index; every vector searched has value at most bound
    vals = [bound + 1] * (k_max + 1)
    vecs: list[Optional[tuple[int, ...]]] = [None] * (k_max + 1)

    def search(j: int, partial: int, c: int) -> None:
        # b[j] runs upward from c, the least value that lows[j] and row j-1 allow
        nonlocal bound, h, nef, fresh
        if fresh > j:
            fresh = j
        wj, wn, rest = w[j], w[j + 1], rest_min[j + 2]
        # b[1] is the gauge coefficient, taken at its one value; past the
        # range, the value and the least rest pass the bound
        for c in range(c, c + 1 if j == 1 else (bound - partial - rest_min[j + 1]) // wj + 1):
            value = partial + c * wj
            # least b[j+1] that keeps row j nonnegative; by the floor lemma
            # it does not fall as c rises, so the first c over the bound ends j
            lo = -((b[j - 1] * d[j] - c * e[j]) // d[j - 1])
            if lo < lows[j + 1]:
                lo = lows[j + 1]
            if value + lo * wn + rest > bound:
                return
            b[j] = c
            if j < q:
                search(j + 1, value, lo)
                continue
            # the leaf run: b[last] from lo, which keeps rows q and 0
            # nonnegative, up to hi, where the bound or row last, c d[last] -
            # b[last] e[last] as b[0] = 0, caps it; by the floor lemma that
            # row caps it only where e[last] > 0
            hi = (bound - value) // wl
            if el > 0:
                cap = c * dl // el
                if cap < hi:
                    hi = cap
            if lo > hi:
                continue
            if fresh < n:
                # the first run since level fresh was called
                b[last] = lo
                if fresh > 1:
                    hb[:], h = cp[fresh]
                    nef = True
                first = max(fresh - 1, 2)
                for i in range(last, first - 1, -1):
                    if hb[i] < b[i]:
                        move(i, b[i])
                for i in range(first, n):
                    if hb[i] > b[i]:
                        move(i, b[i])
                nef = True
                cp[fresh:last] = [(tuple(hb), h)] * (last - fresh)
                fresh = n
            else:
                # from the last run's first vector, whose c and lo were no
                # larger; only row n-1 can turn negative, and then line n-1
                # holds no point and line n-2 is not an edge
                while hb[last] < lo:
                    hb[last] = y = hb[last] + 1
                    if y * el <= hb[q] * dl:
                        h += (y * g0 - hb[q]) // d0 + (-y * g1) // d1 + 1
                while hb[q] < c:
                    hb[q] = x = hb[q] + 1
                    h += (line_count(line_q, hb, x) if hb[last] * el > x * dl else
                          (x * gq0 - hb[q - 1]) // dq0 + (hb[last] - x * gq1) // dq1 + 1)
            # the first vector's count is h; raising b[last] to y adds the
            # points of edge n-1, as every vector of the run is nef
            count, value = h, value + lo * wl
            for y in range(lo + 1, hi + 2):
                # the per-index optima are nondecreasing, and a later vector
                # wins only with a strictly smaller value, so the entries this
                # vector improves end at its count
                k = count - 1 if count <= k_max else k_max
                if k >= 0 and value < vals[k]:
                    b[last] = y - 1
                    vec = tuple(b)
                    while k >= 0 and value < vals[k]:
                        vals[k], vecs[k] = value, vec
                        k -= 1
                    if count > k_max:
                        # feasible at the top index: nothing more expensive
                        # can improve any entry of the table
                        bound = value
                        break
                value += wl
                count += (y * g0 - c) // d0 + (-y * g1) // d1 + 1

    # the checkpoint (hb, h) of each level; no level was called yet
    cp = [None] * n
    fresh = n
    # the cone vertex m_0 = r1 (v[0][1], -v[0][0]) / d[0], on the lines
    # <m, v[0]> = 0 and <m, v[1]> = -r1, lies in the section polytope of
    # every nef divisor of class r1, so b[l] >= lows[l] = ceil(X[l]), X[l] =
    # -<m_0, v[l]> = r1 det(v[0], v[l]) / d[0]; for l = 2 and l = n-1 these
    # are the floors that rows 1 and 0 give.
    # The floor lemma: X is the divisor of a linear function, so every row
    # vanishes on it, as e[i] v[i] = d[i] v[i-1] + d[i-1] v[i+1].  A row rises
    # with b[i-1] and b[i+1], and where e[i] <= 0 it does not fall as b[i]
    # rises, so such a row holds on every b >= X, as every searched vector
    # is.  Hence row j's floor on b[j+1] rises with b[j] where e[j] > 0 and
    # is at most lows[j+1] elsewhere, so no floor lo falls as b[j] rises, and
    # row n-1 caps b[n-1] only where e[n-1] > 0
    dets = [v[0][0] * vy - v[0][1] * vx for vx, vy in v]
    for r1 in range(d[0]):
        b[1] = r1
        move(1, r1)
        lows = [-(-r1 * t // d[0]) for t in dets]
        # least possible contribution of the coefficients from index j on
        rest_min = [0] * (n + 1)
        for j in range(last, 1, -1):
            rest_min[j] = rest_min[j + 1] + w[j] * lows[j]
        search(1, 0, r1)
    # search holds itself through its cell; cut that cycle, or gc must free the build
    search = None
    if None in vecs:
        # a bug, not a budget: the bound is attained by a multiple of the
        # polarization, whose gauge representative lies in the search region
        raise RuntimeError("no optimal vector found")
    # undo the rotation: b[j] is the coefficient of ray s + j
    return vals, denom, [vec[n - s:] + vec[:n - s] for vec in vecs] if s else vecs


def alg_capacities(p: MomentPolygon, k_max: int) -> CapacitySequence:
    """c_0, ..., c_k_max, read from one capacity table."""
    values, denom, _vecs = _ensure_table(p, k_max)
    return CapacitySequence(tuple(Fraction(v, denom) for v in values[: k_max + 1]))
