"""Reference values computed apart from torcap.

Nothing here imports torcap.  The output checks compare the program against
these closed forms (Hutchings, "Quantitative embedded contact homology",
JDG 2011) or against properties every capacity must have.

- Ellipsoid E(a, b): c_k is the (k+1)-th smallest a*m + b*n, m, n >= 0.
- Polydisk P(a, b): c_k = min{a*m + b*n : (m+1)(n+1) >= k+1}.
- Ball B(c) = E(c, c).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


def ellipsoid(a, b, k_max: int) -> list[Fraction]:
    """c_0..c_k_max of E(a, b), by merging the rows m = 0, 1, ... in a heap."""
    a, b = Fraction(a), Fraction(b)
    out: list[Fraction] = []
    # heap of (value, m, n); each row m starts at n = 0 and advances in n
    heap = [(Fraction(0), 0, 0)]
    while len(out) <= k_max:
        value, m, n = heapq.heappop(heap)
        out.append(value)
        heapq.heappush(heap, (value + b, m, n + 1))
        if n == 0:
            heapq.heappush(heap, (value + a, m + 1, 0))
    return out


def polydisk(a, b, k_max: int) -> list[Fraction]:
    """c_0..c_k_max of P(a, b)."""
    a, b = Fraction(a), Fraction(b)
    out = []
    for k in range(k_max + 1):
        # for each m the least n with (m+1)(n+1) >= k+1
        out.append(min(a * m + b * (-(-(k + 1) // (m + 1)) - 1) for m in range(k + 1)))
    return out


def ball_multiplier(k: int) -> int:
    """c_k(B(1)): the d with d(d+1)/2 <= k < (d+1)(d+2)/2."""
    return (math.isqrt(8 * k + 1) - 1) // 2


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def strict_hull(points) -> list[tuple]:
    """Counterclockwise strict convex hull; [] when the points span no area."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return []
    lower: list = []
    upper: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else []


def is_smooth_vertex(vertices, i: int) -> bool:
    """The primitive edge directions at vertex i span Z^2 (integral vertices)."""
    n = len(vertices)
    v, nxt, prv = vertices[i], vertices[(i + 1) % n], vertices[(i - 1) % n]
    d1 = (int(nxt[0] - v[0]), int(nxt[1] - v[1]))
    d2 = (int(prv[0] - v[0]), int(prv[1] - v[1]))
    g1, g2 = math.gcd(*d1), math.gcd(*d2)
    return abs(d1[0] * d2[1] - d1[1] * d2[0]) == g1 * g2


def lattice_width(vertices) -> Fraction:
    """Lattice width by scanning every direction that could beat the axes.

    If the width along l is at most w0 (the smaller axis width), then
    |l.e1|, |l.e2| <= w0 for two edge vectors e1, e2 from vertex 0, and
    solving for l bounds |l|_inf by w0 * (|e1|_inf + |e2|_inf) / |det(e1, e2)|.
    """
    vs = [(Fraction(x), Fraction(y)) for x, y in vertices]

    def width(l):
        vals = [l[0] * x + l[1] * y for x, y in vs]
        return max(vals) - min(vals)

    w0 = min(width((1, 0)), width((0, 1)))
    e1 = (vs[1][0] - vs[0][0], vs[1][1] - vs[0][1])
    e2 = (vs[-1][0] - vs[0][0], vs[-1][1] - vs[0][1])
    det = abs(e1[0] * e2[1] - e1[1] * e2[0])
    bound = math.floor(w0 * (max(map(abs, e1)) + max(map(abs, e2))) / det)
    best = w0
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) != (0, 0) and math.gcd(a, b) == 1:
                best = min(best, width((a, b)))
    return best


def area(vertices) -> Fraction:
    n = len(vertices)
    return abs(sum(Fraction(vertices[i][0]) * vertices[(i + 1) % n][1]
                   - Fraction(vertices[(i + 1) % n][0]) * vertices[i][1]
                   for i in range(n))) / 2


def chain_area(chain) -> Fraction:
    """Area under a chain from (0, b) to (a, 0), closed by the axes."""
    return area([(Fraction(0), Fraction(0))] + list(chain))


def chain_inscribed_ellipsoid(chain) -> tuple[Fraction, Fraction]:
    """Legs of the largest triangle cut off by the line of one chain edge.

    The graph is convex, so it lies above each of its edge lines, and the
    triangle under such a line sits inside the domain.
    """
    best = None
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        slope = (y2 - y1) / (x2 - x1)
        y0 = y1 - slope * x1  # meets the y axis
        x0 = -y0 / slope      # meets the x axis
        if best is None or x0 * y0 > best[0] * best[1]:
            best = (x0, y0)
    return best


def is_monotone(values) -> bool:
    return all(u <= v for u, v in zip(values, values[1:]))
