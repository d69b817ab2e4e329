"""Workload inputs, made from a seed, and the checks on their outputs.

Each CLI workload is a fixed list of jobs.  The seed moves every polygon by
an integer translation (capacities are translation invariant, and so is the
work torcap does) or scales every chain by a small integer (capacities scale
with it), and it shuffles the job order.  So every seed runs the same work on
different input files, and the checks know the answer for every seed.

Checks use closed_forms.py only, never a stored copy of torcap's output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Optional

import closed_forms as cf

Point = tuple[F, F]


@dataclass
class Job:
    name: str
    args: list[str]
    check: Callable[[str, int], list[str]]  # (stdout, exit code) -> problems
    files: dict[str, str] = field(default_factory=dict)  # file name -> text
    # a non-ellipsoid chain, whose weight expansion the harness also checks
    chain: Optional[tuple[Point, ...]] = None


def fmt(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def points_text(points) -> str:
    return "".join(f"{fmt(x)} {fmt(y)}\n" for x, y in points)


def pts(*coords) -> tuple[Point, ...]:
    return tuple((F(x), F(y)) for x, y in coords)


def parse_rows(stdout: str) -> list[list[str]]:
    return [line.split("\t") for line in stdout.splitlines() if line.strip()]


def parse_sequence(stdout: str) -> list[F]:
    """`k <TAB> value` rows into values, requiring k = 0, 1, 2, ... in order."""
    values = []
    for i, row in enumerate(parse_rows(stdout)):
        if len(row) != 2 or row[0] != str(i):
            raise ValueError(f"row {i}: unexpected {row!r}")
        values.append(F(row[1]))
    return values


def compare_exact(values, expected) -> list[str]:
    if len(values) != len(expected):
        return [f"{len(values)} rows, expected {len(expected)}"]
    return [f"c_{k} = {v}, closed form {e}"
            for k, (v, e) in enumerate(zip(values, expected)) if v != e][:3]


def compare_sandwich(values, lower: list[list[F]], upper: list[list[F]]) -> list[str]:
    """Every lower sequence <= values <= every upper sequence, values monotone."""
    problems = []
    for k, v in enumerate(values):
        lo = max(seq[k] for seq in lower)
        hi = min(seq[k] for seq in upper)
        if not lo <= v <= hi:
            problems.append(f"c_{k} = {v} outside [{lo}, {hi}]")
    if not cf.is_monotone(values):
        problems.append("not monotone in k")
    if values and values[0] != 0:
        problems.append(f"c_0 = {values[0]}")
    return problems[:3]


def sequence_check(k_max: int, exact=None, lower=(), upper=()) -> Callable:
    """Check for `k <TAB> c_k` output: exact closed form or a sandwich."""

    def check(stdout: str, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            values = parse_sequence(stdout)
        except ValueError as exc:
            return [str(exc)]
        if len(values) != k_max + 1:
            return [f"{len(values)} rows, expected {k_max + 1}"]
        if exact is not None:
            return compare_exact(values, exact)
        return compare_sandwich(values, list(lower), list(upper))

    return check


def translated(points, t) -> tuple[Point, ...]:
    return tuple((x + t[0], y + t[1]) for x, y in points)


def _translations(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)]


# --- alg-sweep -------------------------------------------------------------
# (name, vertices, k_max, closed-form sequences below, closed-form sequences
# above).  Corpus polygons with 4-6 edges, plus corner chops of corpus
# polygons that keep a singular vertex.  Horizons 17, 33 and 65 sit just past
# a power of two; 100 is the CLI default.  Each bound is a domain inside or
# around the polygon, so monotonicity of capacities gives the sandwich.
def _e(a, b):
    return lambda k: cf.ellipsoid(a, b, k)


def _p(a, b):
    return lambda k: cf.polydisk(a, b, k)


ALG_POLYGONS = (
    ("chopped-square", pts((0, 0), (1, 0), (1, F(1, 2)), (F(1, 2), 1), (0, 1)),
     33, [_e(1, 1)], [_p(1, 1)]),
    ("two-chop-square", pts((0, 0), (1, 0), (1, F(1, 2)), (F(1, 2), 1), (F(1, 4), 1),
                            (0, F(3, 4))),
     17, [_e(F(3, 4), F(3, 4))], [_p(1, 1)]),
    ("chopped-triangle", pts((0, 0), (F(2, 3), 0), (F(2, 3), F(1, 3)), (0, 1)),
     65, [_e(F(2, 3), 1)], [_e(1, 1), _p(F(2, 3), 1)]),
    ("f2-polygon", pts((0, 0), (3, 0), (1, 1), (0, 1)),
     100, [_e(3, 1), _p(1, 1)], [_p(3, 1)]),
    ("rect-2x3", pts((0, 0), (2, 0), (2, 3), (0, 3)),
     100, [_p(2, 3)], [_p(2, 3)]),
    # singular-triangle chopped at its smooth vertex (0, 2); singular at (1, 0)
    ("singular-quad", pts((0, 0), (1, 0), (F(1, 2), 1), (0, F(3, 2))),
     65, [_e(1, F(3, 2)), _p(F(1, 2), 1)], [_e(1, 2), _p(1, F(3, 2))]),
    # singular at (3, 1)
    ("singular-pentagon", pts((0, 0), (3, 0), (3, 1), (1, 2), (0, 2)),
     33, [_e(3, 2), _p(3, 1), _p(1, 2)], [_p(3, 2)]),
)


def alg_sweep(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for (name, vertices, k_max, lower, upper), t in zip(
            ALG_POLYGONS, _translations(rng, len(ALG_POLYGONS))):
        lo = [f(k_max) for f in lower]
        hi = [f(k_max) for f in upper]
        # a polygon whose bounds from both sides agree has a closed form
        exact = lo[0] if lo == hi else None
        fname = f"{name}.poly"
        jobs.append(Job(
            name=f"capacities {name} --k-max {k_max}",
            args=["capacities", fname, "--k-max", str(k_max)],
            check=sequence_check(k_max, exact=exact, lower=lo, upper=hi),
            files={fname: points_text(translated(vertices, t))},
        ))
    rng.shuffle(jobs)
    return jobs


# --- ech-concave -----------------------------------------------------------
# (name, chain, k_max).  Many weights at a low horizon, few weights at high
# horizons, and two chains that are not ellipsoids.
ECH_CHAINS = (
    ("ellipsoid-201/200", pts((0, 1), (F(201, 200), 0)), 30),
    ("ball", pts((0, 1), (1, 0)), 80),
    ("bent-3", pts((0, 2), (1, F(1, 2)), (F(3, 2), 0)), 60),
    ("bent-4", pts((0, 3), (1, 1), (2, F(1, 4)), (F(5, 2), 0)), 40),
)
ECH_ELLIPSOID = (1, 2, 400)


def chain_bounds(chain, k_max: int) -> tuple[list, list]:
    """Ellipsoids inside and around the domain under a chain."""
    inner = cf.chain_inscribed_ellipsoid(chain)
    return ([cf.ellipsoid(*inner, k_max)],
            [cf.ellipsoid(chain[-1][0], chain[0][1], k_max)])


def ech_concave(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for name, chain, k_max in ECH_CHAINS:
        s = rng.randint(1, 3)
        chain = tuple((s * x, s * y) for x, y in chain)
        fname = f"{name.replace('/', '_')}.chain"
        if len(chain) == 2:
            check = sequence_check(k_max, exact=cf.ellipsoid(chain[1][0], chain[0][1], k_max))
        else:
            lower, upper = chain_bounds(chain, k_max)
            check = sequence_check(k_max, lower=lower, upper=upper)
        jobs.append(Job(f"ech concave {name} x{s} --k-max {k_max}",
                        ["ech", "concave", fname, "--k-max", str(k_max)],
                        check, {fname: points_text(chain)},
                        chain if len(chain) > 2 else None))
    a, b, k_max = ECH_ELLIPSOID
    s = rng.randint(1, 3)
    jobs.append(Job(f"ech ellipsoid {a} {b} x{s} --k-max {k_max}",
                    ["ech", "ellipsoid", str(s * a), str(s * b), "--k-max", str(k_max)],
                    sequence_check(k_max, exact=cf.ellipsoid(s * a, s * b, k_max))))
    rng.shuffle(jobs)
    return jobs


def weights_problems(weights, chain) -> list[str]:
    """A weight expansion tiles the domain by triangles of area w^2/2."""
    if sum(w * w for w in weights) != 2 * cf.chain_area(chain):
        return [f"sum of squared weights {sum(w * w for w in weights)} "
                f"!= 2 * area {2 * cf.chain_area(chain)}"]
    return []


# --- verify ----------------------------------------------------------------
# (command, name, vertices, k_max, box, closed form of c_k or None).  Boxes
# are large enough that no row is skipped.
VERIFY_JOBS = (
    ("verify-calg", "chopped-square", ALG_POLYGONS[0][1], 10, 8, None),
    ("verify-sw", "chopped-square", ALG_POLYGONS[0][1], 10, 8, None),
    ("verify-calg", "singular-triangle", pts((0, 0), (1, 0), (0, 2)), 10, 8,
     lambda k: cf.ellipsoid(1, 2, k)),
    ("verify-sw", "rect-2x3", pts((0, 0), (2, 0), (2, 3), (0, 3)), 10, 8,
     lambda k: cf.polydisk(2, 3, k)),
    ("verify-calg", "f2-polygon", pts((0, 0), (3, 0), (1, 1), (0, 1)), 10, 8, None),
)


def verify_check(k_max: int, closed: Optional[list[F]]) -> Callable:
    """Every row `k=<k> fast slow OK`, none skipped, whatever the exit code."""

    def check(stdout: str, code: int) -> list[str]:
        rows = parse_rows(stdout)
        if len(rows) != k_max + 1:
            return [f"{len(rows)} rows, expected {k_max + 1}"]
        problems = []
        for k, row in enumerate(rows):
            if len(row) != 4 or row[0] != f"k={k}" or row[3] != "OK":
                problems.append(f"row {k}: {row!r}")
            elif closed is not None and F(row[1]) != closed[k]:
                problems.append(f"row {k}: {row[1]} != closed form {closed[k]}")
        return problems[:3]

    return check


def verify(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for (cmd, name, vertices, k_max, box, closed), t in zip(
            VERIFY_JOBS, _translations(rng, len(VERIFY_JOBS))):
        fname = f"{cmd}-{name}.poly"
        jobs.append(Job(
            f"{cmd} {name} --k-max {k_max} --box {box}",
            [cmd, fname, "--k-max", str(k_max), "--box", str(box)],
            verify_check(k_max, closed(k_max) if closed else None),
            {fname: points_text(translated(vertices, t))},
        ))
    rng.shuffle(jobs)
    return jobs


# --- family-scan -----------------------------------------------------------
# The family is drawn once, from FAMILY_SEED, with a fixed number of polygons
# per edge count: a polygon's cost grows steeply with its edge count and
# varies several-fold within one, so a family drawn per run would make the
# total time depend on the seed.  The run's seed places every polygon by a
# random symmetry of the square and an integer translation (both unimodular,
# so capacities and torcap's work stay the same) and shuffles the order.
FAMILY_SEED = 2026
FAMILY_BOX = 3
FAMILY_EDGES = {3: 12, 4: 12, 5: 12, 6: 12}
FAMILY_K = 16
FAMILY_OVER = F(65, 64)
_SYMMETRIES = (((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)), ((0, 1), (-1, 0)),
               ((-1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((0, -1), (-1, 0)))


def family(family_seed: int = FAMILY_SEED, box: int = FAMILY_BOX,
           edges: dict = FAMILY_EDGES) -> list[tuple[Point, ...]]:
    """Distinct convex lattice polygons in [0, box]^2, `edges[n]` of them
    with n edges, each with a smooth vertex.

    Samples are hulls of 3-8 random points; hulls that span no area, repeat
    an earlier polygon up to translation, have no smooth vertex or have an
    edge count already filled are rejected.
    """
    rng = random.Random(family_seed)
    want = dict(edges)
    seen = set()
    out = []
    for _ in range(1_000_000):
        if not any(want.values()):
            return out
        hull = cf.strict_hull([(rng.randint(0, box), rng.randint(0, box))
                               for _ in range(rng.randint(3, 8))])
        if not want.get(len(hull)):
            continue
        x0 = min(x for x, _ in hull)
        y0 = min(y for _, y in hull)
        key = tuple((x - x0, y - y0) for x, y in hull)
        if key in seen or not any(cf.is_smooth_vertex(key, i) for i in range(len(key))):
            continue
        seen.add(key)
        want[len(hull)] -= 1
        out.append(pts(*key))
    raise RuntimeError(f"box {box} has too few distinct polygons for {edges}")


def placed_family(seed: int) -> list[tuple[Point, ...]]:
    rng = random.Random(seed)
    out = []
    for polygon in family():
        (a, b), (c, d) = rng.choice(_SYMMETRIES)
        t = (rng.randint(-9, 9), rng.randint(-9, 9))
        out.append(tuple(cf.strict_hull(
            [(a * x + b * y + t[0], c * x + d * y + t[1]) for x, y in polygon])))
    rng.shuffle(out)
    return out


def family_problems(vertices, row: dict) -> list[str]:
    """Checks on one polygon of the scan.

    The Gromov width bound gw is at most the lattice width (found here by
    brute force); the ball of capacity gw passes the capacity test; the ball
    of capacity FAMILY_OVER * gw is obstructed at an index k where its
    capacity is FAMILY_OVER * gw * c_k(B(1)) by the closed form, and where
    the target capacity lies between gw * c_k(B(1)) and that value.
    """
    problems = []
    gw, lw = F(row["gw"]), F(row["lw"])
    width = cf.lattice_width(vertices)
    if not (row["holds"] and 0 < gw <= lw == width):
        problems.append(f"gw {gw}, lattice width {lw} (brute force {width}), holds {row['holds']}")
    if not row["at_compatible"]:
        problems.append("ball at the Gromov width bound is obstructed")
    k = row["above_k"]
    if row["above_compatible"] or not 1 <= (k or 0) <= FAMILY_K:
        problems.append(f"ball above the bound not obstructed (k = {k})")
    else:
        dom, target = F(row["above_domain"]), F(row["above_target"])
        ball = cf.ball_multiplier(k)
        if dom != FAMILY_OVER * gw * ball or not gw * ball <= target < dom:
            problems.append(f"at k = {k}: domain {dom}, target {target}, gw {gw}")
    return problems
