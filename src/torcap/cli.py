"""Command line interface.

Polygons and concave chains are read from text files: one vertex per line as
two whitespace separated fractions (`3/2 1`), `#` starts a comment, blank
lines are ignored.  Numeric output is tab separated and exact; `--decimal`
appends an approximate column.

Exit codes: 0 success (or compatible), 1 obstructed, or a verification with
a mismatch or a skipped index, 2 bad input, 3 an internal iteration limit
reached on valid input.  A verification that does not exit 0 prints
`checked N, skipped M` on stderr.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction

import click

from . import capacities, corpus, lattice, toric
from .capacities import ConcaveDomain
from .errors import BoxTooSmall, IterationLimit, ParseError, TorcapError
from .lattice import MomentPolygon

_FRACTION_RE = re.compile(r"-?\d+(/[1-9]\d*)?\Z")


def _parse_fraction(token: str, where: str) -> Fraction:
    """The fraction `token`; `where` names its place in the input."""
    if not _FRACTION_RE.match(token):
        raise ParseError(f"{where}: bad fraction {token!r}")
    return Fraction(token)


def parse_points(text: str) -> list[tuple[Fraction, Fraction]]:
    pts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two coordinates, got {len(tokens)}")
        x = _parse_fraction(tokens[0], f"line {lineno}")
        y = _parse_fraction(tokens[1], f"line {lineno}")
        pts.append((x, y))
    if not pts:
        raise ParseError("no vertices found")
    return pts


def parse_polygon(text: str) -> MomentPolygon:
    return MomentPolygon(tuple(parse_points(text)))


def parse_chain(text: str) -> ConcaveDomain:
    return ConcaveDomain(tuple(parse_points(text)))


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _row(items, decimal: bool) -> str:
    cells = []
    for it in items:
        cells.append(_fmt(it) if isinstance(it, Fraction) else str(it))
        if decimal and isinstance(it, Fraction):
            cells.append(f"{float(it):.6f}")
    return "\t".join(cells)


def handle_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (TorcapError, OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            # an iteration limit is an internal budget, not bad input
            sys.exit(3 if isinstance(exc, IterationLimit) else 2)

    return wrapper


def _echo_sequence(seq, k_max: int, decimal: bool) -> None:
    for k in range(k_max + 1):
        click.echo(_row((k, seq[k]), decimal))


def _k_max_option(least: int):
    return click.option("--k-max", default=100, show_default=True, type=click.IntRange(min=least),
                        help="Largest capacity index to compute.")


def _decimal_option(f):
    return click.option("--decimal", is_flag=True,
                        help="Append decimal approximations to exact values.")(f)


@click.group()
def cli():
    """Exact capacities of toric surfaces and embedding obstructions."""


@cli.command("capacities")
@click.argument("polygon", type=str)
@_k_max_option(0)
@_decimal_option
@handle_errors
def capacities_cmd(polygon, k_max, decimal):
    """Algebraic capacities of the surface polarized by POLYGON."""
    p = parse_polygon(_read(polygon))
    _echo_sequence(capacities.alg_capacities(p, k_max), k_max, decimal)


@cli.group()
def ech():
    """ECH capacity sequences of toric domains."""


@ech.command("ellipsoid")
@click.argument("a", type=str)
@click.argument("b", type=str)
@_k_max_option(0)
@_decimal_option
@handle_errors
def ech_ellipsoid_cmd(a, b, k_max, decimal):
    """Capacities of the ellipsoid with areas A and B."""
    seq = capacities.ech_ellipsoid_capacities(
        _parse_fraction(a, "argument A"), _parse_fraction(b, "argument B"), k_max
    )
    _echo_sequence(seq, k_max, decimal)


@ech.command("convex")
@click.argument("polygon", type=str)
@_k_max_option(0)
@_decimal_option
@handle_errors
def ech_convex_cmd(polygon, k_max, decimal):
    """Capacities of the convex toric domain over POLYGON."""
    p = parse_polygon(_read(polygon))
    _echo_sequence(capacities.ech_convex_capacities(p, k_max), k_max, decimal)


@ech.command("concave")
@click.argument("chain", type=str)
@_k_max_option(0)
@_decimal_option
@handle_errors
def ech_concave_cmd(chain, k_max, decimal):
    """Capacities of the concave toric domain under CHAIN."""
    omega = parse_chain(_read(chain))
    _echo_sequence(capacities.ech_concave_capacities(omega, k_max), k_max, decimal)


@cli.command()
@click.argument("chain", type=str)
@click.argument("polygon", type=str)
@_k_max_option(1)
@_decimal_option
@handle_errors
def embed(chain, polygon, k_max, decimal):
    """Capacity test for embedding the domain under CHAIN into POLYGON's surface."""
    omega = parse_chain(_read(chain))
    p = parse_polygon(_read(polygon))
    verdict = capacities.embedding_verdict(omega, p, k_max)
    if verdict.compatible:
        click.echo(f"COMPATIBLE\tk_max={k_max}")
        sys.exit(0)
    click.echo(_row((
        f"OBSTRUCTED\tk={verdict.first_violation}",
        verdict.domain_capacity,
        verdict.target_capacity,
    ), decimal))
    sys.exit(1)


@cli.command()
@click.argument("polygon", type=str)
@click.option("--xi", default=None, help="Chain file for the domain to scale (default: unit ball).")
@_k_max_option(1)
@_decimal_option
@handle_errors
def width(polygon, xi, k_max, decimal):
    """Best capacity ratio for scaling a concave domain into POLYGON's surface."""
    p = parse_polygon(_read(polygon))
    omega = parse_chain(_read(xi)) if xi else ConcaveDomain.ball(1)
    res = capacities.xi_width(p, omega, k_max)
    click.echo(_row((res.value, f"k={res.argmin_k}",
                     "stable" if res.stable else "unstable"), decimal))


@cli.command("lattice-width")
@click.argument("polygon", type=str)
@_decimal_option
@handle_errors
def lattice_width_cmd(polygon, decimal):
    """Lattice width of POLYGON and a minimizing direction."""
    p = parse_polygon(_read(polygon))
    w, direction = lattice.lattice_width(p)
    click.echo(_row((w, f"{direction[0]},{direction[1]}"), decimal))


@cli.command("transform-ip")
@click.argument("polygon", type=str)
@click.option("--coeffs", required=True,
              help="Comma separated integer divisor coefficients, one per edge.")
@handle_errors
def transform_ip(polygon, coeffs):
    """Iterate the isoparametric transform of a divisor until it is nef."""
    p = parse_polygon(_read(polygon))
    y = toric.build_surface(p)
    try:
        values = tuple(Fraction(int(c)) for c in coeffs.split(","))
    except ValueError:
        raise ParseError(f"bad coefficient list {coeffs!r}")
    d = toric.divisor(y, values)
    out = toric.iterate_ip(y, d)
    click.echo("\t".join(_fmt(c) for c in out.coeffs))


@cli.command()
@click.argument("polygon", type=str)
@handle_errors
def resolve(polygon):
    """Rays of the smooth refinement of POLYGON's normal fan."""
    p = parse_polygon(_read(polygon))
    y = toric.resolve(toric.build_surface(p))
    for vx, vy in y.rays:
        click.echo(f"{vx}\t{vy}")


def _exit_verified(checked: int, skipped: int, ok: bool) -> None:
    """Exit 0 only when every index was checked and matched; otherwise
    report the counts on stderr, leaving the rows on stdout as they are."""
    if ok and skipped == 0:
        sys.exit(0)
    click.echo(f"checked {checked}, skipped {skipped}", err=True)
    sys.exit(1)


def _verify_rows(k_max: int, pair) -> None:
    """One row per k comparing the two values pair(k), or a SKIP row when
    the box is too small for that index; then exit by the outcome."""
    checked, skipped, ok = 0, 0, True
    for k in range(k_max + 1):
        try:
            left, right = pair(k)
        except BoxTooSmall as exc:
            click.echo(f"k={k}\tSKIP\t{exc}")
            skipped += 1
            continue
        checked += 1
        match = left == right
        ok = ok and match
        click.echo(_row((f"k={k}", left, right, "OK" if match else "MISMATCH"), False))
    _exit_verified(checked, skipped, ok)


@cli.command("verify-calg")
@click.argument("polygon", type=str)
@click.option("--k-max", default=5, show_default=True, type=click.IntRange(min=0))
@click.option("--box", default=6, show_default=True,
              help="Brute force coefficient bound.")
@handle_errors
def verify_calg(polygon, k_max, box):
    """Cross check capacities against the exhaustive boxed scan."""
    from . import oracle

    p = parse_polygon(_read(polygon))
    seq = capacities.alg_capacities(p, k_max)
    _verify_rows(k_max, lambda k: (seq[k], oracle.brute_calg(p, k, box)))


@cli.command("verify-sw")
@click.argument("polygon", type=str)
@click.option("--k-max", default=5, show_default=True, type=click.IntRange(min=0))
@click.option("--box", default=6, show_default=True,
              help="Brute force coefficient bound.")
@handle_errors
def verify_sw(polygon, k_max, box):
    """Check the index-constrained infimum against the section-constrained one."""
    from . import oracle

    p = parse_polygon(_read(polygon))
    _verify_rows(k_max, lambda k: oracle.sw_equals_nef(p, k, box)[:2])


@cli.command("corpus")
@click.argument("name", required=False)
@handle_errors
def corpus_cmd(name):
    """List the built-in polygons, or print one as polygon text."""
    if name is None:
        for key in corpus.CORPUS:
            click.echo(key)
        return
    if name not in corpus.CORPUS:
        raise ParseError(f"unknown corpus polygon {name!r}")
    for x, y in corpus.CORPUS[name].vertices:
        click.echo(f"{_fmt(x)} {_fmt(y)}")


def main():
    cli()


if __name__ == "__main__":
    main()
