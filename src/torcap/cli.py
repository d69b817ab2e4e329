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

import re
import sys
from fractions import Fraction
from importlib import import_module

from . import corpus
from .errors import BoxTooSmall, IterationLimit, ParseError, TorcapError

_FRACTION_RE = re.compile(r"-?\d+(/[1-9]\d*)?\Z")


def _parse_fraction(token: str, where: str) -> Fraction:
    """The fraction `token`; `where` names its place in the input."""
    if not _FRACTION_RE.match(token):
        raise ParseError(f"{where}: bad fraction {token!r}")
    try:
        return Fraction(token)
    except ValueError as exc:
        # more digits than Python converts from a string
        raise ParseError(str(exc)) from None


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


def parse_polygon(text: str):
    """The `lattice.MomentPolygon` with the vertices of `text`."""
    from ._polygon import MomentPolygon

    return MomentPolygon(tuple(parse_points(text)))


def parse_chain(text: str):
    """The `ech.ConcaveDomain` under the chain of `text`."""
    from .ech import ConcaveDomain

    return ConcaveDomain(tuple(parse_points(text)))


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc)) from None


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _row(items, decimal: bool) -> str:
    cells = []
    for it in items:
        cells.append(_fmt(it) if isinstance(it, Fraction) else str(it))
        if decimal and isinstance(it, Fraction):
            cells.append(f"{float(it):.6f}")
    return "\t".join(cells)


def _echo_sequence(seq, k_max: int, decimal: bool) -> None:
    for k in range(k_max + 1):
        print(_row((k, seq[k]), decimal))


# Each command takes the parsed arguments and returns its exit code, or None
# for 0.  It imports the torcap modules it runs, which `_MODULES` lists.


def capacities_cmd(args) -> None:
    """Algebraic capacities of the surface polarized by POLYGON."""
    from . import _table

    p = parse_polygon(_read(args.polygon))
    _echo_sequence(_table.alg_capacities(p, args.k_max), args.k_max, args.decimal)


def ech_ellipsoid_cmd(args) -> None:
    """Capacities of the ellipsoid with areas A and B."""
    from . import ech

    seq = ech.ech_ellipsoid_capacities(
        _parse_fraction(args.a, "argument A"), _parse_fraction(args.b, "argument B"), args.k_max
    )
    _echo_sequence(seq, args.k_max, args.decimal)


def ech_convex_cmd(args) -> None:
    """Capacities of the convex toric domain over POLYGON."""
    from . import capacities

    p = parse_polygon(_read(args.polygon))
    _echo_sequence(capacities.ech_convex_capacities(p, args.k_max), args.k_max, args.decimal)


def ech_concave_cmd(args) -> None:
    """Capacities of the concave toric domain under CHAIN."""
    from . import ech

    omega = parse_chain(_read(args.chain))
    _echo_sequence(ech.ech_concave_capacities(omega, args.k_max), args.k_max, args.decimal)


def embed(args) -> int:
    """Capacity test for embedding the domain under CHAIN into POLYGON's surface."""
    from . import capacities

    omega = parse_chain(_read(args.chain))
    p = parse_polygon(_read(args.polygon))
    verdict = capacities.embedding_verdict(omega, p, args.k_max)
    if verdict.compatible:
        print(f"COMPATIBLE\tk_max={args.k_max}")
        return 0
    print(_row((
        f"OBSTRUCTED\tk={verdict.first_violation}",
        verdict.domain_capacity,
        verdict.target_capacity,
    ), args.decimal))
    return 1


def width(args) -> None:
    """Best capacity ratio for scaling a concave domain into POLYGON's surface."""
    from . import capacities

    p = parse_polygon(_read(args.polygon))
    omega = parse_chain(_read(args.xi)) if args.xi else capacities.ConcaveDomain.ball(1)
    res = capacities.xi_width(p, omega, args.k_max)
    print(_row((res.value, f"k={res.argmin_k}",
                "stable" if res.stable else "unstable"), args.decimal))


def lattice_width_cmd(args) -> None:
    """Lattice width of POLYGON and a minimizing direction."""
    from . import lattice

    p = parse_polygon(_read(args.polygon))
    w, direction = lattice.lattice_width(p)
    print(_row((w, f"{direction[0]},{direction[1]}"), args.decimal))


def transform_ip(args) -> None:
    """Iterate the isoparametric transform of a divisor until it is nef."""
    from . import toric

    p = parse_polygon(_read(args.polygon))
    y = toric.build_surface(p)
    try:
        values = tuple(Fraction(int(c)) for c in args.coeffs.split(","))
    except ValueError:
        raise ParseError(f"bad coefficient list {args.coeffs!r}")
    d = toric.divisor(y, values)
    out = toric.iterate_ip(y, d)
    print("\t".join(_fmt(c) for c in out.coeffs))


def resolve(args) -> None:
    """Rays of the smooth refinement of POLYGON's normal fan."""
    from . import toric

    p = parse_polygon(_read(args.polygon))
    y = toric.resolve(toric.build_surface(p))
    for vx, vy in y.rays:
        print(f"{vx}\t{vy}")


def _verify_rows(k_max: int, pair) -> int:
    """One row per k comparing the two values pair(k), or a SKIP row when
    the box is too small for that index.  Exit code 0 only when every index
    was checked and matched; otherwise report the counts on stderr, leaving
    the rows on stdout as they are."""
    checked, skipped, ok = 0, 0, True
    for k in range(k_max + 1):
        try:
            left, right = pair(k)
        except BoxTooSmall as exc:
            print(f"k={k}\tSKIP\t{exc}")
            skipped += 1
            continue
        checked += 1
        match = left == right
        ok = ok and match
        print(_row((f"k={k}", left, right, "OK" if match else "MISMATCH"), False))
    if ok and skipped == 0:
        return 0
    print(f"checked {checked}, skipped {skipped}", file=sys.stderr)
    return 1


def verify_calg(args) -> int:
    """Cross check capacities against the exhaustive boxed scan."""
    from . import _table, oracle

    p = parse_polygon(_read(args.polygon))
    seq = _table.alg_capacities(p, args.k_max)
    return _verify_rows(args.k_max, lambda k: (seq[k], oracle.brute_calg(p, k, args.box)))


def verify_sw(args) -> int:
    """Check the index-constrained infimum against the section-constrained one."""
    from . import oracle

    p = parse_polygon(_read(args.polygon))
    return _verify_rows(args.k_max, lambda k: oracle.sw_equals_nef(p, k, args.box)[:2])


def corpus_cmd(args) -> None:
    """List the built-in polygons, or print one as polygon text."""
    if args.name is None:
        for key in corpus.CORPUS:
            print(key)
        return
    if args.name not in corpus.CORPUS:
        raise ParseError(f"unknown corpus polygon {args.name!r}")
    for x, y in corpus.CORPUS[args.name].vertices:
        print(f"{_fmt(x)} {_fmt(y)}")


def _at_least(least: int):
    """Integer argument type bounded below; a violation is a parse error."""
    def integer(text: str) -> int:
        import argparse

        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={least}")
        return value

    return integer


def _command(run, *positionals: str, min_k_max: int | None = None, decimal: bool = False,
             options=()):
    """Builder of a subcommand calling run(args), with run's docstring as its
    help; min_k_max is the least `--k-max` allowed, None for no such option,
    and `options` holds (name, add_argument keywords) pairs added last."""
    def build(commands, name: str, argv) -> None:
        cmd = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        cmd.set_defaults(run=run)
        for metavar in positionals:
            cmd.add_argument(metavar.lower(), metavar=metavar)
        if min_k_max is not None:
            cmd.add_argument("--k-max", type=_at_least(min_k_max), default=100,
                             help="Largest capacity index to compute (default: %(default)s).")
        if decimal:
            cmd.add_argument("--decimal", action="store_true",
                             help="Append decimal approximations to exact values.")
        for option, keywords in options:
            cmd.add_argument(option, **keywords)

    return build


def _group(doc: str, table):
    """Builder of a command group whose subcommands are built by `table`."""
    def build(commands, name: str, argv) -> None:
        _add_commands(commands.add_parser(name, help=doc, description=doc, allow_abbrev=False),
                      table, argv)

    return build


def _add_commands(parser, table, argv) -> None:
    """Give `parser` the subcommands of `table`: only the one that argv[0]
    names, for the arguments after it, or all of them when argv[0] names
    none (help, an unknown command, no command).  Help and parse errors read
    the same either way."""
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    if argv and argv[0] in table:
        table[argv[0]](commands, argv[0], argv[1:])
    else:
        for name, build in table.items():
            build(commands, name, [])


_VERIFY_OPTIONS = (
    ("--k-max", dict(type=_at_least(0), default=5,
                     help="Largest capacity index to check (default: %(default)s).")),
    ("--box", dict(type=_at_least(0), default=6,
                   help="Brute force coefficient bound (default: %(default)s).")),
)

# the subcommand builders, in help order
_COMMANDS = {
    "capacities": _command(capacities_cmd, "POLYGON", min_k_max=0, decimal=True),
    "ech": _group("ECH capacity sequences of toric domains.", {
        "ellipsoid": _command(ech_ellipsoid_cmd, "A", "B", min_k_max=0, decimal=True),
        "convex": _command(ech_convex_cmd, "POLYGON", min_k_max=0, decimal=True),
        "concave": _command(ech_concave_cmd, "CHAIN", min_k_max=0, decimal=True),
    }),
    "embed": _command(embed, "CHAIN", "POLYGON", min_k_max=1, decimal=True),
    "width": _command(width, "POLYGON", min_k_max=1, decimal=True, options=(
        ("--xi", dict(help="Chain file for the domain to scale (default: unit ball).")),)),
    "lattice-width": _command(lattice_width_cmd, "POLYGON", decimal=True),
    "transform-ip": _command(transform_ip, "POLYGON", options=(
        ("--coeffs", dict(required=True,
                          help="Comma separated integer divisor coefficients, one per edge.")),)),
    "resolve": _command(resolve, "POLYGON"),
    "verify-calg": _command(verify_calg, "POLYGON", options=_VERIFY_OPTIONS),
    "verify-sw": _command(verify_sw, "POLYGON", options=_VERIFY_OPTIONS),
    "corpus": _command(corpus_cmd, options=(("name", dict(metavar="NAME", nargs="?")),)),
}


# the torcap modules each command runs, by the words that name it
_MODULES = {
    "capacities": ("_table",),
    "ech ellipsoid": ("ech",),
    "ech convex": ("capacities",),
    "ech concave": ("ech",),
    "embed": ("capacities",),
    "width": ("capacities",),
    "lattice-width": ("lattice",),
    "transform-ip": ("toric",),
    "resolve": ("toric",),
    "verify-calg": ("_table", "oracle"),
    "verify-sw": ("oracle",),
    "corpus": ("lattice",),
}


def _import_modules(argv) -> None:
    """Import the torcap modules of the command that argv names, if any.
    This runs before argparse is imported and the parser built, so that the
    transient memory of compiling the modules does not add to theirs at the
    peak."""
    names = _MODULES.get(" ".join(argv[:2])) or _MODULES.get(" ".join(argv[:1]), ())
    for name in names:
        import_module(f".{name}", __package__)


def _parser(prog: str, argv) -> argparse.ArgumentParser:
    """The parser of the command line argv."""
    import argparse

    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Exact capacities of toric surfaces and embedding obstructions.")
    _add_commands(parser, _COMMANDS, argv)
    return parser


def cli(args=None, prog_name: str = "torcap") -> None:
    """Run the command line `args` (default: sys.argv[1:]).  Always ends in
    SystemExit with the exit code of the module docstring; a command line
    that does not parse exits 2."""
    args = sys.argv[1:] if args is None else list(args)
    _import_modules(args)
    parsed = _parser(prog_name, args).parse_args(args)
    try:
        code = parsed.run(parsed)
        # a failed write, say to a closed pipe, is reported here too
        sys.stdout.flush()
    except (TorcapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an iteration limit is an internal budget, not bad input
        code = 3 if isinstance(exc, IterationLimit) else 2
    sys.exit(code or 0)


def main():
    cli()


if __name__ == "__main__":
    main()
