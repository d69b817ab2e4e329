"""Command line interface.

Polygons and concave chains are read from text files: one vertex per line as
two whitespace separated fractions (`3/2 1`), `#` starts a comment, blank
lines are ignored.  Numeric output is tab separated and exact; `--decimal`
appends an approximate column.

The grammar is the table `_COMMANDS`, which this module parses itself:
cli() looks up the command words, parses the rest of the line and reads each
POLYGON and CHAIN operand; the command imports the torcap modules it runs.
`-h` or `--help` prints the help page on stdout.

Exit codes: 0 success (or compatible), 1 obstructed, or a verification with
a mismatch or a skipped index, 2 bad input, 3 an internal iteration limit
reached on valid input.  A command line that does not parse exits 2 after a
`usage:` line and an error line on stderr.  A verification that does not
exit 0 prints `checked N, skipped M` on stderr.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

# imported here, not only in the corpus command: bench/run.py reads the import
# time of torcap.corpus from `-X importtime` of `import torcap.cli`, and a
# traced run stops with a KeyError when that import is missing
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
    """The points of `text`, two fractions a line; `#` starts a comment, and
    one leading byte-order mark, as some editors write, is dropped."""
    pts = []
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
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
    """The `_polygon.MomentPolygon` with the vertices of `text`."""
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
            try:
                cells.append(f"{float(it):.6f}")
            except OverflowError:  # too large for a double: rounded exactly, as it is >= 0
                cells.append("{}.{:06d}".format(*divmod(round(it * 10**6), 10**6)))
    return "\t".join(cells)


def _echo_sequence(seq, k_max: int, decimal: bool) -> None:
    for k in range(k_max + 1):
        print(_row((k, seq[k]), decimal))


# Each command takes its operands as positional and its options as keyword
# arguments, and returns its exit code, or None for 0.  cli() passes a POLYGON
# as a `MomentPolygon` and a CHAIN as a `ConcaveDomain`.


def capacities_cmd(polygon, k_max, decimal) -> None:
    """Algebraic capacities of the surface polarized by POLYGON."""
    from . import _table

    _echo_sequence(_table.alg_capacities(polygon, k_max), k_max, decimal)


def ech_ellipsoid_cmd(a, b, k_max, decimal) -> None:
    """Capacities of the ellipsoid with areas A and B."""
    from . import ech

    seq = ech.ech_ellipsoid_capacities(
        _parse_fraction(a, "argument A"), _parse_fraction(b, "argument B"), k_max
    )
    _echo_sequence(seq, k_max, decimal)


def ech_convex_cmd(polygon, k_max, decimal) -> None:
    """Capacities of the convex toric domain over POLYGON."""
    from . import capacities

    _echo_sequence(capacities.ech_convex_capacities(polygon, k_max), k_max, decimal)


def ech_concave_cmd(chain, k_max, decimal) -> None:
    """Capacities of the concave toric domain under CHAIN."""
    from . import ech

    _echo_sequence(ech.ech_concave_capacities(chain, k_max), k_max, decimal)


def embed(chain, polygon, k_max, decimal) -> int:
    """Capacity test for embedding the domain under CHAIN into POLYGON's surface."""
    from . import capacities

    verdict = capacities.embedding_verdict(chain, polygon, k_max)
    if verdict.compatible:
        print(f"COMPATIBLE\tk_max={k_max}")
        return 0
    print(_row((
        f"OBSTRUCTED\tk={verdict.first_violation}",
        verdict.domain_capacity,
        verdict.target_capacity,
    ), decimal))
    return 1


def width(polygon, k_max, decimal, xi) -> None:
    """Best capacity ratio for scaling a concave domain into POLYGON's surface."""
    from . import capacities

    # `--xi=` names no file: the unit ball
    omega = parse_chain(_read(xi)) if xi else capacities.ConcaveDomain.ball(1)
    res = capacities.xi_width(polygon, omega, k_max)
    print(_row((res.value, f"k={res.argmin_k}",
                "stable" if res.stable else "unstable"), decimal))


def lattice_width_cmd(polygon, decimal) -> None:
    """Lattice width of POLYGON and a minimizing direction."""
    from ._polygon import lattice_width

    w, direction = lattice_width(polygon)
    print(_row((w, f"{direction[0]},{direction[1]}"), decimal))


def transform_ip(polygon, coeffs) -> None:
    """Iterate the isoparametric transform of a divisor until it is nef."""
    from . import toric

    y = toric.build_surface(polygon)
    try:
        values = tuple(Fraction(int(c)) for c in coeffs.split(","))
    except ValueError:
        raise ParseError(f"bad coefficient list {coeffs!r}")
    d = toric.divisor(y, values)
    out = toric.iterate_ip(y, d)
    print("\t".join(_fmt(c) for c in out.coeffs))


def resolve(polygon) -> None:
    """Rays of the smooth refinement of POLYGON's normal fan."""
    from . import toric

    y = toric.resolve(toric.build_surface(polygon))
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


def verify_calg(polygon, k_max, box) -> int:
    """Cross check capacities against the exhaustive boxed scan."""
    from . import _table, oracle

    seq = _table.alg_capacities(polygon, k_max)
    return _verify_rows(k_max, lambda k: (seq[k], oracle.brute_calg(polygon, k, box)))


def verify_sw(polygon, k_max, box) -> int:
    """Check the index-constrained infimum against the section-constrained one."""
    from . import oracle

    return _verify_rows(k_max, lambda k: oracle.sw_equals_nef(polygon, k, box)[:2])


def corpus_cmd(name=None) -> None:
    """List the built-in polygons, or print one as polygon text."""
    if name is None:
        for key in corpus.CORPUS:
            print(key)
        return
    if name not in corpus.CORPUS:
        raise ParseError(f"unknown corpus polygon {name!r}")
    for x, y in corpus.CORPUS[name].vertices:
        print(f"{_fmt(x)} {_fmt(y)}")


# Options are (invocation, default, help, least value).  A default of False
# makes a flag, a least value an integer option and a default of `...` an
# option that must be given; any other option takes a string.
_DECIMAL = ("--decimal", False, "Append decimal approximations to exact values.", None)
_K_MAX = "Largest capacity index to compute (default: 100)."
_SEQUENCE = (("--k-max K_MAX", 100, _K_MAX, 0), _DECIMAL)
_FROM_ONE = (("--k-max K_MAX", 100, _K_MAX, 1), _DECIMAL)  # embed and width start at k = 1
_VERIFY = (("--k-max K_MAX", 5, "Largest capacity index to check (default: 5).", 0),
           ("--box BOX", 6, "Brute force coefficient bound (default: 6).", 0))

# The command line grammar, by the words that name each group or command, in
# help order.  A group maps to its help; a command to its function, its
# operands (in brackets when optional) and its options.  The function's
# docstring is the command's help.  cli() reads the operands that `_READERS`
# names, in operand order, from their files (`-` for stdin) by its parsers.
_READERS = {"POLYGON": parse_polygon, "CHAIN": parse_chain}
_COMMANDS = {
    "": "Exact capacities of toric surfaces and embedding obstructions.",
    "capacities": (capacities_cmd, "POLYGON", *_SEQUENCE),
    "ech": "ECH capacity sequences of toric domains.",
    "ech ellipsoid": (ech_ellipsoid_cmd, "A B", *_SEQUENCE),
    "ech convex": (ech_convex_cmd, "POLYGON", *_SEQUENCE),
    "ech concave": (ech_concave_cmd, "CHAIN", *_SEQUENCE),
    "embed": (embed, "CHAIN POLYGON", *_FROM_ONE),
    "width": (width, "POLYGON", *_FROM_ONE,
              ("--xi XI", None, "Chain file for the domain to scale (default: unit ball).", None)),
    "lattice-width": (lattice_width_cmd, "POLYGON", _DECIMAL),
    "transform-ip": (transform_ip, "POLYGON", ("--coeffs COEFFS", ...,
                     "Comma separated integer divisor coefficients, one per edge.", None)),
    "resolve": (resolve, "POLYGON"),
    "verify-calg": (verify_calg, "POLYGON", *_VERIFY),
    "verify-sw": (verify_sw, "POLYGON", *_VERIFY),
    "corpus": (corpus_cmd, "[NAME]"),
}

def _is_option(token: str) -> bool:
    """Whether token reads as an option rather than a value: `-`, a token
    with a space and a negative number such as `-3` or `-.5` are values."""
    # the pattern compiles on first use: only for an operand or value that starts with `-`
    return (token[:1] == "-" and token != "-" and " " not in token
            and not re.match(r"-\d+$|-\d*\.\d+$", token))


def _parse(prog_name: str, args) -> tuple:
    """The function of the command that args names, its (name, value)
    operands and its options by keyword.  Help exits 0; a command line that
    does not parse exits 2 with its usage on stderr."""
    words, prog, tokens = "", prog_name, iter(args)

    def stop(error: str | None = None) -> None:
        # the help and usage code loads, and compiles, only to print a page
        from . import _help

        _help.stop(_COMMANDS, prog, words, error)

    while isinstance(_COMMANDS[words], str):
        token = next(tokens, None)
        if token in ("-h", "--help"):
            stop()
        if token is None:
            stop("the following arguments are required: COMMAND")
        if token.split() != [token] or f"{words} {token}".lstrip() not in _COMMANDS:
            from ._help import subcommands

            stop(f"argument COMMAND: invalid choice: {token!r} "
                 f"(choose from {', '.join(map(repr, subcommands(_COMMANDS, words)))})")
        words, prog = f"{words} {token}".lstrip(), f"{prog} {token}"

    run, operands, *specs = _COMMANDS[words]
    options = {spec[0].split()[0]: spec for spec in specs}
    values = {name: spec[1] for name, spec in options.items()}
    given, unknown = [], []
    for token in tokens:
        name, eq, value = token.partition("=")
        if token == "--":
            given += tokens
        elif token in ("-h", "--help"):
            stop()
        elif name not in options or eq and options[name][1] is False:
            (unknown if _is_option(token) else given).append(token)
        elif options[name][1] is False:
            values[name] = True
        else:
            # past the last token, "--" stands for the missing value
            if not eq and _is_option(value := next(tokens, "--")):
                stop(f"argument {name}: expected one argument")
            if (least := options[name][3]) is not None:
                try:
                    value = int(value)
                except ValueError:
                    stop(f"argument {name}: {value!r} is not a valid integer")
                if value < least:
                    stop(f"argument {name}: {value} is not in the range x>={least}")
            values[name] = value

    names = operands.split()
    missing = names[len(given):len(names) - operands.count("[")]
    missing += [name for name, value in values.items() if value is ...]
    if missing:
        stop(f"the following arguments are required: {', '.join(missing)}")
    if unknown := unknown + given[len(names):]:
        stop(f"unrecognized arguments: {' '.join(unknown)}")
    return run, zip(names, given), {n[2:].replace("-", "_"): v for n, v in values.items()}


def cli(args=None, prog_name: str = "torcap") -> None:
    """Run the command line `args` (default: sys.argv[1:]).  Always ends in
    SystemExit with the exit code of the module docstring; a command line
    that does not parse exits 2."""
    run, operands, options = _parse(prog_name, sys.argv[1:] if args is None else args)
    try:
        code = run(*(_READERS[name](_read(value)) if name in _READERS else value
                     for name, value in operands), **options)
        # a failed write, say to a closed pipe, is reported here too
        sys.stdout.flush()
    except (TorcapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an iteration limit is an internal budget, not bad input
        code = 3 if isinstance(exc, IterationLimit) else 2
    sys.exit(code or 0)


if __name__ == "__main__":
    cli()
