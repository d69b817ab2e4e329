import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass

import pytest

import torcap
from torcap import _table, toric
from torcap import cli as cli_module
from torcap.cli import cli, parse_chain, parse_polygon
from torcap.errors import ParseError


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as on a terminal


class _Tee(io.StringIO):
    """A stream that also copies what it is given to `both`."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, s):
        self.both.write(s)
        return super().write(s)


class Runner:
    """Runs a command line in this process, capturing its streams."""

    def invoke(self, command, args):
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                command(args=args, prog_name="torcap")
            except SystemExit as exc:
                code = exc.code
            else:
                raise AssertionError("the command line ended without SystemExit")
        return Result(code, out.getvalue(), err.getvalue(), both.getvalue())


@pytest.fixture
def runner():
    return Runner()


def _write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


SQUARE = "0 0\n1 0\n1 1\n0 1\n"
RECT_2x3 = "0 0\n2 0\n2 3\n0 3\n"
BALL_11_10 = "# slightly fat round ball\n0 11/10\n11/10 0\n"


def test_parse_polygon_comments_and_fractions():
    p = parse_polygon("# header\n0 0\n\n3/2 0  # inline\n0 5/3\n")
    assert len(p) == 3


def test_parse_polygon_rejects_decimals():
    with pytest.raises(ParseError, match="line 2"):
        parse_polygon("0 0\n1.5 0\n0 1\n")


def test_parse_polygon_rejects_wrong_arity():
    with pytest.raises(ParseError, match="line 1"):
        parse_polygon("0 0 1\n1 0\n0 1\n")


def test_parse_chain():
    omega = parse_chain("0 2\n1 1\n3 0\n")
    assert len(omega.chain) == 3


def test_capacities_command(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", RECT_2x3)
    res = runner.invoke(cli, ["capacities", poly, "--k-max", "3"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["0\t0", "1\t2", "2\t4", "3\t5"]


def test_capacities_decimal_column(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", "0 0\n1/2 0\n0 1/2\n")
    res = runner.invoke(cli, ["capacities", poly, "--k-max", "1", "--decimal"])
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "1\t1/2\t0.500000"


def test_decimal_column_past_the_double_range(runner, tmp_path):
    """A value too large for a double prints exactly, rounded to six places."""
    big = 10**400
    poly = _write(tmp_path, "p.txt", f"0 0\n{big} 0\n0 {big}\n")
    res = runner.invoke(cli, ["capacities", poly, "--k-max", "1", "--decimal"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["0\t0\t0.000000", f"1\t{big}\t{big}.000000"]
    res = runner.invoke(cli, ["lattice-width", poly, "--decimal"])
    assert (res.exit_code, res.output) == (0, f"{big}\t{big}.000000\t1,0\n")
    poly = _write(tmp_path, "p.txt", f"0 0\n{2 * big}/3 0\n0 {2 * big}/3\n")
    res = runner.invoke(cli, ["capacities", poly, "--k-max", "1", "--decimal"])
    assert res.output.splitlines()[1] == f"1\t{2 * big}/3\t{'6' * 400}.666667"


def test_ech_ellipsoid_command(runner):
    res = runner.invoke(cli, ["ech", "ellipsoid", "1", "2", "--k-max", "4"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["0\t0", "1\t1", "2\t2", "3\t2", "4\t3"]


def test_ech_convex_command(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", SQUARE)
    res = runner.invoke(cli, ["ech", "convex", poly, "--k-max", "2"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["0\t0", "1\t1", "2\t2"]


def test_ech_convex_rejects_non_domain(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", "1 1\n2 1\n1 2\n")
    res = runner.invoke(cli, ["ech", "convex", poly, "--k-max", "2"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["capacities", "{poly}", "--k-max", "4"],
    ["ech", "convex", "{poly}", "--k-max", "4"],
    ["embed", "{chain}", "{poly}", "--k-max", "4"],
    ["width", "{poly}", "--xi", "{chain}", "--k-max", "4"],
])
def test_star_polygon_exits_2(runner, tmp_path, args):
    # every turn of the pentagram is left, but its edges wind twice
    poly = _write(tmp_path, "star.poly", "0 3\n-2 -3\n3 1\n-3 1\n2 -3\n")
    chain = _write(tmp_path, "c.txt", "0 1\n1 0\n")
    res = runner.invoke(cli, [a.format(poly=poly, chain=chain) for a in args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: polygon winds around more than once\n"


def test_ech_concave_command(runner, tmp_path):
    chain = _write(tmp_path, "c.txt", "0 2\n1 0\n")
    res = runner.invoke(cli, ["ech", "concave", chain, "--k-max", "4"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["0\t0", "1\t1", "2\t2", "3\t2", "4\t3"]


def test_embed_obstructed_exit_code(runner, tmp_path):
    chain = _write(tmp_path, "c.txt", BALL_11_10)
    poly = _write(tmp_path, "p.txt", SQUARE)
    res = runner.invoke(cli, ["embed", chain, poly, "--k-max", "5"])
    assert res.exit_code == 1
    assert res.output.startswith("OBSTRUCTED\tk=1")


def test_embed_compatible_exit_code(runner, tmp_path):
    chain = _write(tmp_path, "c.txt", "0 2\n1 0\n")
    poly = _write(tmp_path, "p.txt", "0 0\n1 0\n1 2\n0 2\n")
    res = runner.invoke(cli, ["embed", chain, poly, "--k-max", "50"])
    assert res.exit_code == 0
    assert res.output.startswith("COMPATIBLE")


def test_width_command(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", RECT_2x3)
    res = runner.invoke(cli, ["width", poly, "--k-max", "10"])
    assert res.exit_code == 0
    assert res.output.split("\t")[0] == "2"


def test_lattice_width_command(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", RECT_2x3)
    res = runner.invoke(cli, ["lattice-width", poly])
    assert res.exit_code == 0
    assert res.output.strip() == "2\t1,0"


@pytest.mark.parametrize("text, lw", [
    ("0 0\n2 1\n1 2\n", "2"),
    ("1 0\n3 1\n4 3\n3 4\n1 3\n0 1\n", "4"),
], ids=["det3-triangle", "det3-hexagon"])
def test_c1_is_the_lattice_width_across_commands(runner, tmp_path, text, lw):
    # every cone has determinant 3, so no vertex is smooth; the table search
    # and the Gauss reduction share no code
    poly = _write(tmp_path, "p.txt", text)
    res = runner.invoke(cli, ["capacities", poly, "--k-max", "1"])
    assert (res.exit_code, res.output.splitlines()[-1]) == (0, f"1\t{lw}")
    res = runner.invoke(cli, ["lattice-width", poly])
    assert (res.exit_code, res.output.split("\t")[0]) == (0, lw)


def test_transform_ip_command(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", "0 0\n2/3 0\n2/3 1/3\n0 1\n")
    res = runner.invoke(cli, ["transform-ip", poly, "--coeffs", "0,2,1,0"])
    assert res.exit_code == 0
    assert res.output.strip() == "0\t1\t1\t0"


def test_resolve_command(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", "0 0\n1 0\n0 2\n")
    res = runner.invoke(cli, ["resolve", poly])
    assert res.exit_code == 0
    assert "-1\t0" in res.output.splitlines()


def test_verify_calg_command(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", SQUARE)
    res = runner.invoke(cli, ["verify-calg", poly, "--k-max", "3", "--box", "6"])
    assert res.exit_code == 0
    assert all(line.endswith("OK") for line in res.output.splitlines())


def test_verify_sw_command(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", SQUARE)
    res = runner.invoke(cli, ["verify-sw", poly, "--k-max", "3", "--box", "6"])
    assert res.exit_code == 0
    assert all(line.endswith("OK") for line in res.output.splitlines())


def test_capacities_command_builds_one_table(runner, tmp_path, table_builds):
    poly = _write(tmp_path, "p.txt", runner.invoke(cli, ["corpus", "chopped-square"]).output)
    res = runner.invoke(cli, ["capacities", poly, "--k-max", "65"])
    assert res.exit_code == 0
    assert len(res.stdout.splitlines()) == 66
    assert table_builds == [65]


def test_verify_calg_with_skipped_rows_exits_1(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", runner.invoke(cli, ["corpus", "two-chop-square"]).output)
    res = runner.invoke(cli, ["verify-calg", poly, "--k-max", "3", "--box", "1"])
    assert res.exit_code == 1
    rows = res.stdout.splitlines()
    assert rows[0] == "k=0\t0\t0\tOK"
    assert [row.split("\t")[1] for row in rows[1:]] == ["SKIP"] * 3
    assert res.stderr == "checked 1, skipped 3\n"


def test_verify_sw_with_skipped_rows_exits_1(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", SQUARE)
    res = runner.invoke(cli, ["verify-sw", poly, "--k-max", "3", "--box", "1"])
    assert res.exit_code == 1
    assert len(res.stdout.splitlines()) == 4
    assert res.stderr == "checked 1, skipped 3\n"


def test_bad_horizon_or_area_exit_code(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", SQUARE)
    for args in (["capacities", poly, "--k-max", "-3"],
                 ["verify-calg", poly, "--k-max", "-1"],
                 ["ech", "ellipsoid", "1", "2", "--k-max", "-2"],
                 ["ech", "ellipsoid", "0", "1"]):
        res = runner.invoke(cli, args)
        assert res.exit_code == 2, args
        assert res.stdout == "", args


def test_iteration_limit_exit_code(runner, tmp_path, monkeypatch):
    # a cap of 0 stops the transform before its first nef test
    monkeypatch.setattr(toric, "IP_ITERATION_CAP", 0)
    poly = _write(tmp_path, "p.txt", runner.invoke(cli, ["corpus", "chopped-triangle"]).output)
    res = runner.invoke(cli, ["transform-ip", poly, "--coeffs", "0,2,0,0"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "error: isoparametric transform did not stabilize\n"


def test_impossible_table_state_is_not_an_iteration_limit(runner, tmp_path, monkeypatch):
    # with a value bound below the optimum the search finds no vector for the
    # top indices, which a sound table cannot do: the error is a bug, not a
    # budget, and leaves the command line as a traceback instead of exit 3.
    # The triangle's support numbers share the factor g = 3 with its vertex
    # denominator, so its bound counts the multiples of P0 by `count_points`,
    # here made to report that the first, the origin, has enough sections
    monkeypatch.setattr(_table, "count_points", lambda rays, coeffs: 10**9)
    monkeypatch.setattr(_table, "_TABLES", {})
    poly = _write(tmp_path, "p.txt", "1/3 0\n4/3 0\n1 1\n")
    with pytest.raises(RuntimeError, match="^no optimal vector found$"):
        runner.invoke(cli, ["capacities", poly, "--k-max", "3"])


def test_corpus_listing_round_trip(runner):
    res = runner.invoke(cli, ["corpus"])
    assert res.exit_code == 0
    names = res.output.split()
    assert len(names) == 10
    for name in names:
        dump = runner.invoke(cli, ["corpus", name])
        assert dump.exit_code == 0
        parse_polygon(dump.output)


def test_bad_file_exit_code(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", "0 0\n1 0.25\n0 1\n")
    res = runner.invoke(cli, ["capacities", poly, "--k-max", "1"])
    assert res.exit_code == 2
    missing = runner.invoke(cli, ["capacities", str(tmp_path / "nope.txt")])
    assert missing.exit_code == 2
    # bytes that do not decode, or decode to no fraction, whatever the locale
    binary = tmp_path / "b.poly"
    binary.write_bytes(b"\xbe\x01 0\n")
    res = runner.invoke(cli, ["capacities", str(binary)])
    assert (res.exit_code, res.stdout) == (2, "") and res.stderr.startswith("error: ")


def test_bad_input_messages(runner, tmp_path):
    empty = _write(tmp_path, "empty.poly", "# no vertex here\n\n")
    poly = _write(tmp_path, "p.txt", SQUARE)
    triangle = _write(tmp_path, "t.txt", "0 0\n1 0\n0 2\n")
    for args, message in ((["capacities", empty], "no vertices found"),
                          (["transform-ip", poly, "--coeffs", "0,x"], "bad coefficient list '0,x'"),
                          (["corpus", "no-such-name"], "unknown corpus polygon 'no-such-name'"),
                          (["ech", "ellipsoid", "0", "1"], "ellipsoid needs positive areas"),
                          (["verify-sw", triangle], "index scan needs a smooth surface"),
                          (["transform-ip", poly, "--coeffs", "0,1,0"],
                           "coefficient count must match ray count")):
        res = runner.invoke(cli, args)
        assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {message}\n"), args


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="this Python converts a 5000-digit integer string")
def test_overlong_fraction_is_bad_input(runner, tmp_path):
    long = _write(tmp_path, "l.txt", "1" * 5000 + " 0\n1 0\n0 1\n")
    res = runner.invoke(cli, ["capacities", long])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.startswith("error: Exceeds the limit")


def test_stray_value_error_is_not_bad_input(runner, tmp_path, monkeypatch):
    # only torcap's own errors and failed reads or writes exit 2; any other
    # ValueError is a bug and leaves the command line as a traceback
    def alg_capacities(p, k_max):
        raise ValueError("stray")

    monkeypatch.setattr(_table, "alg_capacities", alg_capacities)
    poly = _write(tmp_path, "p.txt", SQUARE)
    with pytest.raises(ValueError, match="^stray$"):
        runner.invoke(cli, ["capacities", poly, "--k-max", "2"])


def test_polygon_from_stdin(runner, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(RECT_2x3))
    res = runner.invoke(cli, ["capacities", "-", "--k-max", "3"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["0\t0", "1\t2", "2\t4", "3\t5"]


def test_nonconvex_input_exit_code(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", "0 0\n0 1\n1 0\n")
    res = runner.invoke(cli, ["capacities", poly, "--k-max", "1"])
    assert res.exit_code == 2


def test_ech_ellipsoid_bad_argument_names_it(runner):
    for args, message in ((["1.5", "2"], "argument A: bad fraction '1.5'"),
                          (["1", "2/0"], "argument B: bad fraction '2/0'")):
        res = runner.invoke(cli, ["ech", "ellipsoid", *args])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"


def _open_error(path: str) -> str:
    try:
        open(path)
    except OSError as exc:
        return str(exc)
    raise AssertionError(f"{path!r} opened")


# Command lines with more than one bad operand, or a bad operand and a bad
# option value, and the error that each reports: the first operand's, in
# operand order, before any option is read.  bad.poly and bad.chain hold text
# that does not parse; missing.poly and missing.chain do not exist, and the
# error of opening a path is taken from `open` in the test's directory.
FIRST_BAD_OPERAND = [
    pytest.param(["embed", "bad.chain", "bad.poly"], "line 1: bad fraction 'x'",
                 id="embed-bad-chain-and-polygon"),
    pytest.param(["embed", "missing.chain", "missing.poly"], lambda: _open_error("missing.chain"),
                 id="embed-missing-chain-and-polygon"),
    pytest.param(["width", "missing.poly", "--xi", "missing.chain"],
                 lambda: _open_error("missing.poly"),
                 id="width-missing-polygon-and-xi"),
    pytest.param(["width", "bad.poly", "--xi", "bad.chain"], "line 2: bad fraction '0.25'",
                 id="width-bad-polygon-and-xi"),
    pytest.param(["transform-ip", "bad.poly", "--coeffs", "0,x"], "line 2: bad fraction '0.25'",
                 id="transform-ip-bad-polygon-and-coeffs"),
    pytest.param(["capacities", ""], lambda: _open_error(""), id="capacities-empty-path"),
    pytest.param(["ech", "ellipsoid", "x", "y"], "argument A: bad fraction 'x'",
                 id="ech-ellipsoid-both-areas-bad"),
]


@pytest.mark.parametrize("args, message", FIRST_BAD_OPERAND)
def test_first_bad_operand_is_reported(runner, tmp_path, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.poly").write_text("0 0\n1 0.25\n0 1\n")
    (tmp_path / "bad.chain").write_text("0 x\n")
    res = runner.invoke(cli, args)
    message = message() if callable(message) else message
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {message}\n")


def test_embed_and_width_reject_k_max_zero(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", SQUARE)
    ball = _write(tmp_path, "b.txt", BALL_11_10)
    for args in (["embed", ball, poly, "--k-max", "0"], ["width", poly, "--k-max", "0"]):
        res = runner.invoke(cli, args)
        assert res.exit_code == 2, args
        assert res.stdout == "", args
        assert "--k-max" in res.stderr, args


def test_cli_import_leaves_oracle_unloaded():
    src = os.path.dirname(os.path.dirname(torcap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, torcap.cli; print('torcap.oracle' in sys.modules, 'click' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "False False\n"


@pytest.mark.parametrize("module", ["torcap", "torcap.cli"])
def test_import_leaves_dataclasses_and_inspect_unloaded(module):
    src = os.path.dirname(os.path.dirname(torcap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (f"import sys; before = set(sys.modules); import {module}; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


COMMANDS = ["capacities", "ech", "ech ellipsoid", "ech convex", "ech concave", "embed", "width",
            "lattice-width", "transform-ip", "resolve", "verify-calg", "verify-sw", "corpus"]
TOP_COMMANDS = [command for command in COMMANDS if " " not in command]


def test_table_runs_every_listed_command():
    """The table runs the commands that the help pages list."""
    leaves = {words for words, entry in cli_module._COMMANDS.items() if not isinstance(entry, str)}
    assert leaves == set(COMMANDS) - {"ech"}


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subparser_reads_like_all(runner, command):
    """Each command prints its own help page and its own usage line with a
    parse error, and the page of the group above it lists it."""
    words = command.split()
    group = runner.invoke(cli, [*words[:-1], "--help"])
    # a command's row starts with its name, indented by 4; the rest of a
    # wrapped help text is indented further
    listed = [line.split()[0] for line in group.stdout.splitlines()
              if line.startswith("    ") and line[4] != " "]
    assert listed == (TOP_COMMANDS if len(words) == 1 else ["ellipsoid", "convex", "concave"])
    res = runner.invoke(cli, [*words, "--help"])
    assert (res.exit_code, res.stderr) == (0, ""), command
    assert res.stdout.startswith(f"usage: torcap {command} [-h] "), res.stdout
    res = runner.invoke(cli, [*words, "--no-such-option"])
    assert (res.exit_code, res.stdout) == (2, ""), command
    assert res.stderr.startswith(f"usage: torcap {command} [-h] "), res.stderr
    assert f"\ntorcap {command}: error: " in res.stderr, res.stderr


def test_unknown_command_lists_every_command(runner):
    for args, names in ((["frobnicate"], TOP_COMMANDS),
                        (["ech", "frobnicate"], ("ellipsoid", "convex", "concave"))):
        res = runner.invoke(cli, args)
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.startswith(" ".join(["usage: torcap", *args[:-1], "[-h] COMMAND ...\n"]))
        assert "invalid choice: 'frobnicate'" in res.stderr
        assert all(f"'{name}'" in res.stderr for name in names), res.stderr


ROWS_3 = "0\t0\n1\t1\n2\t2\n3\t2\n"
ROWS_2 = "0\t0\n1\t1\n2\t2\n"
# Each form of command line that the argparse-based CLI accepted or refused,
# with the exit code and stdout it gave, the start of the stderr expected now
# and a word that stderr must name.  A line that parses runs with the square
# (or, from stdin, the one of `stdin`) in square.poly and the chains of the
# balls of capacity 1/2 and 1 in half.chain and ball.chain.
GRAMMAR = [
    pytest.param(["capacities", "square.poly", "--k-max", "3"], None, 0, ROWS_3, "", "",
                 id="options-after-operands"),
    pytest.param(["capacities", "--k-max", "3", "square.poly"], None, 0, ROWS_3, "", "",
                 id="options-before-operands"),
    pytest.param(["capacities", "--k-max=3", "square.poly"], None, 0, ROWS_3, "", "",
                 id="option-equals-value"),
    pytest.param(["ech", "ellipsoid", "1", "--k-max", "4", "2"], None, 0,
                 "0\t0\n1\t1\n2\t2\n3\t2\n4\t3\n", "", "", id="option-between-operands"),
    pytest.param(["capacities", "square.poly", "--k-max", "9", "--k-max", "2"], None, 0, ROWS_2,
                 "", "", id="repeated-option-last-wins"),
    pytest.param(["capacities", "--decimal", "square.poly", "--k-max", "2"], None, 0,
                 "0\t0\t0.000000\n1\t1\t1.000000\n2\t2\t2.000000\n", "", "",
                 id="flag-before-operand"),
    pytest.param(["capacities", "-", "--k-max", "3"], RECT_2x3, 0, "0\t0\n1\t2\n2\t4\n3\t5\n",
                 "", "", id="dash-operand-is-stdin"),
    pytest.param(["capacities", "--k-max", "2", "--", "square.poly"], None, 0, ROWS_2, "", "",
                 id="double-dash-before-operand"),
    pytest.param(["capacities", "--k-max", "3", "--", "-"], "0 0\n1 0\n0 1\n", 0,
                 "0\t0\n1\t1\n2\t1\n3\t2\n", "", "", id="double-dash-before-stdin"),
    pytest.param(["embed", "--k-max=4", "--", "half.chain", "square.poly"], None, 0,
                 "COMPATIBLE\tk_max=4\n", "", "", id="double-dash-before-operands"),
    pytest.param(["width", "square.poly", "--xi=", "--k-max", "5"], None, 0, "1\tk=1\tstable\n",
                 "", "", id="empty-equals-value"),
    pytest.param(["width", "--xi=half.chain", "square.poly", "--k-max", "5", "--decimal"], None, 0,
                 "2\t2.000000\tk=1\tstable\n", "", "", id="string-option-equals-value"),
    pytest.param(["transform-ip", "--coeffs=-1,2,1,0", "chop.poly"], None, 0, "-1\t0\t1\t0\n",
                 "", "", id="equals-value-starting-with-dash"),
    pytest.param(["verify-calg", "--box=4", "square.poly", "--k-max=3"], None, 0,
                 "k=0\t0\t0\tOK\nk=1\t1\t1\tOK\nk=2\t2\t2\tOK\nk=3\t2\t2\tOK\n", "", "",
                 id="two-options-equals-value"),
    pytest.param(["corpus"], None, 0, "unit-triangle\ndouble-triangle\nunit-square\nrect-2x3\n"
                 "rect-1x5\nchopped-square\nchopped-triangle\ntwo-chop-square\nsingular-triangle\n"
                 "f2-polygon\n", "", "", id="corpus-without-name"),
    pytest.param(["corpus", "unit-square"], None, 0, SQUARE, "", "",
                 id="corpus-with-name"),
    pytest.param(["capacities", "square.poly", "--k-max", "-3"], None, 2, "",
                 "usage: torcap capacities [-h] ", "--k-max: -3 is not in the range x>=0",
                 id="negative-value"),
    pytest.param(["capacities", "square.poly", "--k-max=-3"], None, 2, "",
                 "usage: torcap capacities [-h] ", "--k-max: -3 is not in the range x>=0",
                 id="negative-equals-value"),
    pytest.param(["ech", "ellipsoid", "-1", "2"], None, 2, "",
                 "error: ellipsoid needs positive areas\n", "", id="negative-operand"),
    pytest.param(["ech", "ellipsoid", "--", "-1", "2"], None, 2, "",
                 "error: ellipsoid needs positive areas\n", "", id="double-dash-negative-operand"),
    pytest.param(["embed", "ball.chain"], None, 2, "", "usage: torcap embed [-h] ", "POLYGON",
                 id="missing-operand"),
    pytest.param(["capacities", "square.poly", "extra"], None, 2, "",
                 "usage: torcap capacities [-h] ", "extra", id="extra-operand"),
    pytest.param(["capacities", "square.poly", "--k-max"], None, 2, "",
                 "usage: torcap capacities [-h] ", "--k-max", id="option-without-value"),
    pytest.param(["capacities", "square.poly", "--k-max", "x"], None, 2, "",
                 "usage: torcap capacities [-h] ", "--k-max", id="option-not-an-integer"),
    pytest.param(["capacities", "square.poly", "--k-m", "3"], None, 2, "",
                 "usage: torcap capacities [-h] ", "--k-m", id="no-abbreviation"),
    pytest.param(["transform-ip", "chop.poly"], None, 2, "", "usage: torcap transform-ip [-h] ",
                 "--coeffs", id="required-option-missing"),
    pytest.param(["transform-ip", "chop.poly", "--coeffs", "-1,2,1,0"], None, 2, "",
                 "usage: torcap transform-ip [-h] ", "--coeffs", id="value-reads-as-option"),
    pytest.param(["ech"], None, 2, "", "usage: torcap ech [-h] ", "COMMAND", id="group-alone"),
    pytest.param(["capacities", "square.poly", "--", "--k-max", "3"], None, 2, "",
                 "usage: torcap capacities [-h] ", "--k-max", id="option-after-double-dash"),
    pytest.param(["capacities", "square.poly", "--decimal=yes"], None, 2, "",
                 "usage: torcap capacities [-h] ", "--decimal", id="flag-with-value"),
]


@pytest.mark.parametrize("args, stdin, code, stdout, stderr, names", GRAMMAR)
def test_command_line_grammar(runner, tmp_path, monkeypatch, args, stdin, code, stdout, stderr,
                              names):
    monkeypatch.chdir(tmp_path)
    for name, text in (("square.poly", SQUARE), ("half.chain", "0 1/2\n1/2 0\n"),
                       ("ball.chain", "0 1\n1 0\n"), ("chop.poly", "0 0\n2/3 0\n2/3 1/3\n0 1\n")):
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    res = runner.invoke(cli, args)
    assert (res.exit_code, res.stdout) == (code, stdout)
    assert res.stderr.startswith(stderr) and names in res.stderr, res.stderr
    assert code or res.stderr == ""


def test_help_exits_0_on_stdout(runner, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per help text, whatever the terminal
    pages = {
        "": "Exact capacities of toric surfaces and embedding obstructions.",
        "ech": "ECH capacity sequences of toric domains.",
        "capacities": "Algebraic capacities of the surface polarized by POLYGON.",
        "ech ellipsoid": "Capacities of the ellipsoid with areas A and B.",
        "ech convex": "Capacities of the convex toric domain over POLYGON.",
        "ech concave": "Capacities of the concave toric domain under CHAIN.",
        "embed": "Capacity test for embedding the domain under CHAIN into POLYGON's surface.",
        "width": "Best capacity ratio for scaling a concave domain into POLYGON's surface.",
        "lattice-width": "Lattice width of POLYGON and a minimizing direction.",
        "transform-ip": "Iterate the isoparametric transform of a divisor until it is nef.",
        "resolve": "Rays of the smooth refinement of POLYGON's normal fan.",
        "verify-calg": "Cross check capacities against the exhaustive boxed scan.",
        "verify-sw": "Check the index-constrained infimum against the section-constrained one.",
        "corpus": "List the built-in polygons, or print one as polygon text.",
    }
    for command, text in pages.items():
        res = runner.invoke(cli, [*command.split(), "--help"])
        assert res.exit_code == 0, command
        assert res.stderr == "", command
        assert text in " ".join(res.stdout.split()), command


def test_missing_or_unknown_command_exit_code(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", SQUARE)
    for args in ([], ["ech"], ["frobnicate"], ["ech", "frobnicate", "1", "2"],
                 ["transform-ip", poly]):
        res = runner.invoke(cli, args)
        assert res.exit_code == 2, args
        assert res.stdout == "", args
        assert res.stderr != "", args


def test_negative_box_is_a_parse_error(runner, tmp_path):
    poly = _write(tmp_path, "p.txt", SQUARE)
    for command in ("verify-calg", "verify-sw"):
        res = runner.invoke(cli, [command, poly, "--k-max", "2", "--box", "-1"])
        assert res.exit_code == 2, command
        assert res.stdout == "", command
        assert "--box" in res.stderr, command
        # a zero box stays valid; on the square it can only skip
        res = runner.invoke(cli, [command, poly, "--k-max", "0", "--box", "0"])
        assert res.exit_code == 1, command
        assert res.stdout.startswith("k=0\tSKIP\t"), command
