import argparse
import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass

import pytest

import torcap
from torcap import toric
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


def _parse(parser, args):
    """(exit code, stdout, stderr) of parsing args, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(args)
    return info.value.code, out.getvalue(), err.getvalue()


def _subcommands(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


COMMANDS = ["capacities", "ech", "ech ellipsoid", "ech convex", "ech concave", "embed", "width",
            "lattice-width", "transform-ip", "resolve", "verify-calg", "verify-sw", "corpus"]
TOP_COMMANDS = [command for command in COMMANDS if " " not in command]


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subparser_reads_like_all(command):
    """A parser built for one command line holds only the subcommand it
    names, and prints the same help and parse errors as the full parser."""
    words = command.split()
    parser = cli_module._parser("torcap", [*words, "--help"])
    assert list(_subcommands(parser)) == words[:1]
    if words[1:]:
        assert list(_subcommands(_subcommands(parser)["ech"])) == words[1:]
    full = cli_module._parser("torcap", [])
    assert list(_subcommands(full)) == TOP_COMMANDS
    for args in ([*words, "--help"], [*words, "--no-such-option"]):
        one = cli_module._parser("torcap", args)
        assert _parse(one, args) == _parse(full, args), args
    code, out, err = _parse(full, [*words, "--no-such-option"])
    assert code == 2 and out == "" and err.startswith("usage: torcap "), err


def test_unknown_command_lists_every_command():
    for args, names in ((["frobnicate"], TOP_COMMANDS),
                        (["ech", "frobnicate"], ("ellipsoid", "convex", "concave"))):
        code, out, err = _parse(cli_module._parser("torcap", args), args)
        assert (code, out) == (2, "")
        assert "invalid choice: 'frobnicate'" in err
        assert all(f"'{name}'" in err for name in names), err


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
