"""What each import and each CLI command loads, and the re-exported names."""

import ast
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import torcap
from torcap import _polygon, _table, capacities, cli, corpus, ech, lattice

SQUARE = "0 0\n1 0\n1 1\n0 1\n"
CHAIN = "0 2\n1 1/2\n3/2 0\n"


def _last_stderr_line(code: str, cwd=None) -> str:
    """The last line that `python -c code` writes on stderr, run in a fresh
    interpreter that finds torcap."""
    src = os.path.dirname(os.path.dirname(torcap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                         text=True, timeout=60)
    return res.stderr.splitlines()[-1]


LOADED = "sorted(m for m in sys.modules if m.startswith('torcap'))"


def _loaded_after(statement: str, cwd=None) -> list:
    """The torcap modules loaded by running `statement` in a fresh interpreter."""
    return _last_stderr_line(f"import sys\n{statement}\nprint(*{LOADED}, file=sys.stderr)",
                             cwd).split()


def test_import_torcap_loads_no_submodule():
    assert _loaded_after("import torcap") == ["torcap"]


def test_public_names_load_only_their_defining_module():
    assert _loaded_after("import torcap\ntorcap.calg") == [
        "torcap", "torcap._base", "torcap._polygon", "torcap._table", "torcap.errors"]
    for name in torcap.__all__:
        assert getattr(torcap, name).__module__ == f"torcap.{torcap._HOME[name]}", name


def test_import_corpus_builds_nothing():
    assert _loaded_after("import torcap.corpus") == ["torcap", "torcap.corpus"]
    # the smooth names are read off the polygons, with no toric code
    for name in ("CORPUS", "SMOOTH_NAMES"):
        assert _loaded_after(f"from torcap.corpus import {name}") == [
            "torcap", "torcap._base", "torcap._polygon", "torcap.corpus", "torcap.errors",
            "torcap.lattice"]


def test_import_cli_loads_no_math_module():
    assert _loaded_after("import torcap.cli") == [
        "torcap", "torcap.cli", "torcap.corpus", "torcap.errors"]


def _loaded_by_command(tmp_path, args) -> list:
    """The torcap modules that the command line args loads, run with the
    files it may name in tmp_path; the command must exit 0."""
    (tmp_path / "square.poly").write_text(SQUARE)
    (tmp_path / "ball.chain").write_text("0 1/2\n1/2 0\n")
    (tmp_path / "chain.txt").write_text(CHAIN)
    statement = ("from torcap.cli import cli\n"
                 f"try:\n    cli({args!r})\nexcept SystemExit as exc:\n    assert exc.code == 0")
    return _loaded_after(statement, tmp_path)


@pytest.mark.parametrize("args", [["ech", "concave", "chain.txt", "--k-max", "5"],
                                  ["ech", "ellipsoid", "1", "2", "--k-max", "5"]])
def test_ech_commands_load_no_toric_code(tmp_path, args):
    # ech and the modules every command loads: no polygon, table or toric code
    assert _loaded_by_command(tmp_path, args) == [
        "torcap", "torcap._base", "torcap.cli", "torcap.corpus", "torcap.ech", "torcap.errors"]


# all that `torcap capacities` loads, and so all it compiles without bytecode
CAPACITIES_COMMAND_MODULES = ["torcap", "torcap._base", "torcap._polygon", "torcap._table",
                              "torcap.cli", "torcap.corpus", "torcap.errors"]


@pytest.mark.parametrize("args", [["capacities", "square.poly", "--k-max", "5"],
                                  ["ech", "convex", "square.poly", "--k-max", "5"],
                                  ["embed", "ball.chain", "square.poly", "--k-max", "5"],
                                  ["width", "square.poly", "--xi", "chain.txt", "--k-max", "5"]])
def test_capacity_commands_load_no_toric_code(tmp_path, args):
    """The capacity search reads its fan and weights off the polygon."""
    loaded = _loaded_by_command(tmp_path, args)
    if args[0] == "capacities":
        # the table and the polygon core, with no ECH, lattice or verdict code
        assert loaded == CAPACITIES_COMMAND_MODULES
    else:
        assert "torcap.capacities" in loaded
    for module in ("toric", "oracle"):
        assert f"torcap.{module}" not in loaded, module


# all that `torcap verify-calg` loads: the oracle reads its rays, weights and
# intersection numbers off the polygon, with no toric or lattice code
VERIFY_CALG_COMMAND_MODULES = ["torcap", "torcap._base", "torcap._polygon", "torcap._table",
                               "torcap.cli", "torcap.corpus", "torcap.errors", "torcap.oracle"]


@pytest.mark.parametrize("command", ["verify-calg", "verify-sw"])
def test_verify_commands_load_only_the_oracle(tmp_path, command):
    loaded = _loaded_by_command(tmp_path, [command, "square.poly", "--k-max", "3", "--box", "4"])
    if command == "verify-calg":
        assert loaded == VERIFY_CALG_COMMAND_MODULES
    else:
        # the same without the fast path's table
        assert loaded == [m for m in VERIFY_CALG_COMMAND_MODULES if m != "torcap._table"]


def test_oracle_scans_load_no_further_module():
    """A scan and an index comparison build no divisor, so they load nothing
    beyond what importing the oracle loads."""
    vertices = corpus.CORPUS["chopped-square"].vertices
    code = ("import sys\n"
            "from torcap import oracle\n"
            "from torcap._polygon import MomentPolygon\n"
            f"p = MomentPolygon({vertices!r})\n"
            f"before = {LOADED}\n"
            "value = oracle.brute_calg(p, 3)\n"
            "equal = oracle.sw_equals_nef(p, 3)[2]\n"
            f"print(value, equal, before == {LOADED}, *{LOADED}, file=sys.stderr)\n")
    assert _last_stderr_line(f"from fractions import Fraction\n{code}").split() == [
        "2", "True", "True", "torcap", "torcap._base", "torcap._polygon", "torcap.errors",
        "torcap.oracle"]


def test_capacity_queries_after_import_load_no_module():
    """The in-process scan imports capacities and lattice, then times the
    width bound and two ball verdicts per polygon: nothing is left to load
    on first use."""
    code = ("from fractions import Fraction\n"
            "from torcap import capacities, corpus, lattice\n"
            "p = corpus.CORPUS['chopped-square']\n"
            f"before = {LOADED}\n"
            "gw, lw, holds = capacities.width_bound_check(p, 16)\n"
            "for c in (gw, Fraction(65, 64) * gw):\n"
            "    capacities.embedding_verdict(capacities.ConcaveDomain.ball(c), p, 16)\n"
            f"print(holds, before == {LOADED}, file=sys.stderr)\n")
    assert _last_stderr_line(f"import sys\n{code}") == "True True"


# the word sequences, space-joined, of the commands that the table runs
LEAF_COMMANDS = sorted(words for words, entry in cli._COMMANDS.items()
                       if not isinstance(entry, str))


@pytest.mark.parametrize("words", LEAF_COMMANDS)
def test_command_modules_are_imported_before_the_parser(tmp_path, words):
    """The modules that the table lists for a command are all that the
    command loads, and no argument parser module is loaded."""
    (tmp_path / "p.txt").write_text(SQUARE)
    (tmp_path / "chain.txt").write_text(CHAIN)
    (tmp_path / "ball.txt").write_text("0 1/2\n1/2 0\n")
    operands = {"ech ellipsoid": ["1", "2"], "ech concave": ["chain.txt"],
                "embed": ["ball.txt", "p.txt"], "transform-ip": ["p.txt", "--coeffs", "0,1,1,0"],
                "corpus": ["unit-square"], "verify-calg": ["p.txt", "--k-max", "2"],
                "verify-sw": ["p.txt", "--k-max", "2"]}
    args = [*words.split(), *operands.get(words, ["p.txt"])]
    code = ("import sys\n"
            "from importlib import import_module\n"
            "from torcap import cli\n"
            f"for name in cli._COMMANDS[{words!r}][1].split():\n"
            "    import_module('torcap.' + name)\n"
            f"before = {LOADED}\n"
            "try:\n"
            f"    cli.cli({args!r})\n"
            "except SystemExit as exc:\n"
            f"    print(exc.code, before == {LOADED}, 'argparse' in sys.modules,\n"
            "          file=sys.stderr)\n")
    assert _last_stderr_line(code, tmp_path) == "0 True False"


@pytest.mark.parametrize("args", [["ech", "concave", "chain.txt", "--k-max", "5"], ["--help"],
                                  ["ech", "--help"], ["ech", "concave", "--help"],
                                  ["capacities", "--no-such-option"]], ids=" ".join)
def test_no_command_line_loads_argparse(tmp_path, args):
    """The CLI parses its own command line, help pages and usage errors
    included: argparse, and the gettext and locale modules it pulls in, stay
    unloaded."""
    (tmp_path / "chain.txt").write_text(CHAIN)
    code = ("import sys\n"
            "from torcap.cli import cli\n"
            "try:\n"
            f"    cli({args!r})\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)),\n"
            "          file=sys.stderr)\n")
    assert _last_stderr_line(code, tmp_path) == ("2" if "--no-such-option" in args else "0")


def test_public_names_resolve():
    for name in torcap.__all__:
        assert getattr(torcap, name) is getattr(getattr(torcap, torcap._HOME[name]), name), name
    namespace = {}
    exec("from torcap import *", namespace)
    assert set(torcap.__all__) <= set(namespace)
    assert set(torcap.__all__) <= set(dir(torcap))
    with pytest.raises(AttributeError):
        torcap.no_such_name
    with pytest.raises(AttributeError):
        corpus.NO_SUCH_NAME


# the public names that capacities re-exports from ech and _table, and
# lattice from _polygon
CAPACITIES_FROM_ECH = ("CapacitySequence", "ConcaveDomain", "concave_weights", "ech_concave",
                       "ech_concave_capacities", "ech_ellipsoid", "ech_ellipsoid_capacities")
CAPACITIES_FROM_TABLE = ("calg", "calg_witness", "alg_capacities")
LATTICE_FROM_POLYGON = ("MomentPolygon", "primitive", "cross", "egcd", "line_cuts", "line_count",
                        "count_points", "edge_lengths", "Point", "IntVec")


def test_re_exports_are_the_same_objects():
    for name in CAPACITIES_FROM_ECH:
        assert getattr(capacities, name) is getattr(ech, name), name
    for name in CAPACITIES_FROM_TABLE:
        assert getattr(capacities, name) is getattr(_table, name), name
    for name in LATTICE_FROM_POLYGON:
        assert getattr(lattice, name) is getattr(_polygon, name), name


def _unread_private_imports(path) -> list:
    """The private names that the module at path imports from a sibling
    module with `from .x import _y` and then never reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names]
    return [name for name in imported if name.startswith("_") and name not in read]


def test_no_private_name_is_imported_unread():
    """A private name has one home: no module imports one only to pass it on."""
    package = pathlib.Path(torcap.__file__).parent
    unread = {path.stem: names for path in sorted(package.glob("*.py"))
              if (names := _unread_private_imports(path))}
    assert unread == {}


def test_table_build_loads_no_lattice_or_toric_code():
    """The table counts sections by unit moves from the zero vector and
    bounds its values by Pick's formula, or by `count_points` from the
    polygon core when the support numbers share a factor g > 1 with the
    scale, so a build reads no `toric.h0` and loads neither `lattice` nor
    `toric`.  No corpus polygon has g > 1; the triangle (1/3,0) (4/3,0) (1,1)
    has g = 3."""
    polygons = [p.vertices for p in corpus.CORPUS.values()]
    polygons.append(((Fraction(1, 3), 0), (Fraction(4, 3), 0), (1, 1)))
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "from torcap import _polygon, _table\n"
            f"for vertices in {polygons!r}:\n"
            "    values, _denom, vecs = _table._compute_table(_polygon.MomentPolygon(vertices), 100)\n"
            "    assert len(values) == len(vecs) == 101, vertices\n"
            f"print(*{LOADED}, file=sys.stderr)\n")
    loaded = _last_stderr_line(code).split()
    assert "torcap._table" in loaded
    for module in ("lattice", "toric"):
        assert f"torcap.{module}" not in loaded, module
