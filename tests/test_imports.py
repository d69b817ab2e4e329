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


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    """`python args`, run in a fresh interpreter that finds torcap."""
    src = os.path.dirname(os.path.dirname(torcap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60)


def _last_stderr_line(code: str, cwd=None) -> str:
    """The last line that `python -c code` writes on stderr."""
    return _python("-c", code, cwd=cwd).stderr.splitlines()[-1]


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


# the modules that every command line loads, help pages and usage errors too
CLI_MODULES = ["torcap", "torcap.cli", "torcap.corpus", "torcap.errors"]


def _command_loads(tmp_path, args) -> list:
    """The exit code of the command line args, whether it loaded argparse,
    and the torcap modules it loaded, run in a fresh interpreter with the
    files it may name in tmp_path."""
    (tmp_path / "square.poly").write_text(SQUARE)
    (tmp_path / "ball.chain").write_text("0 1/2\n1/2 0\n")
    (tmp_path / "chain.txt").write_text(CHAIN)
    statement = ("from torcap.cli import cli\n"
                 f"try:\n    cli({args!r})\nexcept SystemExit as exc:\n"
                 "    print(exc.code, 'argparse' in sys.modules, end=' ', file=sys.stderr)")
    return _loaded_after(statement, tmp_path)


# the further torcap modules that each command loads, README's table: the
# capacity search reads its fan and weights off the polygon, with no toric
# code, the oracle its rays, weights and intersection numbers, with no
# toric or lattice code, and the verdicts, `lattice-width` and `toric` run
# on the polygon core, with no lattice code
_ECH_VERDICTS = "_base _polygon _table capacities ech"
_LATTICE = "_base _polygon lattice"
_TORIC = "_base _polygon toric"
COMMAND_MODULES = [
    (["capacities", "square.poly", "--k-max", "5"], "_base _polygon _table"),
    (["ech", "ellipsoid", "1", "2", "--k-max", "5"], "_base ech"),
    (["ech", "convex", "square.poly", "--k-max", "5"], _ECH_VERDICTS),
    (["ech", "concave", "chain.txt", "--k-max", "5"], "_base ech"),
    (["embed", "ball.chain", "square.poly", "--k-max", "5"], _ECH_VERDICTS),
    (["width", "square.poly", "--k-max", "5"], _ECH_VERDICTS),
    (["width", "square.poly", "--xi", "chain.txt", "--k-max", "5"], _ECH_VERDICTS),
    (["lattice-width", "square.poly"], "_base _polygon"),
    (["transform-ip", "square.poly", "--coeffs", "0,1,1,0"], _TORIC),
    (["resolve", "square.poly"], _TORIC),
    (["verify-calg", "square.poly", "--k-max", "3", "--box", "4"], "_base _polygon _table oracle"),
    (["verify-sw", "square.poly", "--k-max", "3", "--box", "4"], "_base _polygon oracle"),
    (["corpus"], _LATTICE),
    (["corpus", "unit-square"], _LATTICE),
]


@pytest.mark.parametrize("args, modules", COMMAND_MODULES,
                         ids=[" ".join(args) for args, _ in COMMAND_MODULES])
def test_each_command_loads_its_modules_alone(tmp_path, args, modules):
    """A command that runs to success loads the CLI's modules and its own,
    and no argument parser; with no bytecode cached, this is all it compiles."""
    assert _command_loads(tmp_path, args) == [
        "0", "False", *sorted(CLI_MODULES + [f"torcap.{name}" for name in modules.split()])]


def test_module_table_covers_every_command():
    words = {" ".join(args[:2] if args[0] == "ech" else args[:1]) for args, _ in COMMAND_MODULES}
    assert words == {words for words, entry in cli._COMMANDS.items() if not isinstance(entry, str)}


@pytest.mark.parametrize("args", [["capacities", "--help"], ["ech", "concave", "--help"],
                                  ["verify-calg", "square.poly", "--k-max", "x"]], ids=" ".join)
def test_help_and_usage_errors_load_no_command_module(tmp_path, args):
    """A help page or a usage error loads `_help` beside the CLI's modules,
    and none of the command's."""
    assert _command_loads(tmp_path, args) == [
        "0" if "--help" in args else "2", "False", *sorted(CLI_MODULES + ["torcap._help"])]


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["capacities"], 2)],
                         ids=["--help", "capacities"])
def test_cli_as_main_loads_once(args, code):
    """Under `python -m torcap.cli` the CLI runs as `__main__`: a help page
    or a usage error loads `_help`, and an import of `torcap.cli` from it
    would compile and run the CLI a second time."""
    res = _python("-X", "importtime", "-m", "torcap.cli", *args)
    imported = [line.rpartition("|")[2].strip() for line in res.stderr.splitlines()
                if line.startswith("import time:")]
    assert res.returncode == code
    assert "torcap._help" in imported and "torcap.cli" not in imported


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
LATTICE_FROM_POLYGON = ("MomentPolygon", "primitive", "egcd", "line_cuts", "line_count",
                        "count_points", "edge_lengths", "lattice_width", "Point", "IntVec")


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
