"""What each import and each CLI command loads, and the re-exported names."""

import os
import subprocess
import sys

import pytest

import torcap
from torcap import _base, capacities, cli, corpus, ech, lattice

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


def test_import_corpus_builds_nothing():
    assert _loaded_after("import torcap.corpus") == ["torcap", "torcap.corpus"]
    assert _loaded_after("from torcap.corpus import CORPUS") == [
        "torcap", "torcap._base", "torcap.corpus", "torcap.errors", "torcap.lattice"]


def test_import_cli_loads_no_math_module():
    assert _loaded_after("import torcap.cli") == [
        "torcap", "torcap.cli", "torcap.corpus", "torcap.errors"]


@pytest.mark.parametrize("args", [["ech", "concave", "chain.txt", "--k-max", "5"],
                                  ["ech", "ellipsoid", "1", "2", "--k-max", "5"]])
def test_ech_commands_load_no_toric_code(tmp_path, args):
    (tmp_path / "chain.txt").write_text(CHAIN)
    statement = ("from torcap.cli import cli\n"
                 f"try:\n    cli({args!r})\nexcept SystemExit as exc:\n    assert exc.code == 0")
    loaded = _loaded_after(statement, tmp_path)
    assert "torcap.ech" in loaded
    for module in ("lattice", "toric", "capacities", "oracle"):
        assert f"torcap.{module}" not in loaded, module


@pytest.mark.parametrize("args", [["capacities", "square.poly", "--k-max", "5"],
                                  ["ech", "convex", "square.poly", "--k-max", "5"],
                                  ["embed", "ball.chain", "square.poly", "--k-max", "5"],
                                  ["width", "square.poly", "--xi", "chain.txt", "--k-max", "5"]])
def test_capacity_commands_load_no_toric_code(tmp_path, args):
    """The capacity search reads its fan and weights off the polygon."""
    (tmp_path / "square.poly").write_text(SQUARE)
    (tmp_path / "ball.chain").write_text("0 1/2\n1/2 0\n")
    (tmp_path / "chain.txt").write_text(CHAIN)
    statement = ("from torcap.cli import cli\n"
                 f"try:\n    cli({args!r})\nexcept SystemExit as exc:\n    assert exc.code == 0")
    loaded = _loaded_after(statement, tmp_path)
    assert "torcap.capacities" in loaded
    for module in ("toric", "oracle"):
        assert f"torcap.{module}" not in loaded, module


@pytest.mark.parametrize("words", sorted(cli._MODULES))
def test_command_modules_are_imported_before_the_parser(tmp_path, words):
    """The modules imported ahead of argparse and the parser are all that
    the command loads: none is compiled while the parser is alive."""
    (tmp_path / "p.txt").write_text(SQUARE)
    (tmp_path / "chain.txt").write_text(CHAIN)
    (tmp_path / "ball.txt").write_text("0 1/2\n1/2 0\n")
    operands = {"ech ellipsoid": ["1", "2"], "ech concave": ["chain.txt"],
                "embed": ["ball.txt", "p.txt"], "transform-ip": ["p.txt", "--coeffs", "0,1,1,0"],
                "corpus": ["unit-square"], "verify-calg": ["p.txt", "--k-max", "2"],
                "verify-sw": ["p.txt", "--k-max", "2"]}
    args = [*words.split(), *operands.get(words, ["p.txt"])]
    code = ("import sys\n"
            "from torcap import cli\n"
            f"cli._import_modules({args!r})\n"
            f"before = {LOADED}\n"
            "parser_module = 'argparse' in sys.modules\n"
            "try:\n"
            f"    cli.cli({args!r})\n"
            "except SystemExit as exc:\n"
            f"    print(exc.code, before == {LOADED}, parser_module, file=sys.stderr)\n")
    assert _last_stderr_line(code, tmp_path) == "0 True False"


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


# the names that moved from capacities to ech, and from lattice to _base
MOVED_TO_ECH = ("ALG", "ECH_ELLIPSOID", "ECH_CONVEX", "ECH_CONCAVE", "WEIGHT_EXPANSION_CAP",
                "CapacitySequence", "ech_ellipsoid", "ech_ellipsoid_capacities",
                "_ellipsoid_values", "ConcaveDomain", "concave_weights", "ech_concave",
                "ech_concave_capacities", "_concave_values")
MOVED_TO_BASE = ("_Record", "frac", "det2")


def test_re_exports_are_the_same_objects():
    for name in MOVED_TO_ECH:
        assert getattr(capacities, name) is getattr(ech, name), name
    for name in MOVED_TO_BASE:
        assert getattr(lattice, name) is getattr(_base, name), name
    from torcap.capacities import ConcaveDomain, concave_weights

    assert ConcaveDomain is ech.ConcaveDomain and concave_weights is ech.concave_weights
