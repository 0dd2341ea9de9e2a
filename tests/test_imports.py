"""Source hygiene and the import graph.

No package module imports a name it never uses, ``__init__.py`` included:
the top level exports nothing, so a re-export added there fails as an unused
import.  Only the chi quadrature behind ``gaussian`` loads scipy.integrate: it
pulls in some 290 modules that every other command would pay for in start-up
time and memory.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polyradii"

# Runs in a fresh interpreter: argv[1] is a scratch directory, argv[2] a JSON
# list of CLI argument lists.  Prints whether scipy.integrate was loaded after
# the import and after the commands, and each command's exit status.
_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, os, sys
    from polyradii.cli import main
    after_import = "scipy.integrate" in sys.modules
    os.chdir(sys.argv[1])
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv) for argv in json.loads(sys.argv[2])]
    print(json.dumps([after_import, "scipy.integrate" in sys.modules, codes]))
    """
)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom) and getattr(node, "module", "") != "__future__":
            # "import a.b" binds "a"
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}


def test_bodies_imports_only_streams():
    # the body models stay below the estimators: no import of radii or above
    tree = ast.parse((SRC / "bodies.py").read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert relative == {"streams"}


def _probe(tmp_path: Path, commands: list[list[str]]) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path), json.dumps(commands)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_gaussian_loads_scipy_integrate(tmp_path):
    sweep = {"body": "cube", "n": 4, "N_list": [8], "k_list": [1, 4], "M": 4, "R": 1}
    check = {"body": "cube", "n": 8, "N_list": [8], "k_list": [1, 8], "M": 4, "R": 1, "m": 2000}
    (tmp_path / "sweep.json").write_text(json.dumps(sweep))
    (tmp_path / "check.json").write_text(json.dumps(check))
    commands = [
        ["estimate", "--body", "ball", "--n", "4", "--N", "8", "--k", "2", "--M", "4"],
        ["sweep", "--config", "sweep.json", "--out", "sweep.csv"],
        ["check", "--config", "check.json"],
        ["plot", "sweep.csv", "--x", "k", "--y", "ratio", "--out", "sweep.svg"],
    ]
    assert _probe(tmp_path, commands) == [False, False, [0, 0, 0, 0]]
    oracle = [["gaussian", "--k", "1", "--N", "10", "--M", "0"]]
    assert _probe(tmp_path, oracle) == [False, True, [0]]
