"""Source hygiene and the import graph.

No package module imports a name it never uses, ``__init__.py`` included:
the top level exports nothing, so a re-export added there fails as an unused
import.  Every public name a package module defines is read by some package
module; what only the tests read lives in ``tests/``.  Only ``parallel``
starts threads or counts CPUs, so the lane policy stays in one module.  Only
``streams`` names numpy's seeding and bit generators, so every draw goes
through its key derivation.  Only ``radii`` and ``gaussian`` run lanes, so
every laned projection goes through one function, and no lane calls a
function that runs lanes.  Only ``_project_stack`` calls ``_chunk_rule``, so
no caller of it sizes anything by the row chunks.  Only ``radii._Screen``
works in float32, and ``_project_stack`` asks its screen for nothing but a
flag's row chunks, so the max kernel's screen is one owner's code.  Every
product and QR runs inside one_blas_thread, held by its own function (a scope
entered inside a lane finds one thread and sets nothing) or by the lane
runner.  No
function declares a global: module state is made at import.  No command
loads scipy.integrate, the chi-max oracle behind ``gaussian`` included: it
pulls in some 290 modules that every command would pay for in start-up time
and memory.
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


def _public_definitions(tree: ast.Module) -> set[str]:
    """Public names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_is_loaded_by_the_package():
    # a public name that no package module reads serves only the tests or
    # nothing at all; test-only code belongs in tests/
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert len(trees) > 1
    loaded = {node.id for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = {name: sorted(names - loaded) for name, tree in trees.items()
              if (names := _public_definitions(tree)) - loaded}
    assert unread == {}


def test_bodies_imports_only_streams():
    # the body models stay below the estimators: no import of radii or above.
    # Besides streams they take only the one-BLAS-thread scope from parallel,
    # which imports nothing from the package
    tree = ast.parse((SRC / "bodies.py").read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert relative == {"streams", "parallel"}


def test_only_parallel_decides_lanes():
    # the lane count, its memory budget and the BLAS thread count live in
    # parallel.py: no other module starts threads, counts the CPUs it may run
    # on or loads a shared library
    lane_names = {"threading", "concurrent", "cpu_count", "sched_getaffinity", "ctypes"}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module or "").split(".")[0]} | {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & lane_names:
                found.setdefault(path.name, set()).update(names & lane_names)
    assert found == {"parallel.py": lane_names}


def test_only_radii_and_gaussian_run_lanes():
    # the stacked projection in radii and the Gaussian replicas are the two
    # lane loops: no other module calls run_lanes or asks for lanes, and
    # grassmann, bodies and moments take the one-BLAS-thread scope from
    # parallel; run_lanes runs lane 0 and submits the helper lanes only inside
    # that scope, so every lane of any loop runs one BLAS thread
    imported, calls = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "parallel":
                imported.setdefault(path.name, set()).update(alias.name for alias in node.names)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_lanes":
                calls.append(path.name)
    assert imported == {"radii.py": {"lane_count", "one_blas_thread", "run_lanes"},
                        "gaussian.py": {"lane_count", "run_lanes"},
                        "grassmann.py": {"one_blas_thread"},
                        "bodies.py": {"one_blas_thread"},
                        "moments.py": {"one_blas_thread"}}
    assert calls == ["gaussian.py", "radii.py"]

    def starts(root):  # the calls in root that start a lane: run(0) and each submit
        return [node for node in ast.walk(root) if isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) == "run"
                     or getattr(node.func, "attr", None) == "submit")]

    tree = ast.parse((SRC / "parallel.py").read_text(encoding="utf-8"))
    runner = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "run_lanes")
    held = [node for node in ast.walk(runner) if isinstance(node, ast.With)
            and any(getattr(getattr(item.context_expr, "func", None), "id", None)
                    == "one_blas_thread" for item in node.items)]
    inside = [call for scope in held for call in starts(scope)]
    assert len(starts(runner)) == 2 and all(call in inside for call in starts(runner))


def _holds_one_blas_thread(node: ast.AST) -> bool:
    return isinstance(node, ast.With) and any(
        getattr(getattr(item.context_expr, "func", None), "id", None) == "one_blas_thread"
        for item in node.items)


def test_every_product_runs_on_one_blas_thread():
    # each @, np.matmul and np.linalg.qr of the package sits inside a
    # `with one_blas_thread()` of its own function, or in a generator that the
    # enclosing function passes to run_lanes, which holds that scope for every lane
    sites, loose = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for op in ast.walk(tree):
            if not (isinstance(op, ast.BinOp | ast.AugAssign) and isinstance(op.op, ast.MatMult)
                    or isinstance(op, ast.Call)
                    and ast.unparse(op.func) in ("np.matmul", "np.linalg.qr")):
                continue
            sites.add(path.name)
            node = parent.get(op)
            while not (node is None or _holds_one_blas_thread(node)
                       or isinstance(node, ast.FunctionDef | ast.Lambda)):
                node = parent.get(node)
            if isinstance(node, ast.FunctionDef):
                outer = parent.get(node)
                while outer is not None and not isinstance(outer, ast.FunctionDef):
                    outer = parent.get(outer)
                laned = outer is not None and any(
                    isinstance(call, ast.Call) and getattr(call.func, "id", None) == "run_lanes"
                    and getattr(call.args[0], "id", None) == node.name for call in ast.walk(outer))
                generator = any(isinstance(y, ast.Yield) for y in ast.walk(node))
                if laned and generator:
                    continue
            if not _holds_one_blas_thread(node):
                loose.append(f"{path.name}:{op.lineno}")
    assert sites == {"bodies.py", "gaussian.py", "grassmann.py", "moments.py", "radii.py"}
    assert loose == []


def _called_name(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_lanes_never_nest():
    # a lane that ran lanes itself could wait on a helper that waits on it
    # once the pool is busy.  The functions that run lanes are run_lanes and,
    # by name, every package function that calls one of them; no generator
    # passed to run_lanes may call any of them
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append(node)
    calls = {name: {_called_name(call) for node in nodes for call in ast.walk(node)
                    if isinstance(call, ast.Call)} for name, nodes in functions.items()}
    laned = {"run_lanes"}
    while grown := {name for name, called in calls.items() if called & laned} - laned:
        laned |= grown
    assert {"_project_stack", "projected_sq_norms", "radius_profile", "_flag_radii",
            "projected_max_mc"} <= laned
    loops = [(node, call.args[0].id) for nodes in functions.values() for node in nodes
             for call in ast.walk(node) if isinstance(call, ast.Call)
             and _called_name(call) == "run_lanes" and isinstance(call.args[0], ast.Name)]
    assert len(loops) == 2
    nested = sorted(f"{block.name}:{call.lineno} calls {_called_name(call)}"
                    for outer, name in loops for block in ast.walk(outer)
                    if isinstance(block, ast.FunctionDef) and block.name == name
                    for call in ast.walk(block)
                    if isinstance(call, ast.Call) and _called_name(call) in laned)
    assert nested == []


def test_only_the_stack_projection_cuts_chunks():
    # the row chunks of a flag are _project_stack's business: a reduce keeps
    # its own state per slice, so no other function asks _chunk_rule how the
    # rows are cut or sizes an array by their count
    callers = sorted(f"{path.name}:{node.name}" for path in sorted(SRC.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef)
                     and any(isinstance(call, ast.Call) and _called_name(call) == "_chunk_rule"
                             for call in ast.walk(node)))
    assert callers == ["radii.py:_project_stack"]


def test_only_the_screen_works_in_float32():
    # the max kernel's float32 screen is one class: no other code casts to or
    # allocates float32, and the stack projection reads nothing of its screen
    # but the generator of a flag's row chunks
    single = {"float32", "single", "f4", "<f4"}
    found, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        screen = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "_Screen"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in single
                    or isinstance(node, ast.Constant) and node.value in single):
                (found if id(node) in screen else outside).append(f"{path.name}:{node.lineno}")
    assert found and outside == []
    tree = ast.parse((SRC / "radii.py").read_text(encoding="utf-8"))
    stack = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_project_stack")
    read = {node.attr for node in ast.walk(stack)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "screen"}
    assert read == {"chunks"}


def test_only_streams_makes_generators():
    # every draw goes through the key derivation in streams: no other module
    # names numpy's seeding, bit generators or raw-word draws
    names = {"SeedSequence", "Philox", "Generator", "default_rng", "random_raw"}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named = {node.id}
            elif isinstance(node, ast.Attribute):
                named = {node.attr}
            elif isinstance(node, ast.Import | ast.ImportFrom):
                named = {part for alias in node.names for part in alias.name.split(".")}
            else:
                continue
            if named & names:
                found.setdefault(path.name, set()).update(named & names)
    assert list(found) == ["streams.py"]


def test_no_function_rebinds_module_state():
    # module state is made once, at import: no function of the package
    # declares a global to make or replace it later
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []


def _probe(tmp_path: Path, commands: list[list[str]]) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path), json.dumps(commands)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_command_loads_scipy_integrate(tmp_path):
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
    # the chi-max oracle integrates with its own Gauss-Legendre rule, with and
    # without the Monte Carlo replicas
    oracle = [["gaussian", "--k", "1", "--N", "10", "--M", "0"],
              ["gaussian", "--k", "1", "--N", "10", "--M", "4"]]
    assert _probe(tmp_path, oracle) == [False, False, [0, 0]]
