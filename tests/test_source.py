"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

from oracles import PACKAGE_PATH

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "complat"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; raise InvariantError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_no_global_statements_in_the_package():
    # state a global statement rebinds is shared by every caller in the
    # process and outlives the call that set it; a setting is read where
    # it is used instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert not found, found


def test_no_floats_in_the_package():
    # the core is exact: a float literal or a float() call anywhere in it
    # would round where every comparison relies on equality being exact
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
    ]
    assert not found, found


def test_only_the_process_entry_ends_the_process():
    # tests, demos and the benchmark tracer call main() and the library in
    # process, so a library path that ended the interpreter or froze its
    # heap would end or change the caller's process; cli.run, the process
    # entry, is the one place that may
    ending = {"os._exit", "sys.exit", "gc.freeze"}
    found, in_run = [], []
    for path in sorted(SRC.glob("*.py")):
        for scope in ast.parse(path.read_text(), filename=str(path)).body:
            entry = path.name == "cli.py" and isinstance(scope, ast.FunctionDef) and scope.name == "run"
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in ending:
                    (in_run if entry else found).append(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.ImportFrom) and {f"{node.module}.{a.name}" for a in node.names} & ending:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found
    assert len(in_run) == 1, in_run


def test_every_traced_name_is_a_function_of_its_module():
    # perfbench/tracer.py looks up each name of LAYERS and COUNTED with
    # getattr on its complat module when it installs its hooks, so renaming
    # one of them away breaks every traced benchmark run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [
        (layer, name)
        for table in (tracer.LAYERS, tracer.COUNTED)
        for layer, names in table.items()
        for name in names
    ]
    missing = [
        f"{layer}.{name}"
        for layer, name in names
        if not inspect.isfunction(inspect.unwrap(getattr(importlib.import_module("complat." + layer), name, None)))
    ]
    assert len(names) > 20 and not missing, missing


def test_the_cli_imports_every_layer_and_neither_dataclasses_nor_inspect():
    # start-up is most of a short command: dataclasses pulls in inspect,
    # ast, dis and tokenize, so the value types are collections.namedtuple
    # records. perfbench/tracer.py looks up every layer module in
    # sys.modules before main runs, so cli registers them all; their code
    # runs on first use (importlib.util.LazyLoader), so importing cli
    # executes none of the layers but jsonio. -S keeps site-packages
    # start-up hooks out of the count
    code = (
        "import json, sys, complat.cli; "
        "print(json.dumps({m: type(sys.modules[m]) is type(sys) for m in sys.modules if m in "
        "('dataclasses', 'inspect') or m.startswith('complat.')}))"
    )
    env = {"PYTHONPATH": PACKAGE_PATH}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert not loaded.keys() & {"dataclasses", "inspect"}, loaded
    layers = {"complat." + m for m in ("qlinalg", "arrangement", "stackmodel", "linmoduli")}
    assert layers <= loaded.keys(), layers - loaded.keys()
    assert {m for m in layers | {"complat.jsonio"} if loaded.get(m)} == {"complat.jsonio"}, loaded


# one command of each kind, in the order they run in one process: the
# counting and hall suites before the commands that render or parse
# rationals
COMMANDS = {
    "associativity": ["verify", "a2_quiver.json", "--suite", "associativity", "--q", "2", "--max-dim", "2"],
    "hall": ["verify", "a2_gl2.json", "--suite", "hall"],
    "closure": ["closure", "a2_gl2.json", "--face", "0,1"],
    "faces": ["faces", "a2_gl2.json"],
}


def _loaded_by_each_command(watch, env):
    """Which modules of watch are loaded, their code executed, after
    `import complat.cli` and after each of COMMANDS runs in process, with
    each command's exit code, in a fresh python -S. A lazy module that is
    registered but not executed does not count."""
    commands = [[name, argv[0], str(ROOT / "specs" / argv[1]), *argv[2:]] for name, argv in COMMANDS.items()]
    code = (
        "import contextlib, io, json, sys, complat.cli\n"
        "watch = json.loads(sys.argv[2])\n"
        "def loaded():\n"
        "    return sorted(m for m in watch if type(sys.modules.get(m)) is type(sys))\n"
        "seen = [['import', 0, loaded()]]\n"
        "for name, *argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        seen.append([name, complat.cli.main(argv), loaded()])\n"
        "print(json.dumps(seen))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps(commands), json.dumps(watch)],
        env={"PYTHONPATH": PACKAGE_PATH, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_no_command_loads_hashlib(tmp_path):
    # hashlib loads OpenSSL's libcrypto, a few ms and MB of every short
    # command, so jsonio digests with the interpreter's built-in sha256;
    # the counting command digests cache keys too, so it gets a cache
    seen = _loaded_by_each_command(["hashlib", "_hashlib"], {"COMPONENT_LATTICE_CACHE": str(tmp_path)})
    assert seen == [[name, 0, []] for name in ("import", *COMMANDS)], seen
    assert any(tmp_path.iterdir()), "the counting command wrote no cache entry"


def test_no_command_loads_argparse_gettext_or_locale():
    # argparse imports gettext, its parsers look up every message there and
    # its first help string imports locale: about 5 ms of every short
    # command, so cli parses with its own option table; typing is about a
    # third of importing the package, so annotations take their generic
    # types from collections.abc
    seen = _loaded_by_each_command(["argparse", "gettext", "locale", "typing"], {})
    assert seen == [[name, 0, []] for name in ("import", *COMMANDS)], seen


def test_each_command_executes_only_the_layers_it_runs_and_fractions_only_for_rationals():
    # fractions imports decimal and numbers, and stackmodel imports random
    # (which -S leaves unloaded otherwise): a few ms of every command that
    # loads them. A counting suite runs linmoduli alone, the hall suite the
    # geometric layers but no Fraction; closure parses its vectors and
    # faces prints its bases as rationals, so fractions loads there
    numbers = ["decimal", "fractions", "numbers"]
    geometric = ["complat.arrangement", "complat.qlinalg", "complat.stackmodel", "random"]
    seen = _loaded_by_each_command([*numbers, *geometric, "complat.linmoduli"], {})
    assert seen == [
        ["import", 0, []],
        ["associativity", 0, ["complat.linmoduli"]],
        ["hall", 0, sorted([*geometric, "complat.linmoduli"])],
        ["closure", 0, sorted([*numbers, *geometric, "complat.linmoduli"])],
        ["faces", 0, sorted([*numbers, *geometric, "complat.linmoduli"])],
    ], seen


def _run_at_import(tree):
    """The statements a module runs when it is imported: its body and the
    bodies of its if, try, with and class blocks, but no function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))


def test_no_module_imports_fractions_at_top_level():
    # fractions imports decimal and numbers, 2.5 to 4 ms of every command's
    # start-up, so it is imported only inside the functions that build or
    # parse a Fraction; jsonio looks the class up only once it is loaded
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in _run_at_import(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions")
        or (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions" for a in node.names))
    ]
    assert not found, found


def test_no_record_derives_from_typing_namedtuple():
    # typing.NamedTuple compiles a ForwardRef for every string annotation
    # when its class is made, about 4 ms of every command's import, so the
    # records are collections.namedtuple classes with field types in their
    # docstrings
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.ClassDef) and any("NamedTuple" in ast.unparse(base) for base in node.bases))
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "NamedTuple" for alias in node.names))
    ]
    assert not found, found


def test_every_mutant_applies_to_the_source_and_names_existing_tests():
    # tests/mutants.py re-runs the recorded mutation checks: a replacement
    # that no longer matches the source, or a test id that no longer
    # exists, would leave its mutant checking nothing
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    ids = [m.id for m in mutants.MUTANTS]
    assert len(ids) >= 10 and len(set(ids)) == len(ids), ids
    stale = [m.id for m in mutants.MUTANTS if (SRC / m.file).read_text().count(m.old) != 1 or m.old == m.new]
    assert not stale, stale
    assert all(m.tests for m in mutants.MUTANTS)
    tests = sorted({t for m in mutants.MUTANTS for t in m.tests})
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT,
        env={"PYTHONPATH": PACKAGE_PATH},
        capture_output=True,
        text=True,
    )
    missing = sorted(set(tests) - set(out.stdout.splitlines()))
    assert out.returncode == 0 and not missing, (missing, out.stdout[-2000:], out.stderr[-2000:])
