"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

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
    # records; perfbench/tracer.py hooks every layer module, so cli loads
    # them all; -S keeps site-packages start-up hooks out of the count
    code = (
        "import json, sys, complat.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m in "
        "('dataclasses', 'inspect') or m.startswith('complat.'))))"
    )
    env = {"PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert not loaded & {"dataclasses", "inspect"}, loaded
    layers = {"complat." + m for m in ("qlinalg", "arrangement", "stackmodel", "linmoduli", "jsonio")}
    assert layers <= loaded, layers - loaded


def _loaded_by_each_command(watch, env):
    """Which modules of watch are loaded after `import complat.cli` and
    after each of a faces, a closure and a counting verify command run in
    process, with each command's exit code, in a fresh python -S."""
    specs = ROOT / "specs"
    commands = [
        ["faces", str(specs / "a2_gl2.json")],
        ["closure", str(specs / "a2_gl2.json"), "--face", "0,1"],
        ["verify", str(specs / "a2_quiver.json"), "--suite", "associativity", "--q", "2",
         "--max-dim", "2"],
    ]
    code = (
        "import contextlib, io, json, sys, complat.cli\n"
        "watch = json.loads(sys.argv[2])\n"
        "def loaded():\n"
        "    return sorted(m for m in watch if m in sys.modules)\n"
        "seen = [['import', 0, loaded()]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        seen.append([argv[0], complat.cli.main(argv), loaded()])\n"
        "print(json.dumps(seen))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps(commands), json.dumps(watch)],
        env={"PYTHONPATH": str(ROOT / "src"), **env},
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
    assert seen == [[name, 0, []] for name in ("import", "faces", "closure", "verify")], seen
    assert any(tmp_path.iterdir()), "the counting command wrote no cache entry"


def test_no_command_loads_argparse_gettext_or_locale():
    # argparse imports gettext, its parsers look up every message there and
    # its first help string imports locale: about 5 ms of every short
    # command, so cli parses with its own option table
    seen = _loaded_by_each_command(["argparse", "gettext", "locale"], {})
    assert seen == [[name, 0, []] for name in ("import", "faces", "closure", "verify")], seen


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
