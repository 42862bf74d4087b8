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
    # ast, dis and tokenize, so the value types are NamedTuple records;
    # perfbench/tracer.py hooks every layer module, so cli loads them all;
    # -S keeps site-packages start-up hooks out of the count
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
