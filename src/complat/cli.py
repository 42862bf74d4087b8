"""Command line interface.

Three subcommands over JSON documents (linear_quotient or quiver):

  faces    enumerate special faces
  closure  special closure of a face (--face) or of a cone (--ray)
  verify   run a verification suite (--suite)

The arguments are parsed, and --help is written, from one option table
per command (_COMMANDS), not by argparse, which costs every command its
gettext and locale imports. Options keep argparse's forms (--opt value,
--opt=value, unique prefixes, before or after the spec) and its usage
errors (exit 2); an option's value may start with -, as in --face -3,0.
The tokens are read in one pass: the first positional is the command, and
-h/--help is the only option before it. -- makes every later token
positional, the command included, so complat -- faces s.json runs faces
and complat -- alone lacks its command (exit 2). As in argparse, -h/--help
given a value (--help=x) is a usage error, -1. is an option and not a
number, and a token holding a space is positional.

The layers a command runs (qlinalg, arrangement, stackmodel, linmoduli)
load on first use, so a counting command never executes the geometric
ones; no module imports fractions until a Fraction is built or parsed.

Output is canonical JSON by default (sorted keys, rationals as "num/den"
strings) and always carries the sha256 digest of the parsed input
document. Exit codes: 0 success, 1 a verified property failed, 2 invalid
input, 3 an enumeration cap was exceeded, 4 an internal invariant broke
(a bug in complat, not in the input), 141 stdout was closed before the
report or the help was written (128 + SIGPIPE).
"""

from __future__ import annotations

import atexit
import importlib.util
import json
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .errors import CapExceeded, InvariantError, SpecError
from .jsonio import document_digest, jsonable, load_document


def _layer(name: str):
    """The module complat.<name>, registered but not executed: it is put in
    sys.modules and on the package, and its code runs on the first access
    to one of its attributes (importlib.util.LazyLoader). A module already
    imported is returned as it is.

    perfbench/tracer.py reads sys.modules["complat.<layer>"] for every
    layer before main runs, which a lazy module satisfies: the tracer's
    getattr loads it. Once a benchmark change lets the tracer skip modules
    a command never loaded, plain imports inside the commands can replace
    this helper."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


_layer("qlinalg")  # run by the other layers only; registered for the tracer
arrangement = _layer("arrangement")
sm = _layer("stackmodel")
lm = _layer("linmoduli")


def _parse_vector(text: str, rank: int) -> tuple[Fraction, ...]:
    from fractions import Fraction

    try:
        vec = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"cannot parse vector {text!r}: {exc}") from exc
    if len(vec) != rank:
        raise SpecError(f"vector {text!r} has {len(vec)} entries, expected {rank}")
    return vec


def _cmd_faces(args, doc: dict, digest: str) -> dict:
    kind = doc.get("type")
    base = {"command": "faces", "type": kind, "spec_digest": digest}
    if kind == "linear_quotient":
        spec = sm.load_spec(doc)
        entries = [
            {
                "dim": o.dim,
                "orbit_size": o.orbit_size,
                "basis": o.flat.subspace.basis,
                "fixed_weights": o.signature.fixed_weights,
                "levi_roots": o.signature.levi_roots,
            }
            for o in sm.enumerate_special_faces(spec)
        ]
        corbits = sm.cell_orbits(spec)
        return {
            **base,
            "count": len(entries),
            "face_orbits": entries,
            "cells": sum(o.orbit_size for o in corbits),
            "cell_orbits": len(corbits),
            "cell_orbit_sizes": [o.orbit_size for o in corbits],
            "ok": True,
        }
    if kind == "quiver":
        quiver = lm.load_quiver(doc)
        by_gamma = []
        for total in range(1, args.max_dim + 1):
            for gamma in lm.dim_vectors(quiver.n_vertices, total):
                decs = lm.multiset_decompositions(gamma)
                by_gamma.append({"gamma": gamma, "count": len(decs), "decompositions": decs})
        return {
            **base,
            "max_total": args.max_dim,
            "count": sum(e["count"] for e in by_gamma),
            "by_gamma": by_gamma,
            "ok": True,
        }
    raise SpecError(f"unsupported document type {kind!r}")


def _cmd_closure(args, doc: dict, digest: str) -> dict:
    if doc.get("type") != "linear_quotient":
        raise SpecError("closure requires a linear_quotient document")
    spec = sm.load_spec(doc)
    rays = [_parse_vector(t, spec.rank) for t in (args.ray or [])]
    face_vecs = [_parse_vector(t, spec.rank) for t in (args.face or [])]
    if bool(rays) == bool(face_vecs):
        raise SpecError("give vectors with exactly one of --face or --ray")
    base = {"command": "closure", "input": "face" if face_vecs else "cone", "spec_digest": digest}
    if face_vecs:
        face = sm.span(face_vecs, spec.rank)
        flat = sm.special_face_closure(spec, face)
        sig = sm.component_signature(spec, flat.subspace)
        return {
            **base,
            "face_dim": face.dim,
            "is_special": sm.is_special(spec, face),
            "central_rank": sm.central_rank(spec, face),
            "closure_dim": flat.dim,
            "closure_basis": flat.subspace.basis,
            "fixed_weights": sig.fixed_weights,
            "levi_roots": sig.levi_roots,
            "ok": True,
        }
    sig = sm.special_cone_closure(spec, rays)
    return {**base, **sm.cone_fields(sig), "ok": True}


def _cmd_verify(args, doc: dict, digest: str) -> dict:
    base = {"command": "verify", "suite": args.suite, "spec_digest": digest}
    kind = doc.get("type")
    if args.suite in ("constancy", "hall"):
        if kind != "linear_quotient":
            raise SpecError(f"suite {args.suite} requires a linear_quotient document")
        spec = sm.load_spec(doc)
        if args.suite == "constancy":
            reports = [
                sm.constancy_check(spec, fl, samples=args.samples, seed=args.seed)
                for fl in arrangement.flats(sm.global_arrangement(spec))
            ]
            discrepancies = [d for r in reports for d in r["discrepancies"]]
            return {
                **base,
                "ok": not discrepancies,
                "flats": len(reports),
                "chambers": sum(len(r["chambers"]) for r in reports),
                "samples_per_chamber": args.samples,
                "seed": args.seed,
                "discrepancies": discrepancies,
            }
        cat = sm.hall_category(spec)
        laws = sm.verify_hall_category(cat)
        identity = sm.hall_composition_weight_identity(spec, cat)
        return {
            **base,
            "ok": bool(laws.get("ok")) and identity is True,
            "category": laws,
            "weight_identity": identity,
        }
    if kind != "quiver":
        raise SpecError(f"suite {args.suite} requires a quiver document")
    quiver = lm.load_quiver(doc)
    if args.suite == "associativity":
        report = lm.verify_counting_hall(quiver, args.q, args.max_dim)
        return {**base, "q": args.q, "max_total": args.max_dim, **report}
    if args.suite == "finiteness":
        cat = lm.hall_category_lms(quiver.n_vertices, args.max_dim)
        out = {**base, "max_total": args.max_dim, **lm.verify_lms_category(cat)}
        out["identification"] = lm.identification(cat.objects)
        out["objects"] = len(cat.objects)
        out["morphisms"] = len(cat.morphisms)
        return out
    checks = []
    for total in range(1, args.max_dim + 1):
        for gamma in lm.dim_vectors(quiver.n_vertices, total):
            checks.append({"gamma": gamma, **lm.cross_check_special_faces(quiver, gamma)})
    return {**base, "max_total": args.max_dim, "ok": all(c["ok"] for c in checks), "checks": checks}


_OUTPUT = ("--output", ("json", "text"), "json", None)

# Per command: its function, its help line and its options, each (flag,
# kind, default, help). kind is int, a tuple of choices, or list for a
# repeatable option whose values collect in order; a default of ... makes
# the option required. The parser and --help read this table alone.
_COMMANDS = {
    "faces": (
        _cmd_faces,
        "enumerate special faces",
        (_OUTPUT, ("--max-dim", int, 3, "total dimension bound for quiver documents")),
    ),
    "closure": (
        _cmd_closure,
        "special closure of a face or a cone",
        (
            _OUTPUT,
            ("--face", list, None, "spanning vector of the face as comma-separated rationals; repeatable"),
            ("--ray", list, None, "generating ray of the cone; repeatable"),
        ),
    ),
    "verify": (
        _cmd_verify,
        "run a verification suite",
        (
            _OUTPUT,
            ("--suite", ("constancy", "hall", "associativity", "finiteness", "crosscheck"), ..., None),
            ("--samples", int, 100, "samples per chamber"),
            ("--seed", int, 0, None),
            ("--q", int, 2, "field size for counting suites"),
            ("--max-dim", int, 3, "total dimension bound for quiver suites"),
        ),
    ),
}


def _inline(value) -> str | None:
    """Compact form for a scalar, a vector, or a list of vectors; None for a
    dict or a list too long to fit on one line."""
    if not isinstance(value, (dict, list)):
        return str(value)
    if isinstance(value, list):
        parts = [_inline(v) for v in value]
        if None not in parts and sum(map(len, parts)) < 60:
            return f"({', '.join(parts)})"
    return None


def _text_lines(value: dict | list, indent: int = 0):
    """The text layout of a dict (key: value) or a list (- item): each entry
    on one line when it fits, else its label and then its entries, indented."""
    pad = "  " * indent
    entries = ((f"{k}:", v) for k, v in value.items()) if isinstance(value, dict) else (("-", v) for v in value)
    for label, item in entries:
        flat = _inline(item)
        if flat is not None:
            yield f"{pad}{label} {flat}"
        else:
            yield f"{pad}{label}"
            yield from _text_lines(item, indent + 1)


def _emit(report: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(jsonable(report), sort_keys=True, indent=2))
    else:
        print("\n".join(_text_lines(jsonable(report))))


_DESCRIPTION = "Component lattices of quotient stacks: faces, closures, verification."
_SPEC_HELP = "path to a JSON document (linear_quotient or quiver), or - for stdin"
_HELP = ("-h", "--help")


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _metavar(flag: str, kind) -> str:
    if kind is list:
        return "VEC"
    if kind is int:
        return _dest(flag).upper()
    return "{" + ",".join(kind) + "}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: complat [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = ["usage: complat", command, "[-h]"]
    for flag, kind, default, _ in _COMMANDS[command][2]:
        word = f"{flag} {_metavar(flag, kind)}"
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words + ["spec"])


def _fail(command: str | None, message: str):
    """A usage error: the usage line and the message on stderr, exit 2."""
    prog = "complat" if command is None else f"complat {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _closed_stdout() -> int:
    """The reader is gone: stdout to devnull, so the shutdown flush cannot
    raise again, and the exit code a shell gives a filter SIGPIPE killed."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 141


def _help(command: str | None):
    """--help: the usage line, then one line per command, or per argument of
    the command with its help; exit 0, or 141 if stdout is closed."""
    if command is None:
        lines = [_DESCRIPTION, "", "commands:"]
        rows = [(name, entry[1]) for name, entry in _COMMANDS.items()]
    else:
        lines = [_COMMANDS[command][1], "", "arguments:"]
        rows = [("spec", _SPEC_HELP), ("-h, --help", "show this help message and exit")]
        rows += [(f"{flag} {_metavar(flag, kind)}", text or "") for flag, kind, _, text in _COMMANDS[command][2]]
    for name, text in rows:
        gap = " " * (22 - len(name)) if len(name) < 21 else "\n" + " " * 24
        lines.append(f"  {name}{gap}{text}".rstrip())
    try:
        print("\n".join([_usage(command), "", *lines]))
        sys.stdout.flush()
    except BrokenPipeError:
        raise SystemExit(_closed_stdout()) from None
    raise SystemExit(0)


def _parse_args(argv: Sequence[str] | None) -> SimpleNamespace:
    """The command, its spec and one field per option of its table entry,
    read in one pass over the tokens.

    The first positional is the command, and -h/--help is the only option
    before it. After it, options come before or after the spec, as --opt
    value or --opt=value, by any unique prefix; an option takes the next
    token as its value even when it starts with -. As in argparse, a token
    that starts with - is an option unless it is - itself (stdin) or, naming
    no option, is a negative number (-1, -1.5, -.5, but not -1.) or holds a
    space. -- makes every later token positional, the command included. A
    usage error exits 2 (SystemExit) and --help exits 0, each with
    argparse's wording."""
    command, options, values, extras = None, dict.fromkeys(_HELP), {}, []
    positional_only = False
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        if token == "--" and not positional_only:
            positional_only = True
            continue
        flag, eq, value = token.partition("=")
        hits = [flag] if flag in options else [f for f in options if flag[:2] == "--" and f.startswith(flag)]
        whole, dot, decimals = token[1:].partition(".")
        number = (whole + decimals).isdecimal() and (decimals or not dot)
        if positional_only or token[:1] != "-" or token == "-" or not hits and (number or " " in token):
            if command is None:
                if token not in _COMMANDS:
                    choices = ", ".join(map(repr, _COMMANDS))
                    _fail(None, f"argument command: invalid choice: {token!r} (choose from {choices})")
                command, table = token, _COMMANDS[token][2]
                options.update((flag, kind) for flag, kind, _, _ in table)
                values = {"command": command, "spec": ..., **{_dest(flag): default for flag, _, default, _ in table}}
            elif values["spec"] is ...:
                values["spec"] = token
            else:
                extras.append(token)
            continue
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(hits)}")
        if not hits:
            if command is None:
                _fail(None, f"unrecognized arguments: {token}")
            extras.append(token)
            continue
        flag = hits[0]
        if flag in _HELP:
            if eq:
                _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
            _help(command)
        if not eq:
            value = next(tokens, None)
            if value is None:
                _fail(command, f"argument {flag}: expected one argument")
        kind = options[flag]
        if kind is list:
            value = [*(values[_dest(flag)] or ()), value]
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"argument {flag}: invalid int value: {value!r}")
        elif value not in kind:
            _fail(command, f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        values[_dest(flag)] = value
    if command is None:
        _fail(None, "the following arguments are required: command")
    missing = [name for name in ("spec", *options) if values.get(_dest(name)) is ...]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        for flag in ("samples", "max_dim"):
            if getattr(args, flag, 1) < 1:
                raise SpecError(f"--{flag.replace('_', '-')} must be at least 1")
        doc = load_document(args.spec)
        report = _COMMANDS[args.command][0](args, doc, document_digest(doc))
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant broken: {exc}", file=sys.stderr)
        return 4
    try:
        _emit(report, args.output)
        sys.stdout.flush()
    except BrokenPipeError:
        return _closed_stdout()
    return 0 if report.get("ok", True) else 1


def run() -> None:
    """Process entry of the `complat` command: exit with the code of main().

    Once main() returns, the atexit handlers run and stdout and stderr are
    flushed, as at a normal exit; then os._exit ends the process, skipping
    the interpreter teardown that would free every module and object the
    command built. A SystemExit from the parser (--help, usage errors) or
    an uncaught exception takes the normal exit. main() returns its code
    and leaves the process alone, so in-process callers see no change."""
    code = main()
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
