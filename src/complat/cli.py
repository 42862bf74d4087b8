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


def _cmd_faces(args) -> dict:
    doc = load_document(args.spec)
    digest = document_digest(doc)
    kind = doc.get("type")
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
            "command": "faces",
            "type": kind,
            "spec_digest": digest,
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
            "command": "faces",
            "type": kind,
            "spec_digest": digest,
            "max_total": args.max_dim,
            "count": sum(e["count"] for e in by_gamma),
            "by_gamma": by_gamma,
            "ok": True,
        }
    raise SpecError(f"unsupported document type {kind!r}")


def _cmd_closure(args) -> dict:
    doc = load_document(args.spec)
    digest = document_digest(doc)
    if doc.get("type") != "linear_quotient":
        raise SpecError("closure requires a linear_quotient document")
    spec = sm.load_spec(doc)
    rays = [_parse_vector(t, spec.rank) for t in (args.ray or [])]
    face_vecs = [_parse_vector(t, spec.rank) for t in (args.face or [])]
    if bool(rays) == bool(face_vecs):
        raise SpecError("give vectors with exactly one of --face or --ray")
    if face_vecs:
        face = sm.span(face_vecs, spec.rank)
        flat = sm.special_face_closure(spec, face)
        sig = sm.component_signature(spec, flat.subspace)
        return {
            "command": "closure",
            "input": "face",
            "spec_digest": digest,
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
    return {
        "command": "closure",
        "input": "cone",
        "spec_digest": digest,
        **sm.cone_fields(sig),
        "ok": True,
    }


def _cmd_verify(args) -> dict:
    doc = load_document(args.spec)
    base = {"command": "verify", "suite": args.suite, "spec_digest": document_digest(doc)}
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
    """Compact form for a scalar, a vector, or a list of vectors."""
    if not isinstance(value, (dict, list)):
        return str(value)
    if isinstance(value, list):
        parts = [_inline(v) for v in value]
        if all(p is not None for p in parts) and sum(len(p) for p in parts) < 60:
            return "(" + ", ".join(parts) + ")" if value else "()"
    return None


def _text_lines(value, indent: int = 0):
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            flat = _inline(v)
            if flat is not None:
                yield f"{pad}{k}: {flat}"
            else:
                yield f"{pad}{k}:"
                yield from _text_lines(v, indent + 1)
    elif isinstance(value, list):
        for item in value:
            flat = _inline(item)
            if flat is not None:
                yield f"{pad}- {flat}"
            else:
                yield f"{pad}-"
                yield from _text_lines(item, indent + 1)
    else:
        yield f"{pad}{value}"


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


def _is_flag(token: str) -> bool:
    """A leading - marks an option, except on - itself (stdin) and on a
    negative number, as in argparse."""
    return token[:1] == "-" and token != "-" and not token[1:].replace(".", "", 1).isdigit()


def _lookup(command: str | None, flag: str, flags: Sequence[str]) -> str | None:
    """The flag of flags that flag names: itself, or the one long flag it
    abbreviates; None if there is none."""
    if flag in flags:
        return flag
    hits = [f for f in flags if flag.startswith("--") and f.startswith(flag)]
    if len(hits) > 1:
        _fail(command, f"ambiguous option: {flag} could match {', '.join(hits)}")
    return hits[0] if hits else None


def _parse_args(argv: Sequence[str] | None) -> SimpleNamespace:
    """The command, its spec and one field per option of its table entry.

    Options come before or after the spec, as --opt value or --opt=value,
    by any unique prefix; an option takes the next token as its value even
    when it starts with -, and -- makes every later token positional. A
    usage error exits 2 (SystemExit) and --help exits 0, each with argparse's
    wording."""
    tokens = iter(sys.argv[1:] if argv is None else argv)
    command = None
    for token in tokens:
        if not _is_flag(token):
            command = token
            break
        if _lookup(None, token, _HELP) is None:
            _fail(None, f"unrecognized arguments: {token}")
        _help(None)
    if command is None:
        _fail(None, "the following arguments are required: command")
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    options = {flag: (kind, default) for flag, kind, default, _ in _COMMANDS[command][2]}
    values = {"command": command, "spec": None}
    values.update((_dest(flag), None if default is ... else default) for flag, (_, default) in options.items())
    extras = []
    positional_only = False
    for token in tokens:
        if token == "--" and not positional_only:
            positional_only = True
            continue
        if positional_only or not _is_flag(token):
            if values["spec"] is None:
                values["spec"] = token
            else:
                extras.append(token)
            continue
        flag, eq, value = token.partition("=")
        flag = _lookup(command, flag, (*_HELP, *options))
        if flag is None:
            extras.append(token)
            continue
        if flag in _HELP:
            _help(command)
        if not eq:
            value = next(tokens, None)
            if value is None:
                _fail(command, f"argument {flag}: expected one argument")
        kind = options[flag][0]
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
    required = ["spec", *(flag for flag, (_, default) in options.items() if default is ...)]
    missing = [name for name in required if values[_dest(name)] is None]
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
        report = _COMMANDS[args.command][0](args)
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
