"""Command line interface.

Three subcommands over JSON documents (linear_quotient or quiver):

  faces    enumerate special faces
  closure  special closure of a face (--face) or of a cone (--ray)
  verify   run a verification suite (--suite)

Output is canonical JSON by default (sorted keys, rationals as "num/den"
strings) and always carries the sha256 digest of the parsed input
document. Exit codes: 0 success, 1 a verified property failed, 2 invalid
input, 3 an enumeration cap was exceeded, 4 an internal invariant broke
(a bug in complat, not in the input), 141 stdout was closed before the
report was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import linmoduli as lm
from . import stackmodel as sm
from .arrangement import flats
from .errors import CapExceeded, InvariantError, SpecError
from .jsonio import document_digest, jsonable, load_document


def _parse_vector(text: str, rank: int) -> tuple[Fraction, ...]:
    try:
        vec = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"cannot parse vector {text!r}: {exc}") from exc
    if len(vec) != rank:
        raise SpecError(f"vector {text!r} has {len(vec)} entries, expected {rank}")
    return vec


def _basis(subspace) -> list[list[str]]:
    return [[str(x) for x in row] for row in subspace.basis]


def _signature_fields(sig: sm.ComponentSignature) -> dict:
    return {
        "face_dim": sig.face_dim,
        "fixed_weights": [list(w) for w in sig.fixed_weights],
        "levi_roots": [list(r) for r in sig.levi_roots],
    }


def _cmd_faces(args) -> dict:
    doc = load_document(args.spec)
    digest = document_digest(doc)
    kind = doc.get("type")
    if kind == "linear_quotient":
        spec = sm.load_spec(doc)
        orbits = sm.enumerate_special_faces(spec)
        entries = []
        for o in orbits:
            fields = _signature_fields(o.signature)
            fields.pop("face_dim")
            entries.append(
                {
                    "dim": o.dim,
                    "orbit_size": o.orbit_size,
                    "basis": _basis(o.flat.subspace),
                    **fields,
                }
            )
        corbits = sm.cell_orbits(spec)
        return {
            "command": "faces",
            "type": kind,
            "spec_digest": digest,
            "count": len(entries),
            "face_orbits": entries,
            "cells": sum(len(o) for o in corbits),
            "cell_orbits": len(corbits),
            "cell_orbit_sizes": [len(o) for o in corbits],
            "ok": True,
        }
    if kind == "quiver":
        quiver = lm.load_quiver(doc)
        by_gamma = []
        for total in range(1, args.max_dim + 1):
            for gamma in lm.dim_vectors(quiver.n_vertices, total):
                decs = lm.multiset_decompositions(gamma)
                by_gamma.append(
                    {
                        "gamma": list(gamma),
                        "count": len(decs),
                        "decompositions": [[list(p) for p in d] for d in decs],
                    }
                )
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
        closure_fields = _signature_fields(sm.component_signature(spec, flat.subspace))
        closure_fields.pop("face_dim")  # would clash with the input face's dim
        return {
            "command": "closure",
            "input": "face",
            "spec_digest": digest,
            "face_dim": face.dim,
            "is_special": sm.is_special(spec, face),
            "central_rank": sm.central_rank(spec, face),
            "closure_dim": flat.dim,
            "closure_basis": _basis(flat.subspace),
            **closure_fields,
            "ok": True,
        }
    sig = sm.special_cone_closure(spec, rays)
    return {
        "command": "closure",
        "input": "cone",
        "spec_digest": digest,
        "carrier_dim": sig.flat.dim,
        "carrier_basis": _basis(sig.flat.subspace),
        "cone_dim": sig.levi_part.face_dim,
        "ambient_rays": [list(r) for r in sig.ambient_rays],
        "attractor_weights": [list(w) for w in sig.attractor_weights],
        "parabolic_roots": [list(r) for r in sig.parabolic_roots],
        "levi": _signature_fields(sig.levi_part),
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
                for fl in flats(sm.global_arrangement(spec))
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
        identity_ok = sm.hall_composition_weight_identity(spec, cat)
        return {
            **base,
            "ok": bool(laws.get("ok")) and identity_ok,
            "category": laws,
            "weight_identity": identity_ok,
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
            checks.append({"gamma": list(gamma), **lm.cross_check_special_faces(quiver, gamma)})
    return {**base, "max_total": args.max_dim, "ok": all(c["ok"] for c in checks), "checks": checks}


_COMMANDS = {"faces": _cmd_faces, "closure": _cmd_closure, "verify": _cmd_verify}


def _inline(value) -> Optional[str]:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complat",
        description="Component lattices of quotient stacks: faces, closures, verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "spec", help="path to a JSON document (linear_quotient or quiver), or - for stdin"
    )
    common.add_argument("--output", choices=("json", "text"), default="json")
    common.add_argument(
        "--cache-dir",
        default=None,
        help="directory for persisted class data (default: $COMPONENT_LATTICE_CACHE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_faces = sub.add_parser("faces", parents=[common], help="enumerate special faces")
    p_faces.add_argument(
        "--max-dim", type=int, default=3, help="total dimension bound for quiver documents"
    )
    p_closure = sub.add_parser(
        "closure", parents=[common], help="special closure of a face or a cone"
    )
    p_closure.add_argument(
        "--face",
        action="append",
        metavar="VEC",
        help="spanning vector of the face as comma-separated rationals; repeatable",
    )
    p_closure.add_argument(
        "--ray", action="append", metavar="VEC", help="generating ray of the cone; repeatable"
    )
    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("constancy", "hall", "associativity", "finiteness", "crosscheck"),
    )
    p_verify.add_argument("--samples", type=int, default=100, help="samples per chamber")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--q", type=int, default=2, help="field size for counting suites")
    p_verify.add_argument(
        "--max-dim", type=int, default=3, help="total dimension bound for quiver suites"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    cache = args.cache_dir or os.environ.get("COMPONENT_LATTICE_CACHE")
    if cache:
        lm.set_cache_dir(cache)
    try:
        for flag in ("samples", "max_dim"):
            if getattr(args, flag, 1) < 1:
                raise SpecError(f"--{flag.replace('_', '-')} must be at least 1")
        report = _COMMANDS[args.command](args)
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
        # the reader is gone: stdout to devnull, so the shutdown flush cannot
        # raise again, and the exit code a shell gives a filter SIGPIPE killed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
