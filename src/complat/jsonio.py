"""Canonical JSON used by the CLI and the on-disk class cache, and the
prologue every input document passes.

Serialization is deterministic (sorted keys, no whitespace wobble) and
exact: rationals become "num/den" strings, floats are refused. jsonable
alone renders reports, so they hold tuples, Fractions and records as is.
It looks Fraction up only once the fractions module is loaded, since no
Fraction can exist before, so rendering a report without one loads none of
fractions, decimal and numbers.
"""

from __future__ import annotations

import json
import sys

from .errors import SpecError

# hashlib loads OpenSSL's libcrypto, a few ms and MB of every short command;
# the interpreter's built-in sha256 gives the same digest without it
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


def jsonable(obj):
    """Rewrite tuples, Fractions and nested containers into plain JSON
    values; anything inexact or unknown is an error."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            out[k] = jsonable(v)
        return out
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def document_digest(doc) -> str:
    """sha256 of the canonical form of a parsed document, so formatting
    and key order in the source file do not matter."""
    return sha256(canonical_json(doc).encode()).hexdigest()


def load_document(path: str) -> dict:
    """Parse a JSON object from a file path, or from stdin for '-'. Floats
    and the NaN and Infinity constants are refused as malformed input."""
    def refuse(token: str):
        raise SpecError(f"{path} holds the float {token}; numbers must be exact integers")

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, parse_float=refuse, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("document must be a JSON object")
    return doc


def check_document(doc, noun: str, kind: str, fields: tuple[str, ...]) -> None:
    """The schema prologue of a document: a JSON object with exactly the
    field type, equal to kind, and the given fields. Unknown fields are
    reported before missing ones, and both before a wrong type; noun names
    the document in each message."""
    if not isinstance(doc, dict):
        raise SpecError(f"{noun} document must be a JSON object")
    fields = {"type", *fields}
    if set(doc) - fields:
        raise SpecError(f"unknown {noun} fields: {sorted(set(doc) - fields)}")
    if fields - set(doc):
        raise SpecError(f"missing {noun} fields: {sorted(fields - set(doc))}")
    if doc["type"] != kind:
        raise SpecError(f"expected type {kind!r}, got {doc['type']!r}")
