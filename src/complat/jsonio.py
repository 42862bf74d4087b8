"""Canonical JSON used by the CLI and the on-disk class cache.

Serialization is deterministic (sorted keys, no whitespace wobble) and
exact: rationals become "num/den" strings, floats are refused.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

from .errors import SpecError


def jsonable(obj):
    """Rewrite tuples, Fractions and nested containers into plain JSON
    values; anything inexact or unknown is an error."""
    if isinstance(obj, Fraction):
        return str(obj)
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
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def document_digest(doc) -> str:
    """sha256 of the canonical form of a parsed document, so formatting
    and key order in the source file do not matter."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


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
