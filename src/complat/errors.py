"""Shared exception types.

Each maps to a dedicated CLI exit code. Library code raises SpecError and
CapExceeded instead of bare ValueError whenever the condition is one a
user can hit through an input file or a size cap. InvariantError marks a
broken internal invariant: a bug in the library, not in the input.
"""


class SpecError(ValueError):
    """Malformed input document or argument (CLI exit code 2)."""


class CapExceeded(RuntimeError):
    """A configured enumeration cap was exceeded (CLI exit code 3)."""


class InvariantError(RuntimeError):
    """An internal invariant a result relies on does not hold (CLI exit
    code 4). Raised by explicit checks that, unlike assert, also run under
    python -O."""
