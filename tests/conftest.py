"""Fixtures shared by the test modules."""

import pytest

from complat import linmoduli as lm

# held here, not looked up on lm at teardown, where a test may still have
# one of them patched
COUNTING_MEMOS = (lm.iso_classes, lm._subreps, lm._hall_table, lm._flag_table)


@pytest.fixture
def fresh_memos():
    """Empty the counting memos before and after the test, so that a test
    patching a function they call neither reads entries built without the
    patch nor leaves entries built with it."""
    for memo in COUNTING_MEMOS:
        memo.cache_clear()
    yield
    for memo in COUNTING_MEMOS:
        memo.cache_clear()
