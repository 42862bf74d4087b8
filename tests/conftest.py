"""Fixtures shared by the test modules."""

import pytest

from complat import arrangement
from complat import linmoduli as lm

# held here, not looked up on their modules at teardown, where a test may
# still have one of them patched
MEMOS = (
    lm.iso_classes,
    lm._subreps,
    lm._hall_table,
    lm._flag_table,
    lm._quotient_model,
    lm._flat_orbits_by_dim,
    arrangement.flats,
)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def fresh_memos():
    """Empty the memos before and after the test, so that a test patching a
    function they call neither reads entries built without the patch nor
    leaves entries built with it. The test gets the function that empties
    them."""
    _clear_memos()
    yield _clear_memos
    _clear_memos()
