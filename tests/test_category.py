"""The finite-category kernel shared by the Hall and tuple categories:
building the table, and the law checker catching a broken one."""

import tracemalloc
from collections import namedtuple

import pytest

from complat import linmoduli as lm
from complat.category import FiniteCategory, check_laws
from complat.errors import InvariantError
from complat.stackmodel import hall_category, load_spec
from tests.test_stackmodel import A2_GL2, B_GL3

Arrow = namedtuple("Arrow", "source target name")


def _z2():
    # one object whose endomorphisms form the group of order two
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return FiniteCategory.build(
        ["*"],
        [Arrow(0, 0, "s"), Arrow(0, 0, "e")],
        lambda o: Arrow(o, o, "e"),
        lambda a, b: Arrow(0, 0, table[a.name, b.name]),
    )


def test_build_sorts_and_indexes_the_morphisms():
    cat = _z2()
    assert cat.morphisms == (Arrow(0, 0, "e"), Arrow(0, 0, "s"))
    assert cat.identities == (0,)
    assert cat.then == ({0: 0, 1: 1}, {0: 1, 1: 0})
    assert FiniteCategory._fields == ("objects", "morphisms", "identities", "then")
    assert check_laws(cat) == {"ok": True, "objects": 1, "morphisms": 2, "triples": 8}


ROW_LAYOUT_CASES = {
    "hall a2_gl2": lambda: hall_category(load_spec(A2_GL2)),
    "hall b_gl3": lambda: hall_category(load_spec(B_GL3)),
    "tuples (2, 3)": lambda: lm.hall_category_lms(2, 3),
}


@pytest.mark.parametrize("name", list(ROW_LAYOUT_CASES))
def test_each_row_lists_the_morphisms_out_of_the_target_in_ascending_order(name):
    cat = ROW_LAYOUT_CASES[name]()
    assert len(cat.then) == len(cat.morphisms)
    for m, row in zip(cat.morphisms, cat.then):
        assert list(row) == [j for j, n in enumerate(cat.morphisms) if n.source == m.target]


def test_check_laws_reads_the_table_in_place():
    cat = lm.hall_category_lms(1, 4)
    tracemalloc.start()
    try:
        report = check_laws(cat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["ok"], report
    assert peak < 4096, peak


def test_a_composite_outside_the_morphism_set_is_an_invariant_error():
    with pytest.raises(InvariantError, match="composite"):
        FiniteCategory.build(
            ["*"],
            [Arrow(0, 0, "e")],
            lambda o: Arrow(o, o, "e"),
            lambda a, b: Arrow(0, 0, "x"),
        )
    with pytest.raises(InvariantError, match="identity"):
        FiniteCategory.build(["*"], [Arrow(0, 0, "s")], lambda o: Arrow(o, o, "e"), None)


def _categories():
    return {"hall a2_gl2": hall_category(load_spec(A2_GL2)), "tuples": lm.hall_category_lms(1, 3)}


def _involution(cat):
    """A non-identity endomorphism e with e.e the identity."""
    return next(
        i
        for i, m in enumerate(cat.morphisms)
        if m.source == m.target
        and i not in cat.identities
        and cat.compose(i, i) == cat.identities[m.source]
    )


@pytest.mark.parametrize("name", ["hall a2_gl2", "tuples"])
def test_a_corrupted_composition_entry_breaks_associativity(name):
    cat = _categories()[name]
    e = _involution(cat)
    cat.then[e][e] = e
    report = check_laws(cat)
    assert report["ok"] is False and report["law"] == "associativity"


@pytest.mark.parametrize("name", ["hall a2_gl2", "tuples"])
def test_a_corrupted_identity_breaks_the_left_unit_law(name):
    cat = _categories()[name]
    e = _involution(cat)
    obj = cat.morphisms[e].source
    cat = cat._replace(identities=tuple(e if o == obj else i for o, i in enumerate(cat.identities)))
    report = check_laws(cat)
    first_out = min(i for i, m in enumerate(cat.morphisms) if m.source == obj)
    assert report == {"ok": False, "law": "left unit", "morphism": first_out}


@pytest.mark.parametrize("name", ["hall a2_gl2", "tuples"])
def test_a_corrupted_unit_entry_breaks_the_right_unit_law(name):
    cat = _categories()[name]
    e = _involution(cat)
    identity = cat.identities[cat.morphisms[e].target]
    cat.then[e][identity] = identity
    assert check_laws(cat) == {"ok": False, "law": "right unit", "morphism": e}


def test_a_composite_with_the_wrong_endpoints_is_reported():
    cat = _categories()["hall a2_gl2"]
    i, j = next((i, j) for i, row in enumerate(cat.then) for j in row)
    cat.then[i][j] = next(
        n for n, m in enumerate(cat.morphisms) if m.source != cat.morphisms[i].source
    )
    assert check_laws(cat) == {"ok": False, "law": "composite endpoints", "pair": (i, j)}


@pytest.mark.parametrize("name", ["hall a2_gl2", "tuples"])
def test_two_corrupted_entries_report_the_least_failing_triple(name):
    cat = _categories()[name]
    ms, then = cat.morphisms, cat.then
    # replace a composite by a parallel morphism, away from the identities,
    # so that the endpoints and the unit laws still hold
    swaps = [
        (i, j, n)
        for i, row in enumerate(then)
        for j, k in row.items()
        if i not in cat.identities and j not in cat.identities
        for n, m in enumerate(ms)
        if n != k and (m.source, m.target) == (ms[k].source, ms[k].target)
    ]
    (i1, j1, n1), (i2, j2, n2) = swaps[len(swaps) // 2], swaps[-1]
    assert (i1, j1) != (i2, j2)
    then[i1][j1], then[i2][j2] = n1, n2
    least = min(
        (i, j, k)
        for i, row in enumerate(then)
        for j in row
        for k in then[j]
        if then[then[i][j]][k] != then[i][then[j][k]]
    )
    assert check_laws(cat) == {"ok": False, "law": "associativity", "triple": least}
