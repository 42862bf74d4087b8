"""The finite-category kernel shared by the Hall and tuple categories:
building the table, and the law checker catching a broken one."""

from collections import namedtuple

import pytest

from complat import linmoduli as lm
from complat.category import FiniteCategory, check_laws
from complat.errors import InvariantError
from complat.stackmodel import hall_category, load_spec
from tests.test_stackmodel import A2_GL2

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
    assert cat.by_source == ((0, 1),)
    assert cat.composition == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    assert check_laws(cat) == {"ok": True, "objects": 1, "morphisms": 2, "triples": 8}


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
    cat.composition[e, e] = e
    report = check_laws(cat)
    assert report["ok"] is False and report["law"] == "associativity"


@pytest.mark.parametrize("name", ["hall a2_gl2", "tuples"])
def test_a_corrupted_identity_breaks_the_left_unit_law(name):
    cat = _categories()[name]
    e = _involution(cat)
    obj = cat.morphisms[e].source
    cat = cat._replace(identities=tuple(e if o == obj else i for o, i in enumerate(cat.identities)))
    report = check_laws(cat)
    assert report == {"ok": False, "law": "left unit", "morphism": cat.by_source[obj][0]}


@pytest.mark.parametrize("name", ["hall a2_gl2", "tuples"])
def test_a_corrupted_unit_entry_breaks_the_right_unit_law(name):
    cat = _categories()[name]
    e = _involution(cat)
    identity = cat.identities[cat.morphisms[e].target]
    cat.composition[e, identity] = identity
    assert check_laws(cat) == {"ok": False, "law": "right unit", "morphism": e}


def test_a_composite_with_the_wrong_endpoints_is_reported():
    cat = _categories()["hall a2_gl2"]
    i, j = next(iter(cat.composition))
    cat.composition[i, j] = next(
        n for n, m in enumerate(cat.morphisms) if m.source != cat.morphisms[i].source
    )
    assert check_laws(cat) == {"ok": False, "law": "composite endpoints", "pair": (i, j)}
