"""The package's value types are collections.namedtuple records:
equality, hash and order are those of the field tuple, fields cannot be
assigned, only the two types with cached derived values keep a __dict__,
and the three validating types check their fields in the constructor,
which _make and _replace go through."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from complat import stackmodel as sm
from complat.arrangement import HyperplaneArrangement, flats
from complat.errors import InvariantError
from complat.linmoduli import hall_category_lms
from complat.qlinalg import Subspace

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _spec(name):
    return sm.load_spec(json.loads((SPECS / f"{name}.json").read_text()))


@pytest.mark.parametrize(
    "basis,n,message",
    [
        (((1, 0, 0),), 2, "row of length 3 in width-2 matrix"),
        (((1, 0), (0, 1), (1,)), 2, "row of length 1 in width-2 matrix"),
        (((1, F(-1, 2)),), 2, "basis is not in reduced row echelon form"),  # a non-int entry
        (((2, 1), (0, 2)), 2, "basis is not in reduced row echelon form"),  # nonzero in another pivot column
        ([(1, 0)], 2, "basis is not in reduced row echelon form"),
        (([1, 0],), 2, "basis is not in reduced row echelon form"),
        (((0, 1), (1, 0)), 2, "basis is not in reduced row echelon form"),  # pivots not increasing
        (((2, 0), (0, 1)), 2, "basis is not in reduced row echelon form"),  # unequal pivot entries
        (((4, -2),), 2, "basis is not in reduced row echelon form"),  # a common factor
        (((-2, 1),), 2, "basis is not in reduced row echelon form"),  # a negative pivot entry
    ],
)
def test_subspace_rejects_a_bad_basis_with_its_message(basis, n, message):
    good = Subspace(((1, 0),), 2)
    for build in (Subspace, lambda *f: Subspace._make(f), lambda r, d: good._replace(rows=r, ambient_dim=d)):
        with pytest.raises(ValueError) as err:
            build(basis, n)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "covectors,dim,message",
    [
        (((1, 0, 0),), 2, "covector (1, 0, 0) does not match dim 2"),
        (((2, 0),), 2, "covector (2, 0) is not canonical"),
        (((-1, 1),), 2, "covector (-1, 1) is not canonical"),
        (((1, 0), (0, 1), (1, 0)), 2, "duplicate covector (1, 0)"),
    ],
)
def test_arrangement_rejects_bad_covectors_with_its_message(covectors, dim, message):
    with pytest.raises(ValueError) as err:
        HyperplaneArrangement(covectors, dim)
    assert str(err.value) == message


def test_the_validating_constructors_accept_their_inputs_and_keep_the_fields():
    sub = Subspace(((2, -1),), 2)
    assert (sub.rows, sub.ambient_dim, sub.dim) == (((2, -1),), 2, 1)
    assert Subspace._fields == ("rows", "ambient_dim")
    assert (sub.scale, sub.pivots, sub.basis) == (2, (0,), ((F(1), F(-1, 2)),))
    with pytest.raises(AttributeError):
        sub.rows = ()
    arr = HyperplaneArrangement(((0, 1), (1, -1)), 2)
    assert (arr.covectors, arr.dim, arr.size) == (((0, 1), (1, -1)), 2, 2)


@pytest.mark.parametrize("field", ["attractor_weights", "parabolic_roots"])
def test_attractor_signature_rejects_a_missing_weight_or_root(field):
    # at the origin every weight and root of a2_gl2 vanishes, so each must
    # be in the attractor and the parabolic
    sig = sm.special_cone_closure(_spec("a2_gl2"), [(0, 0)])
    assert sig.levi_part.fixed_weights and sig.levi_part.levi_roots
    fields = sig._asdict()
    assert sm.AttractorSignature(**fields) == sig
    fields[field] = fields[field][1:]
    with pytest.raises(InvariantError) as err:
        sm.AttractorSignature(**fields)
    assert str(err.value) == (
        "cone with rays (): a weight or root vanishing on its span "
        "is missing from its attractor or parabolic"
    )


def _records():
    spec = _spec("a2_gl2")
    hall = sm.hall_category(spec).morphisms
    lms = hall_category_lms(2, 3).morphisms
    fls = flats(sm.global_arrangement(spec))
    sigs = [o.signature for o in sm.enumerate_special_faces(_spec("rank3_mixed"))]
    return {
        "HallMorphism": (hall, lambda m: (m.source, m.target, m.embedding, m.chamber)),
        "LmsMorphism": (lms, lambda m: (m.source, m.target, m.orders)),
        "Flat": (fls, lambda f: (f.subspace, f.hyperplanes)),
        "ComponentSignature": (sigs, lambda s: (s.face_dim, s.fixed_weights, s.levi_roots)),
    }


@pytest.mark.parametrize("name", ["HallMorphism", "LmsMorphism", "Flat", "ComponentSignature"])
def test_records_hash_and_sort_as_their_field_tuples(name):
    records, fields = _records()[name]
    assert len(records) > 3 and {type(r).__name__ for r in records} == {name}
    assert all(hash(r) == hash(fields(r)) for r in records)
    shuffled = list(reversed(records))
    assert [fields(r) for r in sorted(shuffled)] == sorted(fields(r) for r in shuffled)
    first = records[0]
    with pytest.raises(AttributeError):
        setattr(first, type(first)._fields[0], None)


def test_only_the_records_with_cached_values_keep_a_dict():
    # a __dict__ slot costs every instance memory; Subspace and the spec
    # cache derived values (pivots, basis, the hash) in theirs
    assert hasattr(Subspace(((1, 0),), 2), "__dict__") and hasattr(_spec("a2_gl2"), "__dict__")
    for name, (records, _) in _records().items():
        assert not hasattr(records[0], "__dict__"), name
    assert not hasattr(HyperplaneArrangement(((1, 0),), 2), "__dict__")


def test_a_spec_hashes_as_its_field_tuple_with_tuple_equality_and_order():
    names = ("a1_gm", "a2_gl2", "b_gl3", "b_gl4")
    specs = [_spec(name) for name in names]
    for name, spec in zip(names, specs):
        assert hash(spec) == hash(tuple(spec)) == hash(spec)  # the first fills the cache, the last reads it
        again = _spec(name)
        assert again is not spec and again == spec == tuple(spec) and hash(again) == hash(spec)
        assert {spec: name}[tuple(spec)] == name and {tuple(spec): name}[spec] == name
        changed = spec._replace(rank=spec.rank + 1)
        assert hash(changed) == hash(tuple(changed)) != hash(spec)
    assert [tuple(s) for s in sorted(reversed(specs))] == sorted(tuple(s) for s in specs)


@pytest.mark.parametrize(
    "record,fields,error,message",
    [
        (
            lambda: Subspace(((1, 2),), 2),
            {"rows": ((2, 0),)},
            ValueError,
            "basis is not in reduced row echelon form",
        ),
        (
            lambda: Subspace(((1, 2),), 2),
            {"ambient_dim": 3},
            ValueError,
            "row of length 2 in width-3 matrix",
        ),
        (
            lambda: HyperplaneArrangement(((0, 1), (1, -1)), 2),
            {"covectors": ((0, 1), (0, 1))},
            ValueError,
            "duplicate covector (0, 1)",
        ),
        (
            lambda: HyperplaneArrangement(((0, 1), (1, -1)), 2),
            {"covectors": ((-1, 1),)},
            ValueError,
            "covector (-1, 1) is not canonical",
        ),
        (
            lambda: sm.special_cone_closure(_spec("a2_gl2"), [(0, 0)]),
            {"parabolic_roots": ()},
            InvariantError,
            "cone with rays (): a weight or root vanishing on its span is missing from its attractor or parabolic",
        ),
    ],
    ids=["subspace-basis", "subspace-width", "arrangement-duplicate", "arrangement-canonical", "attractor"],
)
def test_replace_and_make_run_the_constructor_checks(record, fields, error, message):
    rec = record()
    assert rec._replace() == rec and type(rec._replace()) is type(rec)
    assert type(rec)._make(tuple(rec)) == rec
    with pytest.raises(error) as err:
        rec._replace(**fields)
    assert str(err.value) == message
    with pytest.raises(error) as err:
        type(rec)._make((rec._asdict() | fields).values())
    assert str(err.value) == message
