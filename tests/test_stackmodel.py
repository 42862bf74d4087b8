"""Faces, special closures, cones and signatures of linear quotient stacks.

The frozen tables below were derived by hand from the defining data of the
small examples (two weights and one root pair in rank 2, one weight in
rank 1, the rank-3 root arrangement) before the implementation existed.
"""

import json
import random
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complat import linmoduli as lm
from complat import stackmodel as sm
from complat.arrangement import (
    CELL_COVECTOR_CAP,
    HyperplaneArrangement,
    cells,
    chamber_rays,
    chambers,
    flats,
    minimal_flat_containing,
    rays_of_constraints,
    restrict,
    sign_vector_of,
    split_rays,
)
from complat.errors import CapExceeded, InvariantError, SpecError
from complat.category import FiniteCategory
from complat.cli import main
from complat.jsonio import jsonable
from complat.qlinalg import (
    canonical_covector_signed,
    covector_times_mat,
    dot,
    mat_mul,
    primitive,
    qvec,
    row_rank,
    span,
    vec_neg,
)
from complat.stackmodel import (
    AttractorSignature,
    ComponentSignature,
    HallMorphism,
    QuotientStackSpec,
    central_rank,
    component_signature,
    constancy_check,
    enumerate_special_cones,
    cell_orbits,
    enumerate_special_faces,
    global_arrangement,
    hall_category,
    hall_composition_weight_identity,
    is_special,
    load_spec,
    special_cone_closure,
    special_face_closure,
    surjection_invariance_check,
    verify_hall_category,
    weyl_permutations,
)

from oracles import (
    brute_force_flats,
    closure_cell_orbits,
    chamber_rays_by_constraints,
    cone_contains_point,
    contains,
    coords_in,
    cotangent_arrangement,
    covector_weyl_permutations,
    fraction_basis_key,
    lift,
    mat_mul_weyl_closure,
    mat_vec,
    saturated_cone,
    signed_constraints,
    span_signature,
    unmemoized_cone_closure,
    vanishing_covectors,
    vec_scale,
    witness_point,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"

A2_GL2 = {
    "type": "linear_quotient",
    "rank": 2,
    "weights": [[1, 0], [0, 1]],
    "roots": [[1, -1], [-1, 1]],
    "weyl_generators": [[[0, 1], [1, 0]]],
}
A1_GM = {"type": "linear_quotient", "rank": 1, "weights": [[1]], "roots": [], "weyl_generators": []}
B_GM = {"type": "linear_quotient", "rank": 1, "weights": [], "roots": [], "weyl_generators": []}
B_GL3 = {
    "type": "linear_quotient",
    "rank": 3,
    "weights": [],
    "roots": [[1, -1, 0], [-1, 1, 0], [1, 0, -1], [-1, 0, 1], [0, 1, -1], [0, -1, 1]],
    "weyl_generators": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]],
}
RANK3_MIXED = {
    "type": "linear_quotient",
    "rank": 3,
    "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
    "roots": [[1, -1, 0], [-1, 1, 0]],
    "weyl_generators": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]],
}

# weights whose flats have bases with denominators, e.g. (1, -1/2, 0)
SKEW3 = {
    "type": "linear_quotient",
    "rank": 3,
    "weights": [[1, 2, 0], [0, 1, 3], [2, 0, -1], [1, 1, 1]],
    "roots": [],
    "weyl_generators": [],
}

ALL_DOCS = [B_GM, A1_GM, A2_GL2, B_GL3, RANK3_MIXED]
LINEAR_SPECS = ("a1_gm", "a2_gl2", "b_gl2", "b_gl3", "b_gl4", "b_gm", "rank3_mixed")


def _named_spec(name):
    if name == "skew3":
        return load_spec(SKEW3)
    if name.startswith("braid"):
        return load_spec(braid_spec(int(name[len("braid") :])))
    return load_spec(json.loads((SPECS / f"{name}.json").read_text()))


def _signature_by_fractions(spec, sub):
    # the weights and roots whose Fraction dot with every basis row is zero
    fixed = tuple(w for w in spec.weights if all(dot(w, b) == 0 for b in sub.basis))
    levi = tuple(r for r in spec.roots if all(dot(r, b) == 0 for b in sub.basis))
    return ComponentSignature(sub.dim, fixed, levi)


@pytest.fixture(scope="module")
def a2gl2():
    return load_spec(A2_GL2)


@pytest.fixture(scope="module")
def bgl3():
    return load_spec(B_GL3)


@pytest.fixture(scope="module", params=range(len(ALL_DOCS)), ids=["bgm", "a1gm", "a2gl2", "bgl3", "rank3"])
def anyspec(request):
    return load_spec(ALL_DOCS[request.param])


# -- loading -------------------------------------------------------------------


def test_load_spec_enumerates_weyl(a2gl2, bgl3):
    assert len(a2gl2.weyl_group) == 2
    assert len(bgl3.weyl_group) == 6
    assert len(load_spec(B_GM).weyl_group) == 1
    ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    assert ident in bgl3.weyl_group


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.update(type="quiver"),
        lambda d: d.pop("roots"),
        lambda d: d.update(extra_field=1),
        lambda d: d.update(rank=-1),
        lambda d: d.update(weights=[[1]]),
        lambda d: d.update(roots=[[1, -1]]),
        lambda d: d.update(roots=[[0, 0], [0, 0]]),
        lambda d: d.update(weyl_generators=[[[1, 1], [0, 1]]]),
        lambda d: d.update(weyl_generators=[[[2, 0], [0, 1]]]),
    ],
)
def test_load_spec_rejects_malformed(mangle):
    doc = {k: ([list(x) for x in v] if isinstance(v, list) else v) for k, v in A2_GL2.items()}
    mangle(doc)
    with pytest.raises(SpecError):
        load_spec(doc)


@pytest.mark.parametrize(
    "doc,message",
    [
        ([A2_GL2], "spec document must be a JSON object"),
        ({**A2_GL2, "extra": 1, "zeta": 2}, "unknown spec fields: ['extra', 'zeta']"),
        # unknown fields are reported before missing ones
        ({k: v for k, v in A2_GL2.items() if k != "roots"} | {"extra": 1}, "unknown spec fields: ['extra']"),
        ({k: v for k, v in A2_GL2.items() if k not in ("roots", "rank")}, "missing spec fields: ['rank', 'roots']"),
        # and missing fields before a wrong type
        ({"type": "quiver"}, "missing spec fields: ['rank', 'roots', 'weights', 'weyl_generators']"),
        ({**A2_GL2, "type": "quiver"}, "expected type 'linear_quotient', got 'quiver'"),
    ],
)
def test_load_spec_prologue_messages(doc, message):
    with pytest.raises(SpecError) as exc:
        load_spec(doc)
    assert str(exc.value) == message


def test_load_spec_rejects_symmetry_violations():
    doc = dict(A2_GL2, weights=[[1, 0], [0, 2]])
    with pytest.raises(SpecError, match="weight multiset"):
        load_spec(doc)
    doc = dict(B_GL3, roots=[[1, -1, 0], [-1, 1, 0]])
    with pytest.raises(SpecError, match="root set"):
        load_spec(doc)


def braid_spec(n):
    """The rank-n braid arrangement: no weights, roots e_i - e_j, Weyl group
    the symmetric group by adjacent transpositions."""
    unit = lambda i: [int(k == i) for k in range(n)]
    roots = [[a - b for a, b in zip(unit(i), unit(j))] for i in range(n) for j in range(n) if i != j]
    gens = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        gens.append([unit(swap.get(r, r)) for r in range(n)])
    return {"type": "linear_quotient", "rank": n, "weights": [], "roots": roots, "weyl_generators": gens}


def _quiver_models():
    """(gamma, quotient model) over the crosscheck ranges: the a2 quiver up
    to total 6 and a -> b -> c up to total 4."""
    a2 = {"type": "quiver", "vertices": ["u", "v"], "arrows": [["u", "v"]]}
    a3 = {"type": "quiver", "vertices": ["a", "b", "c"], "arrows": [["a", "b"], ["b", "c"]]}
    out = []
    for doc, max_total in ((a2, 6), (a3, 4)):
        quiver = lm.load_quiver(doc)
        for total in range(1, max_total + 1):
            out.extend((g, lm.quotient_spec_doc(quiver, g)) for g in lm.dim_vectors(quiver.n_vertices, total))
    return out


QUIVER_MODELS = _quiver_models()
SHIPPED_WEYL_ORDERS = {"a1_gm": 1, "a2_gl2": 2, "b_gl2": 2, "b_gl3": 6, "b_gl4": 24, "b_gm": 1, "rank3_mixed": 2}


def _weyl_oracle_cases():
    docs = [json.loads((SPECS / f"{name}.json").read_text()) for name in LINEAR_SPECS]
    return docs + [SKEW3] + [braid_spec(n) for n in range(2, 7)] + [doc for _, doc in QUIVER_MODELS]


def test_quiver_quotient_models_have_the_product_of_symmetric_groups():
    for gamma, doc in QUIVER_MODELS:
        assert len(load_spec(doc).weyl_group) == prod(factorial(g) for g in gamma), gamma


@pytest.mark.parametrize("n", range(1, 7))
def test_braid_weyl_groups_are_symmetric_groups(n):
    assert len(load_spec(braid_spec(n)).weyl_group) == factorial(n)


def test_shipped_specs_keep_their_weyl_orders():
    orders = {name: len(_named_spec(name).weyl_group) for name in LINEAR_SPECS}
    assert orders == SHIPPED_WEYL_ORDERS


@pytest.mark.parametrize(
    "change",
    [
        lambda perms: (*perms, ((0, 1), (0, 1), (1, 1))),  # a non-group permutation added: orbits meet
        lambda perms: perms[:1],  # the identity dropped: an orbit misses its member
    ],
    ids=["extra", "no-identity"],
)
def test_weyl_orbits_of_no_group_break_an_invariant(a2gl2, monkeypatch, capsys, change):
    # orbits under a set of signed permutations that is no group would
    # have wrong sizes; the first flat of a2_gl2 in flats' order is (2,)
    perms = sm.weyl_permutations
    assert perms(a2gl2)[1] == ((0, 1), (1, 1), (2, 1))  # the identity
    monkeypatch.setattr(sm, "weyl_permutations", lambda spec: change(perms(spec)))
    message = "the weyl orbit of the flat (2,) is no orbit of a group"
    with pytest.raises(InvariantError) as err:
        sm.enumerate_special_faces(a2gl2)
    assert str(err.value) == message
    assert main(["faces", str(SPECS / "a2_gl2.json")]) == 4
    assert capsys.readouterr() == ("", f"invariant broken: {message}\n")


def test_sparse_weyl_products_match_dense_mat_mul():
    for doc in _weyl_oracle_cases():
        spec = load_spec(doc)
        assert spec.weyl_group == mat_mul_weyl_closure(doc["weyl_generators"], spec.rank)
        assert weyl_permutations(spec) == covector_weyl_permutations(spec)


def _elementary(rng, n):
    """A random unimodular I + c E_ij and its inverse I - c E_ij."""
    i, j = rng.sample(range(n), 2)
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    e = [[int(r == k) for k in range(n)] for r in range(n)]
    inv = [row[:] for row in e]
    e[i][j], inv[i][j] = c, -c
    return e, inv


def _conjugated_signed_permutations(rng, n):
    """A finite group of integer matrices with negative entries and entries
    above 1: signed permutation generators conjugated by a random
    unimodular matrix u, as u^-1 p u, with the orbit of one random covector
    as its weights."""
    u = inv = tuple(tuple(int(r == k) for k in range(n)) for r in range(n))
    for _ in range(3):
        e, e_inv = _elementary(rng, n)
        u, inv = mat_mul(u, e), mat_mul(e_inv, inv)
    gens = []
    for _ in range(rng.randint(1, 3)):
        perm = rng.sample(range(n), n)
        p = [[rng.choice((-1, 1)) * int(k == perm[r]) for k in range(n)] for r in range(n)]
        gens.append(mat_mul(mat_mul(inv, p), u))
    group = mat_mul_weyl_closure(gens, n)
    w = tuple(rng.randint(-3, 3) for _ in range(n))
    weights = sorted({covector_times_mat(w, g) for g in group} - {(0,) * n})
    doc = {"type": "linear_quotient", "rank": n, "weights": weights, "roots": [], "weyl_generators": gens}
    return doc, group


def test_sparse_weyl_products_match_dense_mat_mul_on_unimodular_generators():
    rng = random.Random(18)
    entries = set()
    for _ in range(12):
        doc, group = _conjugated_signed_permutations(rng, rng.randint(2, 4))
        entries.update(x for g in doc["weyl_generators"] for row in g for x in row)
        spec = load_spec(doc)
        assert spec.weyl_group == group
        assert weyl_permutations(spec) == covector_weyl_permutations(spec)
    assert max(entries) > 1 and min(entries) < -1, entries


def test_flats_sort_as_by_their_fraction_bases():
    for doc in _weyl_oracle_cases():
        out = flats(global_arrangement(load_spec(doc)))
        keys = [fraction_basis_key(f) for f in out]
        assert keys == sorted(set(keys))


def test_an_infinite_weyl_group_exceeds_the_cap():
    doc = {"type": "linear_quotient", "rank": 2, "weights": [], "roots": [], "weyl_generators": [[[1, 1], [0, 1]]]}
    with pytest.raises(CapExceeded, match=r"^weyl group larger than cap 100000$"):
        load_spec(doc)


def _fan_of_weights(count):
    """Rank 2 with the weights (1, k), k < count: count distinct
    restrictions on the ambient flat."""
    weights = [[1, k] for k in range(count)]
    return {"type": "linear_quotient", "rank": 2, "weights": weights, "roots": [], "weyl_generators": []}


def test_special_cones_stay_under_the_constraint_cap():
    assert enumerate_special_cones(load_spec(_fan_of_weights(12)))


def test_special_cones_over_the_constraint_cap_raise():
    with pytest.raises(CapExceeded, match=r"^special cones: 13 constraints on a flat exceeds cap 12$"):
        enumerate_special_cones(load_spec(_fan_of_weights(13)))


# -- graded and filtered signatures on the rank-2 picture -----------------------

# one representative point per cell of the rank-2 arrangement {x=0, y=0, x=y};
# expected data was read off by hand: a weight/root lands in the fixed/Levi
# part iff it vanishes at the point, in the attractor/parabolic iff it is
# nonnegative on the whole closure cone of the point's ray
GRAD_TABLE = {
    (0, 0): (((0, 1), (1, 0)), ((-1, 1), (1, -1))),
    (0, 1): (((1, 0),), ()),
    (1, 2): ((), ()),
    (1, 1): ((), ((-1, 1), (1, -1))),
    (2, 1): ((), ()),
    (1, 0): (((0, 1),), ()),
    (1, -1): ((), ()),
    (0, -1): (((1, 0),), ()),
    (-1, -2): ((), ()),
    (-1, -1): ((), ((-1, 1), (1, -1))),
    (-2, -1): ((), ()),
    (-1, 0): (((0, 1),), ()),
    (-1, 1): ((), ()),
}

FILT_TABLE = {
    (0, 0): (((0, 1), (1, 0)), ((-1, 1), (1, -1)), ()),
    (0, 1): (((0, 1), (1, 0)), ((-1, 1),), ((0, 1),)),
    (1, 2): (((0, 1), (1, 0)), ((-1, 1),), ((0, 1), (1, 1))),
    (1, 1): (((0, 1), (1, 0)), ((-1, 1), (1, -1)), ((1, 1),)),
    (2, 1): (((0, 1), (1, 0)), ((1, -1),), ((1, 0), (1, 1))),
    (1, 0): (((0, 1), (1, 0)), ((1, -1),), ((1, 0),)),
    (1, -1): (((1, 0),), ((1, -1),), ((0, -1), (1, 1))),
    (0, -1): (((1, 0),), ((1, -1),), ((0, -1),)),
    (-1, -2): ((), ((1, -1),), ((-1, -1), (0, -1), (1, 1))),
    (-1, -1): ((), ((-1, 1), (1, -1)), ((-1, -1), (1, 1))),
    (-2, -1): ((), ((-1, 1),), ((-1, -1), (0, 1), (1, 1))),
    (-1, 0): (((0, 1),), ((-1, 1),), ((-1, 0),)),
    (-1, 1): (((0, 1),), ((-1, 1),), ((-1, 0), (1, 1))),
}


def test_component_signatures_match_table(a2gl2):
    for p, (fixed, levi) in GRAD_TABLE.items():
        sig = component_signature(a2gl2, span([p], 2))
        assert (sig.fixed_weights, sig.levi_roots) == (fixed, levi), p


def test_attractor_signatures_match_table(a2gl2):
    for p, (attr, parab, rays) in FILT_TABLE.items():
        sig = special_cone_closure(a2gl2, [p])
        assert sig.attractor_weights == attr, p
        assert sig.parabolic_roots == parab, p
        assert sig.ambient_rays == rays, p


@pytest.mark.parametrize("name", LINEAR_SPECS + ("skew3",))
def test_component_signature_matches_fraction_dots_on_every_flat(name):
    # the oracle's span signature from scaled spanning vectors too
    spec = _named_spec(name)
    for fl in flats(global_arrangement(spec)):
        sub = fl.subspace
        expected = _signature_by_fractions(spec, sub)
        assert component_signature(spec, sub) == expected, fl.hyperplanes
        spanning = [[3 * x for x in primitive(b)] for b in sub.basis] + [(0,) * spec.rank]
        for vectors in (spanning, [qvec(b) for b in sub.basis]):
            assert span_signature(spec, vectors) == expected, (fl.hyperplanes, vectors)


def test_fixed_weight_and_parabolic_sign_convention(a2gl2):
    # the ray (0,1): the weight pairing to 0 is fixed, the root pairing
    # nonnegatively ((-1,1), not its negative) generates the parabolic
    sig = special_cone_closure(a2gl2, [(0, 1)])
    assert (1, 0) in sig.levi_part.fixed_weights
    assert sig.parabolic_roots == ((-1, 1),)
    assert (1, -1) not in sig.parabolic_roots


def test_cell_and_orbit_counts(a2gl2):
    arr = global_arrangement(a2gl2)
    all_cells = cells(arr)
    assert len(all_cells) == 13
    assert len(chambers(arr)) == 6

    orbits = set()
    for s in all_cells:
        p = witness_point(arr, s)
        orbit = frozenset(sign_vector_of(arr, mat_vec(g, p)) for g in a2gl2.weyl_group)
        orbits.add(orbit)
    assert len(orbits) == 8

    packaged = cell_orbits(a2gl2)
    assert_one_cell_per_orbit(packaged, sorted((tuple(sorted(o)) for o in orbits), key=lambda o: (len(o), o)))
    assert [o.orbit_size for o in packaged] == [1, 1, 1, 2, 2, 2, 2, 2]
    assert sum(o.orbit_size for o in packaged) == 13

    faces = enumerate_special_faces(a2gl2)
    assert [(o.dim, o.orbit_size) for o in faces] == [(2, 1), (1, 2), (1, 1), (0, 1)]
    assert sum(o.orbit_size for o in faces) == 5


def test_special_face_orbit_representatives(a2gl2):
    faces = enumerate_special_faces(a2gl2)
    bases = [tuple(tuple(x) for x in o.flat.subspace.basis) for o in faces]
    assert bases == [
        ((1, 0), (0, 1)),
        ((0, 1),),
        ((1, 1),),
        (),
    ]


def _braid_doc(n):
    roots = [[int(k == i) - int(k == j) for k in range(n)] for i in range(n) for j in range(n) if i != j]
    gens = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        gens.append([[int(c == swap.get(r, r)) for c in range(n)] for r in range(n)])
    return {"type": "linear_quotient", "rank": n, "weights": [], "roots": roots, "weyl_generators": gens}


def _weyl_route_cases():
    cases = [(name, json.loads((SPECS / f"{name}.json").read_text())) for name in LINEAR_SPECS]
    cases.append(("braid4", _braid_doc(4)))
    a3 = {"type": "quiver", "vertices": ["a", "b", "c"], "arrows": [["a", "b"], ["b", "c"]]}
    for qname, qdoc in (("a2", json.loads((SPECS / "a2_quiver.json").read_text())), ("a3", a3)):
        quiver = lm.load_quiver(qdoc)
        for total in range(1, 4):
            for gamma in lm.dim_vectors(quiver.n_vertices, total):
                cases.append((qname + "".join(map(str, gamma)), lm.quotient_spec_doc(quiver, gamma)))
    return [pytest.param(doc, id=name) for name, doc in cases]


def _face_orbits_by_geometry(spec):
    # every flat from the brute-force oracle, moved by the matrices
    arr = global_arrangement(spec)

    def key(sub):
        return tuple(x for row in sub.basis for x in row)

    seen, out = set(), []
    for _, sub in brute_force_flats(arr.covectors, arr.dim):
        if sub in seen:
            continue
        orbit = {span([mat_vec(g, b) for b in sub.basis], spec.rank) for g in spec.weyl_group}
        seen |= orbit
        out.append((minimal_flat_containing(arr, min(orbit, key=key).basis), len(orbit)))
    return sorted(out, key=lambda o: (-o[0].dim, key(o[0].subspace)))


def _cell_orbits_by_witness(spec):
    arr = global_arrangement(spec)
    orbits = set()
    for s in cells(arr):
        p = witness_point(arr, s)
        orbits.add(tuple(sorted({sign_vector_of(arr, mat_vec(g, p)) for g in spec.weyl_group})))
    return tuple(sorted(orbits, key=lambda o: (len(o), o)))


def assert_one_cell_per_orbit(found, orbits):
    """Cell orbits read off the closed chamber against the full orbits,
    sorted by size and members: the same sizes in the same order, and one
    representative in each orbit, whose size it carries."""
    assert [o.orbit_size for o in found] == [len(o) for o in orbits]
    where = {s: k for k, o in enumerate(orbits) for s in o}
    assert sorted(where[o.cell] for o in found) == list(range(len(orbits)))
    assert all(len(orbits[where[o.cell]]) == o.orbit_size for o in found)


@pytest.mark.parametrize("doc", _weyl_route_cases())
def test_weyl_permutations_move_flats_and_cells_as_the_matrices_do(doc):
    spec = load_spec(doc)
    faces = enumerate_special_faces(spec)
    assert [(o.flat, o.orbit_size) for o in faces] == _face_orbits_by_geometry(spec)
    orbits = _cell_orbits_by_witness(spec)
    assert closure_cell_orbits(spec) == orbits
    assert_one_cell_per_orbit(cell_orbits(spec), orbits)


def _minus_one(doc):
    """doc with -1 added to its Weyl generators: it fixes every hyperplane,
    is a reflection in rank 1 only, and moves every cell to its opposite."""
    n = doc["rank"]
    minus_one = [[-int(i == j) for j in range(n)] for i in range(n)]
    return {**doc, "weyl_generators": doc["weyl_generators"] + [minus_one]}


def _chamber_route_cases():
    cases = [(name, _named_spec(name)) for name in LINEAR_SPECS + ("skew3", "braid4", "braid5", "braid6")]
    cases += [(f"braid{n}-minus-one", load_spec(_minus_one(braid_spec(n)))) for n in range(1, 6)]
    rng = random.Random(18)
    for k in range(12):
        spec = load_spec(_conjugated_signed_permutations(rng, rng.randint(2, 4))[0])
        if global_arrangement(spec).size <= CELL_COVECTOR_CAP:
            cases.append((f"conjugated{k}", spec))
    return cases


def test_cell_orbits_read_off_the_chamber_match_the_closure_oracle():
    # every case: the same orbit sizes as closing every cell's orbit under
    # all of W, one representative per orbit, and the whole count of cells
    kinds = set()
    for name, spec in _chamber_route_cases():
        found, orbits = cell_orbits(spec), closure_cell_orbits(spec)
        assert_one_cell_per_orbit(found, orbits)
        assert sum(o.orbit_size for o in found) == len(cells(global_arrangement(spec))), name
        chamber = sm.weyl_reflection_chamber(spec)
        kinds.add((bool(chamber.walls), len(chamber.omega) > 1))
        if name.endswith("minus-one") and spec.rank >= 3:
            assert len(chamber.omega) == 2, name
    # W_r = W, W_r = 1 and both parts nontrivial all occur
    assert {(True, False), (False, True), (True, True)} <= kinds


def test_a_weyl_element_that_does_not_permute_the_hyperplanes_is_an_invariant_error():
    shear = ((1, 1), (0, 1))
    spec = QuotientStackSpec(2, ((0, 1), (1, 0)), (), (((1, 0), (0, 1)), shear))
    for route in (weyl_permutations, enumerate_special_faces, cell_orbits):
        with pytest.raises(InvariantError, match=r"pulls a covector back to \(1, 1\), off the arrangement"):
            route(spec)


# -- closure laws ---------------------------------------------------------------


def _random_vectors(rng, rank, count):
    return [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]


def test_closure_is_extensive_idempotent_monotone():
    rng = random.Random(91)
    specs = [load_spec(d) for d in ALL_DOCS]
    for _ in range(120):
        spec = rng.choice(specs)
        vecs = _random_vectors(rng, spec.rank, rng.randint(0, 3))
        face = span(vecs, spec.rank)
        flat = special_face_closure(spec, face)
        assert contains(flat.subspace, face)
        again = special_face_closure(spec, flat.subspace)
        assert again == flat
        sub_face = span(vecs[: len(vecs) // 2], spec.rank)
        sub_flat = special_face_closure(spec, sub_face)
        assert contains(flat.subspace, sub_flat.subspace)


def test_central_rank_detects_special_faces():
    rng = random.Random(17)
    specs = [load_spec(d) for d in ALL_DOCS]
    for _ in range(150):
        spec = rng.choice(specs)
        face = span(_random_vectors(rng, spec.rank, rng.randint(0, 3)), spec.rank)
        crk = central_rank(spec, face)
        assert crk >= face.dim
        flat = special_face_closure(spec, face)
        assert is_special(spec, face) == (flat.subspace == face)
        # the closure itself is always special, of the same central rank
        assert is_special(spec, flat.subspace)


@given(st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_closure_laws_hypothesis(spec_idx, data):
    spec = load_spec(ALL_DOCS[spec_idx])
    vec = st.tuples(*([st.integers(-2, 2)] * spec.rank))
    vecs = data.draw(st.lists(vec, max_size=3))
    more = data.draw(st.lists(vec, max_size=2))
    small = special_face_closure(spec, span(vecs, spec.rank))
    big = special_face_closure(spec, span(vecs + more, spec.rank))
    assert contains(big.subspace, small.subspace)
    assert special_face_closure(spec, small.subspace) == small


def test_spot_values_of_central_rank(a2gl2):
    # generic line: nothing vanishes, kernel of nothing is the plane
    assert central_rank(a2gl2, span([(1, 2)], 2)) == 2
    assert not is_special(a2gl2, span([(1, 2)], 2))
    # the diagonal kills both roots and nothing else
    assert central_rank(a2gl2, span([(1, 1)], 2)) == 1
    assert is_special(a2gl2, span([(1, 1)], 2))
    assert central_rank(a2gl2, span([], 2)) == 0


# -- faces presented by maps ----------------------------------------------------


def test_surjection_invariance(anyspec):
    rng = random.Random(5)
    for _ in range(20):
        face = span(_random_vectors(rng, anyspec.rank, rng.randint(1, 3)), anyspec.rank)
        if face.dim == 0:
            continue
        k = face.dim
        while True:
            proj = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k + rng.randint(0, 1))]
            if span(proj, k).dim == k:
                break
        assert surjection_invariance_check(anyspec, face, proj)


def test_surjection_check_rejects_non_surjections(a2gl2):
    face = span([(1, 0), (0, 1)], 2)
    with pytest.raises(SpecError):
        surjection_invariance_check(a2gl2, face, [[1, 0], [2, 0]])


# -- special cones ----------------------------------------------------------------


def test_special_cones_of_the_multiplicative_line():
    spec = load_spec(A1_GM)
    cones = enumerate_special_cones(spec)
    assert [c.signature.ambient_rays for c in cones] == [((-1,), (1,)), ((1,),), ()]
    # the closure of the negative ray is the whole line, not a half line
    down = special_cone_closure(spec, [(-1,)])
    assert down.ambient_rays == ((-1,), (1,))
    up = special_cone_closure(spec, [(1,)])
    assert up.ambient_rays == ((1,),)
    assert up.attractor_weights == ((1,),)
    assert down.attractor_weights == ()


def test_central_cone_of_the_rank3_borel(bgl3):
    sig = special_cone_closure(bgl3, [(0, 0, 0)])
    assert sig.flat.dim == 1
    assert sig.ambient_rays == ((-1, -1, -1), (1, 1, 1))
    # the filtration is central, so nothing is truncated away
    assert set(sig.parabolic_roots) == set(bgl3.roots)


def test_special_cone_orbits_rank2(a2gl2):
    cones = enumerate_special_cones(a2gl2)
    assert len(cones) == 12
    assert sum(c.orbit_size for c in cones) == 19
    table = {c.signature.ambient_rays: (c.dim, c.orbit_size) for c in cones}
    assert table[((0, 1), (1, 0))] == (2, 1)  # the dominant quadrant is symmetric
    assert table[((1, 1),)] == (1, 1)
    assert table[((0, 1),)] == (1, 2)
    assert table[()] == (0, 1)
    assert table[((-1, 0), (0, -1), (0, 1), (1, 0))] == (2, 1)  # the whole plane


def _act_cone_by_saturation(spec, ambient_rays, g):
    # the minimal cone of the restricted arrangement containing the moved
    # rays, by a second double description over their saturated constraints
    moved = [mat_vec(g, r) for r in ambient_rays]
    carrier = span(moved, spec.rank)
    arr_f = restrict(global_arrangement(spec), carrier)
    sat = saturated_cone(arr_f, [coords_in(carrier, v) for v in moved])
    eqs = [arr_f.covectors[i] for i in sat.zero_set]
    ineqs = [vec_scale(s, arr_f.covectors[i]) for i, s in sat.nonneg_set]
    rays = rays_of_constraints(eqs, ineqs, carrier.dim)
    return tuple(sorted(primitive(lift(carrier, r)) for r in rays))


def test_weyl_action_on_cones_matches_the_saturation_route(a2gl2, bgl3):
    # the orbits that enumerate_special_cones finds by permuting sign data
    # are the orbits of the matrices, closed up by a second double
    # description: each has orbit_size images, and no image is shared
    for spec in (a2gl2, bgl3):
        seen = set()
        for orbit in enumerate_special_cones(spec):
            rep = orbit.signature.ambient_rays
            images = {_act_cone_by_saturation(spec, rep, g) for g in spec.weyl_group}
            assert len(images) == orbit.orbit_size
            assert not images & seen
            seen |= images


def test_special_cones_sharing_their_sign_data_are_an_invariant_error(a2gl2, monkeypatch):
    # with no covectors to tell them apart, every cone of the plane has the
    # empty key
    empty = HyperplaneArrangement((), 2)
    monkeypatch.setattr(sm, "global_arrangement", lambda spec: empty)
    with pytest.raises(InvariantError, match="share their sign data"):
        enumerate_special_cones(a2gl2)


def test_a_special_cone_whose_closure_moves_its_rays_is_an_invariant_error(a2gl2, monkeypatch):
    # a closure that sees only the first ray loses the others of every
    # cone with two or more
    closure = sm.special_cone_closure
    monkeypatch.setattr(sm, "special_cone_closure", lambda spec, rays: closure(spec, rays[:1]))
    with pytest.raises(InvariantError) as exc:
        enumerate_special_cones(a2gl2)
    assert str(exc.value) == (
        "special cone with rays ((-1, -1), (0, -1), (1, 1)) has closure rays ((-1, -1), (1, 1))"
    )


def test_cone_closure_is_idempotent_and_extensive(anyspec):
    rng = random.Random(23)
    arr = global_arrangement(anyspec)
    for _ in range(25):
        rays = _random_vectors(rng, anyspec.rank, rng.randint(1, 3))
        sig = special_cone_closure(anyspec, rays)
        carrier = sig.flat.subspace
        arr_f = cotangent_arrangement(anyspec, carrier)
        cone = saturated_cone(arr_f, [coords_in(carrier, a) for a in sig.ambient_rays])
        assert cone.dim == sig.levi_part.face_dim
        for r in rays:
            assert cone_contains_point(cone, arr_f, coords_in(carrier, qvec(r)))
        again = special_cone_closure(anyspec, [qvec(r) for r in sig.ambient_rays] or [(0,) * anyspec.rank])
        assert again.ambient_rays == sig.ambient_rays
        assert again.flat == sig.flat


def _cone_closure_by_fractions(spec, rays):
    # the Fraction route: span, minimal flat, coordinates in its basis,
    # restrictions nonnegative on every ray, double description
    rays = [qvec(r) for r in rays]
    arr = global_arrangement(spec)
    flat = minimal_flat_containing(arr, span(rays, spec.rank).basis)
    carrier = flat.subspace
    coords = [coords_in(carrier, r) for r in rays]
    restrictions = set()
    for w in spec.weights + spec.roots:
        vals = [dot(w, b) for b in carrier.basis]
        if any(vals):
            restrictions.add(primitive(vals))
    ineqs = [l for l in sorted(restrictions) if all(dot(l, c) >= 0 for c in coords)]
    cone_rays = rays_of_constraints([], ineqs, carrier.dim)
    ambient = tuple(sorted(primitive(lift(carrier, r)) for r in cone_rays))
    attractor = tuple(w for w in spec.weights if all(dot(w, a) >= 0 for a in ambient))
    parabolic = tuple(r for r in spec.roots if all(dot(r, a) >= 0 for a in ambient))
    levi = _signature_by_fractions(spec, span(ambient, spec.rank))
    return AttractorSignature(flat, ambient, attractor, parabolic, levi)


def _random_ray(rng, spec, flat_bases):
    kind = rng.choice(("zero", "int", "rational", "on_flat"))
    if kind == "zero":
        return (0,) * spec.rank
    if kind == "int":
        return tuple(rng.randint(-3, 3) for _ in range(spec.rank))
    if kind == "rational":
        return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(spec.rank))
    # a point of a random flat, so on every hyperplane through that flat
    basis = rng.choice(flat_bases)
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
    return tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0)) for j in range(spec.rank))


@pytest.mark.parametrize("name", LINEAR_SPECS + ("skew3",))
def test_cone_closure_matches_the_fraction_route_and_ignores_scaling(name):
    spec = _named_spec(name)
    flat_bases = [f.subspace.basis for f in flats(global_arrangement(spec))]
    if name == "skew3":
        assert any(x.denominator > 1 for basis in flat_bases for row in basis for x in row)
    rng = random.Random(59)
    for _ in range(30):
        rays = [_random_ray(rng, spec, flat_bases) for _ in range(rng.randint(1, 3))]
        sig = special_cone_closure(spec, rays)
        assert sig == _cone_closure_by_fractions(spec, rays) == unmemoized_cone_closure(spec, rays), rays
        # the same directions select the same restrictions: the memo answers
        scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in rays]
        scaled = [[c * x for x in r] for c, r in zip(scales, rays)]
        assert special_cone_closure(spec, scaled) == sig, rays


@pytest.mark.parametrize("name", LINEAR_SPECS + ("skew3",))
def test_a_special_cone_spans_its_carrier_flat(name):
    # the cone's dimension is taken from its flat, with no rank computed:
    # every special-cone orbit and 30 random closures must bear that out
    spec = _named_spec(name)
    flat_bases = [f.subspace.basis for f in flats(global_arrangement(spec))]
    rng = random.Random(67)
    sigs = [o.signature for o in enumerate_special_cones(spec)]
    for _ in range(30):
        sigs.append(special_cone_closure(spec, [_random_ray(rng, spec, flat_bases) for _ in range(rng.randint(1, 3))]))
    for sig in sigs:
        assert row_rank(sig.ambient_rays) == sig.flat.dim == sig.levi_part.face_dim, sig


def test_the_cone_memo_agrees_with_the_unmemoized_closure_on_constancy_samples(monkeypatch):
    spec = _named_spec("b_gl4")
    fl = flats(global_arrangement(spec))[0]
    calls = []
    closure = sm._closure_of_pairings

    def recording(spec, rays, pairings):
        calls.append((rays, closure(spec, rays, pairings)))
        return calls[-1][1]

    monkeypatch.setattr(sm, "_closure_of_pairings", recording)
    assert constancy_check(spec, fl, samples=5, seed=11)["ok"]
    assert len(calls) == 24 * 5
    # samples of one chamber share one memoized record
    assert len({id(sig) for _, sig in calls}) == 24
    for rays, sig in calls:
        assert sig == unmemoized_cone_closure(spec, rays), rays


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", LINEAR_SPECS + ("skew3", "braid4"))
def test_constancy_samples_get_the_signatures_of_the_oracles(monkeypatch, name, seed):
    # both signatures of a sample come from one pairing table; the oracles
    # pair every functional with the sample again, and the closure oracle
    # memoizes nothing past the flat
    spec = _named_spec(name)
    samples = []
    sample_signatures = sm._sample_signatures

    def recording(spec, p):
        samples.append((p, sample_signatures(spec, p)))
        return samples[-1][1]

    monkeypatch.setattr(sm, "_sample_signatures", recording)
    for fl in flats(global_arrangement(spec)):
        assert constancy_check(spec, fl, samples=2, seed=seed)["ok"]
    assert len(samples) >= 2 * len(flats(global_arrangement(spec)))  # a chamber or more per flat
    for p, (comp, attr) in samples:
        assert comp == span_signature(spec, [p]), p
        assert attr == unmemoized_cone_closure(spec, [p]), p


@pytest.mark.parametrize("name", LINEAR_SPECS + ("skew3", "braid4"))
def test_chamber_rays_match_a_second_double_description(name):
    # every arrangement constancy samples, each flat's restriction, and the
    # global one
    arr_g = global_arrangement(_named_spec(name))
    for arr in [arr_g] + [restrict(arr_g, fl.subspace) for fl in flats(arr_g)]:
        got = chamber_rays(arr)
        assert got == chamber_rays_by_constraints(arr)
        assert tuple(got) == chambers(arr)


def test_attractor_monotone_under_ray_growth(a2gl2):
    # adding rays can only shrink the attractor and parabolic
    rng = random.Random(41)
    for _ in range(40):
        rays = _random_vectors(rng, 2, rng.randint(1, 2))
        more = rays + _random_vectors(rng, 2, 1)
        small = special_cone_closure(a2gl2, rays)
        big = special_cone_closure(a2gl2, more)
        assert set(big.attractor_weights) <= set(small.attractor_weights)
        assert set(big.parabolic_roots) <= set(small.parabolic_roots)


# -- constancy --------------------------------------------------------------------


def test_signatures_constant_on_chambers(a2gl2):
    faces = enumerate_special_faces(a2gl2)
    chamber_counts = []
    for orbit in faces:
        report = constancy_check(a2gl2, orbit.flat, samples=40, seed=7)
        assert report["ok"], report["discrepancies"]
        chamber_counts.append(len(report["chambers"]))
    assert chamber_counts == [6, 2, 2, 1]


def test_a_chamber_whose_samples_select_different_restrictions_is_reported(a2gl2, monkeypatch):
    # on a line flat the restrictions are (-1,) and (1,); dropping the
    # first on every second call makes the second sample of chamber [-1]
    # select none, so its cone is the whole line and not the half-line
    fl = next(f for f in flats(global_arrangement(a2gl2)) if f.dim == 1)
    functionals = sm._restriction_functionals
    assert [l for l, _ in functionals(a2gl2, fl.subspace)] == [(-1,), (1,)]
    calls = []

    def alternating(spec, space):
        calls.append(space)
        out = functionals(spec, space)
        return out[1:] if len(calls) % 2 == 0 else out

    monkeypatch.setattr(sm, "_restriction_functionals", alternating)
    report = constancy_check(a2gl2, fl, samples=2, seed=0)
    assert len(calls) == 4
    assert report["ok"] is False
    # the witness is the chamber's two samples, the second of which selected
    # less: both on the line x = 0, whose cone is the half-line y <= 0 for
    # the first and the whole line for the second
    component = {"face_dim": 1, "fixed_weights": [[1, 0]], "levi_roots": []}
    attractor = {
        "carrier_dim": 1,
        "carrier_basis": [["0", "1"]],
        "cone_dim": 1,
        "ambient_rays": [[0, -1]],
        "attractor_weights": [[1, 0]],
        "parabolic_roots": [[1, -1]],
        "levi": component,
    }
    assert jsonable(report["discrepancies"]) == [
        {
            "signs": [-1],
            "samples": 2,
            "component_signatures": 1,
            "attractor_signatures": 2,
            "witness": [[0, -50], [0, -6]],
            "witness_signatures": [
                {"component": component, "attractor": attractor},
                {
                    "component": component,
                    "attractor": {**attractor, "ambient_rays": [[0, -1], [0, 1]], "parabolic_roots": []},
                },
            ],
        }
    ]


def test_a_discrepancy_witness_is_the_first_sample_and_the_first_that_differs(a2gl2, monkeypatch):
    # as above, with four samples: those of chamber [-1] select both
    # restrictions, one, both, one, so the witness is its first two samples
    fl = next(f for f in flats(global_arrangement(a2gl2)) if f.dim == 1)
    functionals = sm._restriction_functionals
    sample_signatures = sm._sample_signatures
    calls, samples = [], []

    def alternating(spec, space):
        calls.append(space)
        out = functionals(spec, space)
        return out[1:] if len(calls) % 2 == 0 else out

    def recording(spec, p):
        samples.append(list(p))
        return sample_signatures(spec, p)

    monkeypatch.setattr(sm, "_restriction_functionals", alternating)
    monkeypatch.setattr(sm, "_sample_signatures", recording)
    (entry,) = constancy_check(a2gl2, fl, samples=4, seed=0)["discrepancies"]
    assert (entry["signs"], entry["attractor_signatures"]) == ([-1], 2)
    assert entry["witness"] == samples[:2]


def test_constancy_on_the_rank3_mixed_example():
    spec = load_spec(RANK3_MIXED)
    full = enumerate_special_faces(spec)[0]
    assert full.dim == 3
    report = constancy_check(spec, full.flat, samples=15, seed=3)
    assert report["ok"]


def test_constancy_samples_are_positive_multiples_of_the_drawn_points(monkeypatch):
    # the sampler's rational points, drawn as constancy_check draws them,
    # on a carrier whose basis has denominators
    spec = load_spec(SKEW3)
    fl = next(f for f in flats(global_arrangement(spec)) if f.dim == 2)
    carrier = fl.subspace
    assert any(x.denominator > 1 for row in carrier.basis for x in row)
    arr_f = restrict(global_arrangement(spec), carrier)
    rng = random.Random(13)
    drawn = []
    for ch in chambers(arr_f):
        lin, pointed = split_rays(rays_of_constraints(*signed_constraints(arr_f.covectors, ch), carrier.dim))
        for _ in range(4):
            v = [Fraction(0)] * carrier.dim
            for r in pointed:
                c = Fraction(rng.randint(1, 64), rng.randint(1, 64))
                v = [x + c * y for x, y in zip(v, r)]
            for b in (r for r in lin if r < vec_neg(r)):
                c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 64), rng.randint(1, 64))
                v = [x + c * y for x, y in zip(v, b)]
            drawn.append(lift(carrier, v))
    sampled = []
    signatures = sm._sample_signatures

    def recording(spec, p):
        sampled.append(p)
        return signatures(spec, p)

    monkeypatch.setattr(sm, "_sample_signatures", recording)
    assert constancy_check(spec, fl, samples=4, seed=13)["ok"]
    assert len(sampled) == len(drawn) > 4
    for p, q in zip(sampled, drawn):
        assert all(type(x) is int for x in p)
        assert primitive(p) == primitive(q), (p, q)


def test_constancy_samples_get_the_rank_of_their_span(monkeypatch):
    # a sample is one vector: its face dimension is 1, or 0 on the zero
    # flat, whose only sample is the origin
    spec = load_spec(A2_GL2)
    signatures = []
    sample_signatures = sm._sample_signatures

    def recording(spec, p):
        comp, attr = sample_signatures(spec, p)
        signatures.append(((tuple(p),), comp.face_dim))
        return comp, attr

    monkeypatch.setattr(sm, "_sample_signatures", recording)
    for fl in flats(global_arrangement(spec)):
        constancy_check(spec, fl, samples=3, seed=0)
    assert (((0, 0),), 0) in signatures
    assert len(signatures) > 3
    for vectors, dim in signatures:
        assert dim == row_rank(vectors), vectors


@pytest.mark.parametrize("name", LINEAR_SPECS)
def test_constancy_never_raises_a_false_alarm_on_the_shipped_specs(name):
    # chambers that are pure lineality once sampled the origin whenever
    # every lineality coefficient came out zero (seeds 0, 2, 4, 5 on b_*)
    spec = load_spec(json.loads((SPECS / f"{name}.json").read_text()))
    for seed in range(6):
        for fl in flats(global_arrangement(spec)):
            report = constancy_check(spec, fl, samples=50, seed=seed)
            assert report["ok"], (seed, report["discrepancies"])


# -- Hall category on scaled embeddings -------------------------------------------


def _hall_category_by_fractions(spec):
    # the Fraction route: an embedding is the coordinates (coords_in) of the
    # moved basis rows, a composite is the Fraction product (mat_mul) of
    # the two embeddings, and the Tits rule reads Fraction dots
    objects = enumerate_special_faces(spec)
    reps = [o.flat.subspace for o in objects]
    cot = [restrict(global_arrangement(spec), s) for s in reps]
    morphisms = []
    for si, a in enumerate(reps):
        for ti, b in enumerate(reps):
            if a.dim > b.dim:
                continue
            embeddings = set()
            for g in spec.weyl_group:
                rows = tuple(coords_in(b, v) for v in mat_mul(a.basis, tuple(zip(*g))))
                if None not in rows:
                    embeddings.add(rows)
            for emb in sorted(embeddings):
                sub = vanishing_covectors(cot[ti], emb)
                for ch in chambers(HyperplaneArrangement(sub, b.dim)):
                    morphisms.append(HallMorphism(si, ti, emb, ch))

    def identity(oi):
        k = reps[oi].dim
        eye = tuple(tuple(Fraction(int(i == j)) for j in range(k)) for i in range(k))
        return HallMorphism(oi, oi, eye, ())

    def compose(m1, m2):
        emb = mat_mul(m1.embedding, m2.embedding)
        first, second = (vanishing_covectors(cot[m.target], m.embedding) for m in (m1, m2))
        signs = []
        for w in vanishing_covectors(cot[m2.target], emb):
            pull = [dot(w, row) for row in m2.embedding]
            if any(pull):
                canon, sgn = canonical_covector_signed(pull)
                signs.append(sgn * m1.chamber[first.index(canon)])
            else:
                signs.append(m2.chamber[second.index(w)])
        return HallMorphism(m1.source, m2.target, emb, tuple(signs))

    return FiniteCategory.build(objects, morphisms, identity, compose)


def test_hall_category_with_scaled_embeddings_matches_the_fraction_route():
    # skew3's flats have bases with denominators, so its embeddings carry
    # scales above 1 and every composite through such an object divides
    spec = load_spec(SKEW3)
    cat = hall_category(spec)
    scales = [o.flat.subspace.scale for o in cat.objects]
    assert {2, 3, 6} <= set(scales)
    assert (len(cat.objects), len(cat.morphisms)) == (12, 118)
    ref = _hall_category_by_fractions(spec)
    assert len(ref.morphisms) == len(cat.morphisms)
    cot = [restrict(global_arrangement(spec), o.flat.subspace) for o in cat.objects]
    for m, r in zip(cat.morphisms, ref.morphisms):
        assert all(type(x) is int for row in m.embedding for x in row)
        scaled = tuple(tuple(scales[r.source] * x for x in row) for row in r.embedding)
        # the chamber coordinates: the target covectors vanishing on each embedding
        assert (m.source, m.target, m.embedding, m.chamber, vanishing_covectors(cot[m.target], m.embedding)) == (
            r.source,
            r.target,
            scaled,
            r.chamber,
            vanishing_covectors(cot[r.target], r.embedding),
        )
    assert cat.identities == ref.identities
    assert cat.then == ref.then
    assert verify_hall_category(cat) == verify_hall_category(ref)
    assert verify_hall_category(cat)["ok"]
    assert hall_composition_weight_identity(spec, cat) is hall_composition_weight_identity(spec, ref) is True


# -- determinism ------------------------------------------------------------------


def test_enumerations_are_deterministic():
    a = load_spec(A2_GL2)
    b = load_spec(dict(A2_GL2))
    assert a == b
    assert enumerate_special_faces(a) == enumerate_special_faces(b)
    assert enumerate_special_cones(a) == enumerate_special_cones(b)
    r1 = constancy_check(a, enumerate_special_faces(a)[0].flat, samples=5, seed=11)
    r2 = constancy_check(b, enumerate_special_faces(b)[0].flat, samples=5, seed=11)
    assert r1 == r2
