"""The category of special-face orbits and its Tits composition.

Object and morphism counts for the four frozen examples were enumerated by
hand: each morphism is an embedding of orbit representatives (up to the
small Weyl twist) together with a chamber of the target hyperplanes
through the image.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from complat import arrangement
from complat import stackmodel as sm
from complat.arrangement import HyperplaneArrangement
from complat.stackmodel import (
    hall_category,
    hall_composition_weight_identity,
    load_spec,
    verify_hall_category,
)
from oracles import cotangent_arrangement, pairwise_weight_identity, per_composite_compose, vanishing_covectors
from tests.test_stackmodel import A1_GM, A2_GL2, B_GL3, B_GM, LINEAR_SPECS, _named_spec

CATEGORY_SIZES = {
    "bgm": (B_GM, 1, 1),
    "a1gm": (A1_GM, 2, 4),
    "a2gl2": (A2_GL2, 4, 21),
    "bgl3": (B_GL3, 3, 22),
}


def _sub_covectors(spec, cat, m):
    # the target cotangent covectors vanishing on the embedding, in the
    # chamber's coordinate order
    return vanishing_covectors(cotangent_arrangement(spec, cat.objects[m.target].flat.subspace), m.embedding)


@pytest.fixture(scope="module")
def categories():
    out = {}
    for name, (doc, _, _) in CATEGORY_SIZES.items():
        spec = load_spec(doc)
        out[name] = (spec, hall_category(spec))
    return out


@pytest.mark.parametrize("name", list(CATEGORY_SIZES))
def test_object_and_morphism_counts(categories, name):
    _, n_obj, n_mor = CATEGORY_SIZES[name]
    _, cat = categories[name]
    assert len(cat.objects) == n_obj
    assert len(cat.morphisms) == n_mor


def test_rank2_morphism_breakdown(categories):
    # objects in order: the plane, the axis pair, the diagonal, the origin
    _, cat = categories["a2gl2"]
    assert [o.dim for o in cat.objects] == [2, 1, 1, 0]
    counts = Counter((m.source, m.target) for m in cat.morphisms)
    assert counts == {
        (3, 3): 1,
        (3, 1): 2,
        (3, 2): 2,
        (3, 0): 6,
        (1, 1): 1,
        (1, 0): 4,
        (2, 2): 1,
        (2, 0): 2,
        (0, 0): 2,
    }


def test_rank3_morphism_breakdown(categories):
    # objects in order: the space, the wall orbit, the central line
    _, cat = categories["bgl3"]
    assert [o.dim for o in cat.objects] == [3, 2, 1]
    assert [o.orbit_size for o in cat.objects] == [1, 3, 1]
    counts = Counter((m.source, m.target) for m in cat.morphisms)
    assert counts == {
        (2, 2): 1,
        (2, 1): 2,
        (2, 0): 6,
        (1, 1): 1,
        (1, 0): 6,
        (0, 0): 6,
    }


@pytest.mark.parametrize("name", list(CATEGORY_SIZES))
def test_unit_laws_and_associativity(categories, name):
    _, cat = categories[name]
    report = verify_hall_category(cat)
    assert report["ok"], report
    assert report["pairs"] == sum(len(row) for row in cat.then)


def test_exhaustive_triple_counts(categories):
    assert verify_hall_category(categories["a2gl2"][1])["triples"] == 155
    assert verify_hall_category(categories["bgl3"][1])["triples"] == 836


def test_identities_have_trivial_chamber(categories):
    for _, cat in categories.values():
        for oi, idx in enumerate(cat.identities):
            m = cat.morphisms[idx]
            assert m.source == m.target == oi
            assert m.chamber == ()
            k = cat.objects[oi].dim
            assert m.embedding == tuple(
                tuple(Fraction(int(i == j)) for j in range(k)) for i in range(k)
            )


def test_twisting_an_axis_embedding_by_the_weyl_flip(categories):
    # composing (axis -> plane via the second coordinate, sign s on the
    # surviving hyperplane) with the flip of the plane must give the other
    # axis embedding with the same sign on its surviving hyperplane
    spec, cat = categories["a2gl2"]
    flip = next(
        i
        for i, m in enumerate(cat.morphisms)
        if m.source == m.target == 0 and m.embedding == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    )
    for sign in (1, -1):
        first = next(
            i
            for i, m in enumerate(cat.morphisms)
            if (m.source, m.target) == (1, 0)
            and m.embedding == ((Fraction(0), Fraction(1)),)
            and m.chamber == (sign,)
        )
        composed = cat.morphisms[cat.compose(first, flip)]
        assert composed.embedding == ((Fraction(1), Fraction(0)),)
        assert _sub_covectors(spec, cat, composed) == ((0, 1),)
        assert composed.chamber == (sign,)


def test_composition_with_chamber_fallthrough(categories):
    # origin -> axis picks a sign on the axis line; embedding the axis in
    # the plane pulls the plane's surviving hyperplane back to zero, so the
    # second factor's chamber decides every remaining sign
    _, cat = categories["a2gl2"]
    to_axis = [i for i, m in enumerate(cat.morphisms) if (m.source, m.target) == (3, 1)]
    axis_in = [i for i, m in enumerate(cat.morphisms) if (m.source, m.target) == (1, 0)]
    results = {cat.compose(i, j) for i in to_axis for j in axis_in}
    # every sector of the plane has an axis ray on its boundary, so the
    # composites cover the six origin -> plane chamber morphisms exactly
    assert results == {
        i for i, m in enumerate(cat.morphisms) if (m.source, m.target) == (3, 0)
    }


@pytest.mark.parametrize("name", list(CATEGORY_SIZES))
def test_composition_weight_identity(categories, name):
    spec, cat = categories[name]
    assert hall_composition_weight_identity(spec, cat) is True


def test_composition_weight_identity_rejects_a_swapped_composite(categories):
    # the positive half of the axis line, embedded as (1, 0) into the plane
    # with (0, 1) >= 0, composes to the sector where x, y and x - y are all
    # positive; the opposite sector has the wrong sign on every weight that
    # the embedded ray sees, so the identity must fail once it is swapped in,
    # at that pair, on all four of (1, 0), (0, 1), (-1, 1) and (1, -1): the
    # sector x > y > 0 holds the first, second and fourth >= 0, the opposite
    # one only the third
    spec, cat = categories["a2gl2"]
    ms = cat.morphisms
    ray = next(i for i, m in enumerate(ms) if (m.source, m.target) == (3, 1) and m.chamber == (1,))
    into_plane = next(
        i
        for i, m in enumerate(ms)
        if (m.source, m.target) == (1, 0) and m.embedding == ((Fraction(1), Fraction(0)),) and m.chamber == (1,)
    )
    sector = ms[cat.compose(ray, into_plane)]
    assert (_sub_covectors(spec, cat, sector), sector.chamber) == (((0, 1), (1, -1), (1, 0)), (1, 1, 1))
    opposite = next(
        i for i, m in enumerate(ms) if (m.source, m.target) == (3, 0) and m.chamber == (-1, -1, -1)
    )
    then = list(cat.then)
    then[ray] = {**then[ray], into_plane: opposite}
    swapped = cat._replace(then=tuple(then))
    assert hall_composition_weight_identity(spec, cat) is True
    assert hall_composition_weight_identity(spec, swapped) == {
        "pair": (ray, into_plane),
        "composite": opposite,
        "tangent_indices": [0, 1, 2, 3],
    }


@pytest.mark.parametrize("name", LINEAR_SPECS + ("skew3", "braid4"))
def test_the_mask_identity_agrees_with_the_pairwise_identity(name):
    spec = _named_spec(name)
    cat = hall_category(spec)
    assert hall_composition_weight_identity(spec, cat) is pairwise_weight_identity(spec, cat) is True


@pytest.mark.parametrize("name", ["rank3_mixed", "braid4"])
def test_each_sub_arrangement_is_derived_once(monkeypatch, name):
    # the category and the weight identity read every chamber and its rays
    # from one _cell_states run per distinct sub-arrangement, and no
    # second double description of a chamber's constraints runs
    spec = _named_spec(name)
    runs = []
    cell_states = arrangement._cell_states

    def recording(arr):
        runs.append(arr)
        return cell_states(arr)

    def refused(*args):
        raise AssertionError("rays_of_constraints ran on the Hall path")

    for module in (arrangement, sm):
        monkeypatch.setattr(module, "rays_of_constraints", refused)
    monkeypatch.setattr(arrangement, "_cell_states", recording)
    arrangement.chamber_rays.cache_clear()
    cat = hall_category(spec)
    assert hall_composition_weight_identity(spec, cat) is True
    subs = {
        HyperplaneArrangement(_sub_covectors(spec, cat, m), cat.objects[m.target].dim) for m in cat.morphisms
    }
    assert len(runs) == len(set(runs)) and set(runs) == subs


@pytest.mark.parametrize("name", LINEAR_SPECS + ("skew3", "braid4", "braid5"))
def test_per_pair_composition_matches_the_per_composite_oracle(name):
    # every composite of the table, recomputed from its two factors with
    # no per-pair memo
    spec = _named_spec(name)
    cat = hall_category(spec)
    ms = cat.morphisms
    subs = {
        (m.target, m.embedding): sm._embedded_arrangement(spec, cat.objects[m.target].flat.subspace, m.embedding)
        for m in ms
    }
    scales = [o.flat.subspace.scale for o in cat.objects]
    for i, then_i in enumerate(cat.then):
        for j, k in then_i.items():
            assert per_composite_compose(ms[i], ms[j], subs, scales[ms[i].target]) == ms[k], (i, j)


def test_the_mask_identity_agrees_with_the_pairwise_identity_on_corrupted_tables():
    # 215 seeded tables, each with one to three composites swapped for
    # another morphism between the same objects; both verdicts occur
    verdicts = Counter()
    for name in ("a2_gl2", "b_gl3", "a1_gm", "b_gl2", "rank3_mixed"):
        spec = _named_spec(name)
        cat = hall_category(spec)
        ends = [(m.source, m.target) for m in cat.morphisms]
        pairs = [(i, j) for i, then_i in enumerate(cat.then) for j in then_i]
        rng = random.Random(name)
        for _ in range(43):
            then = list(cat.then)
            for _ in range(rng.randint(1, 3)):
                i, j = rng.choice(pairs)
                k = then[i][j]
                others = [x for x, e in enumerate(ends) if e == ends[k] and x != k]
                if others:
                    then[i] = {**then[i], j: rng.choice(others)}
            corrupted = cat._replace(then=tuple(then))
            verdict = hall_composition_weight_identity(spec, corrupted)
            assert verdict == pairwise_weight_identity(spec, corrupted), name
            if verdict is not True:
                # the witness pair's composite is one the corruption swapped in
                i, j = verdict["pair"]
                assert verdict["composite"] == then[i][j] != cat.then[i][j] and verdict["tangent_indices"]
            verdicts[verdict is True] += 1
    assert sum(verdicts.values()) == 215
    assert verdicts[False] > 100 and verdicts[True] > 10, verdicts


def test_category_is_deterministic():
    spec = load_spec(A2_GL2)
    c1 = hall_category(spec)
    c2 = hall_category(load_spec(dict(A2_GL2)))
    assert c1.morphisms == c2.morphisms
    assert c1.then == c2.then
