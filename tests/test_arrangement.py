import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import complat.arrangement as arrangement
from complat.arrangement import (
    canonical_rays,
    cells,
    chambers,
    dd_cone,
    flats,
    from_vectors,
    minimal_flat_containing,
    rays_of_constraints,
    restrict,
    sign_vector_of,
    split_rays,
    tits_compose,
)
from complat.errors import CapExceeded, InvariantError
from complat.qlinalg import dot, primitive, qvec, row_rank, span, vec_neg
from complat.stackmodel import global_arrangement, load_spec

import oracles
from oracles import (
    brute_force_flats,
    brute_force_pointed_rays,
    realizable,
    reduce_mod,
    sample_sign_vectors,
    saturated_cone,
    vec_scale,
    witness_point,
    zaslavsky_face_count,
)

# the three concurrent lines x=0, y=0, x=y in Q^2
ARR3 = from_vectors([(1, 0), (0, 1), (1, -1)], 2)

COORD2 = from_vectors([(1, 0), (0, 1)], 2)
COORD3 = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
BRAID3 = from_vectors([(1, -1, 0), (1, 0, -1), (0, 1, -1)], 3)
BRAID4 = from_vectors(
    [tuple(int(k == i) - int(k == j) for k in range(4)) for i in range(4) for j in range(i + 1, 4)], 4
)
LINEAR_SPECS = ("a1_gm", "a2_gl2", "b_gl2", "b_gl3", "b_gl4", "b_gm", "rank3_mixed")


def test_from_vectors_canonicalizes_and_dedupes():
    arr = from_vectors([(0, 2), (-1, 1), (1, -1), (0, 0), (0, -1)], 2)
    assert arr.covectors == ((0, 1), (1, -1))


def test_sign_vector():
    assert sign_vector_of(ARR3, (1, 2)) == (1, 1, -1)
    assert sign_vector_of(ARR3, (0, 0)) == (0, 0, 0)
    assert sign_vector_of(ARR3, (Fraction(1, 2), Fraction(1, 2))) == (1, 1, 0)


def test_three_lines_cells_count():
    cs = cells(ARR3)
    # origin + 6 rays + 6 open sectors
    assert len(cs) == 13
    assert (0, 0, 0) in cs
    assert all(sign_vector_of(ARR3, witness_point(ARR3, s)) == s for s in cs)


def test_coordinate_arrangement_cells():
    assert len(cells(COORD2)) == 9
    assert len(cells(COORD3)) == 27


def test_braid3_cells():
    # 6 chambers, 6 half-plane walls, and the center line: 13 cells
    cs = cells(BRAID3)
    assert len(cs) == 13
    assert len(chambers(BRAID3)) == 6


def test_cells_match_random_sampling():
    rng = random.Random(7)
    for arr in (ARR3, COORD2, BRAID3):
        seen = sample_sign_vectors(arr, rng, 300)
        assert seen <= set(cells(arr))


def test_realizable_examples():
    assert realizable(ARR3, (1, 1, -1))
    assert realizable(ARR3, (0, 0, 0))
    # x > 0, y > 0 forces a sign on x - y only off the diagonal; all three
    # strict sign patterns are realizable, but x=y with x>0>y is not
    assert not realizable(ARR3, (1, -1, 0))
    with pytest.raises(ValueError):
        realizable(ARR3, (1, 1))


def test_cells_cap():
    vecs = [(1, k) for k in range(25)]
    arr = from_vectors(vecs, 2)
    with pytest.raises(CapExceeded):
        cells(arr)


def _shipped(name):
    path = Path(__file__).resolve().parent.parent / "specs" / f"{name}.json"
    return global_arrangement(load_spec(json.loads(path.read_text())))


BRAID5 = from_vectors(
    [tuple(int(k == i) - int(k == j) for k in range(5)) for i in range(5) for j in range(i + 1, 5)], 5
)


@pytest.mark.parametrize(
    "arr, count",
    [
        pytest.param(ARR3, 13, id="three_lines"),
        pytest.param(_shipped("a2_gl2"), 13, id="a2_gl2"),
        pytest.param(_shipped("rank3_mixed"), 71, id="rank3_mixed"),
        pytest.param(_shipped("b_gl4"), 75, id="b_gl4"),
        pytest.param(BRAID5, 541, id="braid5"),
    ],
)
def test_cells_match_the_zaslavsky_count(arr, count):
    assert zaslavsky_face_count(arr.covectors, arr.dim) == count
    assert len(cells(arr)) == count


def _random_arrangement(rng, dim, size):
    # random covectors, some of them sums of earlier ones, so that flats of
    # every codimension and dependent triples occur
    vecs = []
    while len(vecs) < size:
        if len(vecs) >= 2 and rng.random() < 0.3:
            u, v = rng.sample(vecs, 2)
            vecs.append(tuple(a + rng.choice((-1, 1)) * b for a, b in zip(u, v)))
        else:
            vecs.append(tuple(rng.randint(-2, 2) for _ in range(dim)))
    return from_vectors(vecs, dim)


def _seeded_random_arrangements():
    rng = random.Random(20261018)
    return [_random_arrangement(rng, rng.randint(2, 4), rng.randint(1, 6)) for _ in range(24)]


def test_cells_are_the_realizable_sign_vectors_of_random_arrangements():
    for arr in _seeded_random_arrangements():
        got = cells(arr)
        want = {s for s in product((-1, 0, 1), repeat=arr.size) if realizable(arr, s)}
        assert set(got) == want, arr
        assert len(got) == zaslavsky_face_count(arr.covectors, arr.dim), arr


def test_cells_in_a_closed_simplicial_cone_are_the_cells_inside_it():
    # walls: a random independent set of covectors, each with a random
    # sign; the cells found from the cone's faces are exactly the cells of
    # the whole space whose signs on the walls are >= 0
    rng = random.Random(26)
    cases = 0
    for arr in _seeded_random_arrangements() + [BRAID4, BRAID5]:
        picked = []
        for i in rng.sample(range(arr.size), arr.size):
            grown = [arr.covectors[j] for j, _ in picked] + [arr.covectors[i]]
            if rng.random() < 0.7 and row_rank(grown) == len(grown):
                picked.append((i, rng.choice((-1, 1))))
        walls = [vec_neg(arr.covectors[i]) if e < 0 else arr.covectors[i] for i, e in picked]
        inside = tuple(s for s in cells(arr) if all(e * s[i] >= 0 for i, e in picked))
        assert cells(arr, walls) == inside, (arr, walls)
        cases += bool(walls)
    assert cases > 20


@pytest.mark.parametrize(
    "walls", [[(1, 0), (0, 1), (1, -1)], [(1, 0), (2, 0)], [(1, 1)]], ids=["dependent", "repeated", "off"]
)
def test_walls_that_are_no_independent_hyperplanes_are_an_invariant_error(walls):
    with pytest.raises(InvariantError, match=r"are no independent hyperplanes of the arrangement"):
        cells(ARR3, walls)


def test_a_split_child_with_too_large_a_cone_is_an_invariant_error(monkeypatch):
    # the cell x > 0, y > 0, x < y splits off the open quadrant; a step
    # that cuts the quadrant by x - y <= 0 and answers with the whole
    # quadrant gives the witness (1, 1), which lies on x = y
    real_step = arrangement._dd_step

    def too_large(state, a):
        lin, tight, _ = state
        if not lin and set(tight) == {(1, 0), (0, 1)} and tuple(a) == (-1, 1):
            return state
        return real_step(state, a)

    monkeypatch.setattr(arrangement, "_dd_step", too_large)
    with pytest.raises(InvariantError, match=r"witness \(1, 1\) of sign vector \(1, 1, -1\)"):
        cells(ARR3)


def test_cells_take_one_step_per_child_and_no_dd_cone(monkeypatch):
    # a split turns one cell into three children, one step each, so 541
    # cells from the one cell of the whole space are 270 splits, 810 steps
    steps = []
    real_step = arrangement._dd_step

    def counted(state, a):
        steps.append(a)
        return real_step(state, a)

    def from_scratch(*args):
        raise AssertionError("cells rebuilt a cone by dd_cone")

    monkeypatch.setattr(arrangement, "_dd_step", counted)
    monkeypatch.setattr(arrangement, "dd_cone", from_scratch)
    assert len(cells(BRAID5)) == 541
    assert len(steps) == 3 * (541 - 1) // 2


def test_flats_three_lines():
    fl = flats(ARR3)
    assert len(fl) == 5
    dims = sorted(f.dim for f in fl)
    assert dims == [0, 1, 1, 1, 2]
    top = fl[0]
    assert top.dim == 2 and top.hyperplanes == ()
    origin = next(f for f in fl if f.dim == 0)
    assert origin.hyperplanes == (0, 1, 2)


def test_flats_braid3():
    fl = flats(BRAID3)
    # ambient, three planes, and the center line x=y=z
    assert len(fl) == 5
    center = next(f for f in fl if f.dim == 1)
    assert center.hyperplanes == (0, 1, 2)
    assert center.subspace == span([(1, 1, 1)], 3)


def _assert_flats_match_the_oracle(arr):
    got = flats(arr)
    assert len({f.hyperplanes for f in got}) == len(got), arr
    assert {(f.hyperplanes, f.subspace) for f in got} == brute_force_flats(arr.covectors, arr.dim), arr
    key = [(-f.dim, tuple(x for row in f.subspace.basis for x in row)) for f in got]
    assert key == sorted(key), arr


def test_flats_are_the_kernels_of_covector_subsets_on_random_arrangements():
    for arr in _seeded_random_arrangements():
        _assert_flats_match_the_oracle(arr)


@pytest.mark.parametrize(
    "arr",
    [pytest.param(BRAID4, id="braid4"), *(pytest.param(_shipped(n), id=n) for n in LINEAR_SPECS)],
)
def test_flats_are_the_kernels_of_covector_subsets(arr):
    _assert_flats_match_the_oracle(arr)


def test_minimal_flat_containing():
    # any spanning set, in any scaling, gives the same flat
    diag = span([(1, 1)], 2)
    for vectors in ([(1, 1)], [(Fraction(-1, 2), Fraction(-1, 2)), (0, 0)]):
        f = minimal_flat_containing(ARR3, vectors)
        assert f.subspace == diag and f.hyperplanes == (2,)
    g = minimal_flat_containing(ARR3, [(1, 2)])
    assert g.dim == 2 and g.hyperplanes == ()


def test_restrict_to_line():
    line = span([(0, 1)], 2)
    sub = restrict(ARR3, line)
    # x dies; y and x-y both restrict to the same covector of Q^1
    assert sub.covectors == ((1,),)


# -- cones -------------------------------------------------------------------
# A cone is its canonical ray tuple; its saturated sign sets are read off
# the rays by the oracle saturated_cone.


def cone3(eqs, ineqs):
    return saturated_cone(ARR3, rays_of_constraints(eqs, ineqs, 2))


def minimal_cone3(rays):
    """Smallest cone of the +/- half-spaces of ARR3 containing the rays."""
    eqs, ineqs = [], []
    for w in ARR3.covectors:
        vals = [dot(w, r) for r in rays]
        if all(v == 0 for v in vals):
            eqs.append(w)
        elif all(v >= 0 for v in vals):
            ineqs.append(w)
        elif all(v <= 0 for v in vals):
            ineqs.append(vec_scale(-1, w))
    return cone3(eqs, ineqs)


def test_minimal_cone_of_interior_sector_ray():
    cone = minimal_cone3([qvec((1, 2))])
    assert set(cone.extreme_rays) == {(0, 1), (1, 1)}
    assert cone.zero_set == ()
    assert cone.dim == 2
    assert set(cone.nonneg_set) == {(0, 1), (1, 1), (2, -1)}


def test_minimal_cone_of_zero():
    cone = minimal_cone3([qvec((0, 0))])
    assert cone.extreme_rays == () and cone.dim == 0
    assert cone.zero_set == (0, 1, 2)


def test_minimal_cone_positively_spanning_rays_gives_ambient():
    cone = minimal_cone3([qvec((1, 0)), qvec((-1, 1)), qvec((0, -1))])
    assert cone.zero_set == () and cone.nonneg_set == ()
    assert set(cone.extreme_rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert cone.dim == 2


def test_cone_from_constraints_sector():
    # x >= 0, y >= 0, x - y <= 0
    cone = cone3([], [(1, 0), (0, 1), (-1, 1)])
    assert set(cone.extreme_rays) == {(0, 1), (1, 1)}
    assert split_rays(cone.extreme_rays) == ((), cone.extreme_rays)
    assert cone.zero_set == () and cone.dim == 2
    assert set(cone.nonneg_set) == {(0, 1), (1, 1), (2, -1)}


def test_cone_saturation_moves_opposed_pair_to_zero():
    cone = cone3([], [(1, 0), (-1, 0)])
    assert cone.zero_set == (0,)
    assert set(cone.extreme_rays) == {(0, 1), (0, -1)}
    assert cone.dim == 1
    assert split_rays(cone.extreme_rays) == (cone.extreme_rays, ())


def test_cone_axis_halfline():
    cone = cone3([(1, 0)], [(0, 1)])
    assert cone.extreme_rays == ((0, 1),)
    assert cone.zero_set == (0,)
    # y and y-x are both >= 0 along the nonnegative y-axis
    assert set(cone.nonneg_set) == {(1, 1), (2, -1)}


def test_cone_zero_and_ambient():
    zero = cone3(list(ARR3.covectors), [])
    assert zero.extreme_rays == () and zero.dim == 0
    assert zero.zero_set == (0, 1, 2)
    ambient = cone3([], [])
    assert ambient.zero_set == () and ambient.nonneg_set == ()
    assert set(ambient.extreme_rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert ambient.dim == 2


def test_cone_round_trip_through_saturated_constraints():
    # rebuilding a cone from its own saturated constraint sets gives it back
    for cone in (
        cone3([], [(1, 0), (0, 1), (-1, 1)]),
        cone3([(1, 0)], [(0, 1)]),
        cone3([], []),
        cone3(list(ARR3.covectors), []),
    ):
        eqs = [ARR3.covectors[i] for i in cone.zero_set]
        ineqs = [vec_scale(s, ARR3.covectors[i]) for i, s in cone.nonneg_set]
        assert cone3(eqs, ineqs) == cone


def test_canonical_rays_reduces_pointed_rays_mod_lineality():
    # the same half-plane y >= 0 from two different generating sets
    assert canonical_rays([qvec((1, 0))], [qvec((3, 2))], 2) == ((-1, 0), (0, 1), (1, 0))
    assert canonical_rays([qvec((-2, 0))], [qvec((-1, 1))], 2) == ((-1, 0), (0, 1), (1, 0))
    with pytest.raises(InvariantError, match=r"pointed ray \(2, 0\)"):
        canonical_rays([qvec((1, 0))], [qvec((2, 0))], 2)


def test_a_witness_with_the_wrong_signs_is_an_invariant_error(monkeypatch):
    # rays of a cone too large for the cell x > 0, y > 0, x < y: every
    # strict constraint is positive on one of them, but their sum lies on x = y
    too_large = ((0, 1), (1, 0))
    monkeypatch.setattr(oracles, "rays_of_constraints", lambda eqs, ineqs, dim: too_large)
    with pytest.raises(InvariantError, match=r"witness \(1, 1\) of sign vector \(1, 1, -1\)"):
        realizable(ARR3, (1, 1, -1))


def test_dd_returns_primitive_int_tuples():
    rng = random.Random(5)
    for _ in range(60):
        dim = rng.randint(2, 4)
        eqs = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))]
        ineqs = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(0, 6))]
        lin, rays = dd_cone(eqs[: rng.randint(0, 1)], ineqs, dim)
        for v in lin + rays:
            assert type(v) is tuple and all(type(x) is int for x in v), (eqs, ineqs, v)
            assert primitive(v) == v, (eqs, ineqs, v)


def test_dd_against_brute_force_random():
    # the same cones from constraints scaled by positive rationals, and
    # equalities also by a negative one
    for scale in (1, Fraction(1, 3), Fraction(-2, 5)):
        _dd_against_brute_force_random(scale)


def _dd_against_brute_force_random(scale):
    rng = random.Random(20240817)
    for trial in range(160):
        dim = rng.randint(2, 4)
        n_eq = rng.randint(0, 2)
        n_in = rng.randint(0, 6)
        eqs = [
            tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n_eq)
        ]
        if n_eq == 2 and trial % 2:
            # a dependent equality cuts nothing more
            eqs[1] = tuple(-2 * x for x in eqs[0])
        ineqs = [
            tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(n_in)
        ]
        eqs = [e for e in eqs if any(e)]
        ineqs = [a for a in ineqs if any(a)]
        lin, rays = dd_cone(
            [vec_scale(scale, e) for e in eqs], [vec_scale(abs(scale), a) for a in ineqs], dim
        )
        want_rays, want_lin = brute_force_pointed_rays(eqs, ineqs, dim)
        lspace = span(lin, dim)
        assert lspace == want_lin, (eqs, ineqs)
        got = {primitive(reduce_mod(lspace, r)) for r in rays}
        assert got == want_rays, (eqs, ineqs)


def test_stepping_by_w_and_then_minus_w_is_the_equality_w():
    rng = random.Random(20261019)
    with_lineality = 0
    for _ in range(200):
        dim = rng.randint(2, 4)
        ineqs = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, 4))]
        state = arrangement._ambient(dim)
        for a in ineqs:
            state = arrangement._dd_step(state, a)
        with_lineality += bool(state[0])
        w = tuple(rng.randint(-2, 2) for _ in range(dim))
        lin, tight, _ = arrangement._dd_step(arrangement._dd_step(state, w), vec_neg(w))
        assert canonical_rays(lin, list(tight), dim) == rays_of_constraints([w], ineqs, dim), (ineqs, w)
    assert with_lineality > 50


def test_dd_no_constraints_is_ambient():
    lin, rays = dd_cone([], [], 3)
    assert span(lin, 3).dim == 3 and rays == []


def test_dd_infeasible_strictness():
    # x >= 0, -x >= 0, y >= 0 collapses to the nonnegative y-axis
    lin, rays = dd_cone([], [(1, 0), (-1, 0), (0, 1)], 2)
    assert span(lin, 2).dim == 0
    assert {tuple(int(x) for x in r) for r in rays} == {(0, 1)}


# -- Tits composition --------------------------------------------------------


def test_tits_laws_exhaustive_three_lines():
    cs = cells(ARR3)
    cset = set(cs)
    for x in cs:
        assert tits_compose(x, x) == x
        for y in cs:
            xy = tits_compose(x, y)
            assert xy in cset, (x, y, xy)
            zx = set(i for i, s in enumerate(x) if s == 0)
            zy = set(i for i, s in enumerate(y) if s == 0)
            assert set(i for i, s in enumerate(xy) if s == 0) == zx & zy
            for z in cs:
                assert tits_compose(xy, z) == tits_compose(x, tits_compose(y, z))


def test_tits_matches_infinitesimal_step():
    rng = random.Random(99)
    for arr in (ARR3, BRAID3, COORD3):
        for _ in range(60):
            p = qvec(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(arr.dim))
            q = qvec(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(arr.dim))
            sp, sq = sign_vector_of(arr, p), sign_vector_of(arr, q)
            # choose eps small enough that p dominates wherever it is nonzero
            nonzero = [abs(dot(w, p)) for w in arr.covectors if dot(w, p) != 0]
            denom = [abs(dot(w, q)) for w in arr.covectors if dot(w, q) != 0]
            eps = Fraction(1)
            if nonzero and denom:
                eps = min(nonzero) / (2 * max(denom))
            moved = tuple(a + eps * b for a, b in zip(p, q))
            assert sign_vector_of(arr, moved) == tits_compose(sp, sq)


def test_cells_closed_under_tits_braid():
    cs = cells(BRAID3)
    cset = set(cs)
    for x in cs:
        for y in cs:
            assert tits_compose(x, y) in cset
