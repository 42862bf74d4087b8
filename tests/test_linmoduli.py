"""Field tables, orbit sweeps, Hall convolution, and decomposition
combinatorics of dimension vectors."""

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from complat import arrangement
from complat import linmoduli as lm
from complat import stackmodel as sm
from complat.category import FiniteCategory
from complat.errors import CapExceeded, InvariantError, SpecError
from complat.jsonio import canonical_json

from oracles import (
    act,
    all_reps,
    assignment_search_category,
    burnside_class_count,
    connected_flat_orbits,
    direct_flag_count,
    direct_hall_product,
    endomorphism_counts,
    filtered_point_count,
    full_group_iso_classes,
    gaussian_binomial,
    general_linear,
    gl_order,
    hall_number,
    integer_partitions,
    jordan_class_count,
    kostant_partition_count,
    naive_gf_inverse,
    naive_gf_mat_mul,
    naive_gf_mat_vec,
    record_composite,
    refinements_out_of,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"

ONE_VERTEX = {"type": "quiver", "vertices": ["v"], "arrows": []}
A2 = {"type": "quiver", "vertices": ["u", "v"], "arrows": [["u", "v"]]}
KRONECKER = {"type": "quiver", "vertices": ["u", "v"], "arrows": [["u", "v"], ["u", "v"]]}
JORDAN = {"type": "quiver", "vertices": ["v"], "arrows": [["v", "v"]]}
A3 = {"type": "quiver", "vertices": ["a", "b", "c"], "arrows": [["a", "b"], ["b", "c"]]}
NO_ARROWS = {"type": "quiver", "vertices": ["u", "v"], "arrows": []}


@pytest.fixture(scope="module")
def one_vertex():
    return lm.load_quiver(ONE_VERTEX)


@pytest.fixture(scope="module")
def a2():
    return lm.load_quiver(A2)


@pytest.fixture(scope="module")
def kronecker():
    return lm.load_quiver(KRONECKER)


@pytest.fixture(scope="module")
def jordan():
    return lm.load_quiver(JORDAN)


# -- finite fields ---------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27])
def test_field_axioms_hold_on_every_table(q):
    F = lm.gf(q)
    els = list(F.elements)
    for a in els:
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


# sha256 of repr((F._add, F._mul, F._neg, F._inv)) for every supported field
# size below 100, recorded at 54b4b75, before the product table was built
# by linearity: the field axioms hold under any relabelling of the
# elements, but every class representative, and so every class index in a
# report, depends on the labelling
FIELD_TABLE_DIGESTS = {
    2: "812654297d8cea11a08c54f9698b1fc73e660062c8b3233908d08aa5357d7cd2",
    3: "3a00ae07cc847f67084cc2ad0455804fa2cf9a9778564e27952463a5ccf80965",
    4: "fc915ea057558dc46256b90b596bb643e2da60e0a4f10b1f3f3a03fbc4c4ada1",
    5: "a9c82df1c0cb5f4b41928eb94bfb5b64430036b9a0e179514de751c71c27f346",
    7: "92f129a958c26dda80b38471ba5f33f8480d472483ef5949c13a6ce71bd965c8",
    8: "5d0de2dd9286c7f0db1851655590c0233dcad9e4aacc016806fdc3483fd402f6",
    9: "8dd32fc375ac31906d4b20479d2cd34049fabf584c404637c5e6c6fe36bac558",
    11: "c363085bb01243c06642f641d736d2dc78c30b8016b844c7b3f10ebf0e88aa31",
    13: "6078e7f293d79f169922f432595391a1c27527d7e8a2090ad5e64ee35a6b23d2",
    16: "f7929955b6c012210e1fda380e21aa82ba3eda1f7e65f305f5f5944d5f0e44be",
    17: "f78813ce299514e6fc18f6d1af03be71f4096ab67680dc550935c8ae97746232",
    19: "41ac35dd3eaf56bc409a9a08a5a8937b069e7bad67cb012ff5bc31215da5b76f",
    23: "755acd1e15ed1940349b3c7b180fa640509f14fcda5d6c1bef635fc17cb82604",
    25: "1283d5a175d1644953498f0809e5e2bf0eb8c6839deca53321b840280e3acf39",
    27: "0124f8aaf7c4cb4287a4e53b2e37d38e057e76ab9fcb23e3b24a8c18e6ce290e",
    29: "5b754a8aa1af41240af6ed17c93b5a6a4e1f39f92bc74c52c6961073586a95ff",
    31: "9a4f7bc3b6ae57303dfe8af2152f5c5ef1e5c62250986a598bcdfebef039a2d3",
    37: "1da36fd3cb7973ab3367bcabffe8ec2e2751920f861b6d486df6b1ad892d49ac",
    41: "fcf6feb8bd2eba8496dfec4c2f0b89917ae37557dcff27bd7b961d3165a7a544",
    43: "666fa9a6af7f1d05812c3157b783a440a09d7e97fbda634c9e7ba1164bf7c908",
    47: "4f6055a7b1b4930ed574815b716f2f0e70109c83d5a82b40d2840cb4bcbeaae7",
    53: "f3d68aefd5980ace612d3697c71c0dc064f05999da63855cd3cc8400e31cfc07",
    59: "8da1417f7c37c98531bd4f64f6ed34923455d613bdac775945754daf45df8f52",
    61: "8289c89d83e259426870cd29415873eddfb112749502156e81e0327bcb638b41",
    67: "97225e3588e919ac76df28b11a7ced035284ee6bd336b36cde22ac46b7e0d648",
    71: "71c8c84333002a4da060617dcc19d6a1afcd9c24306d5d2f1887cb9e830fd230",
    73: "c6d0ffccc25ce590f9a8e1d569a3c67fd521633072ba1376ee7b0c6b6db5f0bd",
    79: "14ffc1efe43f21a3a1c7259aa831926825e58a77e322b22d93367bd28833d17c",
    83: "f4136fa6fba0e0ec3302486f0099ad53babd6c203006232ef9c2da6b685dd3cc",
    89: "b79939f41495e24e819af7e8f54f73094b2e987c1bd237779bc071727886b112",
    97: "ebdd93d02023cc0b4ba61a1af0bf67c36eb73212e51ab38d42a4df838cdfb69e",
}


def test_field_tables_match_their_frozen_digests():
    digests = {}
    for q in range(100):
        try:
            F = lm.GF(q)
        except SpecError:
            continue
        tables = repr((F._add, F._mul, F._neg, F._inv)).encode()
        digests[q] = hashlib.sha256(tables).hexdigest()
    assert digests == FIELD_TABLE_DIGESTS


@pytest.mark.parametrize("q", [4, 8, 9])
def test_frobenius_is_additive(q):
    F = lm.gf(q)

    def power(a, n):
        out = 1
        for _ in range(n):
            out = F.mul(out, a)
        return out

    for a, b in itertools.product(F.elements, repeat=2):
        assert power(F.add(a, b), F.p) == F.add(power(a, F.p), power(b, F.p))


def test_order_four_field_matches_the_polynomial_presentation():
    # elements 2 and 3 are x and x+1 with x^2 = x + 1
    F = lm.gf(4)
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.mul(3, 3) == 2
    for a in (1, 2, 3):
        assert F.mul(F.mul(a, a), a) == 1  # the unit group has order 3


def test_order_nine_field_squares_x_to_minus_one():
    F = lm.gf(9)
    assert F.mul(3, 3) == 2  # x^2 = -1 = 2
    assert F.add(1, F.add(1, 1)) == 0


@pytest.mark.parametrize("q", [0, 1, 6, 12, 49])
def test_bad_field_sizes_are_rejected(q):
    with pytest.raises(SpecError):
        lm.GF(q)


def test_singular_matrices_have_no_inverse():
    F = lm.gf(2)
    with pytest.raises(ZeroDivisionError):
        naive_gf_inverse(F, ((1, 1), (1, 1)))
    assert naive_gf_inverse(F, ((0, 1), (1, 0))) == ((0, 1), (1, 0))


def test_row_reduction_detects_membership():
    # RREF rows, and rows as the rank loop of _end_dim stores them: each
    # with a 1 at its pivot and every later row 0 there, pivots unsorted
    F = lm.gf(2)
    rows, pivots = ((1, 1, 0), (0, 0, 1)), (0, 2)
    assert not any(lm.gf_reduce(F, rows, pivots, (1, 1, 1)))
    assert lm.gf_reduce(F, rows, pivots, (0, 1, 0)) == (0, 1, 0)
    F = lm.gf(3)
    rows, pivots = ((0, 1, 2), (1, 0, 0)), (1, 0)
    assert not any(lm.gf_reduce(F, rows, pivots, (1, 2, 1)))
    assert lm.gf_reduce(F, rows, pivots, (2, 1, 1)) == (0, 0, 2)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_subspace_enumeration_matches_gaussian_binomials(q, n):
    spaces = lm.all_subspaces(q, n)
    assert len(set(spaces)) == len(spaces)
    by_dim = {}
    for rows, pivots in spaces:
        assert len(rows) == len(pivots)
        by_dim[len(rows)] = by_dim.get(len(rows), 0) + 1
    for k in range(n + 1):
        assert by_dim.get(k, 0) == gaussian_binomial(n, k, q)


def test_general_linear_enumeration_matches_the_order_formula():
    for q, n in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        pairs = general_linear(q, n)
        assert len(pairs) == gl_order(n, q) == lm.gl_order(n, q)
        F = lm.gf(q)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for m, minv in pairs[:20]:
            assert naive_gf_mat_mul(F, m, minv) == ident
    assert lm.gl_order(2, 2) == 6
    assert lm.gl_order(2, 3) == 48
    assert lm.gl_order(3, 2) == 168
    assert lm.gl_order(3, 3) == 11232


def _matrix_of(n, op):
    """The n x n matrix of a generator: for an elementary operation
    (i, j, a) the identity with entry (i, j) set to a, for CYCLE the
    permutation matrix taking e_k to e_(k+1 mod n)."""
    if op == lm.CYCLE:
        return tuple(tuple(int(r == (c + 1) % n) for c in range(n)) for r in range(n))
    i, j, a = op
    return tuple(tuple(a if (r, c) == (i, j) else int(r == c) for c in range(n)) for r in range(n))


def _generated_order_lower_bound(F, generators, rng, draws=24, length=48):
    """A lower bound on the order of the group the n x n generators
    generate, by a stabilizer chain along the basis: the product over k of
    the orbit length of e_k under a subgroup fixing e_0, ..., e_(k-1).
    Level 0 is the generators; level k + 1 is sifted from random words in
    level k, each word g times the inverse of a transversal element taking
    e_k where g does. Every subgroup lies in the true stabilizer, so every
    factor is at most the true one; only the identity fixes a basis, so
    the bound is the order once the draws generate each stabilizer."""
    n = len(generators[0])
    ident = _matrix_of(n, (0, 0, 1))
    level, bound = list(generators), 1
    for k in range(n):
        # each image of e_k with an element taking e_k there: g takes e_k
        # to its column k
        transversal = {ident[k]: ident}
        queue = [ident[k]]
        for x in queue:
            for s in level:
                u = naive_gf_mat_mul(F, s, transversal[x])
                y = tuple(row[k] for row in u)
                if y not in transversal:
                    transversal[y] = u
                    queue.append(y)
        bound *= len(transversal)
        following = []
        for _ in range(draws if level else 0):
            g = ident
            for _ in range(length):
                g = naive_gf_mat_mul(F, g, rng.choice(level))
            image = tuple(row[k] for row in g)
            h = naive_gf_mat_mul(F, naive_gf_inverse(F, transversal[image]), g)
            if h != ident:
                following.append(h)
        level = following
    return bound


# the generators _gl_generators returns for each (q, n): no diagonal at
# q = 2, nor at q = 3 for even n, where the cycle's determinant is -1
GENERATOR_COUNTS = {
    (2, 1): 0,
    (2, 2): 2,
    (2, 3): 2,
    (2, 4): 2,
    (3, 1): 1,
    (3, 2): 2,
    (3, 3): 3,
    (3, 4): 2,
    (4, 2): 3,
    (5, 1): 1,
    (8, 2): 3,
    (9, 2): 3,
}


@pytest.mark.parametrize("q,n", GENERATOR_COUNTS)
def test_generators_close_to_the_whole_general_linear_group(q, n):
    F = lm.gf(q)
    ident = _matrix_of(n, (0, 0, 1))
    generators = [_matrix_of(n, op) for op in lm._gl_generators(q, n)]
    assert len(generators) == GENERATOR_COUNTS[q, n]
    if gl_order(n, q) > 10**5:
        # GL_4(F_3) has 24,261,120 elements, too many to list; the group
        # the generators generate lies inside it, so a lower bound on its
        # order that reaches |GL_n(F_q)| shows it is all of it
        assert _generated_order_lower_bound(F, generators, random.Random(20261020)) == gl_order(n, q)
        return
    group = [ident]
    seen = {ident}
    for g in group:
        for m in generators:
            h = naive_gf_mat_mul(F, g, m)
            if h not in seen:
                seen.add(h)
                group.append(h)
    assert seen == {m for m, _ in general_linear(q, n)}


LOOP_AND_TWO_CYCLE = {
    "type": "quiver",
    "vertices": ["u", "v", "w"],
    "arrows": [["u", "u"], ["u", "v"], ["v", "u"], ["v", "w"], ["w", "u"]],
}


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize(
    "doc,gamma", [(JORDAN, (3,)), (KRONECKER, (2, 3)), (LOOP_AND_TWO_CYCLE, (2, 3, 0))]
)
def test_an_elementary_operation_acts_as_conjugation_by_its_matrix(doc, gamma, q):
    # every operation (i, j, a) with a nonzero and the cycle, the
    # generators among them, at every vertex, on packed seeded random
    # representations; w has dimension 0
    quiver = lm.load_quiver(doc)
    F = lm.gf(q)
    rng = random.Random(20261018 + q)
    identity = [_matrix_of(n, (0, 0, 1)) for n in gamma]
    unpack = lm._unpacker(quiver, gamma, q)
    for v, n in enumerate(gamma):
        ops = [(i, j, a) for i in range(n) for j in range(n) for a in range(1, q)]
        ops += [lm.CYCLE] if n > 1 else []
        assert set(lm._gl_generators(q, n)) <= set(ops)
        for op in ops:
            g = _matrix_of(n, op)
            pairs = [(m, m) for m in identity]
            pairs[v] = (g, naive_gf_inverse(F, g))
            image = lm._packed_act(quiver, gamma, q, v, op)
            for _ in range(3):
                rep = tuple(
                    tuple(tuple(rng.randrange(q) for _ in range(gamma[s])) for _ in range(gamma[t]))
                    for s, t in quiver.arrows
                )
                packed = lm._pack(q, rep)
                assert unpack(image(packed)) == act(quiver, F, pairs, rep)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize(
    "doc,gamma", [(JORDAN, (2,)), (KRONECKER, (1, 2)), (LOOP_AND_TWO_CYCLE, (1, 1, 0))]
)
def test_packing_round_trips_and_keeps_the_lexicographic_order(doc, gamma, q):
    # every representation of these small dimension vectors, with the
    # empty matrix of v -> w and the empty row of w -> u: packed in the
    # oracle's lexicographic order, they are what _packed_reps yields,
    # strictly increasing, and they unpack back
    quiver = lm.load_quiver(doc)
    reps = list(all_reps(quiver, gamma, q))
    packed = [lm._pack(q, rep) for rep in reps]
    assert packed == list(lm._packed_reps(quiver, gamma, q))
    assert all(a < b for a, b in zip(packed, packed[1:]))
    assert all(a < b for a, b in zip(reps, reps[1:]))
    assert list(map(lm._unpacker(quiver, gamma, q), packed)) == reps


def test_matrix_kernels_match_the_schoolbook_loops():
    # 300 seeded products over prime and non-prime fields; sides of length
    # 0 give empty matrices, and every fifth matrix is zero
    rng = random.Random(20261018)
    for i in range(300):
        q = (2, 3, 4, 9)[i % 4]
        F = lm.gf(q)
        r, k = rng.randint(0, 4), rng.randint(0, 4)
        a = tuple(tuple(0 if i % 5 == 0 else rng.randrange(q) for _ in range(k)) for _ in range(r))
        v = tuple(rng.randrange(q) for _ in range(k))
        assert lm.gf_mat_vec(F, a, v) == naive_gf_mat_vec(F, a, v)


# -- quiver documents -------------------------------------------------------------


def test_quiver_documents_load_and_index_arrows(a2, jordan):
    assert a2.vertices == ("u", "v")
    assert a2.arrows == ((0, 1),)
    assert jordan.arrows == ((0, 0),)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("arrows"),
        lambda d: d.update(type="graph"),
        lambda d: d.update(extra=1),
        lambda d: d.update(vertices=[]),
        lambda d: d.update(vertices=["u", "u"]),
        lambda d: d.update(arrows=[["u", "w"]]),
        lambda d: d.update(arrows=[["u"]]),
        lambda d: d.update(vertices=["u", 3]),
    ],
)
def test_malformed_quiver_documents_are_rejected(mangle):
    doc = {"type": "quiver", "vertices": ["u", "v"], "arrows": [["u", "v"]]}
    mangle(doc)
    with pytest.raises(SpecError):
        lm.load_quiver(doc)


@pytest.mark.parametrize(
    "doc,message",
    [
        ("quiver", "quiver document must be a JSON object"),
        ({**A2, "extra": 1, "zeta": 2}, "unknown quiver fields: ['extra', 'zeta']"),
        # unknown fields are reported before missing ones
        ({"type": "quiver", "vertices": ["u"], "extra": 1}, "unknown quiver fields: ['extra']"),
        ({"type": "quiver"}, "missing quiver fields: ['arrows', 'vertices']"),
        # and missing fields before a wrong type
        ({"type": "linear_quotient", "vertices": ["u"]}, "missing quiver fields: ['arrows']"),
        ({**A2, "type": "linear_quotient"}, "expected type 'quiver', got 'linear_quotient'"),
    ],
)
def test_load_quiver_prologue_messages(doc, message):
    with pytest.raises(SpecError) as exc:
        lm.load_quiver(doc)
    assert str(exc.value) == message


def test_dimension_vectors_are_validated(a2):
    with pytest.raises(SpecError):
        lm.rep_space_dim(a2, (1,))
    with pytest.raises(SpecError):
        lm.stacky_count(a2, (1, -1), 2)


# -- point counts and orbit sweeps -------------------------------------------------


def test_stacky_counts_on_small_examples(one_vertex, a2, kronecker, jordan):
    assert lm.stacky_count(one_vertex, (2,), 2) == Fraction(1, 6)
    assert lm.stacky_count(a2, (1, 1), 2) == 2
    assert lm.stacky_count(a2, (1, 1), 3) == Fraction(3, 4)
    assert lm.stacky_count(a2, (2, 1), 2) == Fraction(2, 3)
    assert lm.stacky_count(kronecker, (1, 1), 2) == 4
    assert lm.stacky_count(jordan, (2,), 2) == Fraction(8, 3)


@pytest.mark.parametrize(
    "doc,gamma,q,expected",
    [
        (ONE_VERTEX, (2,), 2, 1),
        (ONE_VERTEX, (2,), 3, 1),
        (ONE_VERTEX, (3,), 2, 1),
        (A2, (1, 1), 2, 2),
        (A2, (1, 1), 3, 2),
        (A2, (1, 1), 4, 2),
        (A2, (2, 1), 2, 2),
        (A2, (2, 1), 3, 2),
        (A2, (2, 2), 2, 3),
        (KRONECKER, (1, 1), 2, 4),
        (KRONECKER, (1, 1), 3, 5),
        (JORDAN, (2,), 2, 6),
    ],
)
def test_class_counts_match_the_burnside_oracle(doc, gamma, q, expected):
    quiver = lm.load_quiver(doc)
    classes = lm.iso_classes(quiver, gamma, q)
    assert len(classes.reps) == expected
    assert burnside_class_count(quiver, gamma, q) == expected


@pytest.mark.parametrize("q,max_n", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_jordan_class_counts_match_the_partition_formula(jordan, q, max_n):
    # the largest sizes under the sweep cap: n = 4 at q = 2 and n = 3 at
    # q = 3 are refused
    assert [jordan_class_count(n, q) for n in range(1, 4)] == [q, q * q + q, q**3 + q * q + q]
    for n in range(1, max_n + 1):
        assert len(lm.iso_classes(jordan, (n,), q).reps) == jordan_class_count(n, q), n
        if q ** (n * n) * gl_order(n, q) <= 5000:
            assert burnside_class_count(jordan, (n,), q) == jordan_class_count(n, q), n
    with pytest.raises(CapExceeded):
        lm.iso_classes(jordan, (max_n + 1,), q)


@pytest.mark.parametrize("doc", [A2, A3], ids=["a2", "a3"])
def test_path_quiver_class_counts_match_the_kostant_partition_count(doc):
    quiver = lm.load_quiver(doc)
    assert kostant_partition_count((1, 1, 1)) == 4 and kostant_partition_count((2, 3)) == 3
    for total in range(1, 5):
        for gamma in lm.dim_vectors(quiver.n_vertices, total):
            assert len(lm.iso_classes(quiver, gamma, 2).reps) == kostant_partition_count(gamma), gamma
            if total <= 3:
                assert burnside_class_count(quiver, gamma, 2) == kostant_partition_count(gamma), gamma


def test_class_data_on_the_two_vertex_path(a2):
    classes = lm.iso_classes(a2, (1, 1), 3)
    # zero map first (lex-least), then the isomorphism
    assert classes.reps == ((((0,),),), (((1,),),))
    assert classes.orbit_sizes == (1, 2)
    assert classes.aut_orders == (4, 2)
    assert classes.group_order == 4
    assert sum(Fraction(1, a) for a in classes.aut_orders) == lm.stacky_count(a2, (1, 1), 3)


@st.composite
def small_quivers(draw):
    """Quiver documents with 1 to 3 vertices and at most 3 arrows, loops,
    repeated arrows and 2-cycles included."""
    names = "uvw"[: draw(st.integers(1, 3))]
    ends = st.sampled_from(names)
    arrows = draw(st.lists(st.lists(ends, min_size=2, max_size=2), max_size=3))
    return {"type": "quiver", "vertices": list(names), "arrows": arrows}


# a sweep this small also runs the Burnside oracle, which acts with every
# group element on every representation
BURNSIDE_BUDGET = 20_000


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_quivers(), st.sampled_from((2, 3)))
@example({"type": "quiver", "vertices": ["u", "v", "w"], "arrows": [["u", "v"]]}, 3)  # an isolated vertex
@example({"type": "quiver", "vertices": ["u", "v"], "arrows": [["u", "u"], ["u", "v"]]}, 2)  # a loop beside an arrow
@example({"type": "quiver", "vertices": ["u", "v"], "arrows": [["u", "v"], ["v", "u"]]}, 3)  # a 2-cycle
@example({"type": "quiver", "vertices": ["u", "v"], "arrows": [["u", "v"]] * 3}, 2)  # a triple arrow
def test_the_integer_class_mass_identity_on_small_quivers(doc, q):
    # per dimension vector of total <= 3: a sweep over the cap exits loud,
    # and exactly those are over it; every other sweep passed the integer
    # mass check, which must agree with the Fraction identity
    # sum 1/|Aut| == stacky_count, also on masses off by a class; where the
    # brute-force oracles are affordable, its class count must match
    # Burnside's, and each class's |End| = q^_end_dim and |Aut| must match
    # a count of every tuple of vertex matrices; each sweep over that
    # budget is counted as skipped, and every other one is checked
    quiver = lm.load_quiver(doc)
    F = lm.gf(q)
    over_cap = capped = over_budget = skipped = 0
    for total in range(1, 4):
        for gamma in lm.dim_vectors(quiver.n_vertices, total):
            points, group_order = lm._stacky_terms(quiver, gamma, q)
            over_cap += points * group_order > lm.SWEEP_CAP
            over_budget += points * group_order > BURNSIDE_BUDGET
            try:
                classes = lm.iso_classes(quiver, gamma, q)
            except CapExceeded:
                capped += 1
                continue
            count = lm.stacky_count(quiver, gamma, q)
            auts = classes.aut_orders
            for masses in (auts, auts[1:], auts + auts[:1], tuple(2 * a for a in auts)):
                fraction_identity = sum(Fraction(1, a) for a in masses) == count
                assert lm._mass_is_stacky_count(masses, points, group_order) is fraction_identity, (gamma, masses)
                assert fraction_identity is (masses is auts)
            if points * group_order > BURNSIDE_BUDGET:
                skipped += 1
                continue
            assert burnside_class_count(quiver, gamma, q) == len(classes.reps), gamma
            for rep, aut in zip(classes.reps, auts):
                end = q ** lm._end_dim(quiver, F, gamma, rep)
                assert endomorphism_counts(quiver, F, gamma, rep) == (end, aut), (gamma, rep)
    assert capped == over_cap
    assert capped + skipped == over_budget


def test_class_representatives_are_lex_least(a2):
    classes = lm.iso_classes(a2, (2, 1), 2)
    for rep, idx in classes.class_of.items():
        assert rep >= classes.reps[idx]
    assert sorted(classes.class_of.values()) == sorted(
        i for i, size in enumerate(classes.orbit_sizes) for _ in range(size)
    )


@pytest.mark.parametrize(
    "doc,gamma,q",
    [
        (ONE_VERTEX, (2,), 3),
        (ONE_VERTEX, (2,), 4),
        (ONE_VERTEX, (3,), 2),
        (A2, (1, 1), 4),
        (A2, (2, 1), 3),
        (A2, (2, 2), 2),
        (KRONECKER, (1, 1), 3),
        (KRONECKER, (1, 2), 2),
        (JORDAN, (2,), 3),
        (JORDAN, (2,), 4),
        (JORDAN, (3,), 2),
    ],
)
def test_generator_sweep_matches_the_full_group_sweep(monkeypatch, doc, gamma, q):
    monkeypatch.delenv("COMPONENT_LATTICE_CACHE", raising=False)
    quiver = lm.load_quiver(doc)
    fast = lm.iso_classes.__wrapped__(quiver, gamma, q)
    slow = full_group_iso_classes(quiver, gamma, q)
    assert fast.reps == slow.reps
    assert fast.orbit_sizes == slow.orbit_sizes
    assert fast.aut_orders == slow.aut_orders
    assert fast.group_order == slow.group_order
    assert fast.class_of == slow.class_of


@pytest.mark.parametrize(
    "doc,gamma", [(A2, (1, 1)), (A2, (2, 2)), (KRONECKER, (1, 1)), (JORDAN, (2,))]
)
def test_a_generating_set_that_is_too_small_is_caught(monkeypatch, doc, gamma):
    # Without diag(w, 1, ..., 1) only base changes whose determinant is a
    # power of the cycle's, +-1, act: over F_4, where -1 = 1, that is
    # SL_n, and some orbits of these dimension vectors split. (Over F_3
    # the cycle's determinant -1 generates the units at even n, so
    # _gl_generators leaves the diagonal out there.)
    full = lm._gl_generators

    def without_diagonal(q, n):
        return tuple(op for op in full(q, n) if op == lm.CYCLE or op[0] != op[1])

    monkeypatch.setattr(lm, "_gl_generators", without_diagonal)
    monkeypatch.delenv("COMPONENT_LATTICE_CACHE", raising=False)
    with pytest.raises(InvariantError):
        lm.iso_classes.__wrapped__(lm.load_quiver(doc), gamma, 4)


@pytest.mark.parametrize("n,q,classes", [(4, 2, 34), (3, 3, 39)])
def test_the_jordan_sweep_one_size_over_the_cap_counts_the_similarity_classes(monkeypatch, jordan, n, q, classes):
    monkeypatch.setattr(lm, "SWEEP_CAP", q ** (n * n) * gl_order(n, q))
    monkeypatch.delenv("COMPONENT_LATTICE_CACHE", raising=False)
    swept = lm.iso_classes.__wrapped__(jordan, (n,), q)
    assert len(swept.reps) == classes == jordan_class_count(n, q)
    assert len(swept.class_of) == q ** (n * n)


@pytest.mark.parametrize(
    "doc,gamma,q",
    [
        (JORDAN, (1,), 2),
        (JORDAN, (2,), 3),
        (A2, (1, 1), 3),
        (A2, (3, 0), 2),
        (A2, (0, 3), 2),
        (A2, (2, 1), 3),
        (A2, (1, 2), 4),
        (KRONECKER, (1, 2), 2),
        (LOOP_AND_TWO_CYCLE, (1, 1, 0), 3),
        (LOOP_AND_TWO_CYCLE, (0, 2, 1), 2),
    ],
)
def test_no_sweep_table_has_more_entries_than_the_sweep_has_representations(monkeypatch, doc, gamma, q):
    # the row-add table of a row of c entries has q^(2c) of them, and the
    # unpacking table of an arrow with no rows would have q^c for nothing
    quiver = lm.load_quiver(doc)
    entries = []
    for name in ("_row_digits", "_column_table", "_scale_table", "_add_table"):
        build = getattr(lm, name).__wrapped__

        def counted(*args, build=build, square=name == "_add_table"):
            table = build(*args)
            entries.append(len(table) ** (1 + square))
            return table

        monkeypatch.setattr(lm, name, counted)
    monkeypatch.delenv("COMPONENT_LATTICE_CACHE", raising=False)
    lm.iso_classes.__wrapped__(quiver, gamma, q)
    assert max(entries, default=0) <= q ** lm.rep_space_dim(quiver, gamma)


def test_oversized_sweeps_are_refused(one_vertex):
    with pytest.raises(CapExceeded):
        lm.iso_classes(one_vertex, (4,), 3)


def test_a_field_size_over_the_cap_is_refused_before_any_table(monkeypatch):
    # with range shadowed in the module, the factor search or any table
    # built for q would raise TypeError instead of the cap
    monkeypatch.setattr(lm, "range", None, raising=False)
    with pytest.raises(CapExceeded, match="field size 1000000007: .* exceed cap 10000000$"):
        lm.GF(1000000007)
    monkeypatch.setattr(lm, "SWEEP_CAP", 24)
    with pytest.raises(CapExceeded, match="field size 5:"):
        lm.GF(5)


# -- subrepresentations and Hall numbers --------------------------------------------


def test_invariant_subspace_counts_on_the_path(a2):
    classes = lm.iso_classes(a2, (1, 1), 2)
    zero, nonzero = classes.reps

    def invariant(rep, sub):
        return len(list(lm.subrep_spaces(a2, rep, (1, 1), 2, sub)))

    assert [invariant(zero, sub) for sub in ((0, 0), (0, 1), (1, 0), (1, 1))] == [1, 1, 1, 1]
    assert [invariant(nonzero, sub) for sub in ((0, 0), (0, 1), (1, 0), (1, 1))] == [1, 1, 0, 1]


def test_sub_and_quotient_dimensions_split_the_whole(a2):
    gamma = (2, 1)
    classes = lm.iso_classes(a2, gamma, 2)
    for rep, sg in itertools.product(classes.reps, itertools.product(range(3), range(2))):
        for spaces in lm.subrep_spaces(a2, rep, gamma, 2, sg):
            assert tuple(len(rows) for rows, _ in spaces) == sg
            sub = lm.sub_rep(a2, rep, spaces, 2)
            quot = lm.quotient_rep(a2, gamma, rep, spaces, 2)
            qg = tuple(a - b for a, b in zip(gamma, sg))
            assert sub in lm.iso_classes(a2, sg, 2).class_of
            assert quot in lm.iso_classes(a2, qg, 2).class_of


def test_subrepresentation_counts_are_gaussian_binomials(one_vertex):
    counts = lm.count_subreps_by_dim(one_vertex, 2, ((2,), 0))
    assert counts == {(0,): 1, (1,): 3, (2,): 1}
    counts = lm.count_subreps_by_dim(one_vertex, 2, ((4,), 0))
    assert counts[(2,)] == 35 == gaussian_binomial(4, 2, 2)
    assert counts[(1,)] == counts[(3,)] == 15


def test_hall_numbers_see_the_extension_direction(a2):
    simple_u = ((1, 0), 0)
    simple_v = ((0, 1), 0)
    zero_map = ((1, 1), 0)
    iso_map = ((1, 1), 1)
    assert hall_number(a2, 2, iso_map, simple_u, simple_v) == 1
    assert hall_number(a2, 2, iso_map, simple_v, simple_u) == 0
    assert hall_number(a2, 2, zero_map, simple_u, simple_v) == 1
    assert hall_number(a2, 2, zero_map, simple_v, simple_u) == 1
    assert hall_number(a2, 2, iso_map, simple_u, simple_u) == 0


def test_hall_numbers_count_subspaces_on_one_vertex(one_vertex):
    whole = ((2,), 0)
    simple = ((1,), 0)
    assert hall_number(one_vertex, 2, whole, simple, simple) == 3
    assert hall_number(one_vertex, 3, whole, simple, simple) == 4


def test_hall_product_is_not_commutative_on_the_path(a2):
    du = {((1, 0), 0): 1}
    dv = {((0, 1), 0): 1}
    assert lm.hall_product(a2, 2, du, dv) == {((1, 1), 0): 1, ((1, 1), 1): 1}
    assert lm.hall_product(a2, 2, dv, du) == {((1, 1), 0): 1}


def test_the_empty_class_is_a_unit(one_vertex):
    unit = {((0,), 0): 1}
    f = {((1,), 0): 5, ((2,), 0): Fraction(1, 3)}
    assert lm.hall_product(one_vertex, 2, f, unit) == f
    assert lm.hall_product(one_vertex, 2, unit, f) == f


def test_convolution_is_associative_on_one_vertex(one_vertex):
    report = lm.verify_counting_hall(one_vertex, 2, 3)
    assert report == {"ok": True, "classes": 4, "triples": 20, "flag_checks": 20}


def test_convolution_is_associative_on_the_path(a2):
    report = lm.verify_counting_hall(a2, 2, 2)
    assert report["ok"]
    assert report["classes"] == 7
    assert report["triples"] > 0 and report["flag_checks"] > 0


def test_convolution_is_associative_with_a_loop(jordan):
    report = lm.verify_counting_hall(jordan, 2, 2)
    assert report["ok"]
    assert report["classes"] == 1 + 2 + 6


def _refs_up_to(quiver, q, max_total):
    return [
        ref
        for total in range(max_total + 1)
        for gamma in lm.dim_vectors(quiver.n_vertices, total)
        for ref in lm.class_refs(quiver, q, gamma)
    ]


# a2 at q = 2 goes to total 4, where many tables share _subreps entries
TABLE_CASES = [
    (ONE_VERTEX, 2, 3),
    (ONE_VERTEX, 3, 3),
    (A2, 2, 4),
    (A2, 3, 3),
    (KRONECKER, 2, 3),
    (KRONECKER, 3, 3),
    (JORDAN, 2, 3),
]
TABLE_IDS = [f"{name}-q{q}" for name, q in zip(
    ("one_vertex", "one_vertex", "a2", "a2", "kronecker", "kronecker", "jordan"),
    (q for _, q, _ in TABLE_CASES),
)]


@pytest.mark.parametrize("doc,q,max_total", TABLE_CASES, ids=TABLE_IDS)
def test_hall_tables_match_products_enumerated_per_call(doc, q, max_total):
    quiver = lm.load_quiver(doc)
    refs = _refs_up_to(quiver, q, max_total)
    for ra, rb in itertools.product(refs, repeat=2):
        if sum(ra[0]) + sum(rb[0]) > max_total:
            continue
        direct = direct_hall_product(quiver, q, {ra: 1}, {rb: 1})
        assert lm.hall_product(quiver, q, {ra: 1}, {rb: 1}) == direct
        gamma = tuple(x + y for x, y in zip(ra[0], rb[0]))
        row = lm._hall_table(quiver, q, gamma, rb[0]).get((ra[1], rb[1]), Counter())
        for li in range(len(lm.iso_classes(quiver, gamma, q).reps)):
            assert row[li] == direct.get((gamma, li), 0)


@pytest.mark.parametrize("doc,q,max_total", TABLE_CASES, ids=TABLE_IDS)
def test_flag_tables_match_chains_enumerated_per_class_triple(doc, q, max_total):
    quiver = lm.load_quiver(doc)
    refs = _refs_up_to(quiver, q, max_total)
    for ra, rb, rc in itertools.product(refs, repeat=3):
        if sum(ra[0]) + sum(rb[0]) + sum(rc[0]) > max_total:
            continue
        gamma = tuple(x + y + z for x, y, z in zip(ra[0], rb[0], rc[0]))
        row = lm._flag_table(quiver, q, ra[0], rb[0], rc[0]).get((ra[1], rb[1], rc[1]), Counter())
        for li, rep in enumerate(lm.iso_classes(quiver, gamma, q).reps):
            expected = direct_flag_count(quiver, q, gamma, rep, ra, rb, rc)
            assert row[li] == expected


def test_a_wrong_hall_table_is_caught_by_the_flag_counts(monkeypatch, fresh_memos, a2):
    # one extra subrepresentation of the zero map u -> v with sub S_v and
    # quotient S_u: both bracketings read the same wrong count, so only the
    # independently counted flags can see it
    table = lm._hall_table

    def bumped(quiver, q, gamma, sub):
        out = table(quiver, q, gamma, sub)
        if (gamma, sub) != ((1, 1), (0, 1)):
            return out
        return {**out, (0, 0): out[0, 0] + Counter({0: 1})}

    monkeypatch.setattr(lm, "_hall_table", bumped)
    report = lm.verify_counting_hall(a2, 2, 2)
    assert report["ok"] is False
    assert report["class"] == ((1, 1), 0)
    assert report["flags"] == 1


@pytest.mark.parametrize(
    "doc,q,max_total,checked,over_cap",
    [
        (ONE_VERTEX, 2, 4, 10, 0),
        (A2, 2, 4, 85, 0),
        (JORDAN, 2, 3, 4, 0),
        (A3, 2, 3, 72, 0),
        (ONE_VERTEX, 3, 3, 4, 0),
        (A2, 3, 3, 24, 0),
        (JORDAN, 3, 3, 1, 3),
        (A3, 3, 3, 72, 0),
    ],
    ids=["one_vertex-q2", "a2-q2", "jordan-q2", "a3-q2", "one_vertex-q3", "a2-q3", "jordan-q3", "a3-q3"],
)
def test_filtered_points_counted_by_tables_match_the_attractor_count(doc, q, max_total, checked, over_cap):
    # the stack of filtered points of type (gamma_1, ..., gamma_k) counted
    # two ways: the classes X of gamma, each weighted by 1/|Aut X| and by
    # its chains of type gamma in the Hall (k = 2) or flag (k = 3) table,
    # against the attractor over the parabolic of the linear quotient model
    quiver = lm.load_quiver(doc)
    vectors = [v for total in range(1, max_total + 1) for v in lm.dim_vectors(quiver.n_vertices, total)]
    splits = [
        parts
        for k in (2, 3)
        for parts in itertools.product(vectors, repeat=k)
        if sum(map(sum, parts)) <= max_total
    ]
    skipped = 0
    for parts in splits:
        gamma = tuple(map(sum, zip(*parts)))
        try:
            classes = lm.iso_classes(quiver, gamma, q)
        except CapExceeded:
            skipped += 1
            continue
        if len(parts) == 2:
            table = lm._hall_table(quiver, q, gamma, parts[0])
        else:
            table = lm._flag_table(quiver, q, parts[2], parts[1], parts[0])
        chains = Counter()
        for row in table.values():
            chains.update(row)
        counted = sum(Fraction(chains[li], aut) for li, aut in enumerate(classes.aut_orders))
        assert counted == filtered_point_count(quiver, parts, q), parts
    assert (len(splits) - skipped, skipped) == (checked, over_cap)


def test_each_subrepresentation_and_pair_product_is_computed_once_per_run(monkeypatch, fresh_memos, a2):
    # the Hall and flag tables share one enumeration per (rep, gamma, sub),
    # and the product of each pair of classes is formed once: every triple
    # adds its two bracketings and only new pairs add an inner product
    enumerated = Counter()
    products = []
    subrep_spaces, hall_product = lm.subrep_spaces, lm.hall_product

    def counted_spaces(quiver, rep, gamma, q, sub):
        enumerated[rep, gamma, sub] += 1
        return subrep_spaces(quiver, rep, gamma, q, sub)

    def counted_product(quiver, q, f, g):
        products.append((f, g))
        return hall_product(quiver, q, f, g)

    monkeypatch.setattr(lm, "subrep_spaces", counted_spaces)
    monkeypatch.setattr(lm, "hall_product", counted_product)
    report = lm.verify_counting_hall(a2, 2, 4)
    assert report == {"ok": True, "classes": 22, "triples": 300, "flag_checks": 600}
    assert set(enumerated.values()) == {1} and len(enumerated) == 144
    triples = list(lm._triples_within(_refs_up_to(a2, 2, 4), 4))
    pairs = {p for ra, rb, rc in triples for p in ((ra, rb), (rb, rc))}
    assert len(products) == 2 * len(triples) + len(pairs) == 703


@pytest.mark.parametrize(
    "spec,q,max_total,expected",
    [
        ("a2_quiver", 2, 4, (22, 300, 600)),
        ("a2_quiver", 3, 3, (13, 105, 171)),
        ("jordan", 2, 3, (23, 159, 1901)),
        ("a2_quiver", 2, 5, (34, 756, 1734)),
    ],
)
def test_counting_reports_of_the_benchmark_configurations(spec, q, max_total, expected):
    quiver = lm.load_quiver(json.loads((SPECS / f"{spec}.json").read_text()))
    report = lm.verify_counting_hall(quiver, q, max_total)
    classes, triples, flag_checks = expected
    assert report == {"ok": True, "classes": classes, "triples": triples, "flag_checks": flag_checks}


# -- decompositions and the refinement category -------------------------------------


def test_multiset_decompositions_of_one_vertex_are_partitions():
    for n in range(7):
        assert len(lm.multiset_decompositions((n,))) == len(integer_partitions(n))
    assert lm.multiset_decompositions((2,)) == (((1,), (1,)), ((2,),))


def test_multiset_decompositions_of_small_vectors():
    assert lm.multiset_decompositions((1, 1)) == (
        ((1, 0), (0, 1)),
        ((1, 1),),
    )
    decomps = lm.multiset_decompositions((2, 1))
    assert len(decomps) == 4
    by_parts = {}
    for d in decomps:
        by_parts[len(d)] = by_parts.get(len(d), 0) + 1
    assert by_parts == {1: 1, 2: 2, 3: 1}
    assert lm.multiset_decompositions((0, 0)) == ((),)


@pytest.mark.parametrize(
    "gamma", [(True, 1), (1, -1), (1.0, 1), ("1", 1)], ids=["bool", "negative", "float", "str"]
)
def test_multiset_decompositions_reject_what_a_dimension_vector_rejects(a2, gamma):
    # bool is a subclass of int, and (True, 1) would pass for (1, 1)
    with pytest.raises(SpecError):
        lm.multiset_decompositions(gamma)
    with pytest.raises(SpecError):
        lm.rep_space_dim(a2, gamma)


def test_every_decomposition_sums_back_to_gamma():
    gamma = (2, 2)
    for d in lm.multiset_decompositions(gamma):
        assert tuple(sorted(d, reverse=True)) == d
        assert all(any(part) for part in d)
        assert tuple(sum(p[i] for p in d) for i in range(2)) == gamma


def test_refinement_category_objects_and_reports():
    cat = lm.hall_category_lms(1, 3)
    assert len(cat.objects) == 8
    assert lm.identification(cat.objects) == {
        "objects": 8,
        "identification_classes": 7,
        "would_merge": 1,
        "applied": False,
    }
    cat2 = lm.hall_category_lms(2, 2)
    assert len(cat2.objects) == 10
    assert lm.identification(cat2.objects)["would_merge"] == 1


def test_refinement_hom_sets_have_the_expected_sizes():
    cat = lm.hall_category_lms(1, 3)
    obj = {o: i for i, o in enumerate(cat.objects)}
    homs = {}
    for m in cat.morphisms:
        homs[(m.source, m.target)] = homs.get((m.source, m.target), 0) + 1
    single = lambda n: obj[((n,),)]
    pair = obj[((1,), (1,))]
    triple = obj[((1,), (1,), (1,))]
    assert homs[(single(2), pair)] == 2
    assert homs[(single(3), triple)] == 6
    assert homs[(obj[((1,), (2,))], triple)] == 6
    assert homs[(pair, pair)] == 2
    assert homs[(triple, triple)] == 6
    assert len(cat.morphisms) == 40


def test_refinement_category_sizes_for_two_vertices():
    cat = lm.hall_category_lms(2, 2)
    assert len(cat.morphisms) == 22
    report = lm.verify_lms_category(cat)
    assert report["ok"]
    assert report["objects"] == 10 and report["morphisms"] == 22


def test_refinement_category_laws_hold():
    report = lm.verify_lms_category(lm.hall_category_lms(1, 3))
    assert report["ok"]
    assert report["morphisms"] == 40


def test_refinement_composition_concatenates_orders():
    cat = lm.hall_category_lms(1, 3)
    obj = {o: i for i, o in enumerate(cat.objects)}
    idx = {(m.source, m.target, m.orders): i for i, m in enumerate(cat.morphisms)}
    src = obj[((3,),)]
    mid = obj[((1,), (2,))]
    tgt = obj[((1,), (1,), (1,))]
    m1 = idx[(src, mid, ((0, 1),))]
    m2 = idx[(mid, tgt, ((2,), (0, 1)))]
    assert cat.compose(m1, m2) == idx[(src, tgt, ((2, 0, 1),))]


@pytest.mark.parametrize(
    "n_vertices,max_total",
    [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)],
)
def test_refinement_category_matches_the_assignment_search(n_vertices, max_total):
    cat = lm.hall_category_lms(n_vertices, max_total)
    oracle = assignment_search_category(n_vertices, max_total)
    assert cat.objects == oracle.objects
    assert cat.morphisms == oracle.morphisms
    assert cat.identities == oracle.identities
    assert cat.then == oracle.then


@pytest.mark.parametrize("n_vertices,max_total", [(1, 4), (2, 4), (3, 3)])
def test_tuple_composites_match_the_record_building_composite(n_vertices, max_total):
    cat = lm.hall_category_lms(n_vertices, max_total)
    oracle = FiniteCategory.build(
        cat.objects,
        cat.morphisms,
        lambda oi: lm.LmsMorphism(oi, oi, tuple((j,) for j in range(len(cat.objects[oi])))),
        record_composite,
    )
    assert cat.identities == oracle.identities
    assert cat.then == oracle.then


def test_one_vertex_refinements_out_of_each_object_match_the_closed_form():
    cat = lm.hall_category_lms(1, 5)
    out = Counter(m.source for m in cat.morphisms)
    for o, obj in enumerate(cat.objects):
        assert out[o] == refinements_out_of([v for (v,) in obj]), obj


# -- cross-model comparison ----------------------------------------------------------


def test_quotient_model_document_shape(a2):
    doc = lm.quotient_spec_doc(a2, (2, 1))
    assert doc["rank"] == 3
    assert sorted(doc["weights"]) == [[-1, 0, 1], [0, -1, 1]]
    assert sorted(doc["roots"]) == [[-1, 1, 0], [1, -1, 0]]
    assert doc["weyl_generators"] == [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]]


@pytest.mark.parametrize(
    "doc,gamma,expected",
    [
        (ONE_VERTEX, (1,), 1),
        (ONE_VERTEX, (2,), 2),
        (ONE_VERTEX, (3,), 3),
        (ONE_VERTEX, (4,), 5),
        (A2, (1, 1), 2),
        (A2, (2, 1), 4),
        (JORDAN, (2,), 2),
    ],
)
def test_flat_orbits_match_decompositions(doc, gamma, expected):
    quiver = lm.load_quiver(doc)
    report = lm.cross_check_special_faces(quiver, gamma)
    assert report["ok"], report
    assert report["flat_orbits"] == report["decompositions"] == expected


def test_cross_check_matches_dimension_to_part_count(a2):
    report = lm.cross_check_special_faces(a2, (2, 1))
    assert report["flat_orbits_by_dim"] == {"1": 1, "2": 2, "3": 1}
    assert report["decompositions_by_parts"] == {"1": 1, "2": 2, "3": 1}


def _gammas(quiver, max_total):
    return [g for total in range(1, max_total + 1) for g in lm.dim_vectors(quiver.n_vertices, total)]


@pytest.mark.parametrize(
    "doc,max_total",
    [(ONE_VERTEX, 5), (A2, 5), (JORDAN, 4), (A3, 4), (NO_ARROWS, 4)],
    ids=["one_vertex", "a2", "jordan", "a3", "no_arrows"],
)
def test_flat_orbits_by_dim_count_the_slot_partitions_with_connected_blocks(doc, max_total):
    # the model's own count, ok or not: on A3 the decompositions differ
    # from it wherever a part's support is disconnected, as at (1, 0, 1)
    quiver = lm.load_quiver(doc)
    for gamma in _gammas(quiver, max_total):
        want = {str(k): v for k, v in sorted(connected_flat_orbits(quiver, gamma).items())}
        assert lm.cross_check_special_faces(quiver, gamma)["flat_orbits_by_dim"] == want, gamma


@pytest.mark.parametrize("doc,max_total", [(A2, 5), (A3, 4)], ids=["a2", "a3"])
def test_each_crosscheck_entry_matches_one_computed_with_emptied_memos(doc, max_total, fresh_memos):
    # a pass builds one lattice of flats per covector set and counts flat
    # orbits once per quotient model; a2's (4, 1) and (5, 0) share their
    # covectors but not their Weyl group
    quiver = lm.load_quiver(doc)
    gammas = _gammas(quiver, max_total)
    cold = []
    for gamma in gammas:
        fresh_memos()
        cold.append(lm.cross_check_special_faces(quiver, gamma))
    fresh_memos()
    for gamma, report in zip(gammas, cold):
        assert lm.cross_check_special_faces(quiver, gamma) == report, gamma
    specs = {sm.load_spec(lm.quotient_spec_doc(quiver, gamma)) for gamma in gammas}
    assert lm._flat_orbits_by_dim.cache_info().misses == len(specs) < len(gammas)
    covector_sets = {sm.global_arrangement(spec) for spec in specs}
    assert arrangement.flats.cache_info().misses == len(covector_sets) < len(specs)


@pytest.mark.parametrize("doc,max_total", [(A2, 5), (A3, 4)], ids=["a2", "a3"])
def test_a_crosscheck_pass_loads_each_distinct_quotient_model_once(doc, max_total, monkeypatch, fresh_memos):
    quiver = lm.load_quiver(doc)
    gammas = _gammas(quiver, max_total)
    load, loaded = sm.load_spec, []
    monkeypatch.setattr(sm, "load_spec", lambda d: loaded.append(canonical_json(d)) or load(d))
    for gamma in gammas:
        lm.cross_check_special_faces(quiver, gamma)
    documents = {canonical_json(lm.quotient_spec_doc(quiver, gamma)) for gamma in gammas}
    assert sorted(loaded) == sorted(documents)
    assert len(documents) < len(gammas)


# -- determinism ---------------------------------------------------------------------


def test_counting_results_are_deterministic():
    q1 = lm.load_quiver(A2)
    q2 = lm.load_quiver(A2)
    assert lm.iso_classes(q1, (1, 1), 2).reps == lm.iso_classes(q2, (1, 1), 2).reps
    cat1 = lm.hall_category_lms(1, 3)
    cat2 = lm.hall_category_lms(1, 3)
    assert cat1.objects == cat2.objects
    assert cat1.morphisms == cat2.morphisms
    assert cat1.then == cat2.then
    assert lm.multiset_decompositions((2, 2)) == lm.multiset_decompositions((2, 2))
