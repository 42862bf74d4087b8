import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complat.qlinalg as qlinalg
from complat.arrangement import canonical_rays
from complat.errors import InvariantError
from complat.qlinalg import (
    Subspace,
    annihilator,
    canonical_covector,
    canonical_covector_signed,
    determinant,
    dot,
    echelon,
    intersect,
    kernel,
    mat_mul,
    primitive,
    qvec,
    restrict_covector,
    row_rank,
    rref,
    span,
)

from oracles import (
    contains,
    contains_vector,
    coords_in,
    fraction_canonical_rays,
    fraction_kernel,
    fraction_rref,
    lift,
    two_pass_kernel,
)

F = Fraction


def test_span_canonical_under_permutation_and_scaling():
    a = span([(1, 0), (1, 1)], 2)
    b = span([(2, 2), (3, 0)], 2)
    assert a == b == Subspace(((1, 0), (0, 1)), 2)
    # span is the canonical RREF form, so equal subspaces are equal tuples
    assert a.basis == ((F(1), F(0)), (F(0), F(1)))


def test_span_drops_dependent_rows():
    s = span([(1, 2, 3), (2, 4, 6), (0, 0, 0)], 3)
    assert s.dim == 1
    assert s.basis == ((F(1), F(2), F(3)),)


def test_subspace_rejects_non_rref_basis():
    # the rows must be L times the RREF basis, not any multiple of it
    with pytest.raises(ValueError):
        Subspace(((2, 0), (0, 2)), 2)


@pytest.mark.parametrize(
    "basis,n",
    [
        (((1, 0), (0, 0)), 2),  # a zero row
        (((0, 2), (1, 0)), 2),  # decreasing pivots
        (((F(1), F(0)),), 2),  # Fraction entries, even integral ones
        (((1, 0, 1), (0, 1)), 3),  # a row of the wrong length
        (((2, 2), (0, 2)), 2),  # a nonzero entry above a pivot
    ],
)
def test_subspace_rejects_each_broken_rref_condition(basis, n):
    with pytest.raises(ValueError):
        Subspace(basis, n)


def test_subspace_accepts_exactly_the_bases_rref_reproduces():
    # random small integer matrices, their spans' rows, and those rows with
    # one entry changed: accepted iff they are L times their own RREF
    rng = random.Random(5)
    values = [0, 0, 1, -1, 2, 3]
    accepted = rejected = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        rows = [tuple(rng.choice(values) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        candidates = [tuple(rows), span(rows, n).rows]
        if candidates[1]:
            edited = [list(r) for r in candidates[1]]
            edited[rng.randrange(len(edited))][rng.randrange(n)] = rng.choice(values)
            candidates.append(tuple(map(tuple, edited)))
        for basis in candidates:
            want, _ = fraction_rref(basis, n)
            scale = lcm(*(x.denominator for row in want for x in row))
            is_rref = tuple(tuple(int(scale * x) for x in row) for row in want) == basis
            try:
                Subspace(basis, n)
            except ValueError:
                assert not is_rref, basis
                rejected += 1
            else:
                assert is_rref, basis
                accepted += 1
    assert accepted > 300 and rejected > 300


def test_span_rows_are_the_lcm_times_the_rref():
    # seeded int and Fraction vector sets with dependent, zero and repeated
    # rows, and empty sets: span builds rows with no Fraction, equal to L
    # times the Fraction RREF for L the lcm of its denominators
    rng = random.Random(23)
    fracs = [0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4)]
    scales, empty = set(), 0
    for _ in range(500):
        n = rng.randint(0, 5)
        rows = _rows_with_repeats(rng, n, fracs, rng.randint(0, 4))
        want, pivots = rref(rows, n)
        sub = span(rows, n)
        scale = lcm(*(x.denominator for row in want for x in row))
        assert sub.rows == tuple(tuple(scale * x for x in row) for row in want), rows
        assert all(type(x) is int for row in sub.rows for x in row)
        assert (sub.basis, sub.pivots, sub.scale, sub.ambient_dim) == (want, pivots, scale, n)
        scales.add(scale)
        empty += not rows
    assert {1, 2, 3, 4} <= scales and empty > 20


def test_row_rank_agrees_with_the_span():
    # seeded integer matrices with zero, repeated and dependent rows
    rng = random.Random(17)
    ranks = set()
    for _ in range(500):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        extra = [(0,) * n]
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            extra += [a, tuple(c * x + d * y for x, y in zip(a, b))]
        rows += rng.sample(extra, rng.randint(0, len(extra)))
        rng.shuffle(rows)
        assert row_rank(rows) == len(fraction_rref(rows, n)[1]), rows
        ranks.add(row_rank(rows))
    assert ranks == {0, 1, 2, 3, 4, 5}


def _rows_with_repeats(rng, width, values, count):
    # random rows plus, at random, a zero row, a repeated row, a repeated
    # row times -2 and a combination of two rows, shuffled
    rows = [tuple(rng.choice(values) for _ in range(width)) for _ in range(count)]
    extra = [(0,) * width]
    if rows:
        a, b = rng.choice(rows), rng.choice(rows)
        extra += [a, tuple(-2 * x for x in a), tuple(x - F(3, 2) * y for x, y in zip(a, b))]
    rows += rng.sample(extra, rng.randint(0, len(extra)))
    rng.shuffle(rows)
    return rows


def test_the_integer_echelon_form_agrees_with_the_fraction_rref():
    # int and Fraction entries, zero and duplicate rows, negative leading
    # entries, widths 0 to 6 and empty row lists, against Gauss-Jordan
    # elimination over Fractions
    rng = random.Random(41)
    ints = [0, 0, 0, 1, -1, 2, -3, 5]
    fracs = ints + [F(1, 2), F(-2, 3), F(5, 4)]
    widths, collapsed, empty = set(), 0, 0
    for _ in range(700):
        n = rng.randint(0, 6)
        values = rng.choice((ints, fracs))
        rows = _rows_with_repeats(rng, n, values, rng.randint(0, 5))
        want, pivots = fraction_rref(rows, n)
        got = rref(rows, n)
        assert got == (want, pivots), rows
        assert all(type(x) is Fraction for row in got[0] for x in row)
        # primitive rows, positive at their pivots
        assert echelon(rows, n) == tuple(zip(pivots, map(primitive, want))), rows
        assert span(rows, n).basis == want
        assert kernel(rows, n).basis == fraction_kernel(rows, n), rows
        assert row_rank(r for r in rows) == len(pivots)
        rays = [tuple(rng.choice(values) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        expected = fraction_canonical_rays(rows, rays, n)
        if expected is None:
            collapsed += 1
            with pytest.raises(InvariantError, match="collapsed"):
                canonical_rays(rows, rays, n)
        else:
            assert canonical_rays(rows, rays, n) == expected, (rows, rays)
        widths.add(n)
        empty += not rows
    assert widths == set(range(7)) and collapsed > 50 and empty > 20


def test_the_one_pass_kernel_matches_the_two_pass_route():
    # the reversed-column elimination against back-substitution handed to
    # span for a second echelon pass: int and Fraction rows, repeats, zero
    # kernels and empty row lists
    rng = random.Random(73)
    ints = [0, 0, 0, 1, -1, 2, -3, 4, 6]
    fracs = ints + [F(1, 2), F(-2, 3), F(5, 4)]
    dims, scaled = set(), 0
    for _ in range(3000):
        n = rng.randint(0, 6)
        rows = _rows_with_repeats(rng, n, rng.choice((ints, fracs)), rng.randint(0, 5))
        got = kernel(rows, n)
        assert got == two_pass_kernel(rows, n), rows
        dims.add(got.dim)
        scaled += got.scale > 1
    assert dims == set(range(7)) and scaled > 300


def test_kernel_output_goes_through_the_subspace_check(monkeypatch):
    # with every row doubled the rows share a factor, which the
    # constructor refuses
    monkeypatch.setattr(qlinalg, "lcm", lambda *xs: 2 * lcm(*xs))
    with pytest.raises(ValueError, match="basis is not in reduced row echelon form"):
        kernel([(1, -1, 0)], 3)


def test_kernel_of_difference_functional():
    # kernel of x - y in Q^2 is the diagonal
    k = kernel([(1, -1)], 2)
    assert k.basis == ((F(1), F(1)),)


def test_kernel_of_full_rank_system_is_zero():
    k = kernel([(1, 0), (0, 1)], 2)
    assert k.dim == 0 and k.basis == ()


def test_intersection_of_planes_in_q3():
    a = span([(1, 0, 0), (0, 1, 0)], 3)  # z = 0
    b = span([(0, 1, 0), (0, 0, 1)], 3)  # x = 0
    got = intersect(a, b)
    assert got == span([(0, 1, 0)], 3)


def test_restrict_covector_to_line():
    line = span([(1, 1)], 2)
    assert restrict_covector((2, 4), line) == (1,)
    # x - y dies on the diagonal
    assert restrict_covector((1, -1), line) is None


def test_restrict_covector_to_zero_subspace_is_zero_marker():
    zero = span([], 2)
    assert restrict_covector((5, 7), zero) is None


def test_primitive_and_canonical_covector():
    assert primitive((F(2, 3), F(-4, 3))) == (1, -2)
    assert canonical_covector((-2, 4)) == (1, -2)
    assert canonical_covector((0, -3, 6)) == (0, 1, -2)
    cov, s = canonical_covector_signed((-2, 4))
    assert cov == (1, -2) and s == -1
    cov, s = canonical_covector_signed((F(1, 2), -1))
    assert cov == (1, -2) and s == 1
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_coords_roundtrip():
    s = span([(1, 0, 2), (0, 1, 3)], 3)
    v = (F(2), F(-1), F(1))
    c = coords_in(s, v)
    assert c == (F(2), F(-1))
    assert lift(s, c) == v
    assert coords_in(s, (0, 0, 1)) is None


def test_annihilator_of_diagonal():
    assert annihilator(span([(1, 1)], 2)) == ((1, -1),)
    assert annihilator(span([(1, 0), (0, 1)], 2)) == ()
    assert set(annihilator(span([], 2))) == {(1, 0), (0, 1)}


def test_determinant_and_mat_mul():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1, 1], [1, 1]]) == 0
    assert mat_mul([[1, 2]], [[0, 1], [1, 0]]) == ((F(2), F(1)),)


def test_rref_pivots():
    rows, piv = rref([(0, 2, 4), (1, 1, 1)], 3)
    assert piv == (0, 1)
    assert rows == ((F(1), F(0), F(-1)), (F(0), F(1), F(2)))


# -- property tests ---------------------------------------------------------

small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def vectors(n):
    return st.lists(small_frac, min_size=n, max_size=n).map(tuple)


def subspaces(n):
    return st.lists(vectors(n), min_size=0, max_size=n + 1).map(lambda vs: span(vs, n))


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(subspaces(n), subspaces(n))))
def test_dimension_formula(pair):
    a, b = pair
    n = a.ambient_dim
    both = intersect(a, b)
    total = span(list(a.basis) + list(b.basis), n)
    assert both.dim + total.dim == a.dim + b.dim
    assert contains(a, both) and contains(b, both)
    assert contains(total, a) and contains(total, b)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: subspaces(n)))
def test_annihilator_duality(s):
    n = s.ambient_dim
    ann = annihilator(s)
    assert len(ann) == n - s.dim
    assert all(dot(w, b) == 0 for w in ann for b in s.basis)
    # double annihilator comes back to the same subspace
    assert kernel(ann, n) == s


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(subspaces(n), vectors(n))))
def test_membership_agrees_with_coords(case):
    s, v = case
    c = coords_in(s, v)
    if contains_vector(s, v):
        assert c is not None and lift(s, c) == qvec(v)
    else:
        assert c is None
