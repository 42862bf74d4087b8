"""Central hyperplane arrangements over Q, exactly.

An arrangement is an ordered list of canonical covectors in Q^n. On top of
it live:

- sign vectors and the (finitely many) realizable cells,
- flats, each held as its closed hyperplane set (the matroid closure
  of any hyperplanes cutting it out) together with its subspace,
- closed polyhedral cones, held as canonical extreme-ray tuples,
- the Tits composition x ↑ y of sign vectors.

Every cone takes one path. The kernel _dd_step, one step of the classical
incremental double description method in exact integer arithmetic, cuts a
cone by one constraint; dd_cone folds it from the whole space into a
lineality basis and pointed rays, all primitive integer vectors.
canonical_rays turns those into the canonical extreme-ray tuple: lineality
as +/- pairs, pointed rays reduced modulo lineality, so two equal cones
always carry the identical tuple, and the tuple determines the cone:
which covectors are >= 0, <= 0 or zero on it is read off its rays.
rays_of_constraints is the two in one. split_rays splits a ray tuple into
its lineality and pointed parts.

cells inserts one hyperplane at a time and keeps each cell's
double-description state, so a new hyperplane costs one step per child of
each cell it actually splits. It starts from the whole space, or from the
faces of a simplicial cone to find only the cells inside it; chamber_rays
reads each chamber's rays off that state, once per arrangement.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from types import MappingProxyType

from .errors import CapExceeded, InvariantError
from .qlinalg import (
    IntVec,
    Scalar,
    Subspace,
    Vec,
    canonical_covector,
    clear_pivots,
    dot,
    echelon,
    int_dot,
    is_zero_vec,
    kernel,
    primitive,
    restrict_covector,
    row_rank,
    sign,
    vec_neg,
    vec_str,
)

CELL_COVECTOR_CAP = 20

SignVector = tuple[int, ...]


class HyperplaneArrangement(namedtuple("HyperplaneArrangement", "covectors dim")):
    """Ordered, duplicate-free list of canonical covectors in Q^dim:
    covectors, a tuple of IntVec, and dim, an int."""

    __slots__ = ()

    def __new__(cls, covectors: tuple[IntVec, ...], dim: int):
        seen = set()
        for w in covectors:
            if len(w) != dim:
                raise ValueError(f"covector {w} does not match dim {dim}")
            if canonical_covector(w) != w:
                raise ValueError(f"covector {w} is not canonical")
            if w in seen:
                raise ValueError(f"duplicate covector {w}")
            seen.add(w)
        return super().__new__(cls, covectors, dim)

    @classmethod
    def _make(cls, iterable) -> "HyperplaneArrangement":
        """Build through the constructor, so _make and _replace (which
        calls _make) run its checks too."""
        return cls(*iterable)

    @property
    def size(self) -> int:
        return len(self.covectors)


def from_vectors(vectors: Iterable[Sequence[Scalar]], dim: int) -> HyperplaneArrangement:
    """Build an arrangement, canonicalizing covectors, skipping zero rows
    and duplicates (up to sign and scaling). First occurrence wins the slot.
    """
    out: list[IntVec] = []
    seen = set()
    for v in vectors:
        if len(v) != dim:
            raise ValueError(f"vector {v} does not match dim {dim}")
        if all(x == 0 for x in v):
            continue
        c = canonical_covector(v)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return HyperplaneArrangement(tuple(out), dim)


def sign_vector_of(arr: HyperplaneArrangement, v: Sequence[Scalar]) -> SignVector:
    return tuple(sign(dot(w, v)) for w in arr.covectors)


def restrict(arr: HyperplaneArrangement, space: Subspace) -> HyperplaneArrangement:
    """Restriction to a subspace, in that subspace's basis coordinates.

    Covectors dying on the subspace are dropped; coinciding restrictions
    are merged. Order is inherited from the ambient arrangement.
    """
    vecs = []
    for w in arr.covectors:
        r = restrict_covector(w, space)
        if r is not None:
            vecs.append(r)
    return from_vectors(vecs, space.dim)


class Flat(namedtuple("Flat", "subspace hyperplanes")):
    """Intersection of hyperplanes: the subspace (a Subspace) plus the
    maximal set of hyperplane indices containing it (an IntVec), a closed
    set of the matroid."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.subspace.dim


def _through(arr: HyperplaneArrangement, vectors: Sequence[Sequence[Scalar]]) -> IntVec:
    """Indices of the hyperplanes containing every one of the vectors."""
    return tuple(i for i, w in enumerate(arr.covectors) if not any(int_dot(w, v) for v in vectors))


def closure(arr: HyperplaneArrangement, hyperplanes: Iterable[int]) -> Flat:
    """The flat cut out by the given hyperplanes, carrying every hyperplane
    that contains it: the matroid closure of the index set."""
    sub = kernel([arr.covectors[i] for i in hyperplanes], arr.dim)
    return Flat(sub, _through(arr, sub.rows))


@lru_cache(maxsize=None)
def flats(arr: HyperplaneArrangement) -> tuple[Flat, ...]:
    """All flats, including the ambient space, by decreasing dimension,
    then basis. Memoized per arrangement, like flat_cut_out: the covectors
    of global_arrangement come sorted, so quotient models with the same set
    of covectors share one lattice. Built rank by rank: the covers of a
    flat F are the closures of F + (i,), i outside F, and they partition
    the hyperplanes outside F; skipping the i of known covers makes every
    closure taken a new flat. The basis is the integer rows over their
    scale L, so the sort key is the rows when L is 1, as int and Fraction
    compare exactly."""
    level = [closure(arr, ())]
    out = list(level)
    while level:
        nxt: list[Flat] = []
        for f in level:
            own = set(f.hyperplanes)
            covered = own.union(*(g.hyperplanes for g in nxt if own.issubset(g.hyperplanes)))
            for i in range(arr.size):
                if i not in covered:
                    g = closure(arr, f.hyperplanes + (i,))
                    covered.update(g.hyperplanes)
                    nxt.append(g)
        out += nxt
        level = nxt
    out.sort(key=_basis_key)
    return tuple(out)


def _basis_key(f: Flat) -> tuple:
    scale, entries = f.subspace.scale, [x for row in f.subspace.rows for x in row]
    if scale == 1:
        return -f.dim, tuple(entries)
    from fractions import Fraction

    return -f.dim, tuple(Fraction(x, scale) for x in entries)


def minimal_flat_containing(arr: HyperplaneArrangement, vectors: Sequence[Sequence[Scalar]]) -> Flat:
    """The smallest flat containing the span of the vectors, which may be
    any spanning set of it (a subspace's rows, or a cone's
    rays), in any scaling.

    Hyperplanes containing the flat are exactly those containing the
    span, so no closure iteration and no span are needed.
    """
    return flat_cut_out(arr, _through(arr, vectors))


@lru_cache(maxsize=None)
def flat_cut_out(arr: HyperplaneArrangement, hyperplanes: IntVec) -> Flat:
    """The flat of a closed hyperplane set, given as sorted indices.
    Closures of samples and cones land on few flats, so each kernel is
    computed once per (arrangement, hyperplane set)."""
    return Flat(kernel([arr.covectors[i] for i in hyperplanes], arr.dim), hyperplanes)


# -- double description -----------------------------------------------------


def _project(a: IntVec, h: IntVec, ah: int, v: IntVec) -> IntVec:
    """Primitive image of v on {a = 0} along h, for ah = a.h > 0: a
    positive multiple of v - (a.v / a.h) h, namely (a.h) v - (a.v) h."""
    av = int_dot(a, v)
    if av == 0:
        return v
    return primitive([ah * x - av * y for x, y in zip(v, h)])


DDState = tuple[list[IntVec], dict[IntVec, int], int]


def _dd_step(state: DDState, raw: Sequence[Scalar]) -> DDState:
    """One double-description step: the state of a cone cut by raw.v >= 0.

    A state is (lineality basis, {pointed ray: tight-set bitmask}, bit of
    the next nonzero constraint), rays as primitive int tuples, the pointed
    ones irredundant modulo the lineality. A ray's bitmask holds the steps
    so far that vanish on it, set when the ray is made. Two rays are
    adjacent iff no third ray is tight wherever both are; every step
    vanishes on the lineality, so the test holds modulo it. The state
    passed in is left unchanged, so one cone can be cut several ways.
    """
    lin, tight, bit = state
    if is_zero_vec(raw):
        return state
    a = primitive(raw)
    hit = next((l for l in lin if int_dot(a, l)), None)
    if hit is not None:
        # a cuts the lineality: hit turns into a pointed ray (tight on
        # every earlier constraint), the rest moves onto {a = 0}
        lin = [l for l in lin if l is not hit]  # the state passed in stays intact
        ah = int_dot(a, hit)
        if ah < 0:
            hit, ah = vec_neg(hit), -ah
        lin = [_project(a, hit, ah, l) for l in lin]
        new = {_project(a, hit, ah, r): t | bit for r, t in tight.items()}
        new.setdefault(hit, bit - 1)
    else:
        pos, neg, new = [], [], {}
        for r, t in tight.items():
            ar = int_dot(a, r)
            if ar > 0:
                pos.append((r, ar))
                new[r] = t
            elif ar < 0:
                neg.append((r, ar))
            else:
                new[r] = t | bit
        for p, ap in pos:
            tp = tight[p]
            for n, an in neg:
                common = tp & tight[n]
                if any(common & ~t == 0 for r, t in tight.items() if r is not p and r is not n):
                    continue
                w = primitive([ap * y - an * x for x, y in zip(p, n)])
                new.setdefault(w, common | bit)
    return lin, new, bit << 1


def _ambient(dim: int) -> DDState:
    """The state of the whole space Q^dim: all lineality, no constraint."""
    return [tuple(int(i == j) for j in range(dim)) for i in range(dim)], {}, 1


def dd_cone(
    equalities: Sequence[Sequence[Scalar]],
    inequalities: Sequence[Sequence[Scalar]],
    dim: int,
) -> tuple[list[IntVec], list[IntVec]]:
    """Double description of {v : a.v = 0 for eqs, a.v >= 0 for ineqs}.

    Returns (lineality_basis, pointed_rays), both primitive int tuples: the
    cone is the span of the first list plus nonnegative combinations of the
    second, and the second is irredundant modulo the lineality space.

    A fold of _dd_step from the whole space: an equality a = 0 is the two
    steps a >= 0 and -a >= 0, taken before the inequalities.
    """
    state = _ambient(dim)
    for a in [x for e in equalities for x in (e, vec_neg(e))] + list(inequalities):
        state = _dd_step(state, a)
    lin, tight, _ = state
    return lin, list(tight)


def canonical_rays(lin: Sequence[Vec], rays: Sequence[Vec], dim: int) -> tuple[IntVec, ...]:
    """Canonical extreme-ray tuple of span(lin) + cone(rays), for rays
    irredundant modulo span(lin): +/- the integer echelon rows of the
    lineality (qlinalg.echelon) plus the pointed rays reduced modulo them,
    sorted. Only the rays' directions matter, so a pointed ray is reduced
    as a positive multiple (qlinalg.clear_pivots, integer on integer rays)
    and a positive multiple of a ray gives the same tuple."""
    ech = echelon(lin, dim)
    out: set[IntVec] = set()
    for _, e in ech:
        out.add(e)
        out.add(vec_neg(e))
    for r in rays:
        rr = clear_pivots(r, ech)
        if is_zero_vec(rr):
            raise InvariantError(
                f"pointed ray {vec_str(r)} of rays {vec_str(*rays)} collapsed "
                f"into the lineality space spanned by {vec_str(*(e for _, e in ech))}"
            )
        out.add(primitive(rr))
    return tuple(sorted(out))


def rays_of_constraints(
    equalities: Sequence[Sequence[Scalar]],
    inequalities: Sequence[Sequence[Scalar]],
    dim: int,
) -> tuple[IntVec, ...]:
    """Canonical extreme-ray tuple of {v : a.v = 0 for equalities,
    a.v >= 0 for inequalities}. The functionals are raw, so they need not
    be covectors of an arrangement."""
    return canonical_rays(*dd_cone(equalities, inequalities, dim), dim)


def split_rays(rays: Sequence[IntVec]) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """(lineality, pointed) parts of a canonical ray tuple: a ray whose
    negative is also present spans lineality."""
    present = set(rays)
    lin = tuple(r for r in rays if vec_neg(r) in present)
    return lin, tuple(r for r in rays if vec_neg(r) not in present)


# -- cells -------------------------------------------------------------------


def _checked_witness(
    covectors: Sequence[IntVec], s: SignVector, pointed: Iterable[IntVec], dim: int
) -> IntVec:
    """The sum of the pointed rays of the closed cell with signs s, which
    must have exactly those signs."""
    total = tuple(map(sum, zip(*pointed))) or (0,) * dim
    got = tuple(sign(int_dot(w, total)) for w in covectors)
    if got != tuple(s):
        raise InvariantError(f"witness {vec_str(total)} of sign vector {s} has signs {got}")
    return total


def _cell_states(
    arr: HyperplaneArrangement, walls: Sequence[IntVec] = ()
) -> list[tuple[SignVector, DDState, IntVec]]:
    """(sign vector, double-description state of its closure, interior
    witness) of every realizable cell in the closed cone {a >= 0 for a in
    walls}, by sign vector, found by splitting cells one covector at a time.

    The walls must be linearly independent multiples of covectors of arr,
    so the cone is simplicial modulo its lineality, and its relatively
    open faces, one per set J of walls vanishing on it, partition it into
    cells of arr. Each face is a start cell: the
    cone's state stepped by -a for each a in J, with the sum of its pointed
    rays as witness. No walls leave one start, the whole space.

    Each cell carries the double-description state (_dd_step) of its
    closure and an interior witness, the sum of the pointed rays. The next
    covector w either takes both signs on the closed cell, which then
    splits into three nonempty children, each one step from it: w <= 0 and
    w >= 0 are one step each, and w = 0 is the w >= 0 state stepped by -w.
    Or the rays force its sign ({w = 0} meets the closed cell in a proper
    face), and the cell carries over under that sign with its state and
    witness. A wall's own sign is always forced, so a cell stays in its
    start face.
    """
    if arr.size > CELL_COVECTOR_CAP:
        raise CapExceeded(f"cells: {arr.size} covectors exceeds cap {CELL_COVECTOR_CAP}")
    if walls and (
        row_rank(walls) < len(walls) or not {canonical_covector(a) for a in walls} <= set(arr.covectors)
    ):
        raise InvariantError(f"walls {vec_str(*walls)} are no independent hyperplanes of the arrangement")
    cone = _ambient(arr.dim)
    for a in walls:
        cone = _dd_step(cone, a)
    faces = [cone]
    for a in walls:
        faces += [_dd_step(f, vec_neg(a)) for f in faces]
    state = [((), f, _checked_witness((), (), f[1], arr.dim)) for f in faces]
    for k, w in enumerate(arr.covectors):
        covs = arr.covectors[: k + 1]
        nxt = []
        for s, dd, witness in state:
            lin, tight, _ = dd
            vals = [int_dot(w, r) for r in tight]
            if any(int_dot(w, l) for l in lin) or (vals and max(vals) > 0 > min(vals)):
                neg_w, pos = vec_neg(w), _dd_step(dd, w)
                for e, child in ((-1, _dd_step(dd, neg_w)), (0, _dd_step(pos, neg_w)), (1, pos)):
                    nxt.append((s + (e,), child, _checked_witness(covs, s + (e,), child[1], arr.dim)))
                continue
            e = sign(sum(vals))
            if sign(int_dot(w, witness)) != e:
                raise InvariantError(
                    f"witness {vec_str(witness)} of sign vector {s} is off the sign {e} "
                    f"that the rays {vec_str(*tight)} force on covector {w}"
                )
            nxt.append((s + (e,), dd, witness))
        state = nxt
    return sorted(state, key=lambda c: c[0])


def cells(arr: HyperplaneArrangement, walls: Sequence[IntVec] = ()) -> tuple[SignVector, ...]:
    """All realizable sign vectors in the closed cone {a >= 0 for a in
    walls}, sorted (_cell_states), for walls that are linearly independent
    multiples of covectors: with no walls, every cell of the arrangement."""
    return tuple(s for s, *_ in _cell_states(arr, walls))


def chambers(arr: HyperplaneArrangement) -> tuple[SignVector, ...]:
    """Cells with no zero coordinate (full-dimensional cells)."""
    return tuple(s for s in cells(arr) if 0 not in s)


@lru_cache(maxsize=None)
def chamber_rays(arr: HyperplaneArrangement) -> Mapping[SignVector, tuple[IntVec, ...]]:
    """{chamber: canonical extreme-ray tuple of its closure}, in chambers()
    order, read off the double-description states of _cell_states: the
    tuples rays_of_constraints gives for the chambers' constraints. Memoized
    per arrangement, like flat_cut_out, so callers share a read-only view."""
    return MappingProxyType(
        {s: canonical_rays(lin, list(tight), arr.dim) for s, (lin, tight, _), _ in _cell_states(arr) if 0 not in s}
    )


# -- Tits composition --------------------------------------------------------


def tits_compose(x: SignVector, y: SignVector) -> SignVector:
    """x ↑ y: keep x where nonzero, else fall back to y.

    On realizable sign vectors this is the face composition: the cell
    reached from x by an infinitesimal step toward y. Nothing in the
    package calls it: it stays as the paper-level statement that cells
    compose as faces do, which only the tests exercise.
    """
    if len(x) != len(y):
        raise ValueError("sign vectors of different lengths")
    return tuple(a if a != 0 else b for a, b in zip(x, y))
