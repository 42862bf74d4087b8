"""Component lattice of a linear quotient stack.

The model of V/G is combinatorial: the rank of a maximal torus, the weight
multiset of the representation V, the root set of G, and matrices
generating the Weyl group on the cocharacter lattice. Everything the
package computes about such a stack lives in Q^rank:

- graded points correspond to faces, subspaces of the rational cocharacter
  space held as qlinalg.Subspace (a face presented by a map is the span of
  the map's rows); their isomorphism type is a ComponentSignature: the
  weights and roots vanishing on the face,
- special faces are the flats of the arrangement cut by all weight and
  root hyperplanes; the special face closure is the minimal flat over a
  face,
- filtered points correspond to cones; the special cone closure of a ray
  set is the minimal cone cut by the tangent functionals taken with their
  own signs (weights are one-sided, roots come in +/- pairs), and its
  AttractorSignature records which weights attract and which roots sit in
  the parabolic,
- the Hall category has special-face orbits as objects and chambers of
  restricted sub-arrangements as morphisms, composed by the Tits rule.

The Weyl group is enumerated explicitly and assumed small (cap 100000),
by products with each generator held as sparse rows of (column,
coefficient) pairs, so a permutation generator only reorders row tuples;
covectors are pulled back the same way. An element permutes the weights
and roots, hence the hyperplanes up to sign (weyl_permutations); flats,
cells and special cones move by that signed permutation, and matrices act
only in load_spec, weyl_permutations, weyl_reflection_chamber and the Hall
category's embeddings. Cell orbits are read off one closed chamber of the
reflections in W, so only the cells inside it are enumerated (cell_orbits).
Orbits are named by canonical representatives, so all outputs are
deterministic.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache
from math import lcm

from .arrangement import (
    Flat,
    HyperplaneArrangement,
    cells,
    chamber_rays,
    flat_cut_out,
    flats,
    minimal_flat_containing,
    rays_of_constraints,
    restrict,
    split_rays,
)
from .category import FiniteCategory, check_laws
from .errors import CapExceeded, InvariantError, SpecError
from .jsonio import check_document
from .qlinalg import (
    IntVec,
    Scalar,
    Subspace,
    canonical_covector,
    canonical_covector_signed,
    covector_times_mat,
    determinant,
    int_dot,
    is_zero_vec,
    mat_mul,
    primitive,
    qvec,
    row_rank,
    sign,
    span,
    vec_neg,
    vec_str,
)

WEYL_CAP = 100_000
CONE_CONSTRAINT_CAP = 12

Matrix = tuple[IntVec, ...]


class QuotientStackSpec(namedtuple("QuotientStackSpec", "rank weights roots weyl_group")):
    """Combinatorial model of V/G on a rank-n maximal torus: the rank n,
    the weights and the roots (tuples of IntVec) and the Weyl group (a
    tuple of Matrix).

    The hash is that of the field tuple, computed once per instance:
    tuples do not cache theirs, and every spec-keyed cache looks it up,
    which would rehash the whole Weyl group each time.
    """

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)


def _as_int_vec(v, rank: int, what: str) -> IntVec:
    if not isinstance(v, (list, tuple)) or len(v) != rank:
        raise SpecError(f"{what} must be a length-{rank} integer vector, got {v!r}")
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        raise SpecError(f"{what} must contain integers, got {v!r}")
    return tuple(v)


def _sparse_rows(m: Matrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each row of m as the (column, coefficient) pairs of its nonzeros."""
    return tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in m)


def _pullback(pairs: Sequence[tuple[int, int]], g: Matrix) -> IntVec:
    """The row vector with nonzero entries pairs times the matrix g, which
    has at least one row: the sum of c * g[k] over the pairs (k, c). A
    single pair with c = 1 is g's row k itself."""
    if len(pairs) == 1 and pairs[0][1] == 1:
        return g[pairs[0][0]]
    acc = [0] * len(g[0])
    for k, c in pairs:
        for j, x in enumerate(g[k]):
            if x:
                acc[j] += c * x
    return tuple(acc)


def _enumerate_weyl(generators: Sequence[Matrix], rank: int) -> tuple[Matrix, ...]:
    """The group generated by the matrices, sorted: the closure of the
    identity under multiplying on the left by each generator h. Row i of
    h * g is the sum of c * g[k] over h's row-i pairs (_sparse_rows), so a
    permutation generator only reorders g's row tuples."""
    sparse = [_sparse_rows(h) for h in generators]
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in sparse:
                prod = tuple(_pullback(pairs, g) for pairs in h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > WEYL_CAP:
                        raise CapExceeded(f"weyl group larger than cap {WEYL_CAP}")
        frontier = nxt
    return tuple(sorted(seen))


def load_spec(doc: dict) -> QuotientStackSpec:
    """Validate and load a linear_quotient document.

    Checks the schema strictly (unknown fields are errors), enumerates the
    Weyl group from the generators, and verifies it is a symmetry of the
    data: unimodular matrices preserving the weight multiset and the root
    set.
    """
    check_document(doc, "spec", "linear_quotient", ("rank", "weights", "roots", "weyl_generators"))
    rank = doc["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise SpecError(f"rank must be a nonnegative integer, got {rank!r}")
    for field in ("weights", "roots", "weyl_generators"):
        if not isinstance(doc[field], (list, tuple)):
            raise SpecError(f"{field} must be a list")

    weights = tuple(sorted(_as_int_vec(w, rank, "weight") for w in doc["weights"]))
    roots = tuple(sorted(_as_int_vec(r, rank, "root") for r in doc["roots"]))
    if len(set(roots)) != len(roots):
        raise SpecError("roots must be a duplicate-free set")
    for r in roots:
        if all(x == 0 for x in r):
            raise SpecError("roots must be nonzero")
        if vec_neg(r) not in roots:
            raise SpecError(f"root set is not closed under negation: missing {vec_neg(r)}")

    gens = []
    for g in doc["weyl_generators"]:
        if not isinstance(g, (list, tuple)) or len(g) != rank:
            raise SpecError(f"weyl generator must be a {rank}x{rank} matrix, got {g!r}")
        mat = tuple(_as_int_vec(row, rank, "weyl generator row") for row in g)
        if abs(determinant(mat)) != 1:
            raise SpecError(f"weyl generator {mat} is not unimodular")
        gens.append(mat)

    root_set = set(roots)
    for g in gens:
        if tuple(sorted(covector_times_mat(w, g) for w in weights)) != weights:
            raise SpecError(f"weyl generator {g} does not preserve the weight multiset")
        if {covector_times_mat(r, g) for r in roots} != root_set:
            raise SpecError(f"weyl generator {g} does not preserve the root set")

    group = _enumerate_weyl(tuple(gens), rank)
    return QuotientStackSpec(rank, weights, roots, group)


class ComponentSignature(namedtuple("ComponentSignature", "face_dim fixed_weights levi_roots")):
    """Isomorphism data of a graded point: the face dimension (an int), the
    multiset of weights fixed by the face, and the roots of its Levi (each
    a tuple of IntVec)."""

    __slots__ = ()


class AttractorSignature(
    namedtuple("AttractorSignature", "flat ambient_rays attractor_weights parabolic_roots levi_part")
):
    """Isomorphism data of a filtered point: the carrier Flat and the
    cone's canonical ambient rays, which determine the cone, the weights
    with nonnegative pairing (the attractor) and the roots of the
    parabolic (each a tuple of IntVec), plus the ComponentSignature of the
    cone's span, whose face_dim is the cone's dimension."""

    __slots__ = ()

    def __new__(cls, flat, ambient_rays, attractor_weights, parabolic_roots, levi_part):
        fixed = Counter(levi_part.fixed_weights)
        attr = Counter(attractor_weights)
        if fixed - attr or not set(levi_part.levi_roots) <= set(parabolic_roots):
            raise InvariantError(
                f"cone with rays {ambient_rays}: a weight or root vanishing on its span "
                "is missing from its attractor or parabolic"
            )
        return super().__new__(cls, flat, ambient_rays, attractor_weights, parabolic_roots, levi_part)

    @classmethod
    def _make(cls, iterable) -> "AttractorSignature":
        """Build through the constructor, so _make and _replace (which
        calls _make) run its checks too."""
        return cls(*iterable)


def cone_fields(sig: AttractorSignature) -> dict:
    """A cone's signature as closure --ray reports it: the carrier flat,
    the cone's dimension and rays, and the attractor, parabolic and levi."""
    return {
        "carrier_dim": sig.flat.dim,
        "carrier_basis": sig.flat.subspace.basis,
        "cone_dim": sig.levi_part.face_dim,
        "ambient_rays": sig.ambient_rays,
        "attractor_weights": sig.attractor_weights,
        "parabolic_roots": sig.parabolic_roots,
        "levi": sig.levi_part._asdict(),
    }


@lru_cache(maxsize=None)
def global_arrangement(spec: QuotientStackSpec) -> HyperplaneArrangement:
    """Hyperplanes dual to all nonzero weights and roots."""
    vecs = {canonical_covector(w) for w in spec.weights + spec.roots if any(w)}
    return HyperplaneArrangement(tuple(sorted(vecs)), spec.rank)


@lru_cache(maxsize=None)
def restricted_arrangement(spec: QuotientStackSpec, subspace: Subspace) -> HyperplaneArrangement:
    """The global arrangement restricted to a subspace, in its basis
    coordinates, computed once per carrier: carriers repeat across samples
    and morphisms."""
    return restrict(global_arrangement(spec), subspace)


def component_signature(spec: QuotientStackSpec, face: Subspace) -> ComponentSignature:
    """Signature of a face, in integer dots against its rows."""
    return _span_signature(spec, face.rows, face.dim)


def _span_signature(
    spec: QuotientStackSpec, vectors: Sequence[Sequence[Scalar]], dim: int
) -> ComponentSignature:
    """Signature of the span of vectors whose rank dim the caller knows,
    so no echelon pass recomputes it."""
    tangent = spec.weights + spec.roots
    return _signature_of_pairings(spec, [any(int_dot(f, v) for v in vectors) for f in tangent], dim)


def _signature_of_pairings(spec: QuotientStackSpec, pairings: Sequence, dim: int) -> ComponentSignature:
    """Signature of a span of rank dim from its pairing table: pairings[t]
    is zero iff the t-th functional of spec.weights + spec.roots vanishes
    on the span."""
    n = len(spec.weights)
    return ComponentSignature(
        dim,
        tuple(w for w, x in zip(spec.weights, pairings) if not x),
        tuple(r for r, x in zip(spec.roots, pairings[n:]) if not x),
    )


def special_face_closure(spec: QuotientStackSpec, face: Subspace) -> Flat:
    """Minimal flat of the global arrangement containing the face."""
    return minimal_flat_containing(global_arrangement(spec), face.rows)


def central_rank(spec: QuotientStackSpec, face: Subspace) -> int:
    """Dimension of the common kernel of the face's fixed weights and Levi
    roots. Always >= the face dimension, with equality iff the face is a
    flat (a special face)."""
    sig = component_signature(spec, face)
    return spec.rank - row_rank(sig.fixed_weights + sig.levi_roots)


def is_special(spec: QuotientStackSpec, face: Subspace) -> bool:
    return central_rank(spec, face) == face.dim


# -- Weyl orbits ---------------------------------------------------------------


@lru_cache(maxsize=None)
def weyl_permutations(spec: QuotientStackSpec) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One signed permutation of the global arrangement's covectors per
    Weyl element g, in weyl_group order: entry j is (i, e) with
    w_j o g = e * w_i, so g carries {w_i = 0} to {w_j = 0}."""
    covectors = global_arrangement(spec).covectors
    signed = {w: (i, 1) for i, w in enumerate(covectors)}
    signed.update((vec_neg(w), (i, -1)) for i, w in enumerate(covectors))
    sparse = _sparse_rows(covectors)
    out = []
    for g in spec.weyl_group:
        pulled = [_pullback(pairs, g) for pairs in sparse]
        stray = next((v for v in pulled if v not in signed), None)
        if stray is not None:
            raise InvariantError(
                f"weyl element {g} pulls a covector back to {vec_str(stray)}, off the arrangement"
            )
        out.append(tuple(signed[v] for v in pulled))
    return tuple(out)


def _weyl_orbits(perms: Sequence, members: Sequence, act, what: str) -> list:
    """(first member, orbit) for each orbit on members of the group given
    by its signed permutations, in the members' order; act(perm, m) moves m
    by a signed permutation, and every image must be a member again. The
    orbits of a group partition the members, so an orbit that misses its
    own member or meets an earlier one means the permutations are no group
    and the orbit sizes would be wrong."""
    known = set(members)
    seen: set = set()
    out = []
    for m in members:
        if m not in seen:
            orbit = {act(perm, m) for perm in perms}
            if not orbit <= known:
                raise InvariantError(f"weyl image {min(orbit - known)} of the {what} {m} is no {what}")
            if m not in orbit or not seen.isdisjoint(orbit):
                raise InvariantError(f"the weyl orbit of the {what} {m} is no orbit of a group")
            seen |= orbit
            out.append((m, orbit))
    return out


class _Chamber(namedtuple("_Chamber", "mirrors walls omega images")):
    """A chamber C of the mirrors of W_r, the subgroup of W generated by
    the reflections whose mirrors are hyperplanes of the global arrangement
    (weyl_reflection_chamber): the covector indices of the mirrors; the
    walls, the simple roots (the mirrors bounding C, oriented >= 0 on C,
    as IntVec); omega, the signed permutations of the elements g with
    gC = C; and images, per element g the mirrors (as bits of an int)
    positive on gC."""

    __slots__ = ()


@lru_cache(maxsize=None)
def weyl_reflection_chamber(spec: QuotientStackSpec) -> _Chamber:
    """The reflections of W in the global arrangement, one chamber C of
    their mirrors, its walls and its stabilizer Omega.

    An element g is such a reflection iff g - 1 has rank 1 (in a finite
    group that makes g an involution) and some covector w_j has w_j o g =
    -w_j: w_j is then the root of g, so {w_j = 0} is its mirror. W permutes
    the mirrors, as it conjugates reflections to reflections. C is the
    chamber of the first point (1, t, t^2, ...), t = 1, 2, ..., on no
    mirror; each mirror vanishes at fewer than rank such points. Each g
    moves C to the chamber gC whose sign on mirror j is e * (the sign of C
    on mirror i) for its entry (i, e) (weyl_permutations); a mirror is a
    wall of C iff its reflection r has rC differing from C there alone.
    With no reflection in the arrangement there is no mirror: C is the
    whole space and Omega is W.
    """
    covectors = global_arrangement(spec).covectors
    perms = weyl_permutations(spec)
    reflection = {}  # mirror covector index -> the index of its reflection in W
    for x, (g, perm) in enumerate(zip(spec.weyl_group, perms)):
        roots = [j for j, (i, e) in enumerate(perm) if i == j and e < 0]
        if roots:
            moved = [tuple(v - (r == c) for c, v in enumerate(row)) for r, row in enumerate(g)]
            if len({canonical_covector(v) for v in moved if any(v)}) == 1:
                reflection[roots[0]] = x
    mirrors = tuple(sorted(reflection))
    bit = {j: 1 << b for b, j in enumerate(mirrors)}
    point = next(
        p
        for p in ([t**k for k in range(spec.rank)] for t in range(1, len(mirrors) * spec.rank + 2))
        if all(int_dot(covectors[j], p) for j in mirrors)
    )
    positive = {j for j in mirrors if int_dot(covectors[j], point) > 0}
    images = tuple(
        sum(bit[j] for j in mirrors if (perm[j][0] in positive) == (perm[j][1] > 0)) for perm in perms
    )
    home = sum(bit[j] for j in positive)
    walls = tuple(
        covectors[j] if j in positive else vec_neg(covectors[j])
        for j in mirrors
        if images[reflection[j]] ^ home == bit[j]
    )
    omega = tuple(perm for perm, image in zip(perms, images) if image == home)
    return _Chamber(mirrors, walls, omega, images)


class FaceOrbit(namedtuple("FaceOrbit", "flat orbit_size signature")):
    """A Weyl orbit of special faces, named by its representative: the
    orbit member with the lexicographically least basis, a Flat; its size
    and the representative's ComponentSignature."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.flat.dim


def enumerate_special_faces(spec: QuotientStackSpec) -> tuple[FaceOrbit, ...]:
    """All Weyl orbits of flats of the global arrangement.

    A flat is its hyperplane set H, which moves to {j : i_j in H} under the
    signed permutation (i_j, e_j). flats() comes sorted by dimension and
    basis, so the first member of an orbit met names it.
    """
    by_set = {f.hyperplanes: f for f in flats(global_arrangement(spec))}
    orbits = _weyl_orbits(
        weyl_permutations(spec),
        list(by_set),
        lambda perm, h: tuple(j for j, (i, _) in enumerate(perm) if i in h),
        "flat",
    )
    return tuple(FaceOrbit(by_set[h], len(o), component_signature(spec, by_set[h].subspace)) for h, o in orbits)


class CellOrbit(namedtuple("CellOrbit", "cell orbit_size")):
    """A Weyl orbit of relatively open cells of the global arrangement,
    named by its representative: the least member in the closed chamber of
    weyl_reflection_chamber, a SignVector; and its size."""

    __slots__ = ()


def cell_orbits(spec: QuotientStackSpec) -> tuple[CellOrbit, ...]:
    """Weyl orbits of the relatively open cells of the global arrangement,
    sorted by size and representative, read off the closed chamber C of
    weyl_reflection_chamber.

    W is W_r, generated by the reflections in the arrangement, times
    Omega, the stabilizer of C. Each W_r-orbit of points meets the closed
    chamber in exactly one point, whose stabilizer in W_r is the parabolic
    subgroup W_J of the walls vanishing there (Humphreys, Reflection Groups
    and Coxeter Groups, 1.12). The mirrors are hyperplanes of the
    arrangement, so the closed chamber is a union of cells, and the W-orbits
    of cells are the Omega-orbits of the cells in it (cells(arr, walls)),
    closed under the signed permutation (i_j, e_j), which carries signs s
    to (e_j * s_{i_j})_j. The orbit of such a cell F has |W_r| / |W_J| *
    |Omega F| cells. W_r acts simply transitively on the chambers of its
    mirrors, and each chamber is gC for |Omega| elements g, so |W_J| is the
    number of g whose chamber gC holds F in its closure, over |Omega|: gC
    does iff its signs agree with F's on every mirror where F's are
    nonzero.
    """
    arr = global_arrangement(spec)
    chamber = weyl_reflection_chamber(spec)
    group, stable = len(spec.weyl_group), len(chamber.omega)
    parabolic: dict[tuple[int, int], int] = {}  # (mirror bits nonzero on F, those positive) -> |W_J|
    out = []
    for rep, orbit in _weyl_orbits(
        chamber.omega, cells(arr, chamber.walls), lambda perm, s: tuple(e * s[i] for i, e in perm), "cell"
    ):
        nonzero = sum(1 << b for b, j in enumerate(chamber.mirrors) if rep[j])
        positive = sum(1 << b for b, j in enumerate(chamber.mirrors) if rep[j] > 0)
        if (nonzero, positive) not in parabolic:
            adjacent = sum(image & nonzero == positive for image in chamber.images)
            parabolic[nonzero, positive] = adjacent // stable
        out.append(CellOrbit(rep, group // stable // parabolic[nonzero, positive] * len(orbit)))
    return tuple(sorted(out, key=lambda o: (o.orbit_size, o.cell)))


# -- special cones -------------------------------------------------------------


@lru_cache(maxsize=None)
def _covector_functionals(spec: QuotientStackSpec) -> IntVec:
    """For each covector of the global arrangement, the index in
    spec.weights + spec.roots of the first functional it is the canonical
    form of: the two are multiples of each other, so they vanish on the
    same vectors."""
    first: dict[IntVec, int] = {}
    for t, f in enumerate(spec.weights + spec.roots):
        if any(f):
            first.setdefault(canonical_covector(f), t)
    return tuple(first[w] for w in global_arrangement(spec).covectors)


@lru_cache(maxsize=None)
def _restriction_functionals(spec: QuotientStackSpec, space: Subspace) -> tuple[tuple[IntVec, int], ...]:
    """The nonzero restrictions of the tangent functionals to the subspace,
    in its basis coordinates, sorted, each with the index in spec.weights +
    spec.roots of the first functional restricting to it. A restriction
    keeps its functional's sign: weights restrict one-sidedly; roots come in
    +/- pairs, so their restrictions do too. Coinciding restrictions merge.

    A restriction is the functional's pairings with the subspace's rows
    over their gcd g. A point of the subspace with RREF coordinates c is
    the rows' combination c / L, so the functional pairs with it to g / L
    times the restriction's pairing with c: the sign is the same."""
    first: dict[IntVec, int] = {}
    for t, f in enumerate(spec.weights + spec.roots):
        vals = [int_dot(f, row) for row in space.rows]
        if any(vals):
            first.setdefault(primitive(vals), t)
    return tuple(sorted(first.items()))


def special_cone_closure(
    spec: QuotientStackSpec, rays: Sequence[Sequence[Scalar]]
) -> AttractorSignature:
    """Minimal special cone containing the given rays, with its signature.

    Only the rays' directions matter, so each ray is taken as its primitive
    integer multiple and zero rays are dropped: a positive multiple of a
    ray, such as a constancy sample, has the same closure. Each tangent
    functional is paired with every ray once, and its pairings are reduced
    to one number, the least if it is negative and else the greatest:
    negative iff the functional is negative on some ray, zero iff it
    vanishes on all of them. _closure_of_pairings reads the closure off
    that table.
    """
    rays = [primitive(r) for r in rays if not is_zero_vec(r)]
    pairings = []
    for f in spec.weights + spec.roots:
        vals = [int_dot(f, r) for r in rays] or [0]
        least = min(vals)
        pairings.append(least if least < 0 else max(vals))
    return _closure_of_pairings(spec, rays, pairings)


def _closure_of_pairings(
    spec: QuotientStackSpec, rays: Sequence[IntVec], pairings: Sequence[int]
) -> AttractorSignature:
    """The special cone closure of primitive rays from their pairing table:
    pairings[t] is negative iff the t-th functional of spec.weights +
    spec.roots is negative on some ray, and zero iff it vanishes on all of
    them. For one ray its own pairings qualify.

    The carrier is the minimal flat containing the rays: its hyperplanes
    are the global covectors whose functional (_covector_functionals) has
    pairing zero, so no span is taken and no covector is paired again.
    The rays must lie in it, which scaled_reduce checks. Inside it the
    cone is cut by every restricted tangent functional that is nonnegative
    on all rays, each with its own sign; on the carrier a restriction has
    the signs of its functional (_restriction_functionals), so the
    selection reads the table too. No restriction can vanish on all the
    rays: the carrier flat would not be minimal.

    The flat, the containment check and the selection run on every call;
    the cone and its signature are a function of (spec, flat, the selected
    restrictions) alone and come from _cone_of, which memoizes them on
    those arguments: every sample of a chamber selects the same.
    """
    hyperplanes = tuple(i for i, t in enumerate(_covector_functionals(spec)) if not pairings[t])
    flat = flat_cut_out(global_arrangement(spec), hyperplanes)
    carrier = flat.subspace
    if any(any(carrier.scaled_reduce(r)) for r in rays):
        raise InvariantError(f"closure {vec_str(*carrier.basis)} misses rays {vec_str(*rays)}")
    ineqs = []
    for l, t in _restriction_functionals(spec, carrier):
        if rays and not pairings[t]:
            raise InvariantError(
                f"restricted functional {l} vanishes on rays {vec_str(*rays)}, "
                "so their special face closure is not minimal"
            )
        if pairings[t] >= 0:
            ineqs.append(l)
    return _cone_of(spec, flat, tuple(ineqs))


@lru_cache(maxsize=None)
def _cone_of(spec: QuotientStackSpec, flat: Flat, ineqs: tuple[IntVec, ...]) -> AttractorSignature:
    """The cone cut out of the carrier flat by the restrictions ineqs, with
    its signature, memoized on its arguments: a flat hashes its integer
    hyperplane indices and rows only. Its dim, the levi part's face_dim, is
    flat.dim: each selected restriction is >= 0 and not identically 0 on the
    rays (_closure_of_pairings raises otherwise), so > 0 on their sum; with
    no rays the flat is the least one, where no restriction survives."""
    carrier = flat.subspace
    cone_rays = rays_of_constraints([], ineqs, carrier.dim)
    ambient = tuple(sorted(primitive(carrier.scaled_lift(r)) for r in cone_rays))
    attractor = tuple(w for w in spec.weights if all(int_dot(w, a) >= 0 for a in ambient))
    parabolic = tuple(r for r in spec.roots if all(int_dot(r, a) >= 0 for a in ambient))
    levi = _span_signature(spec, ambient, flat.dim)
    return AttractorSignature(flat, ambient, attractor, parabolic, levi)


class ConeOrbit(namedtuple("ConeOrbit", "signature orbit_size")):
    """A Weyl orbit of special cones, named by its representative: the
    AttractorSignature of the member with the least ambient ray tuple; and
    its size."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.signature.levi_part.face_dim


def enumerate_special_cones(spec: QuotientStackSpec) -> tuple[ConeOrbit, ...]:
    """All Weyl orbits of special cones.

    A special cone is full-dimensional in its carrier flat and cut by
    one-sided restricted tangent constraints; lower-dimensional cones of a
    flat occur as full-dimensional cones on a smaller flat. Enumerates
    constraint subsets per flat, so the constraint count is capped.

    Global covectors cut out a special cone, so its saturated sign data,
    a pair (>= 0 on every ray, <= 0 on every ray) per covector, is a key;
    (i_j, e_j) moves it to (key_{i_j}, reversed if e_j < 0)_j. An orbit is
    named by the least ambient ray tuple among its members.
    """
    arr = global_arrangement(spec)
    found: set[tuple[IntVec, ...]] = set()
    for fl in flats(arr):
        carrier = fl.subspace
        restr = [l for l, _ in _restriction_functionals(spec, carrier)]
        if len(restr) > CONE_CONSTRAINT_CAP:
            raise CapExceeded(
                f"special cones: {len(restr)} constraints on a flat exceeds cap {CONE_CONSTRAINT_CAP}"
            )
        for mask in range(1 << len(restr)):
            ineqs = [restr[i] for i in range(len(restr)) if mask >> i & 1]
            cone_rays = rays_of_constraints([], ineqs, carrier.dim)
            if row_rank(cone_rays) != carrier.dim:
                continue
            found.add(tuple(sorted(primitive(carrier.scaled_lift(r)) for r in cone_rays)))
    by_key = {}
    for ambient in sorted(found):
        vals = [[int_dot(w, a) for a in ambient] for w in arr.covectors]
        key = tuple((all(x >= 0 for x in v), all(x <= 0 for x in v)) for v in vals)
        if key in by_key:
            raise InvariantError(
                f"special cones with rays {by_key[key]} and {ambient} share their sign data"
            )
        by_key[key] = ambient
    orbits = []
    for _, orbit in _weyl_orbits(
        weyl_permutations(spec),
        list(by_key),
        lambda perm, key: tuple(key[i][::e] for i, e in perm),
        "special cone",
    ):
        rep = min(by_key[key] for key in orbit)
        sig = special_cone_closure(spec, rep)
        if sig.ambient_rays != rep:
            raise InvariantError(f"special cone with rays {rep} has closure rays {sig.ambient_rays}")
        orbits.append(ConeOrbit(sig, len(orbit)))
    orbits.sort(key=lambda o: (-o.dim, o.signature.ambient_rays))
    return tuple(orbits)


# -- constancy -----------------------------------------------------------------


def constancy_check(
    spec: QuotientStackSpec,
    flat: Flat,
    samples: int = 100,
    seed: int = 0,
) -> dict:
    """Sample every chamber of the flat's cotangent arrangement and check
    that the graded and filtered signatures are constant on it.

    Points are strictly positive rational combinations of the chamber's
    pointed extreme rays plus lineality components with a random sign,
    with coefficients from a seeded PRNG over numerators and denominators
    in [1, 64]. Every constraint covector vanishes on the lineality, so
    such points are always interior; no coefficient is zero, so a chamber
    that is pure lineality never yields the origin. A chamber's rays come
    from the double description that enumerated it (chamber_rays). Returns
    a report for jsonable; a chamber whose signatures differ is listed
    under discrepancies with a witness, its first sample and the first
    later sample whose signatures differ from that one's, and with each
    point's component and attractor signatures in the fields closure
    --face and closure --ray report (cone_fields).

    Every signature depends only on the point's direction, so a sample is
    the drawn point times the lcm of the drawn denominators, lifted by the
    carrier's scaled_lift: a positive integer multiple of the drawn
    rational point, in integer arithmetic throughout. Each sample is paired
    with each tangent functional once, and both of its signatures are read
    from that table (_sample_signatures).
    """
    carrier = flat.subspace
    arr_f = restricted_arrangement(spec, carrier)
    rng = random.Random(seed)
    report = {
        "seed": seed,
        "samples_per_chamber": samples,
        "chambers": [],
        "discrepancies": [],
    }
    for ch, rays in chamber_rays(arr_f).items():
        lin, pointed = split_rays(rays)
        lin_basis = [r for r in lin if r < vec_neg(r)]
        seen_comp: set[ComponentSignature] = set()
        seen_attr: set[tuple] = set()
        first = witness = None
        for _ in range(samples):
            # (numerator, denominator, ray): the draw order fixes the samples of a seed
            draws = [(rng.randint(1, 64), rng.randint(1, 64), r) for r in pointed]
            draws += [(rng.choice((-1, 1)) * rng.randint(1, 64), rng.randint(1, 64), b) for b in lin_basis]
            denom = lcm(*(d for _, d, _ in draws))
            v = [0] * carrier.dim
            for n, d, r in draws:
                c = n * (denom // d)
                for j, x in enumerate(r):
                    v[j] += c * x
            if tuple(sign(int_dot(w, v)) for w in arr_f.covectors) != ch:
                raise InvariantError(f"sample {vec_str(v)} left chamber {ch} of flat {flat.hyperplanes}")
            p = carrier.scaled_lift(v)
            comp, sig = _sample_signatures(spec, p)
            attr = (sig.flat.hyperplanes,) + sig[1:]  # the flat by its hyperplanes
            seen_comp.add(comp)
            seen_attr.add(attr)
            if first is None:
                first = (p, comp, attr, sig)
            elif witness is None and (comp, attr) != first[1:3]:
                witness = (first, (p, comp, attr, sig))
        entry = {
            "signs": list(ch),
            "samples": samples,
            "component_signatures": len(seen_comp),
            "attractor_signatures": len(seen_attr),
        }
        if len(seen_comp) > 1 or len(seen_attr) > 1:
            points = [list(p) for p, *_ in witness]
            named = [{"component": c._asdict(), "attractor": cone_fields(s)} for _, c, _, s in witness]
            report["discrepancies"].append({**entry, "witness": points, "witness_signatures": named})
        report["chambers"].append(entry)
    report["ok"] = not report["discrepancies"]
    return report


def _sample_signatures(spec: QuotientStackSpec, p: IntVec) -> tuple[ComponentSignature, AttractorSignature]:
    """The graded and filtered signatures of an integer point p, from one
    pairing of p with each tangent functional: the signature of its span,
    of rank 1 (0 for the origin, the only sample of the zero flat), and its
    special cone closure."""
    pairings = [int_dot(f, p) for f in spec.weights + spec.roots]
    rays = [primitive(p)] if any(p) else []
    return _signature_of_pairings(spec, pairings, len(rays)), _closure_of_pairings(spec, rays, pairings)


def surjection_invariance_check(
    spec: QuotientStackSpec,
    face: Subspace,
    projection: Sequence[Sequence[Scalar]],
) -> bool:
    """Precomposing a face with a surjection onto its source must change
    neither the signature nor the closure. The composite map's face is the
    span of its rows. Nothing in the package calls it: it stays as the
    paper-level statement that a graded point's data depends on its face
    alone, which only the tests exercise."""
    k = face.dim
    proj = [qvec(row) for row in projection]
    if any(len(row) != k for row in proj):
        raise SpecError(f"projection rows must have length {k}")
    if span(proj, k).dim != k:
        raise SpecError("projection is not surjective onto the face's source")
    composed = span(mat_mul(proj, face.rows), spec.rank)
    return (
        component_signature(spec, composed) == component_signature(spec, face)
        and special_face_closure(spec, composed) == special_face_closure(spec, face)
    )


# -- Hall category -------------------------------------------------------------


class HallMorphism(namedtuple("HallMorphism", "source target embedding chamber")):
    """A morphism of the Hall category: a Weyl-twisted embedding of one
    special-face representative in another, together with a chamber of the
    sub-arrangement of target hyperplanes containing the embedded source.

    source and target are object indices. The embedding is a source-dim x
    target-dim integer matrix (a tuple of IntVec) in the bases of the two
    representatives, times the scale L of the source's rows (an identity
    is L times the identity matrix). The chamber is a SignVector whose
    coordinates are the target covectors vanishing on the image
    (_embedded_arrangement).
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def _embedded_arrangement(spec: QuotientStackSpec, target: Subspace, emb: Matrix) -> HyperplaneArrangement:
    """The target's cotangent covectors vanishing on every row of emb."""
    arr = restricted_arrangement(spec, target)
    return HyperplaneArrangement(tuple(w for w in arr.covectors if not any(int_dot(w, r) for r in emb)), arr.dim)


def hall_category(spec: QuotientStackSpec) -> FiniteCategory:
    """The category of special-face orbits.

    Morphisms A -> B: an embedding matrix (image of A's representative
    under some Weyl element, written in B's basis; equal matrices merge)
    plus a chamber of the hyperplanes of B's cotangent arrangement that
    contain the embedded copy. Composition embeds the first chamber and
    falls through to the second by the Tits rule; the table is verified
    closed under composition. A Weyl element moves the rows of A to
    integer vectors; they lie in B iff B's scaled_reduce kills
    them, and their entries at B's pivots are their coordinates. Each
    (B, embedding) gets its sub-arrangement once, into the table that
    composition reads, and its chambers and their rays from chamber_rays.
    Each (first, second) embedding pair gets its composite embedding and
    gather map once (_compose_embeddings), so a composite is one gather of
    the two chambers' signs.
    """
    objects = enumerate_special_faces(spec)
    reps = [o.flat.subspace for o in objects]
    scales = [s.scale for s in reps]

    subs: dict[tuple[int, Matrix], HyperplaneArrangement] = {}
    morphisms: list[HallMorphism] = []
    for si, a in enumerate(reps):
        for ti, b in enumerate(reps):
            if a.dim > b.dim:
                continue
            embeddings = set()
            for g in spec.weyl_group:
                moved = [tuple(int_dot(row, v) for row in g) for v in a.rows]
                if not any(any(b.scaled_reduce(v)) for v in moved):
                    embeddings.add(tuple(tuple(v[p] for p in b.pivots) for v in moved))
            for emb in sorted(embeddings):
                subs[ti, emb] = sub = _embedded_arrangement(spec, b, emb)
                morphisms += (HallMorphism(si, ti, emb, ch) for ch in chamber_rays(sub))
    pairs: dict[tuple[int, Matrix, int, Matrix], tuple[Matrix, tuple[tuple[int, int], ...]]] = {}

    def compose(m1: HallMorphism, m2: HallMorphism) -> HallMorphism:
        key = m1.target, m1.embedding, m2.target, m2.embedding
        pair = pairs.get(key)
        if pair is None:
            pair = pairs[key] = _compose_embeddings(m1, m2, subs, scales[m1.target])
        emb, gather = pair
        first, second = m1.chamber, m2.chamber
        return HallMorphism(m1.source, m2.target, emb, tuple(e * first[i] if e else second[i] for i, e in gather))

    return FiniteCategory.build(
        objects,
        morphisms,
        # the identity embeds B by g = 1: B's rows at its pivots, L times the identity matrix
        lambda oi: HallMorphism(oi, oi, tuple(tuple(v[p] for p in reps[oi].pivots) for v in reps[oi].rows), ()),
        compose,
    )


def _compose_embeddings(
    m1: HallMorphism, m2: HallMorphism, subs: dict[tuple[int, Matrix], HyperplaneArrangement], middle_scale: int
) -> tuple[Matrix, tuple[tuple[int, int], ...]]:
    """The composite embedding of an embedding pair and its Tits gather
    map, which depend on the two (target, embedding) pairs alone, so
    hall_category computes them once per pair, at its first composite.

    A hyperplane through the composite image either pulls back along the
    second embedding to a hyperplane through the first image (keep the
    first chamber's sign, corrected for the canonicalization flip) or dies
    there (fall through to the second chamber). So entry k of the gather
    map is (i, e) for the composite's covector k: the first chamber's sign
    i times e, or the second chamber's sign i where e is 0. The product of
    the embeddings carries the middle object's scale too, so it is divided
    by middle_scale, which must go exactly. All three sub-arrangements come
    from subs, keyed by (target, embedding); a composite missing there, or
    a covector pulled to none of its factor's, raises InvariantError."""
    product = [_pullback(pairs, m2.embedding) for pairs in _sparse_rows(m1.embedding)]
    if middle_scale != 1 and any(x % middle_scale for row in product for x in row):
        raise InvariantError(
            f"composite embedding {vec_str(*product)} of {vec_str(*m1.embedding)} and "
            f"{vec_str(*m2.embedding)} is not divisible by {middle_scale}, the scale of object {m1.target}"
        )
    emb = tuple(product) if middle_scale == 1 else tuple(tuple(x // middle_scale for x in row) for row in product)
    sub = subs.get((m2.target, emb))
    if sub is None:
        raise InvariantError(f"composite embedding {vec_str(*emb)} into object {m2.target} is not in the table")
    first, second = subs[m1.target, m1.embedding].covectors, subs[m2.target, m2.embedding].covectors
    gather = []
    for w in sub.covectors:
        pull = tuple(int_dot(w, row) for row in m2.embedding)
        if any(pull):
            canon, e = canonical_covector_signed(pull)
            factor = first
        else:
            canon, e, factor = w, 0, second
        if canon not in factor:
            raise InvariantError(
                f"embedding {vec_str(*m1.embedding) or '()'} into object {m1.target} then "
                f"{vec_str(*m2.embedding)} into object {m2.target}: covector {vec_str(w)} of the composite "
                + (
                    f"pulls back to {vec_str(canon)}, off the first factor's sub-arrangement"
                    if e
                    else "vanishes on the second image but is off its sub-arrangement"
                )
            )
        gather.append((factor.index(canon), e))
    return emb, tuple(gather)


def verify_hall_category(cat: FiniteCategory) -> dict:
    """Exhaustively check unit laws and associativity of the table."""
    return {**check_laws(cat), "pairs": sum(map(len, cat.then))}


def hall_composition_weight_identity(spec: QuotientStackSpec, cat: FiniteCategory) -> bool | dict:
    """Check, on every composable pair, that the composite's one-sided
    tangent data splits into the part the first chamber sees and the part
    that degenerates to the second:

      {w >= 0 on composite} = {w >= 0, not identically 0, on the embedded
      first chamber} + {w identically 0 on the first, >= 0 on the second}

    as multisets of weights, and likewise for roots. Each predicate
    depends only on the vector, so this is an identity of bitmasks over
    weights + roots, restricted to each object's basis: a morphism's
    nonneg and zero masks mark the restrictions to its target that are
    >= 0 on, and vanish on, its chamber's integer rays.

    The second morphism j pulls the restrictions back along its embedding,
    the source's rows moved by a Weyl element g and written in the target's
    coordinates: the restriction of f pulls back to the target's L times
    the restriction of f o g to the source, and g permutes the weights and
    roots. So each pulled restriction must be a positive multiple of a
    restriction to j's source, and j's map sends each index to the first
    such. A pulled vector with no such restriction raises
    InvariantError. For a pair (i, j) the first chamber's view of the
    pulled vectors is then i's own masks with their bits moved by j's map,
    with no dot product per pair. The composite's nonneg mask comes from
    its own rays, read from the chamber_rays pass that enumerated it.

    Returns True if the identity holds. Otherwise the witness is the first
    failing pair in table order: {"pair": (i, j), "composite": k,
    "tangent_indices": the indices in spec.weights + spec.roots whose bits
    differ between the two sides}.
    """
    tangent = spec.weights + spec.roots
    restricted = [
        tuple(tuple(int_dot(v, row) for row in o.flat.subspace.rows) for v in tangent)
        for o in cat.objects
    ]
    # per object, the first index of each direction of restriction, None for zero
    firsts = []
    for o, vs in zip(cat.objects, restricted):
        first = dict(_restriction_functionals(spec, o.flat.subspace))
        first[None] = next((t for t, v in enumerate(vs) if not any(v)), None)
        firsts.append(first)
    nonneg, zero, moves = [], [], []
    for j, m in enumerate(cat.morphisms):
        target = restricted[m.target]
        cone = chamber_rays(_embedded_arrangement(spec, cat.objects[m.target].flat.subspace, m.embedding))[m.chamber]
        nn = zz = 0
        for t, v in enumerate(target):
            vals = [int_dot(v, r) for r in cone]
            if all(x >= 0 for x in vals):
                nn |= 1 << t
                if not any(vals):
                    zz |= 1 << t
        nonneg.append(nn)
        zero.append(zz)
        move = []
        for t, v in enumerate(target):
            pulled = tuple(int_dot(row, v) for row in m.embedding)
            s = firsts[m.source].get(primitive(pulled) if any(pulled) else None)
            if s is None:
                raise InvariantError(
                    f"morphism {j} pulls {vec_str(v)}, the restriction of {vec_str(tangent[t])} to object "
                    f"{m.target}, back to {vec_str(pulled)}, "
                    f"no positive multiple of a restriction to object {m.source}"
                )
            move.append(s)
        moves.append(move)
    for i, then_i in enumerate(cat.then):
        for j, k in then_i.items():
            seen = degen = 0
            for t, s in enumerate(moves[j]):
                if nonneg[i] >> s & 1:
                    seen |= 1 << t
                    if zero[i] >> s & 1:
                        degen |= 1 << t
            differ = nonneg[k] ^ ((seen & ~degen) | (degen & nonneg[j]))
            if differ:
                tangents = [t for t in range(len(tangent)) if differ >> t & 1]
                return {"pair": (i, j), "composite": k, "tangent_indices": tangents}
    return True
