"""Component lattice of a linear quotient stack.

The model of V/G is combinatorial: the rank of a maximal torus, the weight
multiset of the representation V, the root set of G, and matrices
generating the Weyl group on the cocharacter lattice. Everything the
package computes about such a stack lives in Q^rank:

- graded points correspond to faces (subspaces of the rational cocharacter
  space, possibly presented as maps); their isomorphism type is a
  ComponentSignature: the weights and roots vanishing on the face,
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

The Weyl group is enumerated explicitly and assumed small (cap 100000).
An element permutes the weights and roots, hence the hyperplanes up to
sign (weyl_permutations); flats, cells and special cones move by that
signed permutation, and matrices act only in load_spec, weyl_permutations
and the Hall category's embeddings. Orbits are named by canonical
representatives, so all outputs are deterministic.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .arrangement import (
    ArrCone,
    Flat,
    HyperplaneArrangement,
    SignVector,
    cells,
    chambers,
    flats,
    minimal_flat_containing,
    rays_of_constraints,
    restrict,
    saturated_cone,
    signed_constraints,
    split_rays,
)
from .category import FiniteCategory, check_laws
from .errors import CapExceeded, InvariantError, SpecError
from .qlinalg import (
    IntVec,
    Scalar,
    Subspace,
    Vec,
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


class _SpecFields(NamedTuple):
    rank: int
    weights: tuple[IntVec, ...]
    roots: tuple[IntVec, ...]
    weyl_generators: tuple[Matrix, ...]
    weyl_group: tuple[Matrix, ...]


class QuotientStackSpec(_SpecFields):
    """Combinatorial model of V/G on a rank-n maximal torus.

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


def _enumerate_weyl(generators: Sequence[Matrix], rank: int) -> tuple[Matrix, ...]:
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                prod = mat_mul(g, h)
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
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    expected = {"type", "rank", "weights", "roots", "weyl_generators"}
    extra = set(doc) - expected
    if extra:
        raise SpecError(f"unknown spec fields: {sorted(extra)}")
    missing = expected - set(doc)
    if missing:
        raise SpecError(f"missing spec fields: {sorted(missing)}")
    if doc["type"] != "linear_quotient":
        raise SpecError(f"expected type 'linear_quotient', got {doc['type']!r}")
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
    return QuotientStackSpec(rank, weights, roots, tuple(gens), group)


class Face(NamedTuple):
    """A face of the component lattice: a subspace of Q^rank, optionally
    remembered as the map that presented it (possibly non-injective)."""

    subspace: Subspace
    as_map: Optional[tuple[Vec, ...]] = None

    @staticmethod
    def from_vectors(vectors: Iterable[Sequence[Scalar]], rank: int) -> "Face":
        return Face(span(vectors, rank))

    @staticmethod
    def from_map(rows: Sequence[Sequence[Scalar]], rank: int) -> "Face":
        rows = tuple(qvec(r) for r in rows)
        for r in rows:
            if len(r) != rank:
                raise SpecError(f"face map row of length {len(r)}, expected {rank}")
        return Face(span(rows, rank), as_map=rows)

    @property
    def dim(self) -> int:
        return self.subspace.dim


def nondegenerate_quotient(face: Face) -> Face:
    """Replace a map-form face by its image, the induced injective face."""
    return Face(face.subspace)


class ComponentSignature(NamedTuple):
    """Isomorphism data of a graded point: the face dimension, the multiset
    of weights fixed by the face, and the roots of its Levi."""

    face_dim: int
    fixed_weights: tuple[IntVec, ...]
    levi_roots: tuple[IntVec, ...]


class _AttractorFields(NamedTuple):
    cone: ArrCone
    flat: Flat
    ambient_rays: tuple[IntVec, ...]
    attractor_weights: tuple[IntVec, ...]
    parabolic_roots: tuple[IntVec, ...]
    levi_part: ComponentSignature


class AttractorSignature(_AttractorFields):
    """Isomorphism data of a filtered point: the cone inside its carrier
    flat, the weights with nonnegative pairing (the attractor) and the
    roots of the parabolic, plus the signature of the cone's span."""

    __slots__ = ()

    def __new__(cls, cone, flat, ambient_rays, attractor_weights, parabolic_roots, levi_part):
        fixed = Counter(levi_part.fixed_weights)
        attr = Counter(attractor_weights)
        if fixed - attr or not set(levi_part.levi_roots) <= set(parabolic_roots):
            raise InvariantError(
                f"cone with rays {ambient_rays}: a weight or root vanishing on its span "
                "is missing from its attractor or parabolic"
            )
        return super().__new__(cls, cone, flat, ambient_rays, attractor_weights, parabolic_roots, levi_part)

    @classmethod
    def _make(cls, iterable) -> "AttractorSignature":
        """Build through the constructor, so _make and _replace (which
        calls _make) run its checks too."""
        return cls(*iterable)


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


def component_signature(spec: QuotientStackSpec, face: Face | Subspace) -> ComponentSignature:
    """Signature of a face or a subspace, in integer dots against the
    subspace's rows."""
    sub = face.subspace if isinstance(face, Face) else face
    return _span_signature(spec, sub.rows, sub.dim)


def _span_signature(
    spec: QuotientStackSpec, vectors: Sequence[Sequence[Scalar]], dim: int
) -> ComponentSignature:
    """Signature of the span of vectors whose rank dim the caller knows,
    so no echelon pass recomputes it."""
    fixed = tuple(w for w in spec.weights if not any(int_dot(w, v) for v in vectors))
    levi = tuple(r for r in spec.roots if not any(int_dot(r, v) for v in vectors))
    return ComponentSignature(dim, fixed, levi)


def special_face_closure(spec: QuotientStackSpec, face: Face) -> Flat:
    """Minimal flat of the global arrangement containing the face.

    Map-form faces are reduced first; the closure only sees the image.
    """
    face = nondegenerate_quotient(face)
    return minimal_flat_containing(global_arrangement(spec), face.subspace.rows)


def central_rank(spec: QuotientStackSpec, face: Face) -> int:
    """Dimension of the common kernel of the face's fixed weights and Levi
    roots. Always >= the face dimension, with equality iff the face is a
    flat (a special face)."""
    sig = component_signature(spec, nondegenerate_quotient(face))
    return spec.rank - row_rank(sig.fixed_weights + sig.levi_roots)


def is_special(spec: QuotientStackSpec, face: Face) -> bool:
    face = nondegenerate_quotient(face)
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
    out = []
    for g in spec.weyl_group:
        pulled = [covector_times_mat(w, g) for w in covectors]
        stray = next((v for v in pulled if v not in signed), None)
        if stray is not None:
            raise InvariantError(
                f"weyl element {g} pulls a covector back to {vec_str(stray)}, off the arrangement"
            )
        out.append(tuple(signed[v] for v in pulled))
    return tuple(out)


def _weyl_orbits(spec: QuotientStackSpec, members: Sequence, act, what: str) -> list:
    """(first member, orbit) for each Weyl orbit on members, in their order;
    act(perm, m) moves m by a signed permutation, and every image must be a
    member again."""
    perms = weyl_permutations(spec)
    known = set(members)
    seen: set = set()
    out = []
    for m in members:
        if m not in seen:
            orbit = {act(perm, m) for perm in perms}
            if not orbit <= known:
                raise InvariantError(f"weyl image {min(orbit - known)} of the {what} {m} is no {what}")
            seen |= orbit
            out.append((m, orbit))
    return out


class FaceOrbit(NamedTuple):
    """A Weyl orbit of special faces, named by its representative: the
    orbit member with the lexicographically least basis."""

    flat: Flat
    orbit_size: int
    signature: ComponentSignature

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
        spec, list(by_set), lambda perm, h: tuple(j for j, (i, _) in enumerate(perm) if i in h), "flat"
    )
    return tuple(FaceOrbit(by_set[h], len(o), component_signature(spec, by_set[h].subspace)) for h, o in orbits)


def cell_orbits(spec: QuotientStackSpec) -> tuple[tuple[SignVector, ...], ...]:
    """Weyl orbits of the relatively open cells of the global arrangement.

    The signed permutation (i_j, e_j) carries the cell with sign vector s
    to the one with signs (e_j * s_{i_j})_j.
    """
    orbits = _weyl_orbits(
        spec, cells(global_arrangement(spec)), lambda perm, s: tuple(e * s[i] for i, e in perm), "cell"
    )
    return tuple(sorted((tuple(sorted(o)) for _, o in orbits), key=lambda o: (len(o), o)))


# -- special cones -------------------------------------------------------------


@lru_cache(maxsize=None)
def _signed_restrictions(spec: QuotientStackSpec, space: Subspace) -> tuple[IntVec, ...]:
    """Nonzero restrictions of the tangent functionals, keeping their own
    sign. Weights restrict one-sidedly; roots come in +/- pairs, so their
    restrictions do too. Coinciding restrictions merge."""
    out = set()
    for w in spec.weights + spec.roots:
        vals = [int_dot(w, row) for row in space.rows]
        if any(vals):
            out.add(primitive(vals))
    return tuple(sorted(out))


def special_cone_closure(
    spec: QuotientStackSpec, rays: Sequence[Sequence[Scalar]]
) -> AttractorSignature:
    """Minimal special cone containing the given rays, with its signature.

    The carrier is the minimal flat containing the rays, found from the
    rays themselves with no span taken; inside it the cone is cut by every
    restricted tangent functional that is nonnegative on all rays, each
    with its own sign. No restriction can vanish on all the rays: the
    carrier flat would not be minimal.

    Only the rays' directions matter, so each ray is taken as its primitive
    integer multiple and zero rays are dropped: a positive multiple of a
    ray, such as a constancy sample (a positive integer multiple of the
    drawn rational point), has the same closure. A ray's carrier
    coordinates are its entries at the carrier's pivots, and it lies in the
    carrier iff its scaled_reduce is zero; from there on every dot product
    is an integer one.

    The flat, the containment check and the selection run on every call;
    the cone and its signature are a function of (spec, the flat's
    hyperplanes, the selected restrictions) alone and come from _cone_of,
    computed once per such key: every sample of a chamber selects the same.
    """
    rays = [primitive(r) for r in rays if not is_zero_vec(r)]
    flat = minimal_flat_containing(global_arrangement(spec), rays)
    carrier = flat.subspace
    if any(any(carrier.scaled_reduce(r)) for r in rays):
        raise InvariantError(f"closure {vec_str(*carrier.basis)} misses rays {vec_str(*rays)}")
    coords = [tuple(r[p] for p in carrier.pivots) for r in rays]
    ineqs = []
    for l in _signed_restrictions(spec, carrier):
        vals = [int_dot(l, c) for c in coords]
        if rays and not any(vals):
            raise InvariantError(
                f"restricted functional {l} vanishes on rays {vec_str(*rays)}, "
                "so their special face closure is not minimal"
            )
        if all(v >= 0 for v in vals):
            ineqs.append(l)
    return _cone_of(spec, flat, tuple(ineqs))


_cones: dict = {}


def _cone_of(spec: QuotientStackSpec, flat: Flat, ineqs: tuple[IntVec, ...]) -> AttractorSignature:
    """The cone cut out of the carrier flat by the restrictions ineqs, with
    its signature, memoized on (spec, flat.hyperplanes, ineqs): the
    hyperplanes fix a flat of the global arrangement, and integer tuples
    hash without Fraction arithmetic."""
    key = (spec, flat.hyperplanes, ineqs)
    if (sig := _cones.get(key)) is None:
        carrier = flat.subspace
        cone_rays = rays_of_constraints([], ineqs, carrier.dim)
        cone = saturated_cone(restricted_arrangement(spec, carrier), cone_rays)
        ambient = tuple(sorted(primitive(carrier.scaled_lift(r)) for r in cone_rays))
        attractor = tuple(w for w in spec.weights if all(int_dot(w, a) >= 0 for a in ambient))
        parabolic = tuple(r for r in spec.roots if all(int_dot(r, a) >= 0 for a in ambient))
        levi = _span_signature(spec, ambient, cone.dim)
        sig = _cones[key] = AttractorSignature(cone, flat, ambient, attractor, parabolic, levi)
    return sig


class ConeOrbit(NamedTuple):
    """A Weyl orbit of special cones, named by its representative: the
    member with the least ambient ray tuple."""

    signature: AttractorSignature
    orbit_size: int

    @property
    def dim(self) -> int:
        return self.signature.cone.dim


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
        restr = _signed_restrictions(spec, carrier)
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
        spec, list(by_key), lambda perm, key: tuple(key[i][::e] for i, e in perm), "special cone"
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
    that is pure lineality never yields the origin. Returns a JSON-able
    report.

    Every signature depends only on the point's direction, so a sample is
    the drawn point times the lcm of the drawn denominators, lifted by the
    carrier's scaled_lift: a positive integer multiple of the drawn
    rational point, in integer arithmetic throughout.
    """
    carrier = flat.subspace
    arr_f = restricted_arrangement(spec, carrier)
    rng = random.Random(seed)
    report = {
        "flat_basis": [[str(x) for x in row] for row in carrier.basis],
        "seed": seed,
        "samples_per_chamber": samples,
        "chambers": [],
        "discrepancies": [],
    }
    for ch in chambers(arr_f):
        lin, pointed = split_rays(
            rays_of_constraints(*signed_constraints(arr_f.covectors, ch), carrier.dim)
        )
        lin_basis = [r for r in lin if r < vec_neg(r)]
        seen_comp: set[ComponentSignature] = set()
        seen_attr: set[tuple] = set()
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
            seen_comp.add(_span_signature(spec, [p], int(any(p))))  # the origin only on the zero flat
            sig = special_cone_closure(spec, [p])
            seen_attr.add((sig.flat.hyperplanes, sig.cone) + sig[2:])  # the flat by its hyperplanes
        entry = {
            "signs": list(ch),
            "samples": samples,
            "component_signatures": len(seen_comp),
            "attractor_signatures": len(seen_attr),
        }
        if len(seen_comp) > 1 or len(seen_attr) > 1:
            report["discrepancies"].append(entry)
        report["chambers"].append(entry)
    report["ok"] = not report["discrepancies"]
    return report


def surjection_invariance_check(
    spec: QuotientStackSpec,
    face: Face,
    projection: Sequence[Sequence[Scalar]],
) -> bool:
    """Precomposing a face with a surjection onto its source must change
    neither the signature nor the closure."""
    face = nondegenerate_quotient(face)
    k = face.dim
    proj = [qvec(row) for row in projection]
    if any(len(row) != k for row in proj):
        raise SpecError(f"projection rows must have length {k}")
    if span(proj, k).dim != k:
        raise SpecError("projection is not surjective onto the face's source")
    composed = Face.from_map(mat_mul(proj, face.subspace.rows), spec.rank)
    reduced = nondegenerate_quotient(composed)
    return (
        component_signature(spec, reduced) == component_signature(spec, face)
        and special_face_closure(spec, reduced) == special_face_closure(spec, face)
    )


# -- Hall category -------------------------------------------------------------


class HallMorphism(NamedTuple):
    """A morphism of the Hall category: a Weyl-twisted embedding of one
    special-face representative in another, together with a chamber of the
    sub-arrangement of target hyperplanes containing the embedded source.

    The embedding is a source-dim x target-dim integer matrix in the bases
    of the two representatives, times the scale L of the source's rows
    (an identity is L times the identity matrix);
    sub_covectors lists the target cotangent covectors vanishing on its
    image, in the chamber's coordinate order.
    """

    source: int
    target: int
    embedding: tuple[IntVec, ...]
    chamber: SignVector
    sub_covectors: tuple[IntVec, ...]


def _identity_rows(k: int, scale: int) -> tuple[IntVec, ...]:
    return tuple(tuple(scale * (i == j) for j in range(k)) for i in range(k))


def hall_category(spec: QuotientStackSpec) -> FiniteCategory:
    """The category of special-face orbits.

    Morphisms A -> B: an embedding matrix (image of A's representative
    under some Weyl element, written in B's basis; equal matrices merge)
    plus a chamber of the hyperplanes of B's cotangent arrangement that
    contain the embedded copy. Composition embeds the first chamber and
    falls through to the second by the Tits rule; the table is verified
    closed under composition. A Weyl element moves the rows of A to
    integer vectors; they lie in B iff B's scaled_reduce kills
    them, and their entries at B's pivots are their coordinates.
    """
    objects = enumerate_special_faces(spec)
    reps = [o.flat.subspace for o in objects]
    cot = [restricted_arrangement(spec, s) for s in reps]
    scales = [s.scale for s in reps]

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
                sub = tuple(w for w in cot[ti].covectors if not any(int_dot(w, row) for row in emb))
                for ch in chambers(HyperplaneArrangement(sub, b.dim)):
                    morphisms.append(HallMorphism(si, ti, emb, ch, sub))
    return FiniteCategory.build(
        objects,
        morphisms,
        lambda oi: HallMorphism(oi, oi, _identity_rows(reps[oi].dim, scales[oi]), (), ()),
        lambda m1, m2: _compose_morphisms(m1, m2, cot[m2.target], scales[m1.target]),
    )


def _compose_morphisms(
    m1: HallMorphism, m2: HallMorphism, target_arr: HyperplaneArrangement, middle_scale: int
) -> HallMorphism:
    """Tits composition: a hyperplane through the composite image either
    pulls back along the second embedding to a hyperplane through the
    first image (keep the first chamber's sign, corrected for the
    canonicalization flip) or dies there (fall through to the second).
    The product of the embeddings carries the middle object's scale too,
    so it is divided by middle_scale, which must go exactly."""
    cols = tuple(zip(*m2.embedding))
    product = [[int_dot(row, col) for col in cols] for row in m1.embedding]
    if any(x % middle_scale for row in product for x in row):
        raise InvariantError(
            f"composite embedding {vec_str(*product)} of {vec_str(*m1.embedding)} and "
            f"{vec_str(*m2.embedding)} is not divisible by {middle_scale}, the scale of object {m1.target}"
        )
    emb = tuple(tuple(x // middle_scale for x in row) for row in product)
    sub = tuple(w for w in target_arr.covectors if not any(int_dot(w, row) for row in emb))
    signs = []
    for w in sub:
        pull = tuple(int_dot(w, row) for row in m2.embedding)
        if any(pull):
            canon, sgn = canonical_covector_signed(pull)
            signs.append(sgn * m1.chamber[m1.sub_covectors.index(canon)])
        else:
            signs.append(m2.chamber[m2.sub_covectors.index(w)])
    return HallMorphism(m1.source, m2.target, emb, tuple(signs), sub)


def verify_hall_category(cat: FiniteCategory) -> dict:
    """Exhaustively check unit laws and associativity of the table."""
    return {**check_laws(cat), "pairs": len(cat.composition)}


def hall_composition_weight_identity(spec: QuotientStackSpec, cat: FiniteCategory) -> bool:
    """Check, on every composable pair, that the composite's one-sided
    tangent data splits into the part the first chamber sees and the part
    that degenerates to the second:

      {w >= 0 on composite} = {w >= 0, not identically 0, on the embedded
      first chamber} + {w identically 0 on the first, >= 0 on the second}

    as multisets of weights, and likewise for roots. Each predicate
    depends only on the vector, so this is an identity of bitmasks over
    weights + roots, restricted to each object's basis. The second
    morphism pulls them back along its embedding, so the first chamber's
    integer rays are tested as they are, in its target's coordinates.
    Only signs are read, so restricting through each object's rows and
    pulling back along the scaled embeddings, which give positive
    integer multiples of the vectors, keeps every dot product an integer one.
    """
    tangent = spec.weights + spec.roots
    restricted = [
        tuple(tuple(int_dot(v, row) for row in o.flat.subspace.rows) for v in tangent)
        for o in cat.objects
    ]
    rays, nonneg, pulled = [], [], []
    for m in cat.morphisms:
        target = restricted[m.target]
        cone = rays_of_constraints(
            *signed_constraints(m.sub_covectors, m.chamber), cat.objects[m.target].dim
        )
        rays.append(cone)
        nonneg.append(sum(1 << t for t, v in enumerate(target) if all(int_dot(v, r) >= 0 for r in cone)))
        pulled.append(tuple(tuple(int_dot(row, v) for row in m.embedding) for v in target))
    for (i, j), k in cat.composition.items():
        seen = degen = 0
        for t, v in enumerate(pulled[j]):
            vals = [int_dot(v, r) for r in rays[i]]
            if all(x >= 0 for x in vals):
                seen |= 1 << t
                if not any(vals):
                    degen |= 1 << t
        if nonneg[k] != (seen & ~degen) | (degen & nonneg[j]):
            return False
    return True
