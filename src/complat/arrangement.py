"""Central hyperplane arrangements over Q, exactly.

An arrangement is an ordered list of canonical covectors in Q^n. On top of
it live:

- sign vectors and the (finitely many) realizable cells,
- flats (intersections of hyperplanes) with maximal hyperplane sets,
- closed polyhedral cones, held in both descriptions at once: saturated
  constraint sets and extreme rays,
- the Tits composition x ↑ y of sign vectors.

Every cone takes one path. The kernel dd_cone, the classical incremental
double description method run on Fractions, turns constraints into a
lineality basis and pointed rays. canonical_rays turns those into the
canonical extreme-ray tuple: lineality as +/- pairs, pointed rays reduced
modulo lineality, so two equal cones always carry the identical tuple.
rays_of_constraints is these two steps in one. saturated_cone tests every
covector of an arrangement against the rays and returns the ArrCone.
split_rays and signed_constraints translate between ray tuples, sign
vectors and constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import CapExceeded, InvariantError
from .qlinalg import (
    IntVec,
    Scalar,
    Subspace,
    Vec,
    canonical_covector,
    dot,
    is_zero_vec,
    kernel,
    primitive,
    qvec,
    sign,
    span,
    vec_neg,
    vec_scale,
    vec_str,
    vec_sub,
    zero_vec,
)

CELL_COVECTOR_CAP = 20

SignVector = tuple[int, ...]


@dataclass(frozen=True)
class HyperplaneArrangement:
    """Ordered, duplicate-free list of canonical covectors in Q^dim."""

    covectors: tuple[IntVec, ...]
    dim: int

    def __post_init__(self):
        seen = set()
        for w in self.covectors:
            if len(w) != self.dim:
                raise ValueError(f"covector {w} does not match dim {self.dim}")
            if canonical_covector(w) != w:
                raise ValueError(f"covector {w} is not canonical")
            if w in seen:
                raise ValueError(f"duplicate covector {w}")
            seen.add(w)

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
    from .qlinalg import restrict_covector

    vecs = []
    for w in arr.covectors:
        r = restrict_covector(w, space)
        if r is not None:
            vecs.append(r)
    return from_vectors(vecs, space.dim)


@dataclass(frozen=True)
class Flat:
    """Intersection of hyperplanes: the subspace plus the maximal set of
    hyperplane indices containing it."""

    subspace: Subspace
    hyperplanes: IntVec

    @property
    def dim(self) -> int:
        return self.subspace.dim


def flats(arr: HyperplaneArrangement) -> tuple[Flat, ...]:
    """All flats, including the ambient space, by intersection closure."""
    from .qlinalg import full_space, intersect

    hyper = [kernel([w], arr.dim) for w in arr.covectors]
    found = {full_space(arr.dim)}
    frontier = list(found)
    while frontier:
        nxt = []
        for f in frontier:
            for h in hyper:
                g = intersect(f, h)
                if g not in found:
                    found.add(g)
                    nxt.append(g)
        frontier = nxt
    out = []
    for s in found:
        containing = tuple(
            i for i, w in enumerate(arr.covectors) if all(dot(w, b) == 0 for b in s.basis)
        )
        out.append(Flat(s, containing))
    out.sort(key=lambda f: (-f.dim, tuple(x for row in f.subspace.basis for x in row)))
    return tuple(out)


def minimal_flat_containing(arr: HyperplaneArrangement, space: Subspace) -> Flat:
    """The smallest flat containing the subspace.

    Hyperplanes containing the flat are exactly those containing the
    subspace, so no closure iteration is needed.
    """
    containing = tuple(
        i for i, w in enumerate(arr.covectors) if all(dot(w, b) == 0 for b in space.basis)
    )
    sub = kernel([arr.covectors[i] for i in containing], arr.dim)
    return Flat(sub, containing)


# -- double description -----------------------------------------------------


def _project_along(a: Sequence[Scalar], pivot: Vec, vecs: list[Vec]) -> list[Vec]:
    # send v to its image on {a = 0} along the pivot direction
    ap = dot(a, pivot)
    out = []
    for v in vecs:
        av = dot(a, v)
        out.append(v if av == 0 else vec_sub(v, vec_scale(av / ap, pivot)))
    return out


def dd_cone(
    equalities: Sequence[Sequence[Scalar]],
    inequalities: Sequence[Sequence[Scalar]],
    dim: int,
) -> tuple[list[Vec], list[Vec]]:
    """Double description of {v : a.v = 0 for eqs, a.v >= 0 for ineqs}.

    Returns (lineality_basis, pointed_rays): the cone is the span of the
    first list plus nonnegative combinations of the second, and the second
    is irredundant modulo the lineality space.
    """
    lin: list[Vec] = [qvec(row) for row in _identity(dim)]
    rays: list[Vec] = []
    processed: list[Vec] = []

    def tight(r: Vec) -> frozenset[int]:
        return frozenset(i for i, a in enumerate(processed) if dot(a, r) == 0)

    for raw in equalities:
        a = qvec(raw)
        if is_zero_vec(a):
            continue
        hit_i = next((i for i, l in enumerate(lin) if dot(a, l) != 0), None)
        if hit_i is not None:
            hit = lin.pop(hit_i)
            lin = _project_along(a, hit, lin)
            rays = _dedupe([_normalize_ray(r) for r in _project_along(a, hit, rays)])
        else:
            pos = [r for r in rays if dot(a, r) > 0]
            neg = [r for r in rays if dot(a, r) < 0]
            zero = [r for r in rays if dot(a, r) == 0]
            combos = _adjacent_combos(a, pos, neg, rays, tight)
            rays = _dedupe(zero + combos)

    for raw in inequalities:
        a = qvec(raw)
        if is_zero_vec(a):
            continue
        hit_i = next((i for i, l in enumerate(lin) if dot(a, l) != 0), None)
        if hit_i is not None:
            hit = lin.pop(hit_i)
            if dot(a, hit) < 0:
                hit = vec_neg(hit)
            lin = _project_along(a, hit, lin)
            rays = [_normalize_ray(r) for r in _project_along(a, hit, rays)]
            rays.append(_normalize_ray(hit))
            rays = _dedupe(rays)
        else:
            pos = [r for r in rays if dot(a, r) > 0]
            neg = [r for r in rays if dot(a, r) < 0]
            zero = [r for r in rays if dot(a, r) == 0]
            combos = _adjacent_combos(a, pos, neg, rays, tight)
            rays = _dedupe(pos + zero + combos)
        processed.append(a)

    return lin, rays


def _identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _normalize_ray(r: Vec) -> Vec:
    if is_zero_vec(r):
        return r
    return qvec(primitive(r))


def _dedupe(rays: list[Vec]) -> list[Vec]:
    out, seen = [], set()
    for r in rays:
        if is_zero_vec(r):
            continue
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _adjacent_combos(a: Vec, pos: list[Vec], neg: list[Vec], rays: list[Vec], tight) -> list[Vec]:
    combos = []
    for p in pos:
        tp = tight(p)
        for n in neg:
            common = tp & tight(n)
            blocked = any(
                r is not p and r is not n and common <= tight(r) for r in rays
            )
            if blocked:
                continue
            w = vec_sub(vec_scale(dot(a, p), n), vec_scale(dot(a, n), p))
            combos.append(_normalize_ray(w))
    return combos


def canonical_rays(lin: Sequence[Vec], rays: Sequence[Vec], dim: int) -> tuple[IntVec, ...]:
    """Canonical extreme-ray tuple of span(lin) + cone(rays), for rays
    irredundant modulo span(lin): +/- primitive lineality basis rows plus
    pointed rays reduced modulo the lineality space, sorted."""
    lspace = span(lin, dim)
    out: set[IntVec] = set()
    for b in lspace.basis:
        p = primitive(b)
        out.add(p)
        out.add(vec_neg(p))
    for r in rays:
        rr = lspace.reduce(r)
        if is_zero_vec(rr):
            raise InvariantError(
                f"pointed ray {vec_str(r)} of rays {vec_str(*rays)} collapsed "
                f"into the lineality space spanned by {vec_str(*lspace.basis)}"
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


def signed_constraints(
    covectors: Sequence[IntVec], signs: Sequence[int]
) -> tuple[list[IntVec], list[Vec]]:
    """(equalities, inequalities) of the closed cell with the given signs:
    w = 0 where the sign is 0, s * w >= 0 elsewhere."""
    eqs = [w for w, s in zip(covectors, signs) if s == 0]
    return eqs, [vec_scale(s, w) for w, s in zip(covectors, signs) if s != 0]


@dataclass(frozen=True)
class ArrCone:
    """Closed cone cut out by covector constraints of an arrangement.

    zero_set: indices of covectors vanishing identically on the cone.
    nonneg_set: (index, sign) pairs with sign * covector >= 0 on the cone
      and not identically zero; together the two sets are saturated, i.e.
      every constraint valid on the cone is recorded.
    extreme_rays: canonical generating rays (lineality appears as +/- pairs).
    """

    zero_set: IntVec
    nonneg_set: tuple[tuple[int, int], ...]
    extreme_rays: tuple[IntVec, ...]
    dim: int

    @property
    def lineality_rays(self) -> tuple[IntVec, ...]:
        return split_rays(self.extreme_rays)[0]

    @property
    def pointed_rays(self) -> tuple[IntVec, ...]:
        return split_rays(self.extreme_rays)[1]

    def contains_point(self, arr: HyperplaneArrangement, v: Sequence[Scalar]) -> bool:
        return all(dot(arr.covectors[i], v) == 0 for i in self.zero_set) and all(
            s * dot(arr.covectors[i], v) >= 0 for i, s in self.nonneg_set
        )


def saturated_cone(arr: HyperplaneArrangement, rays: Sequence[IntVec]) -> ArrCone:
    """ArrCone of the cone generated by canonical rays (as produced by
    canonical_rays or rays_of_constraints). Every covector is tested
    against every ray, so the constraint sets come out saturated."""
    zero, nn = [], []
    for i, w in enumerate(arr.covectors):
        vals = [dot(w, r) for r in rays]
        if all(v == 0 for v in vals):
            zero.append(i)
        elif all(v >= 0 for v in vals):
            nn.append((i, 1))
        elif all(v <= 0 for v in vals):
            nn.append((i, -1))
    return ArrCone(tuple(zero), tuple(nn), tuple(rays), span(rays, arr.dim).dim)


# -- cells -------------------------------------------------------------------


def _strict_witness(covectors: Sequence[IntVec], s: SignVector, dim: int) -> Optional[Vec]:
    """Interior point with exactly the prescribed signs, or None.

    The closed cell is the cone with >= in place of >; the relatively open
    cell is nonempty iff every strict constraint is positive on some extreme
    ray, and then the sum of the pointed rays is a witness.
    """
    _, pointed = split_rays(rays_of_constraints(*signed_constraints(covectors, s), dim))
    for w, si in zip(covectors, s):
        if si != 0 and not any(si * dot(w, r) > 0 for r in pointed):
            return None
    total = qvec(map(sum, zip(*pointed))) if pointed else zero_vec(dim)
    got = tuple(sign(dot(w, total)) for w in covectors)
    if got != tuple(s):
        raise InvariantError(f"witness {vec_str(total)} of sign vector {s} has signs {got}")
    return total


def realizable(arr: HyperplaneArrangement, s: SignVector) -> bool:
    """Exact emptiness test for the relatively open region with signs s."""
    if len(s) != arr.size:
        raise ValueError("sign vector length does not match arrangement")
    if any(x not in (-1, 0, 1) for x in s):
        raise ValueError("sign vector entries must be -1, 0, or 1")
    return _strict_witness(arr.covectors, s, arr.dim) is not None


def cells(arr: HyperplaneArrangement, cap: int = CELL_COVECTOR_CAP) -> tuple[SignVector, ...]:
    """All realizable sign vectors, by incremental hyperplane insertion.

    Each existing cell is split against the next covector; candidate signs
    other than the witness's own are kept only if exactly realizable.
    """
    if arr.size > cap:
        raise CapExceeded(f"cells: {arr.size} covectors exceeds cap {cap}")
    state: list[tuple[SignVector, Vec]] = [((), zero_vec(arr.dim))]
    for k in range(arr.size):
        covs = arr.covectors[: k + 1]
        w = arr.covectors[k]
        nxt: list[tuple[SignVector, Vec]] = []
        for s, p in state:
            e = sign(dot(w, p))
            nxt.append((s + (e,), p))
            for e2 in (-1, 0, 1):
                if e2 == e:
                    continue
                s2 = s + (e2,)
                witness = _strict_witness(covs, s2, arr.dim)
                if witness is not None:
                    nxt.append((s2, witness))
        state = nxt
    return tuple(sorted(s for s, _ in state))


def chambers(arr: HyperplaneArrangement, cap: int = CELL_COVECTOR_CAP) -> tuple[SignVector, ...]:
    """Cells with no zero coordinate (full-dimensional cells)."""
    return tuple(s for s in cells(arr, cap) if 0 not in s)


def witness_point(arr: HyperplaneArrangement, s: SignVector) -> Vec:
    """A rational point with exactly the signs s (must be realizable)."""
    w = _strict_witness(arr.covectors, s, arr.dim)
    if w is None:
        raise ValueError(f"sign vector {s} is not realizable")
    return w


# -- Tits composition --------------------------------------------------------


def tits_compose(x: SignVector, y: SignVector) -> SignVector:
    """x ↑ y: keep x where nonzero, else fall back to y.

    On realizable sign vectors this is the face composition: the cell
    reached from x by an infinitesimal step toward y.
    """
    if len(x) != len(y):
        raise ValueError("sign vectors of different lengths")
    return tuple(a if a != 0 else b for a, b in zip(x, y))
