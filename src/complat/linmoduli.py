"""Quiver representations over small finite fields and decomposition
combinatorics of dimension vectors.

The counting side is exact and brute-force: field arithmetic is
table-driven, every representation of a dimension vector is enumerated,
isomorphism classes come from an orbit sweep that closes each orbit under
a generating set of the base-change group (transvections plus one diagonal
matrix per vertex, each a row operation on the arrows into its vertex and
a column operation on those out of it), and Hall numbers count actual
subrepresentations. Each representation's subrepresentations of one
dimension vector are enumerated once per process, and that enumeration is
shared by the Hall tables, which count them by the classes of sub and
quotient so a Hall product is a sparse sum, and by the flag tables that
check associativity, which count chains directly and never read a Hall
table or a product. Everything is guarded by caps and enumerated in
lexicographic order, so results are deterministic and independent of the
process.

The combinatorial side mirrors the geometry of the moduli of objects: the
special faces of the stack of representations with dimension vector gamma
are the multiset decompositions of gamma, and ordered tuples of nonzero
dimension vectors form a category under ordered refinement. The
correspondence with the flats of the associated linear quotient model is
checked by cross_check_special_faces.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .category import FiniteCategory, check_laws
from .errors import CapExceeded, InvariantError, SpecError
from .jsonio import canonical_json, check_document, document_digest

SWEEP_CAP = 10_000_000

DimVector = tuple[int, ...]
GFMatrix = tuple[tuple[int, ...], ...]
Rep = tuple[GFMatrix, ...]
GFSubspace = tuple[GFMatrix, tuple[int, ...]]  # RREF rows plus their pivot columns
ClassRef = tuple[DimVector, int]
ElementaryOp = tuple[int, int, int]  # (i, j, a): the identity matrix with entry (i, j) set to a

# irreducible polynomials (coefficients low to high, monic) for the
# supported non-prime field sizes
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
}


class GF:
    """Arithmetic tables for a finite field of order q.

    Elements are the integers 0..q-1. For a prime power p^k the element
    sum(c_i * p^i) stands for the polynomial sum(c_i * x^i) modulo a fixed
    irreducible, so 0 and 1 are always the additive and multiplicative
    units. The q x q tables are held to SWEEP_CAP before any work on q.
    """

    def __init__(self, q: int):
        if q < 2:
            raise SpecError(f"field size must be at least 2, got {q}")
        if q * q > SWEEP_CAP:
            raise CapExceeded(f"field size {q}: its {q} x {q} arithmetic tables exceed cap {SWEEP_CAP}")
        p = next((d for d in range(2, q + 1) if q % d == 0), q)
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        if m != 1:
            raise SpecError(f"field size must be a prime power, got {q}")
        if k > 1 and q not in _IRREDUCIBLE:
            raise SpecError(f"unsupported field size {q}")
        self.q = q
        self.p = p

        def digits(a):
            out = []
            for _ in range(k):
                out.append(a % p)
                a //= p
            return out

        def undigits(cs):
            a = 0
            for c in reversed(cs):
                a = a * p + c
            return a

        def poly_mul(a, b):
            da, db = digits(a), digits(b)
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
            if k > 1:
                red = _IRREDUCIBLE[q]
                for i in range(len(prod) - 1, k - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j, cj in enumerate(red[:-1]):
                            prod[i - k + j] = (prod[i - k + j] - c * cj) % p
            return undigits(prod[:k])

        self._add = tuple(
            tuple(undigits([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q))
            for a in range(q)
        )
        self._mul = tuple(tuple(poly_mul(a, b) for b in range(q)) for a in range(q))
        self._neg = tuple(undigits([(-x) % p for x in digits(a)]) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if self._mul[a][b] == 1)
        self._inv = tuple(inv)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._inv[a]

    @property
    def elements(self) -> range:
        return range(self.q)


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


# -- matrices over GF(q) --------------------------------------------------------


def gf_mat_vec(F: GF, m: GFMatrix, v: Sequence[int]) -> tuple[int, ...]:
    add, mul = F._add, F._mul
    out = []
    for row in m:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = add[acc][mul[x][y]]
        out.append(acc)
    return tuple(out)


def gf_rref(F: GF, rows: Sequence[Sequence[int]], width: int) -> GFSubspace:
    work = [list(r) for r in rows]
    out: list[list[int]] = []
    pivots: list[int] = []
    col = 0
    r = 0
    while col < width:
        pr = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pr is None:
            col += 1
            continue
        work[r], work[pr] = work[pr], work[r]
        c = F.inv(work[r][col])
        work[r] = [F.mul(c, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        col += 1
    out = work[:r]
    return tuple(tuple(row) for row in out), tuple(pivots)


def gf_reduce(F: GF, rows: GFMatrix, pivots: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """v minus its projection onto the RREF rows; zero iff v is in the span."""
    w = list(v)
    for row, p in zip(rows, pivots):
        c = w[p]
        if c:
            for j, x in enumerate(row):
                if x:
                    w[j] = F.sub(w[j], F.mul(c, x))
    return tuple(w)


@lru_cache(maxsize=None)
def all_subspaces(q: int, n: int) -> tuple[GFSubspace, ...]:
    """Every subspace of F_q^n as an RREF row basis with its pivots."""
    F = gf(q)
    out: list[GFSubspace] = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, n)
                if j not in pivots
            ]
            for values in itertools.product(F.elements, repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                out.append((tuple(tuple(r) for r in rows), pivots))
    return tuple(sorted(out))


# -- quivers and representations -------------------------------------------------


class Quiver(namedtuple("Quiver", "vertices arrows")):
    """A finite quiver: a tuple of vertex names, and a tuple of arrows, each
    a (source, target) pair of vertex indices; arrows may repeat or loop."""

    __slots__ = ()

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def load_quiver(doc: dict) -> Quiver:
    """Validate and load a quiver document (strict schema)."""
    check_document(doc, "quiver", "quiver", ("vertices", "arrows"))
    verts = doc["vertices"]
    if (
        not isinstance(verts, (list, tuple))
        or not verts
        or not all(isinstance(v, str) for v in verts)
    ):
        raise SpecError("vertices must be a nonempty list of names")
    if len(set(verts)) != len(verts):
        raise SpecError("vertex names must be distinct")
    if not isinstance(doc["arrows"], (list, tuple)):
        raise SpecError("arrows must be a list")
    index = {v: i for i, v in enumerate(verts)}
    arrows = []
    for a in doc["arrows"]:
        ends = a if isinstance(a, (list, tuple)) else ()
        if len(ends) != 2 or not all(isinstance(v, str) and v in index for v in ends):
            raise SpecError(f"arrow must be a pair of vertex names, got {a!r}")
        arrows.append((index[a[0]], index[a[1]]))
    return Quiver(tuple(verts), tuple(arrows))


def _check_gamma(quiver: Quiver, gamma: Sequence[int]) -> DimVector:
    gamma = tuple(gamma)
    if len(gamma) != quiver.n_vertices or any(
        not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in gamma
    ):
        raise SpecError(f"dimension vector must be {quiver.n_vertices} nonnegative ints")
    return gamma


def rep_space_dim(quiver: Quiver, gamma: Sequence[int]) -> int:
    gamma = _check_gamma(quiver, gamma)
    return sum(gamma[s] * gamma[t] for s, t in quiver.arrows)


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def stacky_count(quiver: Quiver, gamma: Sequence[int], q: int) -> Fraction:
    """Groupoid cardinality of representations with this dimension vector:
    the point count of the space divided by the order of the base-change
    group."""
    gamma = _check_gamma(quiver, gamma)
    gf(q)
    denom = 1
    for g in gamma:
        denom *= gl_order(g, q)
    return Fraction(q ** rep_space_dim(quiver, gamma), denom)


def _all_matrices(q: int, n_rows: int, n_cols: int) -> Iterator[GFMatrix]:
    rows = itertools.product(range(q), repeat=n_cols)
    for flat in itertools.product(rows, repeat=n_rows):
        yield flat


def all_reps(quiver: Quiver, gamma: Sequence[int], q: int) -> Iterator[Rep]:
    """Every representation, lexicographically."""
    gamma = _check_gamma(quiver, gamma)
    per_arrow = [tuple(_all_matrices(q, gamma[t], gamma[s])) for s, t in quiver.arrows]
    for combo in itertools.product(*per_arrow):
        yield combo


def _primitive_element(F: GF) -> int:
    """The least element generating the multiplicative group of F."""

    def order(w):
        k, x = 1, w
        while x != 1:
            k, x = k + 1, F.mul(x, w)
        return k

    return next(w for w in range(1, F.q) if order(w) == F.q - 1)


@lru_cache(maxsize=None)
def _gl_generators(q: int, n: int) -> tuple[ElementaryOp, ...]:
    """A generating set of GL_n(F_q) as elementary operations.

    The transvections I + E_ij, as (i, j, 1) for i != j, and
    diag(w, 1, ..., 1) for a primitive element w, as (0, 0, w); the
    diagonal is left out for q = 2, where it is the identity.
    Conjugating I + E_1j by powers of diag(w, 1, ..., 1) gives
    I + w^k*E_1j (likewise for E_i1), and products of these give
    I + a*E_1j for every a in F_q, since sums of powers of w cover F_q.
    Commutators of those give every I + a*E_ij, which generate SL_n(F_q);
    the diagonal adds the determinants.
    """
    out = [(i, j, 1) for i in range(n) for j in range(n) if i != j]
    if n and q > 2:
        out.append((0, 0, _primitive_element(gf(q))))
    return tuple(out)


def _act(quiver: Quiver, F: GF, v: int, op: ElementaryOp, rep: Rep) -> Rep:
    """The base change by one elementary operation g at vertex v: the row
    operation g m on each arrow into v, the column operation m g^-1 on each
    arrow out of v, both on a loop. Other arrows and empty matrices pass
    through unchanged.

    With g = I + c*E_ij and g^-1 = I + d*E_ij, g m adds c times row j to
    row i and m g^-1 adds d times column i to column j: c = a and d = -a
    for i != j, and c = a - 1 and d = 1/a - 1 for i == j.
    """
    i, j, a = op
    c, d = (a, F.neg(a)) if i != j else (F.sub(a, 1), F.sub(F.inv(a), 1))
    add, times_c, times_d = F._add, F._mul[c], F._mul[d]
    out = []
    for m, (s, t) in zip(rep, quiver.arrows):
        if m and m[0]:
            if t == v:
                m = m[:i] + (tuple(add[x][times_c[y]] for x, y in zip(m[i], m[j])),) + m[i + 1 :]
            if s == v:
                m = tuple(r[:j] + (add[r[j]][times_d[r[i]]],) + r[j + 1 :] for r in m)
        out.append(m)
    return tuple(out)


def _cache_path(quiver: Quiver, gamma: DimVector, q: int) -> Optional[str]:
    """Where the class data of a sweep persists across processes: in the
    directory COMPONENT_LATTICE_CACHE names when this is called, or nowhere
    when it is unset or empty.

    The cache is an optimization only: results are identical with or
    without it, an unreadable or stale entry is silently recomputed, and a
    request over the sweep cap fails whether or not it is cached.
    """
    directory = os.environ.get("COMPONENT_LATTICE_CACHE")
    if not directory:
        return None
    key = document_digest(
        {
            "vertices": list(quiver.vertices),
            "arrows": [list(a) for a in quiver.arrows],
            "gamma": list(gamma),
            "q": q,
        }
    )
    return os.path.join(directory, f"classes-{key}.json")


def _deep_rep(data) -> Rep:
    return tuple(tuple(tuple(int(x) for x in row) for row in m) for m in data)


def _cache_load(quiver: Quiver, gamma: DimVector, q: int) -> Optional["IsoClasses"]:
    path = _cache_path(quiver, gamma, q)
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        reps = tuple(_deep_rep(r) for r in data["reps"])
        classes = IsoClasses(
            quiver,
            gamma,
            q,
            reps,
            tuple(int(n) for n in data["orbit_sizes"]),
            tuple(int(n) for n in data["aut_orders"]),
            int(data["group_order"]),
            {_deep_rep(r): int(i) for r, i in data["class_of"]},
        )
        if sum(Fraction(1, a) for a in classes.aut_orders) != stacky_count(quiver, gamma, q):
            return None
        if len(classes.class_of) != sum(classes.orbit_sizes):
            return None
        return classes
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_store(classes: "IsoClasses") -> None:
    path = _cache_path(classes.quiver, classes.gamma, classes.q)
    if path is None:
        return
    doc = {
        "reps": list(classes.reps),
        "orbit_sizes": list(classes.orbit_sizes),
        "aut_orders": list(classes.aut_orders),
        "group_order": classes.group_order,
        "class_of": sorted((rep, idx) for rep, idx in classes.class_of.items()),
    }
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc) + "\n")
        os.replace(tmp, path)
    except OSError:
        pass


class IsoClasses(
    namedtuple("IsoClasses", "quiver gamma q reps orbit_sizes aut_orders group_order class_of")
):
    """The isomorphism classes of representations of one dimension vector
    gamma of the quiver over F_q: lexicographically least representatives
    (a tuple of Rep), orbit and automorphism-group sizes (tuples of int),
    the order of the group, and class_of, a dict from every representation
    to its class index."""

    __slots__ = ()


def _end_dim(quiver: Quiver, F: GF, gamma: DimVector, rep: Rep) -> int:
    """Dimension of the endomorphism algebra of a representation: the
    tuples of vertex matrices (phi_v) with phi_t m = m phi_s on every
    arrow s -> t with matrix m."""
    offsets = list(itertools.accumulate((n * n for n in gamma), initial=0))
    equations = []
    for m, (s, t) in zip(rep, quiver.arrows):
        for r in range(gamma[t]):
            for c in range(gamma[s]):
                row = [0] * offsets[-1]
                for k in range(gamma[t]):  # (phi_t m)[r][c]
                    x = offsets[t] + r * gamma[t] + k
                    row[x] = F.add(row[x], m[k][c])
                for k in range(gamma[s]):  # (m phi_s)[r][c]
                    x = offsets[s] + k * gamma[s] + c
                    row[x] = F.sub(row[x], m[r][k])
                equations.append(row)
    return offsets[-1] - len(gf_rref(F, equations, offsets[-1])[1])


@lru_cache(maxsize=None)
def iso_classes(quiver: Quiver, gamma: DimVector, q: int) -> IsoClasses:
    """Orbit sweep of the base-change action by generators.

    Representations are visited lexicographically; each one not yet
    classified starts a new class and its orbit is closed breadth-first
    under a generating set of the group: each elementary generator of
    GL(gamma_v, F_q) at each vertex v, applied by _act as row and column
    operations on the arrows at v. The work is (number of representations)
    x (number of generators). The cap is still checked against (number of
    representations) x (group order) before starting, so the same requests
    are refused as by a sweep over the whole group.

    Each class is checked explicitly, so the checks also run under
    python -O: its representative is the lex-least member, its orbit size
    divides the group order, and the automorphism order it implies fits
    inside the endomorphism algebra (an orbit closed under too few
    generators comes out too small and fails this). The mass of the
    classes, each weighted by 1/|Aut|, must equal the stacky count.
    Failures raise InvariantError.
    """
    gamma = _check_gamma(quiver, gamma)
    F = gf(q)
    n_reps = q ** rep_space_dim(quiver, gamma)
    group_order = 1
    for g in gamma:
        group_order *= gl_order(g, q)
    if n_reps * group_order > SWEEP_CAP:
        raise CapExceeded(
            f"orbit sweep of {n_reps} representations x group of {group_order} exceeds cap {SWEEP_CAP}"
        )
    cached = _cache_load(quiver, gamma, q)
    if cached is not None:
        return cached
    generators = [(v, op) for v, n in enumerate(gamma) for op in _gl_generators(q, n)]
    where = f"gamma={list(gamma)} q={q}"
    class_of: dict = {}
    reps: list[Rep] = []
    orbit_sizes: list[int] = []
    aut_orders: list[int] = []
    for rep in all_reps(quiver, gamma, q):
        if rep in class_of:
            continue
        idx = len(reps)
        orbit = [rep]
        seen = {rep}
        for member in orbit:  # the list grows while it is scanned
            for v, op in generators:
                image = _act(quiver, F, v, op, member)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        for member in orbit:
            class_of[member] = idx
        if min(orbit) != rep:
            raise InvariantError(f"{where}: {rep} is not lex-least in its orbit")
        if group_order % len(orbit):
            raise InvariantError(
                f"{where}: orbit of {rep} has {len(orbit)} members, "
                f"which does not divide the group order {group_order}"
            )
        aut_order = group_order // len(orbit)
        end_size = q ** _end_dim(quiver, F, gamma, rep)
        if aut_order > end_size:
            raise InvariantError(
                f"{where}: orbit of {rep} has {len(orbit)} members, so |Aut| = {aut_order} "
                f"exceeds the {end_size} elements of its endomorphism algebra"
            )
        reps.append(rep)
        orbit_sizes.append(len(orbit))
        aut_orders.append(aut_order)
    mass = sum(Fraction(1, a) for a in aut_orders)
    if mass != stacky_count(quiver, gamma, q):
        raise InvariantError(
            f"{where}: class mass {mass} differs from the stacky count "
            f"{stacky_count(quiver, gamma, q)}"
        )
    out = IsoClasses(
        quiver, gamma, q, tuple(reps), tuple(orbit_sizes), tuple(aut_orders), group_order, class_of
    )
    _cache_store(out)
    return out


# -- subrepresentations and Hall numbers ------------------------------------------


def subrep_spaces(
    quiver: Quiver, rep: Rep, gamma: DimVector, q: int, sub: DimVector
) -> Iterator[tuple[GFSubspace, ...]]:
    """All invariant tuples of subspaces (one per vertex) of a
    representation with dimension vector sub."""
    F = gf(q)
    per_vertex = [[sp for sp in all_subspaces(q, n) if len(sp[0]) == k] for n, k in zip(gamma, sub)]
    for spaces in itertools.product(*per_vertex):
        ok = True
        for m, (s, t) in zip(rep, quiver.arrows):
            rows_t, piv_t = spaces[t]
            for b in spaces[s][0]:
                if any(gf_reduce(F, rows_t, piv_t, gf_mat_vec(F, m, b))):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield spaces


def sub_rep(quiver: Quiver, rep: Rep, spaces: Sequence[GFSubspace], q: int) -> Rep:
    """The induced representation on an invariant tuple of subspaces, in
    their RREF bases; coordinates are pivot reads."""
    F = gf(q)
    out = []
    for m, (s, t) in zip(rep, quiver.arrows):
        rows_s = spaces[s][0]
        piv_t = spaces[t][1]
        cols = []
        for b in rows_s:
            image = gf_mat_vec(F, m, b)
            cols.append(tuple(image[p] for p in piv_t))
        out.append(tuple(tuple(col[i] for col in cols) for i in range(len(piv_t))))
    return tuple(out)


def quotient_rep(
    quiver: Quiver, gamma: DimVector, rep: Rep, spaces: Sequence[GFSubspace], q: int
) -> Rep:
    """The induced representation on the quotients, in the bases given by
    the non-pivot coordinates."""
    F = gf(q)
    nonpiv = [
        [j for j in range(gamma[v]) if j not in spaces[v][1]] for v in range(quiver.n_vertices)
    ]
    out = []
    for m, (s, t) in zip(rep, quiver.arrows):
        rows_t, piv_t = spaces[t]
        cols = []
        for j in nonpiv[s]:
            image = tuple(row[j] for row in m)
            red = gf_reduce(F, rows_t, piv_t, image)
            cols.append(tuple(red[jj] for jj in nonpiv[t]))
        out.append(tuple(tuple(col[i] for col in cols) for i in range(len(nonpiv[t]))))
    return tuple(out)


def count_subreps_by_dim(quiver: Quiver, q: int, ref: ClassRef) -> dict[DimVector, int]:
    """Subrepresentation counts of a class representative, by dimension
    vector. On the one-vertex arrowless quiver these are the Gaussian
    binomial coefficients."""
    gamma, idx = ref
    classes = iso_classes(quiver, gamma, q)
    counts = {
        sub: sum(1 for _ in subrep_spaces(quiver, classes.reps[idx], gamma, q, sub))
        for sub in itertools.product(*(range(g + 1) for g in gamma))
    }
    return {sub: n for sub, n in counts.items() if n}


def class_refs(quiver: Quiver, q: int, gamma: Sequence[int]) -> list[ClassRef]:
    gamma = _check_gamma(quiver, gamma)
    return [(gamma, i) for i in range(len(iso_classes(quiver, gamma, q).reps))]


def _class_index(classes: IsoClasses, rep: Rep, where: str) -> int:
    """The class of a representation in the sweep of its dimension vector.
    Every representation is in its sweep, so a miss is a broken sweep."""
    idx = classes.class_of.get(rep)
    if idx is None:
        raise InvariantError(
            f"{where}: representation {rep} is missing from the classes of "
            f"gamma={list(classes.gamma)} q={classes.q}"
        )
    return idx


@lru_cache(maxsize=None)
def _subreps(quiver: Quiver, q: int, rep: Rep, gamma: DimVector, sub: DimVector) -> tuple[tuple[Rep, Rep], ...]:
    """The (sub, quotient) representations of every invariant subspace
    tuple of rep with dimension vector sub, in subrep_spaces order. The key
    is the literal representation, not its class: one met as a class
    representative and as the middle of a flag is enumerated once."""
    return tuple(
        (sub_rep(quiver, rep, spaces, q), quotient_rep(quiver, gamma, rep, spaces, q))
        for spaces in subrep_spaces(quiver, rep, gamma, q, sub)
    )


@lru_cache(maxsize=None)
def _hall_table(quiver: Quiver, q: int, gamma: DimVector, sub: DimVector) -> tuple[Counter, ...]:
    """For each class of gamma, its subrepresentations of dimension vector
    sub counted by (quotient class, sub class), each an index into the
    classes of its own dimension vector, read from the enumeration _subreps
    shares with the flag tables. One table serves every convolution of
    classes of these dimension vectors; callers must not mutate it."""
    quot = tuple(g - k for g, k in zip(gamma, sub))
    whole = iso_classes(quiver, gamma, q)
    subs = iso_classes(quiver, sub, q)
    quots = iso_classes(quiver, quot, q)
    where = f"Hall table of gamma={list(gamma)} sub={list(sub)} q={q}"
    table = []
    for rep in whole.reps:
        counts: Counter = Counter()
        for low, top in _subreps(quiver, q, rep, gamma, sub):
            sc = _class_index(subs, low, where)
            qc = _class_index(quots, top, where)
            counts[qc, sc] += 1
        table.append(counts)
    return tuple(table)


def hall_product(quiver: Quiver, q: int, f: dict, g: dict) -> dict:
    """Convolution of class functions: (f*g)(L) = sum over subreps S of L
    of f(L/S) * g(S). f and g map ClassRef -> value; zero results are
    dropped. The counts come from the table of each pair of dimension
    vectors (_hall_table), so a call is a sparse sum over the class pairs
    that occur."""
    out: dict = {}
    for df in sorted({ref[0] for ref in f}):
        for dg in sorted({ref[0] for ref in g}):
            gamma = tuple(a + b for a, b in zip(df, dg))
            for li, counts in enumerate(_hall_table(quiver, q, gamma, dg)):
                total = 0
                for (qc, sc), n in counts.items():
                    total += f.get((df, qc), 0) * g.get((dg, sc), 0) * n
                if total:
                    ref = (gamma, li)
                    out[ref] = out.get(ref, 0) + total
    return {k: v for k, v in out.items() if v}


def dim_vectors(n: int, total: int) -> list[DimVector]:
    """All length-n vectors of nonnegative ints summing to total."""
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in dim_vectors(n - 1, total - first):
            out.append((first,) + rest)
    return out


def _triples_within(
    refs: Sequence[ClassRef], max_total: int
) -> Iterator[tuple[ClassRef, ClassRef, ClassRef]]:
    """The triples of refs of total dimension at most max_total, in the
    order of itertools.product; refs must be sorted by total dimension."""
    sizes = [sum(ref[0]) for ref in refs]
    for ra, na in zip(refs, sizes):
        for rb, nb in zip(refs, sizes):
            if na + nb > max_total:
                break
            for rc, nc in zip(refs, sizes):
                if na + nb + nc > max_total:
                    break
                yield ra, rb, rc


def verify_counting_hall(quiver: Quiver, q: int, max_total: int) -> dict:
    """Associativity of the convolution on every triple of classes with
    total dimension at most max_total, cross-checked against direct
    two-step flag counts. The product of each pair of classes is computed
    once per run. Both sides read the subrepresentations that _subreps
    enumerates once per process, and the flags are still counted
    independently: as chains, never through a Hall table or a product.
    A failing report names the first failing triple, and either both sides
    (left, right: sorted (class ref, coefficient) pairs) or the class whose
    flag count differs from the left side."""
    refs: list[ClassRef] = []
    for total in range(max_total + 1):
        for gamma in dim_vectors(quiver.n_vertices, total):
            refs.extend(class_refs(quiver, q, gamma))
    pair = lru_cache(maxsize=None)(lambda x, y: hall_product(quiver, q, {x: 1}, {y: 1}))
    triples = 0
    flag_checks = 0
    for ra, rb, rc in _triples_within(refs, max_total):
        triples += 1
        left = hall_product(quiver, q, pair(ra, rb), {rc: 1})
        right = hall_product(quiver, q, {ra: 1}, pair(rb, rc))
        if left != right:
            sides = {"left": sorted(left.items()), "right": sorted(right.items())}
            return {"ok": False, "triple": (ra, rb, rc), **sides}
        gamma = tuple(x + y + z for x, y, z in zip(ra[0], rb[0], rc[0]))
        whole = iso_classes(quiver, gamma, q)
        for li in range(len(whole.reps)):
            flags = _count_flags(quiver, q, li, ra, rb, rc)
            if flags != left.get((gamma, li), 0):
                return {"ok": False, "triple": (ra, rb, rc), "class": (gamma, li), "flags": flags}
            flag_checks += 1
    return {"ok": True, "classes": len(refs), "triples": triples, "flag_checks": flag_checks}


@lru_cache(maxsize=None)
def _flag_table(
    quiver: Quiver, q: int, da: DimVector, db: DimVector, dc: DimVector
) -> tuple[Counter, ...]:
    """For each class L of da + db + dc, its chains S1 <= S2 <= L with S1
    of dimension vector dc and S2/S1 of db, counted by the classes (a, b, c)
    of L/S2, S2/S1 and S1. Inner subspaces are enumerated inside S2 written
    in its own basis, which identifies them with subspaces of L: the inner
    read of _subreps is keyed on that literal S2, never on its class
    representative. The chains are counted directly, never through
    _hall_table or a product; they share only the enumeration."""
    mid_gamma = tuple(b + c for b, c in zip(db, dc))
    gamma = tuple(a + m for a, m in zip(da, mid_gamma))
    whole = iso_classes(quiver, gamma, q)
    quots_a = iso_classes(quiver, da, q)
    subs_c = iso_classes(quiver, dc, q)
    quots_b = iso_classes(quiver, db, q)
    where = f"flag table of gamma={list(gamma)} q={q}"
    table = []
    for rep in whole.reps:
        counts: Counter = Counter()
        for mid, top in _subreps(quiver, q, rep, gamma, mid_gamma):
            a = _class_index(quots_a, top, where)
            for low, between in _subreps(quiver, q, mid, mid_gamma, dc):
                c = _class_index(subs_c, low, where)
                b = _class_index(quots_b, between, where)
                counts[a, b, c] += 1
        table.append(counts)
    return tuple(table)


def _count_flags(quiver: Quiver, q: int, li: int, ra: ClassRef, rb: ClassRef, rc: ClassRef) -> int:
    """Chains S1 <= S2 <= L, for L the class li of the total dimension
    vector, with S1 of class rc, S2/S1 of class rb and L/S2 of class ra.
    Read from the flag table of the three dimension vectors, which counts
    chains once per triple of dimension vectors, from the subrepresentations
    enumerated once per process, and never through a Hall table."""
    return _flag_table(quiver, q, ra[0], rb[0], rc[0])[li].get((ra[1], rb[1], rc[1]), 0)


# -- decomposition combinatorics ---------------------------------------------------


def multiset_decompositions(gamma: Sequence[int]) -> tuple[tuple[DimVector, ...], ...]:
    """All multisets of nonzero dimension vectors summing to gamma, each
    as a tuple with parts in nonincreasing order."""
    gamma = tuple(gamma)
    if any(not isinstance(x, int) or x < 0 for x in gamma):
        raise SpecError("dimension vector entries must be nonnegative ints")

    def nonzero_parts(bound):
        for v in itertools.product(*(range(b + 1) for b in bound)):
            if any(v):
                yield v

    def rec(remaining, max_part):
        if not any(remaining):
            yield ()
            return
        for part in nonzero_parts(remaining):
            if part > max_part:
                continue
            rest = tuple(r - p for r, p in zip(remaining, part))
            for tail in rec(rest, part):
                yield (part,) + tail

    return tuple(sorted(rec(gamma, gamma)))


class LmsMorphism(namedtuple("LmsMorphism", "source target orders")):
    """An ordered refinement from object index source to object index
    target: orders holds, for each source index, the ordered tuple of
    target indices whose dimension vectors sum to it."""

    __slots__ = ()


def hall_category_lms(n_vertices: int, max_total: int) -> FiniteCategory:
    """The category of ordered tuples of nonzero dimension vectors with
    total dimension at most max_total.

    A morphism refines each source entry into an ordered run of target
    entries; composition concatenates runs. Objects are never merged;
    `identification` reports how many of them forgetting order would merge.

    The morphisms out of each source are generated, not searched for: split
    every source entry into an ordered composition of nonzero vectors, then
    place all the parts at distinct target positions. The placement fixes
    the target tuple and, for each source entry, the run of positions its
    parts took, so every morphism arises exactly once and none is rejected.

    A composite is the plain (source, target, orders) tuple, which hashes
    and compares equal to the LmsMorphism it names, so the table fill looks
    it up with no record built; a one-element block takes the second
    morphism's run tuple as it is.
    """
    vectors = [v for t in range(1, max_total + 1) for v in dim_vectors(n_vertices, t)]
    vectors = [v for v in vectors if any(v)]
    objects: list[tuple[DimVector, ...]] = [()]
    frontier: list[tuple[DimVector, ...]] = [()]
    while frontier:
        nxt = []
        for obj in frontier:
            used = sum(sum(v) for v in obj)
            for v in vectors:
                if used + sum(v) <= max_total:
                    nxt.append(obj + (v,))
        objects.extend(nxt)
        frontier = nxt
    objects.sort()
    index = {obj: i for i, obj in enumerate(objects)}

    splits: dict[DimVector, list[tuple[DimVector, ...]]] = {}

    def compositions(v: DimVector) -> list[tuple[DimVector, ...]]:
        """The ordered compositions of v into nonzero vectors."""
        if v not in splits:
            splits[v] = [(v,)] + [
                (p,) + rest
                for p in vectors
                if p != v and all(x <= y for x, y in zip(p, v))
                for rest in compositions(tuple(y - x for x, y in zip(p, v)))
            ]
        return splits[v]

    morphisms: list[LmsMorphism] = []
    for si, a in enumerate(objects):
        for runs in itertools.product(*map(compositions, a)):
            parts = [p for run in runs for p in run]
            spans = list(itertools.pairwise(itertools.accumulate(map(len, runs), initial=0)))
            for places in itertools.permutations(range(len(parts))):
                target = tuple(p for _, p in sorted(zip(places, parts)))
                ti = index.get(target)
                if ti is None:
                    raise InvariantError(f"refinement {target} of object {a} is not an object")
                morphisms.append(LmsMorphism(si, ti, tuple(places[lo:hi] for lo, hi in spans)))

    def compose(m1: LmsMorphism, m2: LmsMorphism) -> tuple:
        runs = m2.orders
        orders = tuple(runs[blk[0]] if len(blk) == 1 else sum((runs[j] for j in blk), ()) for blk in m1.orders)
        return m1.source, m2.target, orders

    return FiniteCategory.build(
        objects,
        morphisms,
        lambda oi: LmsMorphism(oi, oi, tuple((j,) for j in range(len(objects[oi])))),
        compose,
    )


def identification(objects: Sequence[tuple[DimVector, ...]]) -> dict:
    """How many of the tuple category's objects forgetting the order of a
    tuple would merge. Reported only: the category never merges them."""
    classes = len({tuple(sorted(obj)) for obj in objects})
    return {
        "objects": len(objects),
        "identification_classes": classes,
        "would_merge": len(objects) - classes,
        "applied": False,
    }


def verify_lms_category(cat: FiniteCategory) -> dict:
    """Exhaustive unit and associativity check of the refinement category."""
    return check_laws(cat)


# -- cross-model comparison ---------------------------------------------------------


def quotient_spec_doc(quiver: Quiver, gamma: Sequence[int]) -> dict:
    """The linear quotient model of the representations of a quiver with a
    fixed dimension vector: one coordinate per (vertex, slot), arrow
    weights between slots, root pairs and adjacent transpositions within
    each vertex block."""
    gamma = _check_gamma(quiver, gamma)
    rank = sum(gamma)
    offset = [0] * quiver.n_vertices
    acc = 0
    for v, g in enumerate(gamma):
        offset[v] = acc
        acc += g

    def unit(i, j, rank):
        row = [0] * rank
        row[i] += 1
        row[j] -= 1
        return row

    weights = []
    for s, t in quiver.arrows:
        for a in range(gamma[s]):
            for b in range(gamma[t]):
                weights.append(unit(offset[t] + b, offset[s] + a, rank))
    roots = []
    for v, g in enumerate(gamma):
        for a in range(g):
            for b in range(g):
                if a != b:
                    roots.append(unit(offset[v] + a, offset[v] + b, rank))
    gens = []
    for v, g in enumerate(gamma):
        for a in range(g - 1):
            i, j = offset[v] + a, offset[v] + a + 1
            m = [[int(r == c) for c in range(rank)] for r in range(rank)]
            m[i][i] = m[j][j] = 0
            m[i][j] = m[j][i] = 1
            gens.append(m)
    return {
        "type": "linear_quotient",
        "rank": rank,
        "weights": weights,
        "roots": roots,
        "weyl_generators": gens,
    }


def cross_check_special_faces(quiver: Quiver, gamma: Sequence[int]) -> dict:
    """Compare the two models of the special faces of the representations
    with dimension vector gamma: flats of the linear quotient model up to
    its Weyl group, against multiset decompositions of gamma. A flat of
    dimension k must correspond to a decomposition into k parts."""
    from .stackmodel import enumerate_special_faces, load_spec

    gamma = _check_gamma(quiver, gamma)
    spec = load_spec(quotient_spec_doc(quiver, gamma))
    orbits = enumerate_special_faces(spec)
    by_dim = Counter(o.dim for o in orbits)
    decomps = multiset_decompositions(gamma)
    by_parts = Counter(len(d) for d in decomps)
    return {
        "ok": dict(by_dim) == dict(by_parts),
        "flat_orbits": len(orbits),
        "decompositions": len(decomps),
        "flat_orbits_by_dim": {str(k): v for k, v in sorted(by_dim.items())},
        "decompositions_by_parts": {str(k): v for k, v in sorted(by_parts.items())},
    }
