"""Quiver representations over small finite fields and decomposition
combinatorics of dimension vectors.

The counting side is exact and brute-force: field arithmetic is
table-driven, with one elimination over F_q (gf_reduce, which tests
membership in a subspace, reduces modulo one and takes ranks), every
representation of a dimension vector is enumerated, isomorphism classes
come from an orbit sweep that closes each orbit under a generating set
of the base-change group (at each vertex the transvection I + E_01, the
cycle of the basis and, where their determinants do not already give
every unit, one diagonal matrix, each a row operation on the arrows into
its vertex and a column operation on those out of it, made on
representations packed one int per matrix row), and Hall numbers count
actual subrepresentations. Each representation's subrepresentations of
one dimension vector are enumerated once per process, and that
enumeration is shared by the Hall tables, keyed by the classes of
quotient and sub so a Hall product reads one entry per pair of its
factors' classes, and by the flag tables that check associativity, keyed
by the classes of a chain's three layers, which count chains directly
and never read a Hall table or a product. Everything is guarded by caps
and enumerated in lexicographic order, so results are deterministic and
independent of the process.

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
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from math import lcm
from operator import itemgetter

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
GLOp = ElementaryOp | str  # an ElementaryOp, or CYCLE
PackedRep = tuple[int, ...]  # a Rep as one int per matrix row (see _pack)

CYCLE = "cycle"  # the n-cycle permutation matrix, e_k -> e_(k+1 mod n)

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
        p = next(d for d in range(2, q + 1) if q % d == 0)
        weights = [1]  # the element x^i is weights[i] = p^i, for q = p^k and i < k
        while weights[-1] * p < q:
            weights.append(weights[-1] * p)
        if weights[-1] * p != q:
            raise SpecError(f"field size must be a prime power, got {q}")
        if len(weights) > 1 and q not in _IRREDUCIBLE:
            raise SpecError(f"unsupported field size {q}")
        self.q = q
        self.p = p
        self._add = add = tuple(
            tuple(sum((a // w + b // w) % p * w for w in weights) for b in range(q)) for a in range(q)
        )
        # c * x^k for c in F_p: x^k is minus the irreducible's lower terms
        wrap = [sum(-c * r % p * w for r, w in zip(_IRREDUCIBLE.get(q, ()), weights)) for c in range(p)]
        top = weights[-1]  # x^(k-1)
        mul = []
        for a in range(q):
            # a * b by linearity in b: with shifted = a * x^i,
            # row[b] = row[b - p^i] + shifted for p^i <= b < p^(i+1)
            row, shifted = [0], a
            for w in weights:
                for b in range(w, p * w):
                    row.append(add[row[b - w]][shifted])
                shifted = add[shifted % top * p][wrap[shifted // top]]  # times x
            mul.append(tuple(row))
        self._mul = tuple(mul)
        self._neg = tuple(row.index(0) for row in add)
        self._inv = (0, *(row.index(1) for row in mul[1:]))

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


def gf_reduce(F: GF, rows: GFMatrix, pivots: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """v minus its projection onto the rows; zero iff v is in their span.

    The one elimination over F_q. Each row must have a 1 at its pivot
    column and every later row a 0 there: RREF rows qualify, and so do rows
    stored in turn as gf_reduce leaves them, each scaled to a 1 at its first
    nonzero column (as _end_dim does)."""
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


def _is_entry(x) -> bool:
    """A dimension vector entry: a nonnegative int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _check_gamma(quiver: Quiver, gamma: Sequence[int]) -> DimVector:
    gamma = tuple(gamma)
    if len(gamma) != quiver.n_vertices or not all(map(_is_entry, gamma)):
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


def _stacky_terms(quiver: Quiver, gamma: Sequence[int], q: int) -> tuple[int, int]:
    """(q^dim, |G|): the number of representations with this dimension
    vector over F_q and the order of the base-change group, the numerator
    and denominator of the stacky count."""
    gamma = _check_gamma(quiver, gamma)
    gf(q)
    group_order = 1
    for g in gamma:
        group_order *= gl_order(g, q)
    return q ** rep_space_dim(quiver, gamma), group_order


def stacky_count(quiver: Quiver, gamma: Sequence[int], q: int) -> Fraction:
    """Groupoid cardinality of representations with this dimension vector:
    the point count of the space divided by the order of the base-change
    group."""
    from fractions import Fraction

    return Fraction(*_stacky_terms(quiver, gamma, q))


def _mass_is_stacky_count(aut_orders: Sequence[int], points: int, group_order: int) -> bool:
    """Whether the class mass, the sum of 1/a over aut_orders, equals the
    stacky count points / group_order, in integers: with M the lcm of the
    aut_orders, sum (M // a) * group_order == points * M."""
    m = lcm(*aut_orders)
    return sum(m // a for a in aut_orders) * group_order == points * m


def _primitive_element(F: GF) -> int:
    """The least element generating the multiplicative group of F."""

    def order(w):
        k, x = 1, w
        while x != 1:
            k, x = k + 1, F.mul(x, w)
        return k

    return next(w for w in range(1, F.q) if order(w) == F.q - 1)


@lru_cache(maxsize=None)
def _gl_generators(q: int, n: int) -> tuple[GLOp, ...]:
    """A generating set of GL_n(F_q) of at most three elements.

    The transvection I + E_01 as the elementary operation (0, 1, 1), the
    n-cycle permutation matrix e_k -> e_(k+1 mod n) as CYCLE, and
    diag(w, 1, ..., 1) for a primitive element w as (0, 0, w). Conjugating
    I + E_01 by powers of the cycle gives every I + E_k,k+1 (indices mod
    n), and commutators [I + E_ij, I + E_jk] = I + E_ik of those give
    every I + E_ij with i != j. Conjugating by powers of diag(w, 1, ..., 1)
    gives I + w^k E_0j (likewise for E_i0), products of these give
    I + a E_0j for every a in F_q, since sums of powers of w span F_q, and
    commutators carry every a to every I + a E_ij; these generate
    SL_n(F_q), and the diagonal adds the determinants (Steinberg 1962;
    Waterhouse 1989). Over a prime field the powers of I + E_ij already
    give every I + a E_ij, so the transvection and the cycle generate
    SL_n(F_q) and, with it, every g whose determinant is a power of the
    cycle's, (-1)^(n-1). The diagonal is therefore left out where that
    power generates F_q^x: at q = 2, where the diagonal is the identity,
    and at q = 3 for even n, where the cycle's determinant is -1. For
    n = 1 the diagonal is all there is.
    """
    out: list[GLOp] = [(0, 1, 1), CYCLE] if n > 1 else []
    if n and q > 2 and (q, n % 2) != (3, 0):
        out.append((0, 0, _primitive_element(gf(q))))
    return tuple(out)


# -- packed representations ----------------------------------------------------------
#
# The sweep holds a representation as a PackedRep: one int per matrix row,
# over the arrows in order, whose base-q digits are the row's entries with
# the first column most significant. Every matrix of an arrow has the same
# number of rows and every row of it the same length, so integer order on
# packed rows is the lexicographic order of the nested tuples, and packed
# representations sort as their Reps do. A base change then moves whole
# rows: a row operation is a reorder of the flat tuple or one table lookup
# per row, a column operation one table lookup per row. Tables are built on
# first use by a sweep that needs them, never at import, and none has more
# entries than that sweep visits representations.


def _pack_row(q: int, row: Sequence[int]) -> int:
    x = 0
    for a in row:
        x = x * q + a
    return x


def _pack(q: int, rep: Rep) -> PackedRep:
    return tuple(_pack_row(q, row) for m in rep for row in m)


@lru_cache(maxsize=None)
def _row_digits(q: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Every row of this length over F_q, indexed by its packed int."""
    return tuple(itertools.product(range(q), repeat=width))


def _unpacker(quiver: Quiver, gamma: DimVector, q: int) -> Callable[[PackedRep], Rep]:
    """The function taking a packed representation of gamma to its Rep."""
    blocks = []
    start = 0
    for s, t in quiver.arrows:
        rows = _row_digits(q, gamma[s]) if gamma[t] else ()
        blocks.append((start, start + gamma[t], rows.__getitem__))
        start += gamma[t]
    return lambda rep: tuple(tuple(map(digits, rep[lo:hi])) for lo, hi, digits in blocks)


def _packed_reps(quiver: Quiver, gamma: DimVector, q: int) -> Iterator[PackedRep]:
    """Every representation of gamma packed, lexicographically."""
    return itertools.product(*(range(q ** gamma[s]) for s, t in quiver.arrows for _ in range(gamma[t])))


@lru_cache(maxsize=None)
def _column_table(q: int, n: int, op: GLOp) -> tuple[int, ...]:
    """The column operation m g^-1 of op's matrix g on each packed row of
    length n, indexed by the row. With g = I + a E_ij (i != j) column j
    loses a times column i; with g = diag at (i, i), column i is scaled by
    1/a; with the cycle, column c takes column c - 1."""
    F = gf(q)
    out = []
    for row in _row_digits(q, n):
        r = list(row)
        if op == CYCLE:
            r = r[-1:] + r[:-1]
        else:
            i, j, a = op
            if i != j:
                r[j] = F.sub(r[j], F.mul(a, r[i]))
            else:
                r[i] = F.mul(F.inv(a), r[i])
        out.append(_pack_row(q, r))
    return tuple(out)


@lru_cache(maxsize=None)
def _scale_table(q: int, width: int, a: int) -> tuple[int, ...]:
    """a times each packed row of this length, indexed by the row."""
    times_a = gf(q)._mul[a]
    return tuple(_pack_row(q, [times_a[x] for x in row]) for row in _row_digits(q, width))


@lru_cache(maxsize=None)
def _add_table(q: int, width: int, a: int) -> tuple[tuple[int, ...], ...]:
    """x + a y for packed rows x and y of this length, indexed [x][y]."""
    F, rows = gf(q), _row_digits(q, width)
    add, times_a = F._add, F._mul[a]
    return tuple(tuple(_pack_row(q, [add[u][times_a[v]] for u, v in zip(x, y)]) for y in rows) for x in rows)


def _packed_act(
    quiver: Quiver, gamma: DimVector, q: int, v: int, op: GLOp
) -> Callable[[PackedRep], PackedRep]:
    """The base change by op's matrix g at vertex v, as a function on packed
    representations of gamma: the row operation g m on each arrow into v,
    the column operation m g^-1 on each arrow out of v, both on a loop.
    Other arrows, and arrows with no rows, pass through unchanged.

    The image is built in three steps: the cycle reorders the rows of each
    arrow into v; each row of an arrow out of v goes through the column
    table (on a loop, row i composed with its scaling by diag(a) at
    (i, i)); last, for I + a E_ij, row i of each arrow into v adds a times
    row j, so a loop gets g (m g^-1). That sum is one lookup in the table
    of x + a y."""
    gather: list[int] = []
    maps: dict[int, tuple[int, ...]] = {}
    adds = []
    for s, t in quiver.arrows:
        rows = list(range(len(gather), len(gather) + gamma[t]))
        gather.extend(rows)
        if rows and s == v:
            columns = _column_table(q, gamma[v], op)
            maps.update((p, columns) for p in rows)
        if rows and t == v and gamma[s]:
            if op == CYCLE:
                gather[rows[0] : rows[-1] + 1] = rows[-1:] + rows[:-1]
                continue
            i, j, a = op
            if i != j:
                adds.append((rows[i], rows[j], _add_table(q, gamma[s], a)))
            else:
                scale = _scale_table(q, gamma[s], a)
                maps[rows[i]] = tuple(scale[x] for x in maps[rows[i]]) if rows[i] in maps else scale
    pick = itemgetter(*gather) if gather != sorted(gather) else None
    maps_ = tuple(maps.items())
    adds_ = tuple(adds)

    def image(rep: PackedRep) -> PackedRep:
        rows = list(pick(rep) if pick else rep)
        for p, table in maps_:
            rows[p] = table[rows[p]]
        for i, j, add in adds_:
            rows[i] = add[rows[i]][rows[j]]
        return tuple(rows)

    return image


def _cache_path(quiver: Quiver, gamma: DimVector, q: int) -> str | None:
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


def _cache_load(quiver: Quiver, gamma: DimVector, q: int) -> IsoClasses | None:
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
        if not _mass_is_stacky_count(classes.aut_orders, *_stacky_terms(quiver, gamma, q)):
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
    rows: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for equation in equations:  # the rank by forward elimination
        rest = gf_reduce(F, rows, pivots, equation)
        pivot = next((j for j, x in enumerate(rest) if x), None)
        if pivot is not None:
            c = F.inv(rest[pivot])
            rows.append(tuple(F.mul(c, x) for x in rest))
            pivots.append(pivot)
    return offsets[-1] - len(pivots)


@lru_cache(maxsize=None)
def iso_classes(quiver: Quiver, gamma: DimVector, q: int) -> IsoClasses:
    """Orbit sweep of the base-change action by generators.

    Representations are visited lexicographically, packed (see _pack); each
    one not yet classified starts a new class and its orbit is closed
    breadth-first under a generating set of the group: the at most three
    generators of GL(gamma_v, F_q) from _gl_generators at each vertex v
    (I + E_01, the n-cycle and diag(w, 1, ..., 1), the diagonal left out
    where the cycle's determinant already generates F_q^x; only the
    diagonal when gamma_v = 1),
    applied by _packed_act as a row reorder or lookup per row. The work is
    (number of representations) x (at most 3 per vertex). The cap is still
    checked against (number of representations) x (group order) before
    starting, so the same requests are refused as by a sweep over the
    whole group. The result holds Reps, not packed ones: each
    representation is unpacked once, at the end.

    Each class is checked explicitly, so the checks also run under
    python -O: its representative is the lex-least member, its orbit size
    divides the group order, and the automorphism order it implies fits
    inside the endomorphism algebra (an orbit closed under too few
    generators comes out too small and fails this). The mass of the
    classes, each weighted by 1/|Aut|, must equal the stacky count, which
    _mass_is_stacky_count checks in integers.
    Failures raise InvariantError.
    """
    gamma = _check_gamma(quiver, gamma)
    n_reps, group_order = _stacky_terms(quiver, gamma, q)
    F = gf(q)
    if n_reps * group_order > SWEEP_CAP:
        raise CapExceeded(
            f"orbit sweep of {n_reps} representations x group of {group_order} exceeds cap {SWEEP_CAP}"
        )
    cached = _cache_load(quiver, gamma, q)
    if cached is not None:
        return cached
    generators = [
        _packed_act(quiver, gamma, q, v, op) for v, n in enumerate(gamma) for op in _gl_generators(q, n)
    ]
    unpack = _unpacker(quiver, gamma, q)
    where = f"gamma={list(gamma)} q={q}"
    class_of: dict[PackedRep, int] = {}
    reps: list[Rep] = []
    orbit_sizes: list[int] = []
    aut_orders: list[int] = []
    for rep in _packed_reps(quiver, gamma, q):
        if rep in class_of:
            continue
        idx = len(reps)
        class_of[rep] = idx
        orbit = [rep]
        for member in orbit:  # the list grows while it is scanned
            for act in generators:
                image = act(member)
                if image not in class_of:
                    class_of[image] = idx
                    orbit.append(image)
        first = unpack(rep)
        if min(orbit) != rep:
            raise InvariantError(f"{where}: {first} is not lex-least in its orbit")
        if group_order % len(orbit):
            raise InvariantError(
                f"{where}: orbit of {first} has {len(orbit)} members, "
                f"which does not divide the group order {group_order}"
            )
        aut_order = group_order // len(orbit)
        end_size = q ** _end_dim(quiver, F, gamma, first)
        if aut_order > end_size:
            raise InvariantError(
                f"{where}: orbit of {first} has {len(orbit)} members, so |Aut| = {aut_order} "
                f"exceeds the {end_size} elements of its endomorphism algebra"
            )
        reps.append(first)
        orbit_sizes.append(len(orbit))
        aut_orders.append(aut_order)
    if not _mass_is_stacky_count(aut_orders, n_reps, group_order):
        from fractions import Fraction

        mass = sum(Fraction(1, a) for a in aut_orders)
        raise InvariantError(
            f"{where}: class mass {mass} differs from the stacky count "
            f"{stacky_count(quiver, gamma, q)}"
        )
    out = IsoClasses(
        quiver,
        gamma,
        q,
        tuple(reps),
        tuple(orbit_sizes),
        tuple(aut_orders),
        group_order,
        {unpack(rep): idx for rep, idx in class_of.items()},
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
        sub: len(_subreps(quiver, q, classes.reps[idx], gamma, sub))
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
def _hall_table(quiver: Quiver, q: int, gamma: DimVector, sub: DimVector) -> dict[tuple[int, int], Counter]:
    """The subrepresentations of dimension vector sub of each class of
    gamma, keyed by (quotient class, sub class), each an index into the
    classes of its own dimension vector, and counted by the class of gamma,
    from the enumeration _subreps shares with the flag tables. One table
    serves every convolution of these classes; callers must not mutate it."""
    quot = tuple(g - k for g, k in zip(gamma, sub))
    whole = iso_classes(quiver, gamma, q)
    subs = iso_classes(quiver, sub, q)
    quots = iso_classes(quiver, quot, q)
    where = f"Hall table of gamma={list(gamma)} sub={list(sub)} q={q}"
    table: dict = {}
    for li, rep in enumerate(whole.reps):
        for low, top in _subreps(quiver, q, rep, gamma, sub):
            sc = _class_index(subs, low, where)
            table.setdefault((_class_index(quots, top, where), sc), Counter())[li] += 1
    return table


def hall_product(quiver: Quiver, q: int, f: dict, g: dict) -> dict:
    """Convolution of class functions: (f*g)(L) = sum over subreps S of L
    of f(L/S) * g(S). f and g map ClassRef -> value; zero results are
    dropped. Each pair of factor entries reads the one entry of the Hall
    table of their dimension vectors (_hall_table) that their classes key."""
    out: Counter = Counter()
    for (df, qc), x in f.items():
        for (dg, sc), y in g.items():
            gamma = tuple(a + b for a, b in zip(df, dg))
            for li, n in _hall_table(quiver, q, gamma, dg).get((qc, sc), {}).items():
                out[gamma, li] += x * y * n
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
        row = _flag_table(quiver, q, ra[0], rb[0], rc[0]).get((ra[1], rb[1], rc[1]), {})
        for li in range(len(iso_classes(quiver, gamma, q).reps)):
            flags = row.get(li, 0)
            if flags != left.get((gamma, li), 0):
                return {"ok": False, "triple": (ra, rb, rc), "class": (gamma, li), "flags": flags}
            flag_checks += 1
    return {"ok": True, "classes": len(refs), "triples": triples, "flag_checks": flag_checks}


@lru_cache(maxsize=None)
def _flag_table(
    quiver: Quiver, q: int, da: DimVector, db: DimVector, dc: DimVector
) -> dict[tuple[int, int, int], Counter]:
    """The chains S1 <= S2 <= L in each class L of da + db + dc, with S1 of
    dimension vector dc and S2/S1 of db, keyed by the classes (a, b, c) of
    L/S2, S2/S1 and S1 and counted by the class of L. Inner subspaces are
    enumerated inside S2 in its own basis, which identifies them with
    subspaces of L: the inner read of _subreps is keyed on that literal S2,
    never on its class representative. Chains are counted directly, never
    through _hall_table or a product; callers must not mutate the table."""
    mid_gamma = tuple(b + c for b, c in zip(db, dc))
    gamma = tuple(a + m for a, m in zip(da, mid_gamma))
    whole = iso_classes(quiver, gamma, q)
    quots_a = iso_classes(quiver, da, q)
    subs_c = iso_classes(quiver, dc, q)
    quots_b = iso_classes(quiver, db, q)
    where = f"flag table of gamma={list(gamma)} q={q}"
    table: dict = {}
    for li, rep in enumerate(whole.reps):
        for mid, top in _subreps(quiver, q, rep, gamma, mid_gamma):
            a = _class_index(quots_a, top, where)
            for low, between in _subreps(quiver, q, mid, mid_gamma, dc):
                c = _class_index(subs_c, low, where)
                table.setdefault((a, _class_index(quots_b, between, where), c), Counter())[li] += 1
    return table


# -- decomposition combinatorics ---------------------------------------------------


def multiset_decompositions(gamma: Sequence[int]) -> tuple[tuple[DimVector, ...], ...]:
    """All multisets of nonzero dimension vectors summing to gamma, each
    as a tuple with parts in nonincreasing order."""
    gamma = tuple(gamma)
    if not all(map(_is_entry, gamma)):
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


@lru_cache(maxsize=None)
def _quotient_model(doc_json: str):
    """The loaded quotient model of a canonical_json quotient_spec_doc.
    Memoized on the document's text: dimension vectors such as (n, 0) and
    (0, n) of a2_quiver give the same document, which is loaded once."""
    from .stackmodel import load_spec

    return load_spec(json.loads(doc_json))


@lru_cache(maxsize=None)
def _flat_orbits_by_dim(spec) -> tuple[tuple[int, int], ...]:
    """(dimension, number of Weyl orbits of flats of that dimension) of a
    quotient model, by dimension. Memoized per spec, not per arrangement:
    a2_quiver's (4, 1) and (5, 0) share their covectors but not their Weyl
    group."""
    from .stackmodel import enumerate_special_faces

    return tuple(sorted(Counter(o.dim for o in enumerate_special_faces(spec)).items()))


def cross_check_special_faces(quiver: Quiver, gamma: Sequence[int]) -> dict:
    """Compare the two models of the special faces of the representations
    with dimension vector gamma: flats of the linear quotient model up to
    its Weyl group, against multiset decompositions of gamma. A flat of
    dimension k must correspond to a decomposition into k parts. Each
    distinct quotient model is loaded once (_quotient_model) and its flat
    orbits counted once (_flat_orbits_by_dim)."""
    gamma = _check_gamma(quiver, gamma)
    spec = _quotient_model(canonical_json(quotient_spec_doc(quiver, gamma)))
    by_dim = dict(_flat_orbits_by_dim(spec))
    decomps = multiset_decompositions(gamma)
    by_parts = Counter(len(d) for d in decomps)
    return {
        "ok": by_dim == dict(by_parts),
        "flat_orbits": sum(by_dim.values()),
        "decompositions": len(decomps),
        "flat_orbits_by_dim": {str(k): v for k, v in by_dim.items()},
        "decompositions_by_parts": {str(k): v for k, v in sorted(by_parts.items())},
    }
