"""Exact rational linear algebra over Q^n.

Conventions shared by the whole package:

- points given as input may be tuples of ints or ``fractions.Fraction``,
- the one elimination is ``echelon``, an integer reduced echelon form:
  ``span`` scales its rows to the canonical form, ``kernel`` runs it once
  on the reversed columns and back-substitutes straight into the
  canonical form, ``rref`` divides its rows by their pivot entries,
  ``row_rank`` counts its pivots, and ``clear_pivots`` reduces a vector
  modulo its rows,
- a subspace is stored once, as integers: ``Subspace.rows`` is L times its
  reduced row echelon basis, the unique canonical form, with L the lcm of
  the basis' denominators, so equal subspaces compare equal bitwise and
  hash as integer tuples; covector tests, restrictions, lifts and
  reductions run on these rows,
- where only a direction matters, a vector is held as a positive integer
  multiple of itself, usually the primitive one: the rays out of the double
  description (``arrangement.dd_cone``) and the canonical ray tuples built
  from them, the rays of a special cone closure, the constancy samples and
  the vectors the Hall weight identity pulls back; their dot products with
  integer covectors are ``int_dot``s,
- covectors (linear functionals) are primitive integer tuples: gcd of the
  entries is 1 and the first nonzero entry is positive, so equal
  hyperplanes compare equal bitwise.

Fractions remain only in the RREF basis derived for printing
(``Subspace.basis``), in ``rref``, ``qvec`` and ``dot``. Each of them
imports ``fractions`` (which loads ``decimal`` and ``numbers``) when it
builds a Fraction, so a command that never does loads none of them;
``determinant``, which runs when a spec is loaded, is fraction-free.

No floats anywhere. Denominators grow as they like; everything downstream
relies on these comparisons being exact.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property
from math import gcd, lcm
from operator import mul

# Annotation aliases. Annotations are never evaluated (see the __future__
# import), so these stay strings and naming Fraction in them loads nothing.
Scalar = "int | Fraction"
Vec = "tuple[Fraction, ...]"
IntVec = tuple[int, ...]


def qvec(entries: Iterable[Scalar]) -> Vec:
    """Coerce a sequence of ints/Fractions to a tuple of Fractions."""
    from fractions import Fraction

    return tuple(Fraction(e) for e in entries)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Fraction:
    from fractions import Fraction

    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    total = 0
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total if type(total) is Fraction else Fraction(total)


def int_dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Dot product without the checks and the Fraction result of dot: an
    int on integer vectors. The lengths must match. On Fraction vectors dot
    is the faster one, since it skips zero entries."""
    return sum(map(mul, u, v))


def vec_neg(v: Sequence[Scalar]) -> tuple:
    return tuple(-x for x in v)


def vec_str(*vecs: Sequence[Scalar]) -> str:
    """Readable form of vectors for error messages, e.g. (1, -2/3), (0, 1)."""
    return ", ".join("(" + ", ".join(map(str, v)) + ")" for v in vecs)


def is_zero_vec(v: Sequence[Scalar]) -> bool:
    return all(x == 0 for x in v)


def primitive(entries: Sequence[Scalar]) -> IntVec:
    """Clear denominators and divide by the gcd. Keeps the sign.

    The zero vector is rejected: primitive vectors are direction data and
    a zero direction is always a caller bug.
    """
    if all(type(e) is int for e in entries):
        ints = entries
    else:
        mult = lcm(*(e.denominator for e in entries))
        ints = [e.numerator * (mult // e.denominator) for e in entries]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


def canonical_covector(entries: Sequence[Scalar]) -> IntVec:
    """Primitive integer form with the first nonzero entry positive."""
    return canonical_covector_signed(entries)[0]


def canonical_covector_signed(entries: Sequence[Scalar]) -> tuple[IntVec, int]:
    """Canonical covector plus the sign s with entries ~ s * canonical.

    s = +1 when the input already points the canonical way, -1 otherwise.
    """
    p = primitive(entries)
    for x in p:
        if x != 0:
            return (p, 1) if x > 0 else (vec_neg(p), -1)
    raise ValueError("unreachable: zero covector")  # pragma: no cover


def sign(x: Scalar) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def clear_pivots(v: Sequence[Scalar], rows: Sequence[tuple[int, IntVec]]) -> Sequence[Scalar]:
    """A positive multiple of v reduced modulo the echelon rows, given as
    (pivot, row) pairs as echelon returns them: at each pivot p the row e
    is cross-multiplied away, e[p] v - v[p] e with e[p] > 0. The result is
    zero iff v lies in the span of the rows, and integer for integer v."""
    for p, e in rows:
        c = v[p]
        if c:
            d = e[p]
            v = [d * x - c * y for x, y in zip(v, e)]
    return v


def echelon(rows: Iterable[Sequence[Scalar]], width: int) -> tuple[tuple[int, IntVec], ...]:
    """Integer reduced echelon form: (pivot, row) pairs by increasing pivot.

    Each row is primitive, positive at its pivot (its first nonzero
    entry) and zero at the other pivots: the RREF rows scaled to primitive
    integers, unique for the row space. An incoming row is cleared of
    denominators and reduced by clear_pivots; a row kept clears its pivot
    from the rows kept before it.
    """
    out: list[tuple[int, IntVec]] = []
    for r in rows:
        if len(r) != width:
            raise ValueError(f"row of length {len(r)} in width-{width} matrix")
        if not any(r):
            continue
        r = clear_pivots(primitive(r), out)
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            continue
        r = primitive(r)
        if r[pivot] < 0:
            r = vec_neg(r)
        out = [(p, primitive(clear_pivots(e, ((pivot, r),))) if e[pivot] else e) for p, e in out]
        out.append((pivot, r))
    return tuple(sorted(out))


def rref(rows: Iterable[Sequence[Scalar]], width: int) -> tuple[tuple[Vec, ...], IntVec]:
    """Reduced row echelon form with unit pivots: the echelon rows divided
    by their pivot entries.

    Returns (nonzero rows, pivot columns). The output is the canonical
    representative of the row space: unique regardless of input order.
    """
    from fractions import Fraction

    ech = echelon(rows, width)
    return tuple(tuple(Fraction(x, e[p]) for x in e) for p, e in ech), tuple(p for p, _ in ech)


def row_rank(rows: Iterable[Sequence[Scalar]]) -> int:
    """Dimension of the span of the rows: the number of echelon pivots."""
    rows = list(rows)
    return len(echelon(rows, len(rows[0]) if rows else 0))


class Subspace(namedtuple("Subspace", "rows ambient_dim")):
    """A linear subspace of Q^n (n is ambient_dim), stored once as integer
    rows (a tuple of IntVec): L times its reduced row echelon basis, each
    row L at its pivot and zero at the other rows' pivots, with no factor
    common to all entries, so L is the lcm of the basis' denominators.
    Construct through span()/kernel(); the constructor validates this form
    so that structural equality means equality of subspaces. The scale L,
    the pivots and the Fraction basis are derived; instances keep a
    __dict__ for the cached ones.
    """

    def __new__(cls, rows: tuple[IntVec, ...], ambient_dim: int):
        """Check the integer form directly: tuple rows of the right length
        with int entries, pivots increasing, and the form above."""
        n, last = ambient_dim, -1
        for row in rows:
            if len(row) != n:
                raise ValueError(f"row of length {len(row)} in width-{n} matrix")
        ok = type(rows) is tuple and all(type(r) is tuple and all(type(x) is int for x in r) for r in rows)
        scale = next((x for x in rows[0] if x), 0) if rows else 1
        for row in rows:
            p = next((j for j, x in enumerate(row) if x), n)
            ok = ok and last < p < n and row[p] == scale and sum(1 for r in rows if r[p]) == 1
            last = p
        if not ok or scale <= 0 or gcd(*(x for r in rows for x in r)) > 1:
            raise ValueError("basis is not in reduced row echelon form")
        return super().__new__(cls, rows, ambient_dim)

    @classmethod
    def _make(cls, iterable) -> "Subspace":
        """Build through the constructor, so _make and _replace (which
        calls _make) run its checks too."""
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def scale(self) -> int:
        """L: the common pivot entry of the rows, 1 for the zero subspace."""
        return self.rows[0][self.pivots[0]] if self.rows else 1

    @cached_property
    def pivots(self) -> IntVec:
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.rows)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        """The reduced row echelon basis, the rows divided by L, in
        Fractions: for printing and for the reference methods below."""
        from fractions import Fraction

        scale = self.scale
        return tuple(tuple(Fraction(x, scale) for x in row) for row in self.rows)

    def scaled_lift(self, coords: Sequence[Scalar]) -> tuple:
        """L times the vector with these coordinates in the RREF basis: an
        integer vector for integer coordinates."""
        rows = self.rows
        return tuple(int_dot(coords, col) for col in zip(*rows)) if rows else (0,) * self.ambient_dim

    def scaled_reduce(self, v: Sequence[Scalar]) -> tuple:
        """L times v less that vector for v's entries at the pivots: an
        integer vector for integer v, zero iff v lies in the subspace."""
        scale = self.scale
        return tuple(scale * x - y for x, y in zip(v, self.scaled_lift([v[p] for p in self.pivots])))


def span(vectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> Subspace:
    """The canonical Subspace of the vectors: each echelon row times L over
    its pivot entry, for L the lcm of the pivot entries."""
    ech = echelon(vectors, ambient_dim)
    scale = lcm(*(e[p] for p, e in ech))
    rows = tuple(e if e[p] == scale else tuple(scale // e[p] * x for x in e) for p, e in ech)
    return Subspace(rows, ambient_dim)


def kernel(covectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> Subspace:
    """Common kernel of the given functionals, as a canonical Subspace,
    from one elimination.

    echelon runs on the reversed columns, so each row e's pivot p is its
    last nonzero column. Back-substitution in integers: for d the lcm of
    the pivot entries, each free column f gives the kernel vector with d
    at f, -(d / e[p]) e[f] at each pivot p, 0 elsewhere. Since e[f] = 0
    unless f < p, the vector's first nonzero entry is d at f, and it is
    zero at the other free columns: the vectors by increasing f are d
    times the RREF basis. They are the canonical rows as they stand, with
    no factor common to all entries: for a prime power q^k exactly
    dividing d, a row e with q^k dividing e[p] is primitive, so some e[f]
    at a free column f is prime to q, and so is the entry at p of f's
    vector. The constructor checks the form.
    """
    n = ambient_dim
    ech = [(n - 1 - p, e[::-1]) for p, e in echelon((c[::-1] for c in covectors), n)]
    d = lcm(*(e[p] for p, e in ech))
    pivots = {p for p, _ in ech}
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = d
            for p, e in ech:
                v[p] = -(d // e[p]) * e[f]
            basis.append(tuple(v))
    return Subspace(tuple(basis), n)


def annihilator(space: Subspace) -> tuple[IntVec, ...]:
    """Canonical covectors spanning the annihilator of the subspace."""
    ker = kernel(space.rows, space.ambient_dim)
    return tuple(sorted(canonical_covector(row) for row in ker.rows))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    cov = list(annihilator(a)) + list(annihilator(b))
    return kernel(cov, a.ambient_dim)


def restrict_covector(w: Sequence[Scalar], space: Subspace) -> IntVec | None:
    """The functional w pulled back to basis coordinates of the subspace.

    Returns the canonical primitive covector, or None when w vanishes on
    the whole subspace (in particular for the zero subspace).
    """
    vals = [int_dot(w, row) for row in space.rows]
    return canonical_covector(vals) if any(vals) else None


def covector_times_mat(w: Sequence[Scalar], m: Sequence[Sequence[Scalar]]) -> tuple:
    """Row vector times matrix: the pullback of w along the map m, an
    integer vector for integer w and m."""
    return tuple(int_dot(w, col) for col in zip(*m))


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> tuple[Vec, ...]:
    """Product of rational matrices (rows-of-rows convention)."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    return tuple(covector_times_mat(row, b) for row in a)


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss' fraction-free
    elimination (Bareiss 1968). After step k every entry below and right
    of the pivots is a (k + 1) x (k + 1) minor of the row-swapped matrix,
    so dividing by the previous pivot is exact and every entry stays an
    integer."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    mat = [list(r) for r in m]
    flip, prev = 1, 1
    for k in range(n - 1):
        if not mat[k][k]:
            sel = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if sel is None:
                return 0
            mat[k], mat[sel] = mat[sel], mat[k]
            flip = -flip
        top, pivot = mat[k], mat[k][k]
        for row in mat[k + 1 :]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - a * top[j]) // prev
        prev = pivot
    return flip * mat[-1][-1] if n else 1
