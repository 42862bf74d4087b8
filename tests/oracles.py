"""Independent brute-force oracles used only by the test suite.

Each oracle recomputes a quantity by a different route than the library
(enumeration instead of incremental geometry, product formulas instead of
counting), so agreement is meaningful. PACKAGE_PATH, shared by the tests
that start a child process, is the directory the tests imported complat
from: as the child's PYTHONPATH it runs the same package, a mutated copy
included.
"""

import argparse
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product
from math import comb, factorial, lcm, prod
from operator import add, mul
from pathlib import Path
from typing import NamedTuple

import complat
from complat.arrangement import (
    _checked_witness,
    cells,
    chambers,
    minimal_flat_containing,
    rays_of_constraints,
    restrict,
    split_rays,
)
from complat.errors import CapExceeded, InvariantError
from complat.qlinalg import (
    canonical_covector_signed,
    covector_times_mat,
    dot,
    echelon,
    int_dot,
    is_zero_vec,
    kernel,
    mat_mul,
    primitive,
    qvec,
    row_rank,
    span,
    vec_neg,
    vec_str,
)
from complat.stackmodel import (
    WEYL_CAP,
    AttractorSignature,
    ComponentSignature,
    HallMorphism,
    global_arrangement,
    weyl_permutations,
)

PACKAGE_PATH = str(Path(complat.__file__).resolve().parent.parent)


def vec_scale(c, v):
    """c times v, as Fractions."""
    c = Fraction(c)
    return tuple(c * Fraction(x) for x in v)


def mat_vec(m, v):
    """Matrix times column vector, exact."""
    return tuple(dot(row, v) for row in m)


def reduce_mod(space, v):
    """v less its projection onto the subspace's pivot coordinates, over
    the Fraction basis: the canonical representative of v modulo the
    subspace, zero iff v lies in it."""
    w = list(qvec(v))
    if len(w) != space.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    for row, p in zip(space.basis, space.pivots):
        c = w[p]
        if c != 0:
            w = [x - c * y for x, y in zip(w, row)]
    return tuple(w)


def contains_vector(space, v):
    return is_zero_vec(reduce_mod(space, v))


def contains(space, other):
    return all(contains_vector(space, b) for b in other.basis)


def coords_in(space, v):
    """Coordinates of v in the RREF basis, or None if v is outside: the
    basis is the identity on its pivot columns, so they are v's entries
    there."""
    if not contains_vector(space, v):
        return None
    vv = qvec(v)
    return tuple(vv[p] for p in space.pivots)


def lift(space, coords):
    """The ambient vector with the given coordinates in the RREF basis."""
    if len(coords) != space.dim:
        raise ValueError("coordinate length mismatch")
    out = [Fraction(0)] * space.ambient_dim
    for c, row in zip(coords, space.basis):
        out = [x + Fraction(c) * y for x, y in zip(out, row)]
    return tuple(out)


def fraction_rref(rows, width):
    """Reduced row echelon form with unit pivots, by Gauss-Jordan
    elimination over Fractions: (nonzero rows, pivot columns)."""
    mat = [list(qvec(r)) for r in rows]
    for r in mat:
        if len(r) != width:
            raise ValueError(f"row of length {len(r)} in width-{width} matrix")
    pivots: list[int] = []
    row = 0
    for col in range(width):
        sel = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        pv = mat[row][col]
        mat[row] = [x / pv for x in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    out = tuple(tuple(r) for r in mat[:row])
    return out, tuple(pivots)


def fraction_determinant(m):
    """Exact determinant by Gaussian elimination over Fractions: the
    product of the pivots, negated once per row swap, 0 at a column with
    no pivot."""
    n = len(m)
    mat = [list(qvec(r)) for r in m]
    det = Fraction(1)
    for col in range(n):
        sel = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != col:
            mat[col], mat[sel] = mat[sel], mat[col]
            det = -det
        det *= mat[col][col]
        for i in range(col + 1, n):
            if mat[i][col]:
                c = mat[i][col] / mat[col][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[col])]
    return det


def fraction_kernel(covectors, width):
    """RREF basis of the common kernel, by Fraction back-substitution into
    fraction_rref: a free column f gives the vector with 1 at f and minus
    the rows' entries in column f at their pivots."""
    rows, pivots = fraction_rref(covectors, width)
    basis = []
    for f in (j for j in range(width) if j not in pivots):
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    return fraction_rref(basis, width)[0]


def two_pass_kernel(covectors, width):
    """The common kernel by integer back-substitution into the echelon
    form of the covectors, in the natural column order, handed to span for
    a second echelon pass that brings it to the canonical form."""
    ech = echelon(covectors, width)
    d = lcm(*(e[p] for p, e in ech))
    pivots = {p for p, _ in ech}
    basis = []
    for f in range(width):
        if f not in pivots:
            v = [0] * width
            v[f] = d
            for p, e in ech:
                v[p] = -(d // e[p]) * e[f]
            basis.append(v)
    return span(basis, width)


def fraction_canonical_rays(lin, rays, dim):
    """+/- the primitive RREF rows of span(lin) and the primitive forms of
    the rays reduced modulo them over Fractions, sorted; None when a ray
    reduces to zero."""
    basis, pivots = fraction_rref(lin, dim)
    out = {q for b in basis for q in (primitive(b), vec_neg(primitive(b)))}
    for r in rays:
        w = qvec(r)
        for row, p in zip(basis, pivots):
            w = tuple(x - w[p] * y for x, y in zip(w, row))
        if is_zero_vec(w):
            return None
        out.add(primitive(w))
    return tuple(sorted(out))


def cotangent_arrangement(spec, face):
    """Weights and roots restricted to a face (a Subspace), deduped, in the
    face's basis coordinates: the global arrangement restricted by
    arrangement.restrict."""
    return restrict(global_arrangement(spec), face)


class ArrCone(NamedTuple):
    """Closed cone cut out by covector constraints of an arrangement.

    zero_set: indices of covectors vanishing identically on the cone.
    nonneg_set: (index, sign) pairs with sign * covector >= 0 on the cone
      and not identically zero; together the two sets are saturated, i.e.
      every constraint valid on the cone is recorded.
    extreme_rays: the generating rays (lineality appears as +/- pairs).
    """

    zero_set: tuple
    nonneg_set: tuple
    extreme_rays: tuple
    dim: int


def saturated_cone(arr, rays):
    """ArrCone of the cone generated by the rays, in any scaling: every
    covector is tested against every ray, so the constraint sets come out
    saturated. The reference for the sign data a cone's rays determine."""
    zero, nn = [], []
    for i, w in enumerate(arr.covectors):
        vals = [dot(w, r) for r in rays]
        if all(v == 0 for v in vals):
            zero.append(i)
        elif all(v >= 0 for v in vals):
            nn.append((i, 1))
        elif all(v <= 0 for v in vals):
            nn.append((i, -1))
    return ArrCone(tuple(zero), tuple(nn), tuple(rays), row_rank(rays))


def span_signature(spec, vectors):
    """Component signature of the span of any vectors, in any scaling: the
    weights and roots with a zero integer dot against every vector, and the
    rank of the span as the ambient rank less that of their common kernel."""
    fixed = tuple(w for w in spec.weights if not any(int_dot(w, v) for v in vectors))
    levi = tuple(r for r in spec.roots if not any(int_dot(r, v) for v in vectors))
    return ComponentSignature(spec.rank - kernel(vectors, spec.rank).dim, fixed, levi)


def unmemoized_cone_closure(spec, rays):
    """special_cone_closure with nothing memoized past the flat: every call
    computes the restrictions, selects those nonnegative on the rays and
    runs the double description, lift and signature itself; the cone's
    dimension is the rank of the lifted rays, by a kernel."""
    rays = [primitive(r) for r in rays if not is_zero_vec(r)]
    flat = minimal_flat_containing(global_arrangement(spec), rays)
    carrier = flat.subspace
    if any(any(carrier.scaled_reduce(r)) for r in rays):
        raise InvariantError(f"closure {vec_str(*carrier.basis)} misses rays {vec_str(*rays)}")
    rows = carrier.rows
    restrictions = set()
    for w in spec.weights + spec.roots:
        vals = [int_dot(w, row) for row in rows]
        if any(vals):
            restrictions.add(primitive(vals))
    coords = [tuple(r[p] for p in carrier.pivots) for r in rays]
    ineqs = []
    for l in sorted(restrictions):
        vals = [int_dot(l, c) for c in coords]
        if rays and not any(vals):
            raise InvariantError(
                f"restricted functional {l} vanishes on rays {vec_str(*rays)}, "
                "so their special face closure is not minimal"
            )
        if all(v >= 0 for v in vals):
            ineqs.append(l)
    cone_rays = rays_of_constraints([], ineqs, carrier.dim)
    ambient = tuple(sorted(primitive(carrier.scaled_lift(r)) for r in cone_rays))
    attractor = tuple(w for w in spec.weights if all(int_dot(w, a) >= 0 for a in ambient))
    parabolic = tuple(r for r in spec.roots if all(int_dot(r, a) >= 0 for a in ambient))
    levi = span_signature(spec, ambient)
    return AttractorSignature(flat, ambient, attractor, parabolic, levi)


def signed_constraints(covectors, signs):
    """(equalities, inequalities) of the closed cell with the given signs:
    w = 0 where the sign is 0, s * w >= 0 elsewhere."""
    eqs = [w for w, s in zip(covectors, signs) if s == 0]
    return eqs, [w if s > 0 else vec_neg(w) for w, s in zip(covectors, signs) if s != 0]


def chamber_rays_by_constraints(arr):
    """{chamber: canonical ray tuple of its closure}, by a second double
    description of the chamber's signed constraints."""
    return {ch: rays_of_constraints(*signed_constraints(arr.covectors, ch), arr.dim) for ch in chambers(arr)}


def vanishing_covectors(arr, embedding):
    """The covectors of arr vanishing on every row of an embedding, by
    Fraction dots: the coordinates of a Hall morphism's chamber, when arr
    is its target's cotangent arrangement."""
    return tuple(w for w in arr.covectors if all(dot(w, row) == 0 for row in embedding))


def pairwise_weight_identity(spec, cat):
    """The Hall weight identity with every composable pair paying its own
    dot products: each morphism keeps its chamber's integer rays, from a
    second double description of the chamber's constraints, the mask of
    the restrictions to its target that are >= 0 on them, and those
    restrictions pulled back along its embedding; a pair (i, j) -> k
    tests j's pulled vectors against i's rays. Returns True, or the
    witness of the first failing pair in the library's format."""
    tangent = spec.weights + spec.roots
    restricted = [
        tuple(tuple(int_dot(v, row) for row in o.flat.subspace.rows) for v in tangent)
        for o in cat.objects
    ]
    cot = [cotangent_arrangement(spec, o.flat.subspace) for o in cat.objects]
    rays, nonneg, pulled = [], [], []
    for m in cat.morphisms:
        target = restricted[m.target]
        sub = vanishing_covectors(cot[m.target], m.embedding)
        cone = rays_of_constraints(*signed_constraints(sub, m.chamber), cat.objects[m.target].dim)
        rays.append(cone)
        nonneg.append(sum(1 << t for t, v in enumerate(target) if all(int_dot(v, r) >= 0 for r in cone)))
        pulled.append(tuple(tuple(int_dot(row, v) for row in m.embedding) for v in target))
    for i, then_i in enumerate(cat.then):
        for j, k in then_i.items():
            seen = degen = 0
            for t, v in enumerate(pulled[j]):
                vals = [int_dot(v, r) for r in rays[i]]
                if all(x >= 0 for x in vals):
                    seen |= 1 << t
                    if not any(vals):
                        degen |= 1 << t
            differ = nonneg[k] ^ ((seen & ~degen) | (degen & nonneg[j]))
            if differ:
                tangents = [t for t in range(len(tangent)) if differ >> t & 1]
                return {"pair": (i, j), "composite": k, "tangent_indices": tangents}
    return True


def strict_witness(covectors, s, dim):
    """Interior point with exactly the prescribed signs, or None.

    The closed cell is the cone with >= in place of >; the relatively open
    cell is nonempty iff every strict constraint is positive on some extreme
    ray, and then the sum of the pointed rays is a witness, whose signs
    arrangement._checked_witness checks.
    """
    _, pointed = split_rays(rays_of_constraints(*signed_constraints(covectors, s), dim))
    for w, si in zip(covectors, s):
        if si != 0 and not any(si * int_dot(w, r) > 0 for r in pointed):
            return None
    return qvec(_checked_witness(covectors, s, pointed, dim))


def realizable(arr, s):
    """Exact emptiness test for the relatively open region with signs s."""
    if len(s) != arr.size:
        raise ValueError("sign vector length does not match arrangement")
    if any(x not in (-1, 0, 1) for x in s):
        raise ValueError("sign vector entries must be -1, 0, or 1")
    return strict_witness(arr.covectors, s, arr.dim) is not None


def witness_point(arr, s):
    """A rational point with exactly the signs s (must be realizable)."""
    w = strict_witness(arr.covectors, s, arr.dim)
    if w is None:
        raise ValueError(f"sign vector {s} is not realizable")
    return w


def cone_contains_point(cone, arr, v):
    """Whether v meets every saturated constraint of the ArrCone cone,
    whose indices refer to the covectors of arr."""
    return all(dot(arr.covectors[i], v) == 0 for i in cone.zero_set) and all(
        s * dot(arr.covectors[i], v) >= 0 for i, s in cone.nonneg_set
    )


def brute_force_pointed_rays(eqs, ineqs, dim):
    """Extreme rays (mod lineality, canonical primitive form) of
    {v : a.v = 0 for eqs, a.v >= 0 for ineqs}, by trying every subset of
    inequalities as a candidate active set.

    A point of the cone spans an extreme ray iff the kernel of its active
    constraints has dimension exactly one more than the lineality space.
    """
    eqs = [tuple(e) for e in eqs]
    ineqs = [tuple(a) for a in ineqs]
    lin = kernel(eqs + ineqs, dim)
    found = set()
    for size in range(len(ineqs) + 1):
        for subset in combinations(range(len(ineqs)), size):
            active = eqs + [ineqs[i] for i in subset]
            ker = kernel(active, dim)
            if ker.dim != lin.dim + 1:
                continue
            v = next((b for b in ker.basis if not contains_vector(lin, b)), None)
            if v is None:
                continue
            for cand in (v, vec_neg(v)):
                if all(dot(a, cand) == 0 for a in eqs) and all(
                    dot(a, cand) >= 0 for a in ineqs
                ):
                    found.add(primitive(reduce_mod(lin, cand)))
    return found, lin


def brute_force_flats(covectors, dim):
    """Every flat as (hyperplanes, subspace): the kernel of every subset of
    covectors, keyed by the indices of the covectors vanishing on it."""
    covectors = [tuple(w) for w in covectors]
    out = set()
    for size in range(len(covectors) + 1):
        for subset in combinations(covectors, size):
            sub = kernel(list(subset), dim)
            through = tuple(
                i for i, w in enumerate(covectors) if all(dot(w, b) == 0 for b in sub.basis)
            )
            out.add((through, sub))
    return out


def zaslavsky_face_count(covectors, dim):
    """Number of relatively open cells of a central arrangement, from its
    lattice of flats alone (Zaslavsky 1975).

    The flats are those of brute_force_flats, each keyed by the set of
    covectors vanishing on it. The regions of the restriction to a flat X
    number the sum of |mu(X, Y)| over the flats Y inside X, and every cell
    is a region of the restriction to its own span.
    """
    flats = {frozenset(through) for through, _ in brute_force_flats(covectors, dim)}
    # Y lies inside X iff every hyperplane through X passes through Y
    order = sorted(flats, key=len)
    total = 0
    for x in order:
        mu = {}
        for y in order:
            if x <= y:
                mu[y] = 1 if y == x else -sum(m for z, m in mu.items() if z < y)
        total += sum(abs(m) for m in mu.values())
    return total


def gaussian_binomial(n, k, q):
    """Number of k-dim subspaces of F_q^n, by the product formula."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def integer_partitions(n):
    """All partitions of n as descending tuples."""
    if n == 0:
        return [()]
    out = []

    def rec(rest, mx, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, mx), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(n, n, [])
    return out


def set_partitions(items):
    """Every partition of the list items into nonempty blocks, each a list,
    the first item's block first."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]


def connected_flat_orbits(quiver, gamma):
    """{number of blocks: count} of the orbits of the flats of the linear
    quotient model of gamma under its Weyl group, counted on slot
    partitions instead of the arrangement. Every covector of the model is
    e_i - e_j for two slots joined by a root (one vertex) or a weight (an
    arrow between their vertices), so the arrangement is graphic and its
    flats of dimension k are the partitions of the slots into k blocks that
    each span a connected subgraph: blocks whose vertex support is
    connected in the quiver with its arrows undirected. The product of
    symmetric groups S_{gamma_v} permutes slots within each vertex, so two
    such partitions share an orbit iff their blocks have the same multiset
    of dimension vectors."""
    neighbours = {v: set() for v in range(len(gamma))}
    for s, t in quiver.arrows:
        neighbours[s].add(t)
        neighbours[t].add(s)

    def connected(support):
        start = min(support)
        reached, frontier = {start}, [start]
        while frontier:
            frontier = [u for v in frontier for u in neighbours[v] & support if u not in reached]
            reached.update(frontier)
        return reached == support

    slots = [v for v, g in enumerate(gamma) for _ in range(g)]

    def dimension_vector(block):
        return tuple(sum(slots[i] == v for i in block) for v in range(len(gamma)))

    orbits = {
        tuple(sorted(map(dimension_vector, partition)))
        for partition in set_partitions(list(range(len(slots))))
        if all(connected({slots[i] for i in block}) for block in partition)
    }
    out = {}
    for orbit in orbits:
        out[len(orbit)] = out.get(len(orbit), 0) + 1
    return out


def jordan_class_count(n, q):
    """Isomorphism classes of n-dimensional representations of the Jordan
    quiver (one vertex, one loop) over F_q, that is similarity classes of
    n x n matrices. By invariant factors their number is the coefficient
    of x^n in prod_{i >= 1} 1 / (1 - q x^i): the sum over partitions of n
    of q to the number of parts. (prod (1 - x^i) / (1 - q x^i) would count
    the classes of GL_n, invertible matrices only.)"""
    return sum(q ** len(p) for p in integer_partitions(n))


def kostant_partition_count(gamma):
    """Isomorphism classes of representations of dimension vector gamma of
    a path quiver, over any field: by Gabriel's theorem the indecomposables
    are the positive roots, the indicator vectors of the intervals of
    vertices, so the count is the number of ways to write gamma as a sum
    of them (Kostant's partition function)."""
    n = len(gamma)
    roots = [tuple(int(i <= v <= j) for v in range(n)) for i in range(n) for j in range(i, n)]

    @lru_cache(maxsize=None)
    def count(rest, k):
        if not any(rest):
            return 1
        if k == len(roots):
            return 0
        total = count(rest, k + 1)
        less = tuple(x - y for x, y in zip(rest, roots[k]))
        if min(less) >= 0:
            total += count(less, k)
        return total

    return count(tuple(gamma), 0)


def gl_order(n, q):
    """|GL_n(F_q)| by the standard product."""
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def gf_invertible(F, m):
    """Whether the square matrix m over F has full rank, by Gaussian
    elimination on the tables F.add, F.mul, F.neg and F.inv: each step
    takes the first row with a nonzero leading entry as pivot, clears that
    column from the other rows and drops the column; a step with no such
    row means the rank is short."""
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    rows = [tuple(row) for row in m]
    while rows:
        pick = next((i for i, row in enumerate(rows) if row[0]), None)
        if pick is None:
            return False
        pivot = rows.pop(pick)
        minus_inverse = F.neg[F.inv[pivot[0]]]
        rows = [
            tuple(F.add[x][F.mul[F.mul[row[0]][minus_inverse]][y]] for x, y in zip(row[1:], pivot[1:]))
            for row in rows
        ]
    return True


def endomorphism_counts(quiver, F, gamma, rep):
    """(|End|, |Aut|) of a representation by brute force. Every tuple
    (phi_v) of gamma_v x gamma_v matrices over F with phi_t m = m phi_s on
    every arrow s -> t with matrix m is an endomorphism; it is an
    automorphism when every phi_v is in general_linear. Both sides are
    tabulated per arrow and matrix by naive_gf_mat_mul, and every tuple
    compares them."""
    mats = [tuple(all_matrices(F.q, g, g)) for g in gamma]
    invertible = [{m for m, _ in general_linear(F.q, g)} for g in gamma]
    sides = [
        (
            s,
            t,
            {phi: naive_gf_mat_mul(F, phi, m) for phi in mats[t]},
            {phi: naive_gf_mat_mul(F, m, phi) for phi in mats[s]},
        )
        for m, (s, t) in zip(rep, quiver.arrows)
    ]
    ends = auts = 0
    for phis in product(*mats):
        if all(left[phis[t]] == right[phis[s]] for s, t, left, right in sides):
            ends += 1
            auts += all(phi in group for phi, group in zip(phis, invertible))
    return ends, auts


def naive_gf_inverse(F, m):
    """m^-1 as the power of m just before the identity, by naive_gf_mat_mul.
    The powers of a singular matrix repeat without reaching the identity,
    which raises ZeroDivisionError."""
    ident = tuple(tuple(int(i == j) for j in range(len(m))) for i in range(len(m)))
    power, seen = ident, set()
    while True:
        following = naive_gf_mat_mul(F, power, m)
        if following == ident:
            return power
        if following in seen:
            raise ZeroDivisionError("matrix is not invertible")
        seen.add(following)
        power = following


def all_matrices(q, n_rows, n_cols):
    """Every n_rows x n_cols matrix over F_q as a tuple of row tuples,
    lexicographically."""
    return product(product(range(q), repeat=n_cols), repeat=n_rows)


def all_reps(quiver, gamma, q):
    """Every representation of gamma as a tuple of matrices, one per arrow
    s -> t with gamma[t] rows of gamma[s] entries, lexicographically."""
    return product(*(tuple(all_matrices(q, gamma[t], gamma[s])) for s, t in quiver.arrows))


@lru_cache(maxsize=None)
def general_linear(q, n):
    """All of GL_n(F_q) as (matrix, inverse) pairs, lexicographically, by
    filtering every n x n matrix for invertibility."""
    from complat.linmoduli import gf

    F = gf(q)
    return tuple(
        (m, naive_gf_inverse(F, m)) for m in all_matrices(q, n, n) if gf_invertible(F, m)
    )


def act(quiver, F, g, rep):
    """The base change by one (matrix, inverse) pair per vertex: each arrow
    s -> t with matrix m becomes g_t m g_s^-1, by naive_gf_mat_mul."""
    return tuple(
        naive_gf_mat_mul(F, naive_gf_mat_mul(F, g[t][0], m), g[s][1])
        for m, (s, t) in zip(rep, quiver.arrows)
    )


def burnside_class_count(quiver, gamma, q):
    """Number of isomorphism classes of representations by Burnside's
    lemma: average over the base-change group of the number of fixed
    representations. No orbits are ever built."""
    from complat.linmoduli import gf

    F = gf(q)
    per_vertex = [general_linear(q, g) for g in gamma]
    reps = list(all_reps(quiver, gamma, q))
    total = 0
    group_order = 0
    for g in product(*per_vertex):
        group_order += 1
        total += sum(1 for r in reps if act(quiver, F, g, r) == r)
    assert total % group_order == 0
    return total // group_order


def full_group_iso_classes(quiver, gamma, q):
    """Isomorphism classes by acting with every element of the base-change
    group on the lex-least representation of each class not yet seen."""
    from complat.linmoduli import IsoClasses, gf

    F = gf(q)
    per_vertex = [general_linear(q, g) for g in gamma]
    group_order = prod(len(pairs) for pairs in per_vertex)
    class_of = {}
    reps, orbit_sizes, aut_orders = [], [], []
    for rep in all_reps(quiver, gamma, q):
        if rep in class_of:
            continue
        orbit = {act(quiver, F, g, rep) for g in product(*per_vertex)}
        for member in orbit:
            class_of[member] = len(reps)
        reps.append(rep)
        orbit_sizes.append(len(orbit))
        aut_orders.append(group_order // len(orbit))
    return IsoClasses(
        quiver, tuple(gamma), q, tuple(reps), tuple(orbit_sizes), tuple(aut_orders),
        group_order, class_of,
    )


def sample_sign_vectors(arr, rng, count):
    """Sign vectors of random rational points; every one must be realizable."""
    from complat.arrangement import sign_vector_of

    out = set()
    for _ in range(count):
        v = qvec(
            Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(arr.dim)
        )
        out.add(sign_vector_of(arr, v))
    return out


def naive_gf_mat_mul(F, a, b):
    """a times b by the schoolbook triple loop over the tables F.add and
    F.mul. A matrix with no rows has no columns either, as in complat."""
    cols = len(b[0]) if b else 0
    out = []
    for i in range(len(a)):
        row = []
        for j in range(cols):
            acc = 0
            for k in range(len(b)):
                acc = F.add[acc][F.mul[a[i][k]][b[k][j]]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def naive_gf_mat_vec(F, m, v):
    """m times v by the schoolbook double loop over the tables F.add and
    F.mul."""
    out = []
    for row in m:
        acc = 0
        for k in range(len(v)):
            acc = F.add[acc][F.mul[row[k]][v[k]]]
        out.append(acc)
    return tuple(out)


def direct_hall_product(quiver, q, f, g):
    """The convolution (f*g)(L) = sum over subrepresentations S of L of
    f(L/S) * g(S), enumerating the subrepresentations of every class again
    on each call instead of reading counts tabulated per pair of dimension
    vectors."""
    from complat.linmoduli import iso_classes, quotient_rep, sub_rep, subrep_spaces

    out = {}
    for df in sorted({ref[0] for ref in f}):
        for dg in sorted({ref[0] for ref in g}):
            gamma = tuple(a + b for a, b in zip(df, dg))
            whole = iso_classes(quiver, gamma, q)
            subs = iso_classes(quiver, dg, q)
            quots = iso_classes(quiver, df, q)
            for li, rep in enumerate(whole.reps):
                total = 0
                for spaces in subrep_spaces(quiver, rep, gamma, q, dg):
                    sc = subs.class_of[sub_rep(quiver, rep, spaces, q)]
                    qc = quots.class_of[quotient_rep(quiver, gamma, rep, spaces, q)]
                    total += f.get((df, qc), 0) * g.get((dg, sc), 0)
                if total:
                    out[(gamma, li)] = out.get((gamma, li), 0) + total
    return {k: v for k, v in out.items() if v}


def direct_flag_count(quiver, q, gamma, rep, ra, rb, rc):
    """Chains S1 <= S2 <= rep with S1 of class rc, S2/S1 of class rb and
    rep/S2 of class ra, enumerated for this one class triple. Inner
    subspaces are enumerated inside S2 written in its own basis."""
    from complat.linmoduli import iso_classes, quotient_rep, sub_rep, subrep_spaces

    quots_a = iso_classes(quiver, ra[0], q)
    subs_c = iso_classes(quiver, rc[0], q)
    quots_b = iso_classes(quiver, rb[0], q)
    mid_gamma = tuple(b + c for b, c in zip(rb[0], rc[0]))
    count = 0
    for spaces2 in subrep_spaces(quiver, rep, gamma, q, mid_gamma):
        if quots_a.class_of[quotient_rep(quiver, gamma, rep, spaces2, q)] != ra[1]:
            continue
        mid = sub_rep(quiver, rep, spaces2, q)
        for spaces1 in subrep_spaces(quiver, mid, mid_gamma, q, rc[0]):
            if subs_c.class_of[sub_rep(quiver, mid, spaces1, q)] != rc[1]:
                continue
            if quots_b.class_of[quotient_rep(quiver, mid_gamma, mid, spaces1, q)] != rb[1]:
                continue
            count += 1
    return count


def filtered_point_count(quiver, parts, q):
    """The point count of the stack of filtered representations of type
    parts = (gamma_1, ..., gamma_k), gamma_1 the innermost sub, read off the
    linear quotient model: the cocharacter lam is k - i on the slots of
    part i, its special cone closure has the weights and roots that are
    >= 0 on lam, and a filtered point is a representation in the attractor,
    up to the parabolic, the Levi prod GL(gamma_{i,v}) times a unipotent
    group of q^(parabolic roots - levi roots) points."""
    from complat.linmoduli import quotient_spec_doc
    from complat.stackmodel import load_spec, special_cone_closure

    gamma = tuple(map(sum, zip(*parts)))
    lam = [len(parts) - i for v in range(len(gamma)) for i, part in enumerate(parts, 1) for _ in range(part[v])]
    sig = special_cone_closure(load_spec(quotient_spec_doc(quiver, gamma)), [lam])
    levi = prod(gl_order(n, q) for part in parts for n in part)
    unipotent = len(sig.parabolic_roots) - len(sig.levi_part.levi_roots)
    return Fraction(q ** len(sig.attractor_weights), levi * q**unipotent)



def euler_form(quiver, d, e):
    """The Euler form <d, e> = sum over vertices of d_v e_v minus the sum over
    arrows s -> t of d_s e_t: dim Hom(X, Y) - dim Ext^1(X, Y) for any X of
    dimension vector d and Y of e."""
    return sum(x * y for x, y in zip(d, e)) - sum(d[s] * e[t] for s, t in quiver.arrows)


def stacky_point_count(quiver, gamma, q):
    """The stacky count of all representations of gamma, by the product
    formula q^(sum over arrows s -> t of gamma_s gamma_t) / prod_v
    |GL_(gamma_v)(F_q)|."""
    arrows = sum(gamma[s] * gamma[t] for s, t in quiver.arrows)
    return Fraction(q**arrows, prod(gl_order(n, q) for n in gamma))


def ordered_decompositions(gamma):
    """Every tuple of nonzero dimension vectors summing to gamma, each part
    a vector below gamma, in lexicographic order of the parts."""
    if not any(gamma):
        yield ()
        return
    for first in product(*(range(g + 1) for g in gamma)):
        if any(first):
            for rest in ordered_decompositions(tuple(g - f for g, f in zip(gamma, first))):
                yield (first, *rest)


def exceeds_slope(theta, d, e):
    """Whether mu(d) > mu(e) for the slope mu(d) = theta.d / |d| of nonzero
    dimension vectors, |d| the sum of d's entries, compared in integers."""
    return sum(map(mul, theta, d)) * sum(e) > sum(map(mul, theta, e)) * sum(d)


def semistable_count(quiver, gamma, theta, q):
    """A^ss(gamma) at the stability theta by brute force: the sum of
    1/|Aut X| over the classes X of gamma (from iso_classes) that are
    theta-semistable.

    X is semistable when no nonzero proper subrepresentation has a larger
    slope than X, that is mu(d) <= mu(gamma) for the dimension vector d of
    every subrepresentation (King 1994, in slope form). So the count reads
    only whether _subreps finds a subrepresentation of some dimension
    vector of larger slope, never how many."""
    from complat.linmoduli import _subreps, iso_classes

    classes = iso_classes(quiver, gamma, q)
    larger = [
        d
        for d in product(*(range(g + 1) for g in gamma))
        if 0 < sum(d) < sum(gamma) and exceeds_slope(theta, d, gamma)
    ]
    return sum(
        (
            Fraction(1, aut)
            for rep, aut in zip(classes.reps, classes.aut_orders)
            if not any(_subreps(quiver, q, rep, gamma, d) for d in larger)
        ),
        Fraction(0),
    )


def harder_narasimhan_types(gamma, theta):
    """The Harder-Narasimhan types of gamma at theta: the ordered
    decompositions gamma = gamma_1 + ... + gamma_k, gamma_1 the innermost
    sub, with mu(gamma_1) > ... > mu(gamma_k).

    Every representation X has a unique filtration 0 = X_0 < X_1 < ... <
    X_k = X whose subquotients X_i / X_(i-1) are semistable, of dimension
    vector gamma_i, with strictly decreasing slopes (Reineke 2003). Being
    unique, it is kept by every automorphism of X, so the stack of
    representations of gamma is the disjoint union over these types of the
    stacks of filtered points of each type whose subquotients are
    semistable. Taking subquotients maps the stack of filtered points of
    type (gamma_1, ..., gamma_k) onto prod_i of the stacks of gamma_i, with
    fibres of q^(-sum_(i<j) <gamma_j, gamma_i>) points whatever the
    subquotients (the fibre is the stack of iterated extensions, Ext^1
    modulo Hom). So the stratum of a type counts F(gamma_1, ..., gamma_k)
    prod_i A^ss(gamma_i) / P(gamma_i), with F its filtered_point_count and P
    the stacky count, and these strata sum to P(gamma): the
    Harder-Narasimhan recursion."""
    return [
        parts
        for parts in ordered_decompositions(gamma)
        if all(exceeds_slope(theta, a, b) for a, b in zip(parts, parts[1:]))
    ]


def reineke_semistable_count(quiver, gamma, theta, q):
    """A^ss(gamma) at theta in closed form, with no enumeration of
    representations (Reineke 2003): the sum over ordered
    decompositions gamma = gamma_1 + ... + gamma_k into nonzero parts with
    mu(gamma_1 + ... + gamma_i) > mu(gamma) for every i < k of

        (-1)^(k-1) q^(-sum_(i<j) <gamma_j, gamma_i>) prod_i P(gamma_i),

    P the stacky count and <,> the Euler form.

    Derivation: expand each P(gamma_i) on the right by the
    Harder-Narasimhan recursion (harder_narasimhan_types), where a type
    (d_1, ..., d_m) of gamma_i contributes q^(-sum_(l<l') <d_l', d_l>) prod_l
    A^ss(d_l), F being that twist times prod_l P(d_l). The Euler form is
    bilinear, so the twists of the blocks and the cross terms between them
    add up to the twist of the concatenated sequence. Every term is then
    q^(-twist(delta)) prod A^ss(delta_l) for one ordered sequence delta of
    nonzero vectors summing to gamma, with the sign (-1)^(k-1) of one way to
    cut delta into k consecutive blocks of strictly decreasing slopes whose
    partial block sums, all but the last, have slope larger than mu(gamma).
    Reineke's combinatorial lemma is that these signs sum to 1 for the
    one-part delta = (gamma) and to 0 for every other delta, which leaves
    A^ss(gamma)."""
    total = Fraction(0)
    for parts in ordered_decompositions(gamma):
        heads = list(accumulate(parts, lambda a, b: tuple(map(add, a, b))))
        if all(exceeds_slope(theta, head, gamma) for head in heads[:-1]):
            twist = sum(euler_form(quiver, parts[j], parts[i]) for i, j in combinations(range(len(parts)), 2))
            points = prod(stacky_point_count(quiver, part, q) for part in parts)
            total += (-1) ** (len(parts) - 1) * Fraction(q) ** -twist * points
    return total


def assignment_search_category(n_vertices, max_total):
    """The category of ordered tuples of nonzero dimension vectors of total
    at most max_total, built by search: for every ordered pair of objects,
    try every assignment of target entries to source entries, keep those
    whose blocks sum to their source entry, and order each block in every
    way. Objects come from all tuples of every length, not by extension."""
    from complat.category import FiniteCategory
    from complat.linmoduli import LmsMorphism

    vectors = [v for v in product(range(max_total + 1), repeat=n_vertices) if 0 < sum(v) <= max_total]
    objects = sorted(
        obj
        for size in range(max_total + 1)
        for obj in product(vectors, repeat=size)
        if sum(map(sum, obj)) <= max_total
    )
    morphisms = []
    for si, a in enumerate(objects):
        for ti, b in enumerate(objects):
            if len(b) < len(a):
                continue
            for assignment in product(range(len(a)), repeat=len(b)) if a else ([()] if not b else []):
                blocks = [[j for j, x in enumerate(assignment) if x == i] for i in range(len(a))]
                if any(
                    tuple(sum(b[j][v] for j in blk) for v in range(n_vertices)) != a[i]
                    for i, blk in enumerate(blocks)
                ):
                    continue
                for orders in product(*(permutations(blk) for blk in blocks)):
                    morphisms.append(LmsMorphism(si, ti, tuple(orders)))

    return FiniteCategory.build(
        objects,
        morphisms,
        lambda oi: LmsMorphism(oi, oi, tuple((j,) for j in range(len(objects[oi])))),
        record_composite,
    )


def refinements_out_of(entries):
    """The number of morphisms out of a one-vertex tuple of positive ints,
    in closed form: choose a composition of each entry n into k parts
    (C(n - 1, k - 1) ways), then place all the parts, (total parts)! ways."""
    return sum(
        prod(comb(n - 1, k - 1) for n, k in zip(entries, ks)) * factorial(sum(ks))
        for ks in product(*(range(1, n + 1) for n in entries))
    )


def hall_number(quiver, q, whole, quot, sub):
    """The number of subrepresentations of `whole` isomorphic to `sub`
    with quotient isomorphic to `quot`."""
    from complat.linmoduli import hall_product

    return hall_product(quiver, q, {quot: 1}, {sub: 1}).get(whole, 0)


def mat_mul_weyl_closure(generators, rank):
    """The group generated by the matrices, sorted: the closure of the
    identity under dense integer mat_mul on the right by each generator."""
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


def covector_weyl_permutations(spec):
    """weyl_permutations by covector_times_mat: each covector of the global
    arrangement pulled back along each Weyl element by a dense row-times-
    matrix product, and looked up up to sign."""
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


def fraction_basis_key(flat):
    """The flats sort key by the Fraction basis: decreasing dimension, then
    the RREF basis entries in row order."""
    return -flat.dim, tuple(x for row in flat.subspace.basis for x in row)


def record_composite(m1, m2):
    """Composite of two tuple-category morphisms as an LmsMorphism record:
    each source entry's run is the concatenation of the second morphism's
    runs over the first one's block, element by element."""
    from complat.linmoduli import LmsMorphism

    orders = tuple(tuple(k for jj in blk for k in m2.orders[jj]) for blk in m1.orders)
    return LmsMorphism(m1.source, m2.target, orders)


def closure_cell_orbits(spec):
    """Weyl orbits of the cells of the global arrangement, each a sorted
    tuple of sign vectors, sorted by size and members: every cell
    enumerated from the whole space, and each orbit closed under every
    Weyl element's signed permutation (i_j, e_j), which carries signs s to
    (e_j * s_{i_j})_j."""
    perms = weyl_permutations(spec)
    all_cells = cells(global_arrangement(spec))
    known, seen, out = set(all_cells), set(), []
    for s in all_cells:
        if s not in seen:
            orbit = {tuple(e * s[i] for i, e in perm) for perm in perms}
            if not orbit <= known:
                raise InvariantError(f"weyl image {min(orbit - known)} of the cell {s} is no cell")
            seen |= orbit
            out.append(tuple(sorted(orbit)))
    return tuple(sorted(out, key=lambda o: (len(o), o)))


def per_composite_compose(m1, m2, subs, middle_scale):
    """Tits composition of two Hall morphisms with each composite paying
    for its own embedding pair: the product of the embeddings over the
    middle object's scale, and each covector of the composite's
    sub-arrangement pulled back along the second embedding and looked up
    by a linear search in the first factor's sub-arrangement (keeping the
    first chamber's sign, corrected for the canonicalization flip) or, when
    it vanishes there, in the second's. subs maps (target, embedding) to
    its sub-arrangement."""
    cols = tuple(zip(*m2.embedding))
    product = [[int_dot(row, col) for col in cols] for row in m1.embedding]
    if any(x % middle_scale for row in product for x in row):
        raise InvariantError(f"composite embedding {vec_str(*product)} is not divisible by {middle_scale}")
    emb = tuple(tuple(x // middle_scale for x in row) for row in product)
    first, second = subs[m1.target, m1.embedding].covectors, subs[m2.target, m2.embedding].covectors
    signs = []
    for w in subs[m2.target, emb].covectors:
        pull = tuple(int_dot(w, row) for row in m2.embedding)
        if any(pull):
            canon, sgn = canonical_covector_signed(pull)
            signs.append(sgn * m1.chamber[first.index(canon)])
        else:
            signs.append(m2.chamber[second.index(w)])
    return HallMorphism(m1.source, m2.target, emb, tuple(signs))


def fubini_number(n):
    """Ordered set partitions of an n-set, the cells of the rank-n braid
    arrangement (a cell orders the coordinates, ties allowed): a(0) = 1 and
    a(n) = the sum over k = 1..n of C(n, k) a(n - k), k the size of the
    first block."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def argparse_cli_parser():
    """The command line as argparse parsed it before cli's own table
    parser: the same options, choices, int types, defaults and help
    strings, built independently of cli's table. Its parse_args gives a
    Namespace with the fields cli._parse_args must give."""
    parser = argparse.ArgumentParser(
        prog="complat",
        description="Component lattices of quotient stacks: faces, closures, verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec", help="path to a JSON document (linear_quotient or quiver), or - for stdin")
    common.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    p_faces = sub.add_parser("faces", parents=[common], help="enumerate special faces")
    p_faces.add_argument("--max-dim", type=int, default=3, help="total dimension bound for quiver documents")
    p_closure = sub.add_parser("closure", parents=[common], help="special closure of a face or a cone")
    p_closure.add_argument(
        "--face",
        action="append",
        metavar="VEC",
        help="spanning vector of the face as comma-separated rationals; repeatable",
    )
    p_closure.add_argument("--ray", action="append", metavar="VEC", help="generating ray of the cone; repeatable")
    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("constancy", "hall", "associativity", "finiteness", "crosscheck"),
    )
    p_verify.add_argument("--samples", type=int, default=100, help="samples per chamber")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--q", type=int, default=2, help="field size for counting suites")
    p_verify.add_argument("--max-dim", type=int, default=3, help="total dimension bound for quiver suites")
    return parser
