"""Acceptance suite.

One test per acceptance criterion. Each prints a single PASS/FAIL line with
its runtime against the stated budget, so the suite output doubles as the
acceptance report.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from complat import linmoduli as lm
from complat import stackmodel as sm
from complat.arrangement import cells, flats, from_vectors, sign_vector_of, tits_compose
from complat.qlinalg import canonical_covector, intersect, span
from oracles import gaussian_binomial, integer_partitions

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"


def load_spec(name):
    return sm.load_spec(json.loads((SPECS / name).read_text()))


def load_quiver(name):
    return lm.load_quiver(json.loads((SPECS / name).read_text()))


@contextmanager
def criterion(capsys, number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number:2d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    ok = budget is None or elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    suffix = f"budget {budget}s" if budget is not None else "no budget"
    with capsys.disabled():
        print(f"[criterion {number:2d}] {verdict} {label} ({elapsed:.3f}s, {suffix})")
    assert ok, f"criterion {number} overran its budget: {elapsed:.3f}s >= {budget}s"


# Region labels of the rank-2 general linear example, encoded as signatures.
# Grad side: (weights fixed by the ray, roots of the Levi); Filt side:
# (weights attracted by the ray, roots of the parabolic). Sorted tuples.
W1, W2 = (1, 0), (0, 1)
RP, RM = (1, -1), (-1, 1)
ALL_W = (W2, W1)
ALL_R = (RM, RP)

FIG_RAYS = [
    # ray, (fixed, levi), (attractor, parabolic)
    ((0, 0), (ALL_W, ALL_R), (ALL_W, ALL_R)),
    ((1, 1), ((), ALL_R), (ALL_W, ALL_R)),
    ((-1, -1), ((), ALL_R), ((), ALL_R)),
    ((1, 0), ((W2,), ()), (ALL_W, (RP,))),
    ((-1, 0), ((W2,), ()), ((W2,), (RM,))),
    ((0, 1), ((W1,), ()), (ALL_W, (RM,))),
    ((0, -1), ((W1,), ()), ((W1,), (RP,))),
    ((2, 1), ((), ()), (ALL_W, (RP,))),
    ((1, 2), ((), ()), (ALL_W, (RM,))),
    ((2, -1), ((), ()), ((W1,), (RP,))),
    ((-1, 2), ((), ()), ((W2,), (RM,))),
    ((-1, -2), ((), ()), ((), (RP,))),
    ((-2, -1), ((), ()), ((), (RM,))),
]


def test_criterion_01_rank2_example_reproduction(capsys):
    with criterion(capsys, 1, "rank-2 example: 13 cells, 8 orbits, 4 faces, ray labels", 1.0):
        spec = load_spec("a2_gl2.json")
        arr = sm.global_arrangement(spec)
        assert len(cells(arr)) == 13
        assert len(sm.cell_orbits(spec)) == 8
        assert len(sm.enumerate_special_faces(spec)) == 4
        # the 13 rays hit all 13 cells, one each
        assert {sign_vector_of(arr, ray) for ray, _, _ in FIG_RAYS} == set(cells(arr))
        for ray, (fixed, levi), (attractor, parabolic) in FIG_RAYS:
            grad = sm.component_signature(spec, span([ray], 2))
            assert tuple(sorted(grad.fixed_weights)) == fixed, ray
            assert tuple(sorted(grad.levi_roots)) == levi, ray
            filt = sm.special_cone_closure(spec, [ray])
            assert tuple(sorted(filt.attractor_weights)) == attractor, ray
            assert tuple(sorted(filt.parabolic_roots)) == parabolic, ray


def test_criterion_02_multiplicative_line_cones(capsys):
    with criterion(capsys, 2, "multiplicative line: special cones are 0, Q>=0, Q", 0.1):
        spec = load_spec("a1_gm.json")
        cones = sm.enumerate_special_cones(spec)
        data = [(o.dim, o.signature.ambient_rays, o.orbit_size) for o in cones]
        assert data == [(1, ((-1,), (1,)), 1), (1, ((1,),), 1), (0, (), 1)]
        line, nonneg, origin = cones
        assert line.signature.attractor_weights == ()
        assert nonneg.signature.attractor_weights == ((1,),)
        assert origin.signature.attractor_weights == ((1,),)
        # the closed negative ray is not special: its closure is the line
        assert sm.special_cone_closure(spec, [(-1,)]).ambient_rays == ((-1,), (1,))


TITS_EXHAUSTIVE = [
    (1, [(1,)]),
    (2, [(1, 0), (0, 1)]),
    (2, [(1, 0), (0, 1), (1, -1)]),
    (2, [(1, 0), (0, 1), (1, 1), (1, -1)]),
    (2, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]),
    (2, [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (3, [(1, -1, 0), (0, 1, -1), (1, 0, -1)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1), (1, 0, -1)]),
]


def test_criterion_03_tits_product_associativity(capsys):
    with criterion(capsys, 3, "Tits product: exhaustive small + 1000 random triples", 30.0):
        for dim, covs in TITS_EXHAUSTIVE:
            arr = from_vectors(covs, dim)
            cs = cells(arr)
            cell_set = set(cs)
            zero = (0,) * len(arr.covectors)
            for x in cs:
                assert tits_compose(x, x) == x
                assert tits_compose(zero, x) == x == tits_compose(x, zero)
                for y in cs:
                    assert tits_compose(x, y) in cell_set
            for x in cs:
                for y in cs:
                    xy = tits_compose(x, y)
                    for z in cs:
                        assert tits_compose(xy, z) == tits_compose(x, tits_compose(y, z))
        rng = random.Random(20260818)
        checked = 0
        for _ in range(10):
            dim = rng.randint(2, 5)
            want = rng.randint(dim, 12)
            covs = set()
            while len(covs) < want:
                v = tuple(rng.randint(-2, 2) for _ in range(dim))
                if any(v):
                    covs.add(canonical_covector(v))
            arr = from_vectors(sorted(covs), dim)
            for _ in range(100):
                pts = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(3)]
                x, y, z = (sign_vector_of(arr, p) for p in pts)
                assert tits_compose(tits_compose(x, y), z) == tits_compose(x, tits_compose(y, z))
                checked += 1
        assert checked == 1000


def _random_spec(seed):
    """Seeded spec: braid-type symmetry on the first block of coordinates,
    weight multiset closed under it."""
    rng = random.Random(seed)
    rank = rng.randint(2, 4)
    t = rng.randint(0, min(3, rank - 1))

    def orbit(w):
        out = set()
        for p in itertools.permutations(range(t + 1)):
            v = list(w)
            for i, j in enumerate(p):
                v[i] = w[j]
            out.add(tuple(v))
        return out

    weights = set()
    for _ in range(20):
        if len(weights) >= 8:
            break
        w = tuple(rng.randint(-2, 2) for _ in range(rank))
        if any(w):
            ob = orbit(w)
            if len(weights | ob) <= 8:
                weights |= ob
    if not weights:
        weights = orbit((1,) + (0,) * (rank - 1))
    roots = [
        [1 if k == i else -1 if k == j else 0 for k in range(rank)]
        for i in range(t + 1)
        for j in range(t + 1)
        if i != j
    ]
    gens = []
    for i in range(t):
        m = [[int(r == c) for c in range(rank)] for r in range(rank)]
        m[i][i] = m[i + 1][i + 1] = 0
        m[i][i + 1] = m[i + 1][i] = 1
        gens.append(m)
    doc = {
        "type": "linear_quotient",
        "rank": rank,
        "weights": [list(w) for w in sorted(weights)],
        "roots": roots,
        "weyl_generators": gens,
    }
    return sm.load_spec(doc)


def test_criterion_04_closure_laws_on_random_faces(capsys):
    with criterion(capsys, 4, "closure laws on 500 random faces over 5 specs", 60.0):
        checked = 0
        for s_idx in range(5):
            spec = _random_spec(101 + s_idx)
            rng = random.Random(7000 + s_idx)
            for _ in range(100):
                k = rng.randint(0, spec.rank)
                vecs = [
                    tuple(rng.randint(-3, 3) for _ in range(spec.rank)) for _ in range(k)
                ]
                face = span(vecs, spec.rank)
                closure = sm.special_face_closure(spec, face)
                csub = closure.subspace
                # extensive
                assert intersect(face, csub).dim == face.dim
                # signature-preserving
                a = sm.component_signature(spec, face)
                b = sm.component_signature(spec, csub)
                assert (a.fixed_weights, a.levi_roots) == (b.fixed_weights, b.levi_roots)
                # idempotent
                again = sm.special_face_closure(spec, span(csub.basis, spec.rank))
                assert again == closure
                # central rank bounds, equality exactly on special faces
                crk = sm.central_rank(spec, face)
                assert crk == closure.dim >= face.dim
                assert (crk == face.dim) == sm.is_special(spec, face)
                assert sm.is_special(spec, span(csub.basis, spec.rank))
                # monotone in the face
                extra = tuple(rng.randint(-3, 3) for _ in range(spec.rank))
                bigger = span(list(face.basis) + [extra], spec.rank)
                cbig = sm.special_face_closure(spec, bigger)
                assert intersect(csub, cbig.subspace).dim == csub.dim
                checked += 1
        assert checked == 500


def test_criterion_05_hall_category_associativity(capsys):
    with criterion(capsys, 5, "Hall category: units and associativity on 4 specs", 60.0):
        expected = {
            "b_gm.json": (1, 1),
            "a1_gm.json": (2, 4),
            "a2_gl2.json": (4, 21),
            "b_gl3.json": (3, 22),
        }
        for name, (n_obj, n_mor) in expected.items():
            cat = sm.hall_category(load_spec(name))
            report = sm.verify_hall_category(cat)
            assert report["ok"] is True, (name, report)
            assert (report["objects"], report["morphisms"]) == (n_obj, n_mor), name
            assert report["triples"] > 0


def test_criterion_06_counting_hall_associativity(capsys):
    with criterion(capsys, 6, "counting Hall: flags, associativity, q-binomials", 120.0):
        one = load_quiver("one_vertex.json")
        a2 = load_quiver("a2_quiver.json")
        for q in (2, 3):
            for quiver in (one, a2):
                report = lm.verify_counting_hall(quiver, q, 3)
                assert report["ok"] is True, (quiver, q, report)
                assert report["flag_checks"] > 0
        # brute-force subspace counts match the product formula
        for q in (2, 3):
            for n in range(5 if q == 2 else 4):
                counts = Counter(len(rows) for rows, _ in lm.all_subspaces(q, n))
                for k in range(n + 1):
                    num = den = 1
                    for i in range(k):
                        num *= q**n - q**i
                        den *= q**k - q**i
                    assert num % den == 0
                    assert counts[k] == num // den == gaussian_binomial(n, k, q)
        assert gaussian_binomial(2, 1, 2) == 3
        assert gaussian_binomial(4, 2, 2) == 35
        # subobject counts of a semisimple class are the same numbers
        four = lm.class_refs(one, 2, (4,))[0]
        assert lm.count_subreps_by_dim(one, 2, four) == {
            (0,): 1, (1,): 15, (2,): 35, (3,): 15, (4,): 1,
        }


def test_criterion_07_cross_model_face_counts(capsys):
    with criterion(capsys, 7, "cross-model: flat orbits match decompositions", 10.0):
        cases = [
            (load_quiver("a2_quiver.json"), (1, 1), 2),
            (load_quiver("one_vertex.json"), (1,), 1),
            (load_quiver("one_vertex.json"), (2,), 2),
        ]
        for quiver, gamma, expected in cases:
            report = lm.cross_check_special_faces(quiver, gamma)
            assert report["ok"] is True, (gamma, report)
            assert report["flat_orbits"] == report["decompositions"] == expected


def test_criterion_08_braid_face_orbits_are_partitions(capsys):
    with criterion(capsys, 8, "braid quotients: face orbit counts 2, 3, 5", 30.0):
        observed = []
        for n, name in ((2, "b_gl2.json"), (3, "b_gl3.json"), (4, "b_gl4.json")):
            orbits = sm.enumerate_special_faces(load_spec(name))
            observed.append(len(orbits))
            assert len(orbits) == len(integer_partitions(n))
        assert observed == [2, 3, 5]


def test_criterion_09_constancy_sampling(capsys):
    with criterion(capsys, 9, "constancy: 200 samples per chamber, no drift", 60.0):
        for name in ("a2_gl2.json", "rank3_mixed.json"):
            spec = load_spec(name)
            for fl in flats(sm.global_arrangement(spec)):
                report = sm.constancy_check(spec, fl, samples=200, seed=7)
                assert report["ok"] is True, (name, report["discrepancies"])
                assert report["discrepancies"] == []


def _spawn(*argv):
    return subprocess.run(
        [sys.executable, "-m", "complat.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_criterion_10_byte_identical_reports(capsys):
    with criterion(capsys, 10, "determinism: reports byte-identical across runs", None):
        runs = [
            ("faces", SPECS / "a2_gl2.json"),
            ("closure", SPECS / "a2_gl2.json", "--ray", "1,1"),
            ("verify", SPECS / "rank3_mixed.json", "--suite", "constancy",
             "--samples", "20", "--seed", "5"),
            ("verify", SPECS / "a2_gl2.json", "--suite", "hall"),
            ("verify", SPECS / "a2_quiver.json", "--suite", "associativity",
             "--q", "2", "--max-dim", "2"),
            ("verify", SPECS / "one_vertex.json", "--suite", "finiteness",
             "--max-dim", "3"),
            ("verify", SPECS / "a2_quiver.json", "--suite", "crosscheck",
             "--max-dim", "2"),
        ]
        for args in runs:
            first = _spawn(*args)
            second = _spawn(*args)
            assert first.returncode == 0, (args, first.stderr)
            assert second.returncode == 0
            assert first.stdout and first.stdout == second.stdout, args
