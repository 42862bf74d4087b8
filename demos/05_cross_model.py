"""Two models of the same faces, and the command line.

A dimension vector gamma of a quiver spawns a linear quotient spec: one
coordinate per unit of dimension, arrow weights, within-vertex roots,
and the block permutation symmetry. Orbits of flats of that spec should
biject with multiset decompositions of gamma (a flat of dimension k
matches a splitting into k parts). The check below runs the two
constructions independently and compares the census.

The same reports are available from the installed `complat` command;
the end of the script prints the equivalent invocations.

Run from the repository root:  python3 demos/05_cross_model.py
"""

import json
from pathlib import Path

from complat import linmoduli as lm

SPECS = Path(__file__).resolve().parent.parent / "specs"


def main():
    one = lm.load_quiver(json.loads((SPECS / "one_vertex.json").read_text()))
    a2 = lm.load_quiver(json.loads((SPECS / "a2_quiver.json").read_text()))

    print("decompositions of small dimension vectors:")
    for gamma in [(3,), (1, 1), (2, 1)]:
        quiver = one if len(gamma) == 1 else a2
        for d in lm.multiset_decompositions(gamma):
            print(f"  {gamma} = {' + '.join(str(p) for p in d)}")
        print()

    print("flat orbits vs decompositions:")
    for quiver, gamma in [(one, (1,)), (one, (2,)), (one, (3,)), (a2, (1, 1)), (a2, (2, 1))]:
        r = lm.cross_check_special_faces(quiver, gamma)
        mark = "ok" if r["ok"] else "MISMATCH"
        print(
            f"  gamma {gamma}: {r['flat_orbits']} flat orbits, "
            f"{r['decompositions']} decompositions  [{mark}]"
        )
        assert r["ok"]

    # the finite direct-sum category on tuples of dimension vectors
    cat = lm.hall_category_lms(1, 3)
    ident = lm.identification(cat.objects)
    print(
        f"\ntuple category, one vertex, total <= 3: {len(cat.objects)} objects, "
        f"{len(cat.morphisms)} morphisms"
    )
    print(
        f"  forgetting the order (report only): {ident['identification_classes']} classes, "
        f"{ident['would_merge']} objects would merge, applied: {ident['applied']}"
    )

    print("\nthe same data from the command line:")
    for cmd in [
        "complat faces specs/a2_gl2.json",
        "complat closure specs/a2_gl2.json --ray 1,1",
        "complat verify specs/a2_gl2.json --suite hall",
        "complat verify specs/a2_quiver.json --suite crosscheck --max-dim 3",
        "complat verify specs/one_vertex.json --suite associativity --q 2 --max-dim 3",
    ]:
        print(" ", cmd)


if __name__ == "__main__":
    main()
