"""The Hall category of a quotient.

Objects are the orbits of special faces. A morphism into an object is a
chamber of that face's wall arrangement relative to the sub-arrangement
cut by the source; composing means nudging out of the smaller face in
the direction the chamber remembers, which is the first-nonzero
composition of sign vectors. Associativity of that rule is checked
exhaustively over every composable triple. The category is a
complat.category.FiniteCategory: morphisms are indexed in sorted order,
and its table is one row per morphism i, `then[i]`, mapping each morphism
j out of i's target to the index of "i then j"; `compose` reads it.

Run from the repository root:  python3 demos/03_hall_category.py
"""

import json
from pathlib import Path

from complat import stackmodel as sm

SPECS = Path(__file__).resolve().parent.parent / "specs"


def main():
    for name in ("b_gm.json", "a1_gm.json", "a2_gl2.json", "b_gl3.json"):
        spec = sm.load_spec(json.loads((SPECS / name).read_text()))
        cat = sm.hall_category(spec)
        report = sm.verify_hall_category(cat)
        assert report["ok"], report
        print(
            f"{name:<14} objects {report['objects']:>2}  "
            f"morphisms {report['morphisms']:>3}  "
            f"composable pairs {report['pairs']:>4}  triples {report['triples']:>5}"
        )

    spec = sm.load_spec(json.loads((SPECS / "a2_gl2.json").read_text()))
    cat = sm.hall_category(spec)
    print("\nobjects of the rank-2 example (by face dim):")
    for i, obj in enumerate(cat.objects):
        print(f"  [{i}] dim {obj.flat.dim}, orbit size {obj.orbit_size}")

    print("\na few morphisms (source -> target, chamber signs):")
    for i, m in enumerate(cat.morphisms[:8]):
        print(f"  ({i}) {m.source} -> {m.target}  signs {m.chamber}")

    # composition lands where the sign composition says it must
    composable = [
        (i, j)
        for i, m1 in enumerate(cat.morphisms)
        for j in cat.then[i]
        if m1.source != m1.target != cat.morphisms[j].target
    ]
    i, j = composable[0]
    k = cat.compose(i, j)
    m1, m2, m3 = cat.morphisms[i], cat.morphisms[j], cat.morphisms[k]
    print(f"\ncompose ({i}): {m1.source}->{m1.target} with ({j}): {m2.source}->{m2.target}")
    print(f"  = ({k}): {m3.source}->{m3.target}  signs {m3.chamber}")

    ok = sm.hall_composition_weight_identity(spec, cat)
    print(f"weight bookkeeping splits along every composition: {ok}")
    assert ok is True


if __name__ == "__main__":
    main()
