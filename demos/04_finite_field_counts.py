"""Counting quiver representations over small finite fields.

Everything here is exact: isomorphism classes come from an orbit sweep
that closes each orbit under generators of the base-change group
(transvections and one diagonal matrix per vertex), automorphism orders
from |GL| divided by the orbit sizes, and the stacky count sum(1/|Aut|)
always collapses to the closed form q^(sum of arrow blocks) / product |GL|. Subobject counts of the
one-vertex quiver are Gaussian binomials, and the Hall product built
from subobject counting is associative but visibly not commutative.

Run from the repository root:  python3 demos/04_finite_field_counts.py
"""

import json
from fractions import Fraction
from pathlib import Path

from complat import linmoduli as lm

SPECS = Path(__file__).resolve().parent.parent / "specs"


def main():
    one = lm.load_quiver(json.loads((SPECS / "one_vertex.json").read_text()))
    a2 = lm.load_quiver(json.loads((SPECS / "a2_quiver.json").read_text()))
    jordan = lm.load_quiver(json.loads((SPECS / "jordan.json").read_text()))

    print("isomorphism classes (gamma, q -> classes, orbit sizes):")
    for quiver, label, gamma, q in [
        (a2, "a2", (1, 1), 3),
        (jordan, "jordan loop", (2,), 2),
        (a2, "a2", (2, 1), 2),
    ]:
        classes = lm.iso_classes(quiver, gamma, q)
        mass = sum(Fraction(1, a) for a in classes.aut_orders)
        print(
            f"  {label:<12} gamma {gamma} q={q}: {len(classes.reps)} classes, "
            f"orbits {classes.orbit_sizes}, mass {mass} = {lm.stacky_count(quiver, gamma, q)}"
        )

    print("\nsubobject counts of the 4-dim vector space over F_2:")
    ref = lm.class_refs(one, 2, (4,))[0]
    for gamma, count in sorted(lm.count_subreps_by_dim(one, 2, ref).items()):
        print(f"  dim {gamma[0]}: {count}")

    # Hall product: extensions of v by u on the arrow u -> v
    q = 2
    refs_u = lm.class_refs(a2, q, (1, 0))
    refs_v = lm.class_refs(a2, q, (0, 1))
    delta_u = {refs_u[0]: Fraction(1)}
    delta_v = {refs_v[0]: Fraction(1)}
    uv = lm.hall_product(a2, q, delta_u, delta_v)
    vu = lm.hall_product(a2, q, delta_v, delta_u)
    print("\nHall products on the arrow quiver (class -> coefficient):")
    print("  u * v:", {r: str(c) for r, c in sorted(uv.items())})
    print("  v * u:", {r: str(c) for r, c in sorted(vu.items())})
    assert uv != vu, "the product must see the extension direction"

    report = lm.verify_counting_hall(a2, 2, 3)
    assert report["ok"]
    print(
        f"\nassociativity check, arrow quiver, q=2, total <= 3: "
        f"{report['classes']} classes, {report['triples']} triples, "
        f"{report['flag_checks']} flag comparisons, all equal"
    )


if __name__ == "__main__":
    main()
