"""Special closures of faces and cones.

A face, a subspace of the cocharacter space given here as the span of a
few vectors, can usually be enlarged without changing which weights and
roots vanish on it. Its special closure is the largest such enlargement:
the minimal flat of the wall arrangement containing it. Central rank
measures that flat; a face is special exactly when it already is one.

Cones work the same way but one-sidedly. The closure keeps the attracted
weights instead of the fixed ones, and the answer depends on the
direction of the rays, not just their span. On the multiplicative line
acting on itself the three special cones are 0, the nonnegative ray, and
the whole line; the closed negative ray is not special because nothing
distinguishes it from the full line.

Run from the repository root:  python3 demos/02_closures_and_cones.py
"""

import json
from pathlib import Path

from complat import stackmodel as sm
from complat.qlinalg import span

HERE = Path(__file__).resolve().parent.parent / "specs"


def show_face(spec, vectors):
    face = span(vectors, spec.rank)
    flat = sm.special_face_closure(spec, face)
    crk = sm.central_rank(spec, face)
    print(
        f"  span{vectors}: dim {face.dim}, closure dim {flat.dim}, "
        f"central rank {crk}, special: {sm.is_special(spec, face)}"
    )


def main():
    spec = sm.load_spec(json.loads((HERE / "rank3_mixed.json").read_text()))
    print(f"rank-3 spec: {len(spec.weights)} weights, {len(spec.roots)} roots")
    print("closures of a few faces:")
    show_face(spec, [])
    show_face(spec, [(1, 0, 0)])
    show_face(spec, [(1, 2, 3)])
    show_face(spec, [(1, 0, 0), (0, 1, 0)])

    # closure never changes the signature, only the ambient room
    face = span([(1, 0, 0)], spec.rank)
    flat = sm.special_face_closure(spec, face)
    before = sm.component_signature(spec, face)
    after = sm.component_signature(spec, flat.subspace)
    assert before.fixed_weights == after.fixed_weights
    assert before.levi_roots == after.levi_roots
    print("closure preserved the signature: ok")

    gm = sm.load_spec(json.loads((HERE / "a1_gm.json").read_text()))
    print("\nmultiplicative line, special cones:")
    for orbit in sm.enumerate_special_cones(gm):
        sig = orbit.signature
        print(
            f"  rays {sig.ambient_rays or '(origin)'}  dim {orbit.dim}  "
            f"attracts {list(sig.attractor_weights)}"
        )

    down = sm.special_cone_closure(gm, [(-1,)])
    print(f"closure of the negative ray: rays {down.ambient_rays} (the whole line)")
    assert down.ambient_rays == ((-1,), (1,))


if __name__ == "__main__":
    main()
