"""Finite categories given by an explicit composition table: one builder
and one law checker for both finite instances of the Hall structure, the
Hall category of a linear quotient (stackmodel) and the category of
ordered tuples of dimension vectors (linmoduli).

The table is stored once, as one row per morphism: `then[i]` maps every
morphism j out of i's target, in ascending j, to the index of "i then j".
The composable pairs are exactly the entries of the rows."""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Hashable, Sequence

from .errors import InvariantError


class FiniteCategory(namedtuple("FiniteCategory", "objects morphisms identities then")):
    """A finite category whose morphisms are referred to by index: tuples
    of objects and of morphisms, the index of each object's identity, and
    then, one dict per morphism i with then[i][j] = i then j for each
    morphism j out of i's target, ascending."""

    __slots__ = ()

    def compose(self, first: int, then: int) -> int:
        return self.then[first][then]

    @classmethod
    def build(
        cls,
        objects: Sequence,
        morphisms: Sequence[Hashable],
        identity: Callable[[int], Hashable],
        composite: Callable[[Hashable, Hashable], Hashable],
    ) -> "FiniteCategory":
        """Sort and index the morphisms (hashable, ordered values with
        `source` and `target` object indices), look up each object's
        identity and fill one row per morphism i: every morphism j out of
        i's target, ascending, with the index of their composite. A
        composite or identity outside the morphism set raises
        InvariantError."""
        morphisms = tuple(sorted(morphisms))
        index = {m: i for i, m in enumerate(morphisms)}
        by_source: list[list[int]] = [[] for _ in objects]
        for i, m in enumerate(morphisms):
            by_source[m.source].append(i)

        def lookup(m, what: str) -> int:
            k = index.get(m)
            if k is None:
                raise InvariantError(f"{what} fell outside the morphism set: {m}")
            return k

        identities = tuple(lookup(identity(o), "identity") for o in range(len(objects)))
        then = tuple(
            {j: lookup(composite(m1, morphisms[j]), "composite") for j in by_source[m1.target]}
            for m1 in morphisms
        )
        return cls(tuple(objects), morphisms, identities, then)


def check_laws(cat: FiniteCategory) -> dict:
    """Exhaustively check a category's table, reading its rows in place:
    every composite runs from the first factor's source to the second
    factor's target, both unit laws hold for every morphism, and
    composition is associative on every composable triple, walked in
    lexicographic (i, j, k) order. Reports the first failure, or the
    sizes checked."""
    ms, then = cat.morphisms, cat.then
    for i, then_i in enumerate(then):
        for j, k in then_i.items():
            if ms[k].source != ms[i].source or ms[k].target != ms[j].target:
                return {"ok": False, "law": "composite endpoints", "pair": (i, j)}
    for i, m in enumerate(ms):
        if then[cat.identities[m.source]][i] != i:
            return {"ok": False, "law": "left unit", "morphism": i}
        if then[i][cat.identities[m.target]] != i:
            return {"ok": False, "law": "right unit", "morphism": i}
    triples = 0
    for i, then_i in enumerate(then):
        for j, ij in then_i.items():
            then_j, then_ij = then[j], then[ij]
            triples += len(then_j)
            for k, jk in then_j.items():
                if then_ij[k] != then_i[jk]:
                    return {"ok": False, "law": "associativity", "triple": (i, j, k)}
    return {"ok": True, "objects": len(cat.objects), "morphisms": len(ms), "triples": triples}
