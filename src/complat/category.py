"""Finite categories given by an explicit composition table: one builder
and one law checker for both finite instances of the Hall structure, the
Hall category of a linear quotient (stackmodel) and the category of
ordered tuples of dimension vectors (linmoduli)."""

from __future__ import annotations

from typing import Callable, Hashable, NamedTuple, Sequence

from .errors import InvariantError


class FiniteCategory(NamedTuple):
    """A finite category whose morphisms are referred to by index."""

    objects: tuple
    morphisms: tuple
    identities: tuple[int, ...]
    composition: dict[tuple[int, int], int]
    by_source: tuple[tuple[int, ...], ...]  # morphism indices per source object, ascending

    def compose(self, first: int, then: int) -> int:
        return self.composition[(first, then)]

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
        identity and fill the table over the composable pairs. A composite
        or identity outside the morphism set raises InvariantError."""
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
        composition = {
            (i, j): lookup(composite(m1, morphisms[j]), "composite")
            for i, m1 in enumerate(morphisms)
            for j in by_source[m1.target]
        }
        return cls(tuple(objects), morphisms, identities, composition, tuple(map(tuple, by_source)))


def check_laws(cat: FiniteCategory) -> dict:
    """Exhaustively check a category's table: every composite runs from
    the first factor's source to the second factor's target, both unit
    laws hold for every morphism, and composition is associative on
    every composable triple, walked in lexicographic (i, j, k) order.
    Reports the first failure, or the sizes checked."""
    ms = cat.morphisms
    for (i, j), k in cat.composition.items():
        if ms[k].source != ms[i].source or ms[k].target != ms[j].target:
            return {"ok": False, "law": "composite endpoints", "pair": (i, j)}
    # then[i][x] is i composed with x; int-keyed rows keep the triple loop cheap
    then = [{x: cat.composition[i, x] for x in cat.by_source[m.target]} for i, m in enumerate(ms)]
    for i, m in enumerate(ms):
        if then[cat.identities[m.source]][i] != i:
            return {"ok": False, "law": "left unit", "morphism": i}
        if then[i][cat.identities[m.target]] != i:
            return {"ok": False, "law": "right unit", "morphism": i}
    triples = 0
    for i, m in enumerate(ms):
        then_i = then[i]
        for j in cat.by_source[m.target]:
            then_j, then_ij = then[j], then[then_i[j]]
            triples += len(then_j)
            for k, jk in then_j.items():
                if then_ij[k] != then_i[jk]:
                    return {"ok": False, "law": "associativity", "triple": (i, j, k)}
    return {"ok": True, "objects": len(cat.objects), "morphisms": len(ms), "triples": triples}
