"""The benchmark's workloads: CLI commands, generated inputs, recorded reports.

Each workload is a list of `complat` commands that run once per pass, in
order. Arguments name shipped specs by their path in the checkout,
generated inputs as `{braid5}` or `{a3_quiver}`, and the benchmark seed as
`{seed}`. Why each workload exists, and which layer metric should move
which end-to-end metric on it, is in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass

LINEAR_SPECS = ("a1_gm", "a2_gl2", "b_gl2", "b_gl3", "b_gl4", "b_gm", "rank3_mixed")


@dataclass(frozen=True)
class Command:
    id: str
    args: tuple[str, ...]

    @property
    def seeded(self) -> bool:
        """Its report carries the seed, so the seed is left out of its digest."""
        return "{seed}" in self.args


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    warm_cache: bool = False  # set-up fills a class cache that every command reads


def _verify(cid: str, spec: str, suite: str, *extra: str) -> Command:
    return Command(cid, ("verify", spec, "--suite", suite, *extra))


_COUNTING = (
    _verify("assoc-a2_quiver-q2", "specs/a2_quiver.json", "associativity", "--q", "2", "--max-dim", "4"),
    _verify("assoc-a2_quiver-q3", "specs/a2_quiver.json", "associativity", "--q", "3", "--max-dim", "3"),
    _verify("assoc-jordan-q2", "specs/jordan.json", "associativity", "--q", "2", "--max-dim", "3"),
)

WORKLOADS = {
    "walls": Workload(
        (
            Command("faces-braid5", ("faces", "{braid5}")),
            _verify("hall-rank3_mixed", "specs/rank3_mixed.json", "hall"),
            *(
                _verify(f"constancy-{s}", f"specs/{s}.json", "constancy", "--samples", "10", "--seed", "{seed}")
                for s in LINEAR_SPECS
            ),
        )
    ),
    "lattices": Workload(
        (
            _verify("crosscheck-a2_quiver", "specs/a2_quiver.json", "crosscheck", "--max-dim", "5"),
            _verify("crosscheck-a3_quiver", "{a3_quiver}", "crosscheck", "--max-dim", "4"),
            _verify("finiteness-one_vertex", "specs/one_vertex.json", "finiteness", "--max-dim", "4"),
            _verify("finiteness-a3_quiver", "{a3_quiver}", "finiteness", "--max-dim", "3"),
        )
    ),
    "counting-cold": Workload(_COUNTING),
    "counting-warm": Workload(_COUNTING, warm_cache=True),
}


def braid_spec(n: int) -> dict:
    """The linear quotient of the rank-n braid arrangement: no weights,
    roots e_i - e_j, Weyl group generated by adjacent transpositions."""
    roots = [[int(k == i) - int(k == j) for k in range(n)] for i in range(n) for j in range(n) if i != j]
    gens = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        gens.append([[int(c == swap.get(r, r)) for c in range(n)] for r in range(n)])
    return {"type": "linear_quotient", "rank": n, "weights": [], "roots": roots, "weyl_generators": gens}


INPUTS = {
    "braid5": braid_spec(5),  # 10 hyperplanes, 541 cells
    "a3_quiver": {"type": "quiver", "vertices": ["a", "b", "c"], "arrows": [["a", "b"], ["b", "c"]]},
}

# sha256 of each command's stdout at the commit that defined the benchmark;
# for seeded commands, of the report with "seed" removed (see run.digest).
EXPECTED = {
    "faces-braid5": "8e381cbd83538c426e79864f573bcc54e5e4e354e2782e849681f551da736443",
    "hall-rank3_mixed": "f0bfa9ce329819564b5f95084f3b51c8451925daf439c5b01c1914597a037156",
    "constancy-a1_gm": "4d73194508ba0cb3f110fc8b47a8138b26ce6eed7195704c0642f460c89f254a",
    "constancy-a2_gl2": "6443001c00c3f39c2c2f243a2902f3f1d56065cb3f9ca03767423c290ca2c4a2",
    "constancy-b_gl2": "097e378405bf8a926ad502809fa079dbe14b74714b94e9a97554e6890046f9d9",
    "constancy-b_gl3": "4c0536e6c38de5594967882c5e6f26e24e725862cf98660de31b68b249bb1f14",
    "constancy-b_gl4": "f13719d17ea9bfb020f3658594a387eba1a5e9c3035c167bd7950a20661647cb",
    "constancy-b_gm": "3482b3926346575d2a42faece163d89b0cacd4779c830e4cdb054ce8b5b4abc1",
    "constancy-rank3_mixed": "9c59b540541f922e32502e6f552fb6aee8b4a4332d67d2a5ed8a04d92d7a437e",
    "crosscheck-a2_quiver": "10bfdf7135e480ba142e1ada714ec4c53aad0fac570ba27fa4a8eec53ce2128c",
    "crosscheck-a3_quiver": "0dda7ddb1cea468a343f8a1a24259f6a69b0d00e7c927b6a82e489f5a3f00552",
    "finiteness-one_vertex": "51a177b8b49854fdd0bcf521fb8635ae303ca8a0fb6b4c7ff1a475b3703bc594",
    "finiteness-a3_quiver": "c07368a58c4f0c98860605634f890cc93be81f29844d3bd7c9643fb66b266ef6",
    "assoc-a2_quiver-q2": "fb4ae852793eb510314d258ccc2ce8ab18f815beee2e98995bdea51864ea1429",
    "assoc-a2_quiver-q3": "43a21c2b5ceb465b7904e7484de2b377f30c5fc4b1e6b43a33673e848a0d6a48",
    "assoc-jordan-q2": "04d7c60c372f86b8e43b3dd56bfb1bf981c0f88895c1962dbc5806e5e7fdd9cd",
}

# Defects present when the benchmark was defined. Their commands still count
# as failed; the entry only lets `correct` tell them from a new failure.
KNOWN_DEFECTS = {
    **{
        f"constancy-{s}": "seed-dependent false alarm: the sampler can draw a zero lineality "
        "coefficient and sample the origin (ROADMAP item 2)"
        for s in ("b_gm", "b_gl2", "b_gl3", "b_gl4")
    },
    "crosscheck-a3_quiver": "ok false on 10 of 34 dimension vectors, e.g. (1,0,1): "
    "1 flat orbit but 2 decompositions",
}
