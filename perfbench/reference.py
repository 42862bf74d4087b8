"""Reference probe: a fixed pure-Python job that does not use complat.

    python3 perfbench/reference.py

run.py starts it in a fresh interpreter before every measured command and
reports command time in units of probe time (`wall_rel`, `cpu_rel`). The
machine's speed drifts by up to 1.7x over minutes on shared hosts, and the
probe, run seconds apart from the command, drifts with it. The job mixes
what complat's hot paths do: exact Fraction elimination and hashing of
tuples. It prints a checksum that run.py compares with REFERENCE_OUTPUT, so
a probe that did less work would be caught.
"""

from __future__ import annotations

from fractions import Fraction


def eliminate(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    rows = [r[:] for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c] != 0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def main() -> str:
    total = Fraction(0)
    for k in range(70):
        m = [[Fraction((i * 7 + j * 3 + k) % 11 + 1, i + j + k + 1) for j in range(8)] for i in range(8)]
        total += eliminate(m)
    orbit: dict[tuple[int, ...], int] = {}
    v = (1, 2, 3, 4, 5)
    for i in range(100000):
        v = v[1:] + ((v[0] * 31 + v[2] + i) % 1009,)
        orbit[v] = orbit.get(v, 0) + 1
    return f"{total.numerator % 1000003} {total.denominator % 1000003} {len(orbit)}"


if __name__ == "__main__":
    print(main())
