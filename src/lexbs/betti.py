"""Graded Betti numbers of stable monomial ideals.

For a stable ideal the minimal free resolution is combinatorial
(Eliahou-Kervaire): a minimal generator u of degree j contributes
binomial(m(u)-1, i) to beta_{i, i+j}, where m(u) is the largest
variable index dividing u.  Diagrams are sparse maps
(homological index i, internal degree j) -> multiplicity.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from .ideal import MonomialIdeal, is_stable, max_gen_degree, stable_violation
from .monomial import format_monomial, max_index


class BettiDiagram:
    """A sparse Betti table with nonnegative rational entries.

    Zero values are dropped on construction; negative values are
    rejected.  Values may be ints or Fractions; equality treats 2 and
    Fraction(2) as the same entry.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries):
        clean = {}
        for (i, j), v in dict(entries).items():
            if v < 0:
                raise ValueError(f"negative entry {v} at {(i, j)}")
            if v != 0:
                clean[(int(i), int(j))] = v
        self.n = n
        self.entries = clean

    def get(self, i: int, j: int):
        return self.entries.get((i, j), 0)

    def items(self):
        return self.entries.items()

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, BettiDiagram)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __repr__(self):
        body = ", ".join(
            f"({i},{j}): {v}" for (i, j), v in sorted(self.entries.items())
        )
        return f"BettiDiagram({self.n}, {{{body}}})"


def _diagram(n: int, entries: dict) -> BettiDiagram:
    """The BettiDiagram of entries known to be positive and keyed by int
    pairs, kept as given: without the constructor's copy and checks."""
    B = object.__new__(BettiDiagram)
    B.n = n
    B.entries = entries
    return B


def ek_betti(I: MonomialIdeal) -> BettiDiagram:
    """Betti diagram of the ideal I, which must be stable.

    beta_{i, i+j}(I) = sum over degree-j generators u of
    binomial(m(u)-1, i).  A non-stable input raises ValueError naming a
    violating generator.  The generators are counted by (degree, m(u))
    first, each m(u) read off the exponents in one pass, and each count
    then adds a binomial row.
    """
    _require_stable(I)
    cells: dict[tuple[int, int], int] = {}
    for g in I.gens:
        e = g.exponents
        m = len(e)
        while not e[m - 1]:
            m -= 1
        key = (g.degree, m)
        cells[key] = cells.get(key, 0) + 1
    entries: dict[tuple[int, int], int] = {}
    for (j, m), count in cells.items():
        for i in range(m):
            key = (i, i + j)
            entries[key] = entries.get(key, 0) + count * comb(m - 1, i)
    return _diagram(I.n, entries)


def mapping_cone_betti(
    colon_diagram: BettiDiagram,
    xfree_diagram: Optional[BettiDiagram] = None,
) -> BettiDiagram:
    """Betti diagram of L = x_1*A + J assembled from those of A and J.

    The cone of the comparison map adds the diagram of A shifted by one
    in internal degree, the diagram of J as-is, and the diagram of J
    shifted by one in both coordinates; no cancellation occurs.  J's
    diagram is computed over the smaller ring but keeps its (i, j) keys
    unchanged under the re-embedding.
    """
    out: dict[tuple[int, int], object] = {}

    def bump(i, j, v):
        out[(i, j)] = out.get((i, j), 0) + v

    for (i, j), v in colon_diagram.items():
        bump(i, j + 1, v)
    if xfree_diagram is not None:
        for (i, j), v in xfree_diagram.items():
            bump(i, j, v)
            bump(i + 1, j + 1, v)
    return _diagram(colon_diagram.n, out)


def quotient_diagram(B: BettiDiagram) -> BettiDiagram:
    """Turn the diagram of an ideal I into the diagram of R/I.

    R/I has beta_{0,0} = 1 and beta_{i+1, j}(R/I) = beta_{i, j}(I).
    """
    entries = {(i + 1, j): v for (i, j), v in B.items()}
    entries[(0, 0)] = entries.get((0, 0), 0) + 1
    return _diagram(B.n, entries)


def proj_dim(I: MonomialIdeal) -> int:
    """Projective dimension of R/I for stable I: max of m(u) over G(I)."""
    _require_stable(I)
    return max(max_index(g) for g in I.gens)


def regularity(I: MonomialIdeal) -> int:
    """Castelnuovo-Mumford regularity of a stable ideal: max generator degree."""
    _require_stable(I)
    return max_gen_degree(I)


def _require_stable(I: MonomialIdeal) -> None:
    """Raise ValueError naming a generator whose exchange leaves I,
    unless I is stable."""
    if not is_stable(I):
        u, i, v = stable_violation(I)
        raise ValueError(
            f"ideal is not stable: generator {format_monomial(u)} needs "
            f"x_{i}*{format_monomial(u)}/x_{max_index(u)} = "
            f"{format_monomial(v)} in the ideal"
        )
