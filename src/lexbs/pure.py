"""Pure Betti diagrams and the partial order of degree sequences.

A strictly increasing degree sequence d = (d_0 < d_1 < ... < d_p)
determines a unique smallest integral diagram concentrated on the
positions (i, d_i): entry_i = lam / prod_{k != i} |d_i - d_k|, where
lam is the least common multiple of those products.  These are the rays
of the Boij-Soderberg cone; the greedy decomposition peels them off a
diagram one at a time.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import lcm, prod

from .betti import BettiDiagram


class NotDecomposable(Exception):
    """The diagram left the domain of the greedy decomposition."""


def validate_degree_sequence(seq) -> tuple[int, ...]:
    seq = tuple(int(d) for d in seq)
    if not seq:
        raise ValueError("degree sequence must be nonempty")
    if any(d < 0 for d in seq):
        raise ValueError(f"negative degree in {seq}")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"degree sequence must strictly increase: {seq}")
    return seq


class PureDiagram:
    """The canonical integral pure diagram on a degree sequence."""

    __slots__ = ("seq", "lam", "pure_entries")

    def __init__(self, seq, lam, pure_entries):
        self.seq = seq
        self.lam = lam
        self.pure_entries = pure_entries

    def items(self):
        """Diagram entries, keyed like a Betti table: (i, d_i) -> entry."""
        return tuple(
            ((i, d), e) for i, (d, e) in enumerate(zip(self.seq, self.pure_entries))
        )

    def as_betti(self, n: int, coeff=1) -> BettiDiagram:
        return BettiDiagram(
            n, {(i, d): coeff * e for (i, d), e in self.items()}
        )

    def __repr__(self):
        return f"PureDiagram(seq={self.seq}, lam={self.lam}, entries={self.pure_entries})"


@lru_cache(maxsize=None)
def pure_diagram(seq: tuple[int, ...]) -> PureDiagram:
    """Smallest integral pure diagram on the given degree sequence.

    For a singleton sequence the diagram is a lone 1 with lam = 1.
    """
    seq = validate_degree_sequence(seq)
    if len(seq) == 1:
        return PureDiagram(seq, 1, (1,))
    products = [
        prod(abs(di - dk) for dk in seq if dk != di) for di in seq
    ]
    lam = reduce(lcm, products)
    entries = tuple(lam // p for p in products)
    return PureDiagram(seq, lam, entries)


def seq_leq(s, t) -> bool:
    """Componentwise order on degree sequences, across lengths.

    s <= t iff s is at least as long as t and s_i <= t_i wherever both
    are defined; truncating a sequence moves it up in the order.
    """
    s, t = tuple(s), tuple(t)
    if len(s) < len(t):
        return False
    return all(si <= ti for si, ti in zip(s, t))


def top_degree_sequence(B) -> tuple[int, ...]:
    """Degree sequence of the maximal pure diagram under a nonzero B.

    B is a BettiDiagram or any mapping (i, j) -> nonzero entry.  Column
    i contributes its minimal internal degree with an entry.  Raises
    NotDecomposable when the columns are not a prefix 0..p-1 or the
    minima fail to strictly increase.
    """
    if not B:
        raise NotDecomposable("empty diagram has no top degree sequence")
    by_col: dict[int, int] = {}
    for (i, j), _ in B.items():
        if i not in by_col or j < by_col[i]:
            by_col[i] = j
    cols = sorted(by_col)
    if cols != list(range(len(cols))):
        raise NotDecomposable(
            f"nonzero columns {cols} are not a prefix 0..{len(cols) - 1}"
        )
    seq = tuple(by_col[i] for i in cols)
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise NotDecomposable(
            f"per-column minimal degrees {seq} do not strictly increase"
        )
    return seq
