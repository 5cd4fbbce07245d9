"""Greedy chain decomposition of Betti diagrams into pure diagrams.

Peel off the top pure diagram with the largest multiplier that keeps
every entry nonnegative; repeat on the remainder.  All arithmetic is
exact, so reconstruction from the summands is an identity, not an
approximation.  The degree sequences encountered form a
descending chain in the seq_leq order, with lengths non-increasing, so
full-length summands form a contiguous prefix and shorter ones a
contiguous suffix.

Every summand is taken from one bounded table, `summand`, so equal
(coefficient, sequence) pairs are one shared, immutable object: the
chains of related ideals, and the shifted prefixes verify builds from
them, then compare equal summands by identity.  The table is keyed by
ints alone, the coefficient's numerator and denominator in lowest terms
and the degree sequence, so finding a pair never hashes a Fraction.
Losing an entry to eviction loses only sharing: an equal pair is built
again, equal by value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import lt

from .betti import BettiDiagram
from .pure import NotDecomposable, pure_diagram, top_degree_sequence


class Decomposition:
    """Ordered summands (coefficient, degree sequence) of a greedy chain."""

    def __init__(self, summands: tuple[tuple[Fraction, tuple[int, ...]], ...]):
        self.summands = summands

    def __eq__(self, other):
        return type(other) is Decomposition and other.summands == self.summands

    def __hash__(self):
        return hash(self.summands)

    def __repr__(self):
        return f"Decomposition(summands={self.summands!r})"

    def sequences(self) -> tuple[tuple[int, ...], ...]:
        return tuple(seq for _, seq in self.summands)

    def __len__(self):
        return len(self.summands)

    def __iter__(self):
        return iter(self.summands)


# A D=9 campaign meets 2118 distinct summands and a D=10 one 3247, so
# the table keeps them all.
SUMMAND_TABLE_SIZE = 8192


@lru_cache(maxsize=SUMMAND_TABLE_SIZE)
def summand(num: int, den: int, seq: tuple[int, ...]) -> tuple[Fraction, tuple[int, ...]]:
    """The shared summand (num/den, seq), for num/den in lowest terms
    with den > 0; it keeps the seq tuple it was first built with."""
    return Fraction(num, den), seq


def bs_decompose(B: BettiDiagram) -> Decomposition:
    """Greedy decomposition of a nonzero diagram into pure diagrams.

    Each step subtracts alpha * pi(d) where d is the top degree sequence
    of the remainder and alpha = min_i remainder[i, d_i] / entry_i.  A
    diagram outside the cone raises NotDecomposable with the message of
    top_degree_sequence on the first remainder off it.

    The remainder is kept as integer numerators by column: the end of
    column k, of least degree seq[k], over den * s in ends[k], and the
    entries above it over den in degs[k] and nums[k].  A step changes only
    the ends, in place: alpha comes from cross-multiplying them, they and
    s are scaled by the minimizing pure entry, and pi is subtracted.  An
    entry popped to an end is scaled by s, and s comes down by the gcd of
    the ends.  The cone conditions are tested on B, and again only when a
    column empties or an end moves up to the next one.
    """
    entries = B.entries
    if not entries:
        raise NotDecomposable("cannot decompose an empty diagram")
    den = 1
    if not all(type(v) is int for v in entries.values()):
        exact = {key: Fraction(v) for key, v in entries.items()}
        den = lcm(*(v.denominator for v in exact.values()))
        entries = {k: v.numerator * (den // v.denominator) for k, v in exact.items()}
    # Descending keys: the first lies in the last column, the last in the first.
    keys = sorted(entries, reverse=True)
    lo = keys[-1][0]
    degs: list[list[int]] = [[] for _ in range(keys[0][0] - lo + 1)]
    nums: list[list[int]] = [[] for _ in degs]
    for key in keys:
        degs[key[0] - lo].append(key[1])
        nums[key[0] - lo].append(entries[key])
    seq = [col.pop() for col in degs if col]
    # In the cone: columns 0..p-1, none empty, ends strictly increasing.
    if lo or len(seq) < len(degs) or not all(map(lt, seq, seq[1:])):
        top_degree_sequence(entries)  # raises
    ends = [col.pop() for col in nums]
    s = 1
    summands: list[tuple[Fraction, tuple[int, ...]]] = []
    # Entries stay positive, so alpha > 0; the minimizing end drops to
    # exactly zero, so every step shrinks the remainder until it is empty.
    while seq:
        pd = pure_diagram(tuple(seq))
        pure = pd.pure_entries
        # alpha = a / (den * s * e): the least end over its pure entry.
        a, e = ends[0], pure[0]
        for v, pe in zip(ends, pure):
            if v * e < a * pe:
                a, e = v, pe
        q = den * s * e
        g = gcd(a, q)
        summands.append(summand(a // g, q // g, pd.seq))
        # The ends minus alpha * pi, over den * s * e.
        s *= e
        emptied = moved = False
        for k, pe in enumerate(pure):
            v = ends[k] * e - a * pe
            if v:
                ends[k] = v
            elif degs[k]:
                ends[k] = nums[k].pop() * s
                seq[k] = up = degs[k].pop()
                moved = moved or k < len(pure) - 1 and up >= seq[k + 1]
            else:
                ends[k] = seq[k] = None
                emptied = True
        if emptied:
            # Emptied last columns leave a prefix; any other leaves the cone.
            while seq and seq[-1] is None:
                del seq[-1], ends[-1]
            moved = moved or None in seq
        if moved and (None in seq or not all(map(lt, seq, seq[1:]))):
            remainder = {(k, j): 1 for k, (col, end) in enumerate(zip(degs, seq))
                         for j in (*col, end) if j is not None}
            top_degree_sequence(remainder)  # raises
        g = gcd(s, *ends)
        if g != 1:
            s //= g
            for k, v in enumerate(ends):
                ends[k] = v // g
    return Decomposition(tuple(summands))


def reconstruct(D: Decomposition, n: int) -> BettiDiagram:
    """Sum the pure summands back into a diagram (exact)."""
    out: dict[tuple[int, int], Fraction] = {}
    for coeff, seq in D.summands:
        for (i, d), e in pure_diagram(seq).items():
            key = (i, d)
            out[key] = out.get(key, Fraction(0)) + coeff * e
    return BettiDiagram(n, out)


def split_by_length(D: Decomposition, length: int) -> tuple[tuple, tuple]:
    """The summands with exactly `length` entries, and those with fewer.

    Both keep chain order.  Lengths never grow along a chain, so on the
    chain of an ideal in `length` variables they are its prefix and its
    suffix.
    """
    full = tuple(pair for pair in D.summands if len(pair[1]) == length)
    short = tuple(pair for pair in D.summands if len(pair[1]) < length)
    return full, short


def unit_normalized(D: Decomposition) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """Coefficients against pi(d)/lam instead of the integral pi(d).

    pi(d)/lam has entries 1/prod_{k != i}|d_i - d_k|, the normalization
    in which coefficients of quotient diagrams come out as pleasant
    integers surprisingly often; converting is just multiplying each
    coefficient by lam.
    """
    return tuple(
        (coeff * pure_diagram(seq).lam, seq) for coeff, seq in D.summands
    )
