"""Greedy chain decomposition of Betti diagrams into pure diagrams.

Peel off the top pure diagram with the largest multiplier that keeps
every entry nonnegative; repeat on the remainder.  All arithmetic is
exact, so reconstruction from the summands is an identity, not an
approximation.  The degree sequences encountered form a
descending chain in the seq_leq order, with lengths non-increasing, so
full-length summands form a contiguous prefix and shorter ones a
contiguous suffix.
"""

from __future__ import annotations

from fractions import Fraction
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


def bs_decompose(B: BettiDiagram) -> Decomposition:
    """Greedy decomposition of a nonzero diagram into pure diagrams.

    Each step subtracts alpha * pi(d) where d is the top degree sequence
    of the remainder and alpha = min_i remainder[i, d_i] / entry_i.
    Diagrams outside the cone surface as NotDecomposable, through a
    malformed top sequence, with top_degree_sequence's message.

    The remainder is kept as integer numerators, and only the coefficients
    are built as Fractions.  It is kept by column, in descending internal
    degree: d is read off the column ends, and a step reads and changes
    only them.  So the ends are numerators over den * s, and the entries
    below them over den: a step finds alpha by cross-multiplying the ends,
    scales them and s by the minimizing pure entry, and subtracts; an
    entry that becomes an end is scaled by s; and s comes down by the gcd
    of the ends alone.
    """
    entries = B.entries
    if not entries:
        raise NotDecomposable("cannot decompose an empty diagram")
    den = 1
    if not all(type(v) is int for v in entries.values()):
        exact = {key: Fraction(v) for key, v in entries.items()}
        den = lcm(*(v.denominator for v in exact.values()))
        entries = {k: v.numerator * (den // v.denominator) for k, v in exact.items()}
    s = 1
    # Descending keys: the first lies in the last column, the last in the first.
    keys = sorted(entries, reverse=True)
    lo = keys[-1][0]
    # degs[k] and nums[k]: column lo + k, internal degrees descending.
    degs: list[list[int]] = [[] for _ in range(keys[0][0] - lo + 1)]
    nums: list[list[int]] = [[] for _ in degs]
    for key in keys:
        degs[key[0] - lo].append(key[1])
        nums[key[0] - lo].append(entries[key])
    summands: list[tuple[Fraction, tuple[int, ...]]] = []
    # Entries stay positive, so alpha > 0; the minimizing end drops to
    # exactly zero and is deleted, so every step shrinks the remainder and
    # the loop ends with it empty.
    while degs:
        seq = tuple([col[-1] for col in degs if col])
        # Outside the cone unless the columns are 0..p-1, none empty, and
        # their ends strictly increase.
        if lo or len(seq) < len(degs) or not all(map(lt, seq, seq[1:])):
            top_degree_sequence(
                {
                    (lo + k, j): v
                    for k, (col_degs, col) in enumerate(zip(degs, nums))
                    for j, v in zip(col_degs, col)
                }
            )  # raises
        pure = pure_diagram(seq).pure_entries
        # alpha = a / (den * s * e): the least column end over its pure
        # entry, compared by cross-multiplying (pure entries are positive).
        a, e = nums[0][-1], pure[0]
        for col, pe in zip(nums, pure):
            v = col[-1]
            if v * e < a * pe:
                a, e = v, pe
        g = gcd(a, e)
        a //= g
        e //= g
        summands.append((Fraction(a, den * s * e), seq))
        # The ends minus alpha * pi, over den * s * e.
        s *= e
        for col_degs, col, pe in zip(degs, nums, pure):
            v = col[-1] * e - a * pe
            if v:
                col[-1] = v
            else:
                col.pop()
                col_degs.pop()
                if col:
                    col[-1] *= s
        while degs and not degs[-1]:
            degs.pop()
            nums.pop()
        if s != 1:
            g = gcd(s, *[col[-1] for col in nums if col])
            if g != 1:
                s //= g
                for col in nums:
                    if col:
                        col[-1] //= g
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
