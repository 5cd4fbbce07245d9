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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .betti import BettiDiagram
from .pure import NotDecomposable, pure_diagram, top_degree_sequence


@dataclass(frozen=True)
class Decomposition:
    """Ordered summands (coefficient, degree sequence) of a greedy chain."""

    summands: tuple[tuple[Fraction, tuple[int, ...]], ...]

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
    malformed top sequence.

    The remainder is kept as integer numerators over one common
    denominator: a step finds alpha by cross-multiplying and subtracts
    after scaling by the minimizing pure entry, so only the coefficients
    are built as Fractions.
    """
    exact = [(key, Fraction(v)) for key, v in B.items()]
    if not exact:
        raise NotDecomposable("cannot decompose an empty diagram")
    den = lcm(*(v.denominator for _, v in exact))
    num = {key: v.numerator * (den // v.denominator) for key, v in exact}
    summands: list[tuple[Fraction, tuple[int, ...]]] = []
    # Entries stay positive, so alpha > 0; the minimizing entry drops to
    # exactly zero and is deleted, so every step shrinks the remainder and
    # the loop ends with it empty.
    while num:
        seq = top_degree_sequence(num)
        pi = pure_diagram(seq).items()
        # alpha = a / (den * e): the least num[key] / pure entry, compared
        # by cross-multiplying (pure entries are positive).
        (key, e), rest = pi[0], pi[1:]
        a = num[key]
        for key, pe in rest:
            v = num[key]
            if v * e < a * pe:
                a, e = v, pe
        g = gcd(a, e)
        a //= g
        e //= g
        summands.append((Fraction(a, den * e), seq))
        # remainder - alpha * pi, over the denominator den * e.
        if e != 1:
            den *= e
            for key in num:
                num[key] *= e
        for key, pe in pi:
            v = num[key] - a * pe
            if v == 0:
                del num[key]
            else:
                num[key] = v
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            for key in num:
                num[key] //= g
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
