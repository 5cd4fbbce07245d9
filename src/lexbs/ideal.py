"""Monomial ideals: minimal generators, lex/stable predicates, colons,
the splitting along the first variable, Hilbert counts, and
lexification.

An ideal is stored as its minimal generating set, sorted glex-descending.
The zero and unit ideals get dedicated sentinel types instead of being
shoehorned into generator lists; operations that can collapse to either
(colons, for instance) return the sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import le
from typing import NamedTuple, Union

from .monomial import (
    Monomial,
    divides,
    div_var,
    format_monomial,
    glex_key,
    glex_rank,
    glex_unrank,
    max_index,
    monomials_of_degree,
    mul_var,
    variable,
)


@dataclass(frozen=True)
class UnitIdeal:
    """The whole ring, (1)."""

    n: int


@dataclass(frozen=True)
class ZeroIdeal:
    """The zero ideal, (0)."""

    n: int


class MonomialIdeal:
    """A nonzero proper monomial ideal given by minimal generators.

    Invariants: ``gens`` is nonempty, glex-descending, duplicate-free,
    and every generator has degree >= 1.  Construct through
    :func:`minimalize` unless the input is already known minimal.
    """

    __slots__ = ("n", "gens", "_hash")

    def __init__(self, n: int, gens):
        gens = tuple(gens)
        if not gens:
            raise ValueError(
                "empty generator list; use ZeroIdeal for the zero ideal"
            )
        for g in gens:
            if g.nvars != n:
                raise ValueError(f"{g!r} does not live in {n} variables")
            if g.degree == 0:
                raise ValueError(
                    "unit generator; use UnitIdeal for the whole ring"
                )
        ordered = tuple(sorted(gens, key=glex_key, reverse=True))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate generator {a!r}")
        self.n = n
        self.gens = ordered
        self._hash = hash((n, ordered))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MonomialIdeal({self.n}, {format_ideal(self)})"


Ideal = Union[MonomialIdeal, UnitIdeal, ZeroIdeal]


class Split(NamedTuple):
    """Result of splitting L = x_1 * colon + xfree along x_1."""

    colon: Union[MonomialIdeal, UnitIdeal]
    xfree: Union[MonomialIdeal, ZeroIdeal]


def minimalize(monos, n: int | None = None):
    """Build an ideal from arbitrary monomial generators.

    Divisible generators are discarded; duplicates collapse.  A unit
    generator makes the whole ring, returned as UnitIdeal.  An empty
    input is an error: the zero ideal is never represented implicitly.
    """
    monos = list(monos)
    if not monos:
        raise ValueError(
            "empty generator list; use ZeroIdeal for the zero ideal"
        )
    if n is None:
        n = monos[0].nvars
    for m in monos:
        if m.nvars != n:
            raise ValueError(f"{m!r} does not live in {n} variables")
    if any(m.degree == 0 for m in monos):
        return UnitIdeal(n)
    # Ascending degree: a proper divisor has strictly smaller degree,
    # so each candidate only needs testing against already-kept gens.
    candidates = sorted(set(monos), key=lambda m: m.degree)
    kept: list[Monomial] = []
    for m in candidates:
        if not any(divides(g, m) for g in kept):
            kept.append(m)
    return MonomialIdeal(n, kept)


def min_gen_degree(I: MonomialIdeal) -> int:
    return min(g.degree for g in I.gens)


def max_gen_degree(I: MonomialIdeal) -> int:
    return max(g.degree for g in I.gens)


def gens_of_degree(I: MonomialIdeal, d: int) -> tuple[Monomial, ...]:
    return tuple(g for g in I.gens if g.degree == d)


def _divisible(e: tuple[int, ...], gens) -> bool:
    """True iff some generator in gens divides the exponent tuple e."""
    for g in gens:
        if all(map(le, g.exponents, e)):
            return True
    return False


def contains(I: Ideal, u: Monomial) -> bool:
    """Membership test for a monomial: some generator divides it."""
    if isinstance(I, UnitIdeal):
        return True
    if isinstance(I, ZeroIdeal):
        return False
    if u.nvars != I.n:
        raise ValueError(f"{u!r} does not live in {I.n} variables")
    return _divisible(u.exponents, I.gens)


def _exponents_of_degree(n: int, d: int):
    """Every degree-d exponent tuple in n variables, one at a time
    (stars and bars: n - 1 bars among d + n - 1 places)."""
    for bars in combinations(range(d + n - 1), n - 1):
        e = []
        prev = -1
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(d + n - 2 - prev)
        yield tuple(e)


def _hilbert_function(I: MonomialIdeal):
    """d -> dim_k I_d, with the counting method chosen once for I.

    On stable input every degree-d monomial of I is u * v for exactly one
    generator u and one v in the variables x_m(u)..x_n (Eliahou-Kervaire),
    so u contributes binomial(d - deg u + n - m(u), n - m(u)).  Other input
    is counted tuple by tuple through divisibility.
    """
    n = I.n
    if is_stable(I):
        cells = [(g.degree, n - max_index(g)) for g in I.gens]
        return lambda d: sum(comb(d - j + f, f) for j, f in cells if j <= d)
    return lambda d: sum(
        1 for e in _exponents_of_degree(n, d) if _divisible(e, I.gens)
    )


def hilbert_value(I: Ideal, d: int) -> int:
    """dim_k of the degree-d graded piece of I."""
    if d < 0:
        return 0
    if isinstance(I, UnitIdeal):
        return comb(d + I.n - 1, I.n - 1)
    if isinstance(I, ZeroIdeal):
        return 0
    return _hilbert_function(I)(d)


# maxsize=0 stores nothing: the wrapper is kept for its call counter,
# which perfbench/tracing.py reads through cache_info().
@lru_cache(maxsize=0)
def _members(I: MonomialIdeal, d: int) -> tuple[Monomial, ...]:
    """The degree-d monomials of I, glex-descending, by divisibility."""
    return tuple(
        u for u in monomials_of_degree(I.n, d) if _divisible(u.exponents, I.gens)
    )


def monomials_at_degree(I: Ideal, d: int) -> tuple[Monomial, ...]:
    """The degree-d monomials of I, glex-descending."""
    if isinstance(I, UnitIdeal):
        return monomials_of_degree(I.n, d)
    if isinstance(I, ZeroIdeal):
        return ()
    return _members(I, d)


def _times_last(e: tuple[int, ...], k: int = 1) -> tuple[int, ...]:
    """e * x_n^k: the last monomial of the shadow, k degrees up, of an
    initial segment ending in e."""
    return e[:-1] + (e[-1] + k,)


def is_lex_segment(I: Ideal) -> bool:
    """True iff every graded piece of I is an initial glex segment.

    Degree by degree, I_d is the shadow of I_{d-1} together with the
    degree-d generators, which lie outside that shadow.  When I_{d-1} is
    an initial segment ending in e, its shadow is the initial segment
    ending in e * x_n, of size s = rank(e * x_n) + 1, so I_d is initial
    exactly when the degree-d generators have the glex ranks s, s+1, ...
    Above the last generator degree shadows keep the pieces initial.
    """
    if isinstance(I, (UnitIdeal, ZeroIdeal)):
        return True
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for g in I.gens:  # glex-descending: ranks ascend within a degree
        by_degree.setdefault(g.degree, []).append(g.exponents)
    last = None  # the tuple ending the current initial segment
    last_deg = 0
    for d in sorted(by_degree):
        start = 0 if last is None else glex_rank(_times_last(last, d - last_deg)) + 1
        slice_d = by_degree[d]
        for k, e in enumerate(slice_d):
            if glex_rank(e) != start + k:
                return False
        last, last_deg = slice_d[-1], d
    return True


def stable_violation(I: MonomialIdeal):
    """First witness that I is not stable, or None.

    Stability: for every generator u and every i < m(u), the exchange
    monomial x_i * u / x_{m(u)} lies in I.  Returns (u, i, exchange)
    for the first failure in glex order.
    """
    for g in I.gens:
        e = g.exponents
        m = max_index(g)
        for i in range(1, m):
            v = list(e)
            v[m - 1] -= 1
            v[i - 1] += 1
            if not _divisible(v, I.gens):
                return (g, i, Monomial(v))
    return None


def is_stable(I: MonomialIdeal) -> bool:
    return stable_violation(I) is None


def is_artinian(I: Ideal) -> bool:
    """True iff I contains a pure power of every variable."""
    if isinstance(I, UnitIdeal):
        return True
    if isinstance(I, ZeroIdeal):
        return False
    for i in range(I.n):
        if not any(g.exponents[i] == g.degree for g in I.gens):
            return False
    return True


def colon_variable(I: MonomialIdeal, i: int):
    """The colon ideal (I : x_i).

    For monomial ideals this is generated by u/x_i for the generators
    divisible by x_i, together with the rest unchanged.  Returns
    UnitIdeal when x_i itself is a generator.
    """
    quotients = []
    for g in I.gens:
        if g.exponents[i - 1] > 0:
            quotients.append(div_var(g, i))
        else:
            quotients.append(g)
    return minimalize(quotients, I.n)


def add_variable(I: MonomialIdeal, i: int):
    """The sum I + (x_i)."""
    return minimalize(list(I.gens) + [variable(i, I.n)], I.n)


def split_x(L: MonomialIdeal) -> Split:
    """Split a lex-segment ideal as L = x_1 * (L : x_1) + J.

    J collects the x_1-free generators, living in the last n-1
    variables.  The minimal generators of L are recovered exactly as
    x_1 * G(L : x_1) together with G(J); this identity is asserted.
    """
    if L.n < 2:
        raise ValueError("splitting needs at least two variables")
    if not is_lex_segment(L):
        raise ValueError("split_x requires a lex-segment ideal")
    colon = colon_variable(L, 1)
    projected = [
        Monomial(g.exponents[1:]) for g in L.gens if g.exponents[0] == 0
    ]
    if projected:
        xfree = minimalize(projected, L.n - 1)
    else:
        xfree = ZeroIdeal(L.n - 1)
    rebuilt = set()
    if isinstance(colon, UnitIdeal):
        rebuilt.add(variable(1, L.n))
    else:
        rebuilt.update(mul_var(g, 1) for g in colon.gens)
    if isinstance(xfree, MonomialIdeal):
        rebuilt.update(Monomial((0,) + g.exponents) for g in xfree.gens)
    assert rebuilt == set(L.gens), (
        f"splitting failed to reconstruct generators: {rebuilt} vs {set(L.gens)}"
    )
    return Split(colon, xfree)


def segment_shadow_size(n: int, d: int, t: int) -> int:
    """Size of the shadow of the first t degree-d monomials in n vars.

    The shadow of an initial segment is the initial segment ending in
    m_t * x_n, where m_t is the segment's last monomial.
    """
    if t == 0:
        return 0
    return glex_rank(_times_last(glex_unrank(n, d, t - 1))) + 1


def lexify(I: MonomialIdeal) -> MonomialIdeal:
    """The lex-segment ideal with the same Hilbert function as I.

    Degree d holds the initial segment of size hilbert_value(I, d); its
    generators are the ranks from the shadow size of degree d-1 up to
    that value.  The walk stops at the first degree above
    max_gen_degree(I) that brings no generator: from there the shadow
    already accounts for every Hilbert value (Gotzmann persistence).
    Fixed point on lex-segment input.
    """
    n = I.n
    hilbert = _hilbert_function(I)
    top = max_gen_degree(I)
    # The walk always ends; the limit only stops a Hilbert function that
    # is not one of an ideal.  It grows with the top generator degree D
    # like the classical (2D)^(2^(n-2)) bound on the degrees of a
    # Groebner basis: 4D^2 in three variables.
    limit = (2 * top) ** (2 ** max(n - 2, 0))
    gens: list[Monomial] = []
    last = None  # the tuple ending the initial segment of degree d - 1
    d = 0
    while True:
        d += 1
        if last is None:
            s = 0
        else:
            last = _times_last(last)
            s = glex_rank(last) + 1
        t = hilbert(d)
        if t < s:
            # Cannot happen for an actual Hilbert function of an ideal.
            raise RuntimeError("Hilbert values shrink below the shadow bound")
        if t == s and d > top:
            break
        if d > limit:
            raise RuntimeError("lexification did not stabilize")
        if t > s:
            gens.extend(Monomial(glex_unrank(n, d, r)) for r in range(s, t))
            last = gens[-1].exponents
    return MonomialIdeal(n, gens)


def format_ideal(I: Ideal) -> str:
    """Render an ideal as a parenthesized generator list."""
    if isinstance(I, UnitIdeal):
        return "(1)"
    if isinstance(I, ZeroIdeal):
        return "(0)"
    return "(" + ", ".join(format_monomial(g) for g in I.gens) + ")"
