"""Monomial ideals: minimal generators, lex/stable predicates, colons,
the splitting along the first variable, Hilbert counts, and
lexification.

An ideal is stored as its minimal generating set, sorted glex-descending.
The zero and unit ideals get dedicated sentinel types instead of being
shoehorned into generator lists; operations that can collapse to either
(colons, for instance) return the sentinel.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import groupby, islice
from math import comb
from operator import attrgetter, contains as _has, le

from .monomial import (
    Monomial,
    _monomial,
    check_variable_index,
    ek_split,
    format_monomial,
    glex_key,
    glex_rank,
    glex_walk,
    kept_rank,
    max_index,
    monomials_of_degree,
    quotients,
    xfree_projection,
)

_exponents = attrgetter("exponents")
_degree = attrgetter("degree")


class _Trivial:
    """An ideal told apart from the others of its class by n alone.

    A UnitIdeal never equals a ZeroIdeal of the same n: both are keys of
    the facts cache.
    """

    def __init__(self, n: int):
        self.n = n

    def __eq__(self, other):
        return type(other) is type(self) and other.n == self.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class UnitIdeal(_Trivial):
    """The whole ring, (1)."""


class ZeroIdeal(_Trivial):
    """The zero ideal, (0)."""


class MonomialIdeal:
    """A nonzero proper monomial ideal given by minimal generators.

    Invariants: ``gens`` is nonempty and glex-descending, no generator
    divides another (so none repeats), and every generator has degree
    >= 1.  The constructor checks all of them and raises ValueError on a
    list that breaks one; :func:`minimalize` builds the ideal of any
    list.  ``_key`` holds the exponent tuples of ``gens``, which equality
    and the hash read: they determine n, and comparing them stays in
    tuples of ints.  ``_lex`` and ``_stable`` hold the answers of
    :func:`is_lex_segment` and :func:`is_stable` once decided, and None
    before.
    """

    __slots__ = ("n", "gens", "_key", "_hash", "_lex", "_stable")

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
        # A proper divisor has a lower degree and a copy sits next to its
        # twin, so each generator's divisors come after it.
        for k, a in enumerate(ordered):
            if _divisible(a.exponents, ordered[k + 1 :]):
                raise ValueError(f"{a!r} is divisible by another generator")
        _fill(self, n, ordered)

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MonomialIdeal({self.n}, {format_ideal(self)})"


def _fill(I: MonomialIdeal, n: int, ordered: tuple[Monomial, ...]) -> MonomialIdeal:
    """Set the slots of I from its glex-descending minimal generators;
    returns I."""
    I.n = n
    I.gens = ordered
    I._key = key = tuple(map(_exponents, ordered))
    I._hash = hash(key)
    I._lex = I._stable = None
    return I


def _ideal(n: int, gens) -> MonomialIdeal:
    """The MonomialIdeal of generators known to be minimal, distinct,
    nonconstant and in n variables: sorted glex-descending, without the
    constructor's checks.  It equals and hashes like the checked one."""
    ordered = tuple(sorted(gens, key=glex_key, reverse=True))
    return _fill(object.__new__(MonomialIdeal), n, ordered)


Ideal = MonomialIdeal | UnitIdeal | ZeroIdeal

# Result of splitting L = x_1 * colon + xfree along x_1: colon is a
# MonomialIdeal or UnitIdeal, xfree a MonomialIdeal or ZeroIdeal.
Split = namedtuple("Split", ("colon", "xfree"))


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
    # Ascending glex, one degree band at a time: a proper divisor has a
    # strictly smaller degree, so a candidate is tested only against the
    # generators kept from lower bands.  Duplicates collapse first.
    kept: list[Monomial] = []
    unique = {m.exponents: m for m in monos}.values()
    for _, band in groupby(sorted(unique, key=glex_key), _degree):
        kept += [m for m in band if not _divisible(m.exponents, kept)]
    return _fill(object.__new__(MonomialIdeal), n, tuple(reversed(kept)))


def min_gen_degree(I: MonomialIdeal) -> int:
    """The least generator degree: that of the last generator."""
    return I.gens[-1].degree


def max_gen_degree(I: MonomialIdeal) -> int:
    """The largest generator degree: that of the first generator."""
    return I.gens[0].degree


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


def _hilbert_function(I: MonomialIdeal):
    """d -> dim_k I_d, with the counting method chosen by is_stable(I).

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
        1 for e in glex_walk((d,) + (0,) * (n - 1)) if _divisible(e, I.gens)
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


# Nothing in lexbs calls this.  It stays only because perfbench/tracing.py
# reads its cache_info() (maxsize=0 stores nothing but keeps the counter),
# and leaves with the benchmark change that drops those rows.
@lru_cache(maxsize=0)
def _members(I: MonomialIdeal, d: int) -> tuple[Monomial, ...]:
    """The degree-d monomials of I, glex-descending, by divisibility."""
    return tuple(
        u for u in monomials_of_degree(I.n, d) if _divisible(u.exponents, I.gens)
    )


def _times_last(e: tuple[int, ...], k: int = 1) -> tuple[int, ...]:
    """e * x_n^k: the last monomial of the shadow, k degrees up, of an
    initial segment ending in e."""
    return e[:-1] + (e[-1] + k,)


def is_lex_segment(I: Ideal) -> bool:
    """True iff every graded piece of I is an initial glex segment.

    Decided by _initial_segments on the first call for I, and read from
    I after that.
    """
    if isinstance(I, (UnitIdeal, ZeroIdeal)):
        return True
    if I._lex is None:
        I._lex = _initial_segments(I)
    return I._lex


def _initial_segments(I: MonomialIdeal) -> bool:
    """The lex-segment test of is_lex_segment, run on every call.

    Degree by degree, I_d is the shadow of I_{d-1} together with the
    degree-d generators, which lie outside that shadow.  When I_{d-1} is
    an initial segment ending in u, its shadow is the initial segment
    ending in u * x_n, of size s = rank(u * x_n) + 1, so I_d is initial
    exactly when the degree-d generators have the glex ranks s, s+1, ...
    Above the last generator degree shadows keep the pieces initial.
    Distinct generators of one degree have strictly rising ranks, so
    they are s, s+1, ... exactly when the first and the last are.  The
    ranks of the generators that end a band, and of u * x_n for the u
    that ends it when the next band is one degree up, are kept on them.
    """
    last = None  # the generator ending the current initial segment
    # Reversed: by ascending degree, and in a degree by falling rank.
    for d, group in groupby(reversed(I.gens), _degree):
        band = list(group)
        if last is None:
            start = 0
        elif d == last.degree + 1:
            start = kept_rank(last, 1) + 1
        else:
            start = glex_rank(_times_last(last.exponents, d - last.degree)) + 1
        if kept_rank(band[-1]) != start or kept_rank(band[0]) != start + len(band) - 1:
            return False
        last = band[0]
    return True


def stable_violation(I: MonomialIdeal):
    """First witness that I is not stable, or None.

    Stability: for every generator u and every i < m(u), the exchange
    monomial x_i * u / x_{m(u)} lies in I.  Returns (u, i, exchange)
    for the first failure in glex order.

    An exchange is first looked up by its Eliahou-Kervaire prefixes,
    x_1^{v_1} ... x_{k-1}^{v_{k-1}} * x_k^c with 1 <= c <= v_k: a
    generator that is a prefix divides it, so a hit proves membership,
    and only a miss pays for the divisibility scan.  On stable input
    every lookup hits, because the shortest prefix p of a monomial of I
    that lies in I is a generator.  Otherwise p = g * h for a generator
    g and h != 1.  If x_{m(p)} divides h, g divides p / x_{m(p)}; if
    not, m(g) = m(p) and p / x_{m(p)} = (x_j * g / x_{m(g)}) * (h / x_j)
    for a variable x_j of h.  Either way the shorter prefix p / x_{m(p)}
    lies in I.

    A generator g is a prefix of v exactly when it agrees with v before
    m = m(g) and g_m <= v_m, so the generators are kept by their
    exponents before m(g), which with g_m make the split that ek_split
    keeps on g.  The prefixes of the exchange that end before x_i are
    proper prefixes of u, so no generator of a minimal set; the lookups
    run from x_i to x_{m(u)}, each on the prefix of the one before with
    one more exponent.
    """
    gens = I.gens
    splits = [g._split or ek_split(g) for g in gens]
    get = dict(splits).get
    for g, (head, top) in zip(gens, splits):
        e = g.exponents
        m = len(head) + 1
        last = top - 1
        for i in range(1, m):
            p = e[: i - 1]
            x = e[i - 1] + 1  # the exchange's exponent after p
            for k in range(i, m + 1):
                c = get(p)
                if c is not None and c <= x:
                    break
                p += (x,)
                x = e[k] if k < m - 1 else last
            else:
                v = p + e[m:]
                if not _divisible(v, gens):
                    return (g, i, Monomial(v))
    return None


def is_stable(I: MonomialIdeal) -> bool:
    """True iff stable_violation(I) is None, decided on the first call
    for I and read from I after that."""
    if I._stable is None:
        I._stable = stable_violation(I) is None
    return I._stable


def is_artinian(I: Ideal) -> bool:
    """True iff I contains a pure power of every variable."""
    if isinstance(I, UnitIdeal):
        return True
    if isinstance(I, ZeroIdeal):
        return False
    # Minimal generators hold at most one pure power of each variable, and
    # u is one exactly when an exponent equals its degree.
    gens = I.gens
    return sum(map(_has, map(_exponents, gens), map(_degree, gens))) == I.n


def colon_variable(I: MonomialIdeal, i: int):
    """The colon ideal (I : x_i).

    It is generated by u/x_i for the generators u divisible by x_i,
    together with the others.  Built from the minimal generators of I,
    no quotient divides another and no x_i-free generator divides a
    quotient, so the only ones to drop are the x_i-free generators that
    some quotient divides.  Only the quotients of generators with x_i to
    the first power are x_i-free, so only they can divide one.  Returns
    UnitIdeal when x_i itself is a generator.
    """
    n = I.n
    check_variable_index(i, n)
    k = i - 1
    qs: list[Monomial] = []
    free_quotients: list[Monomial] = []
    free: list[Monomial] = []
    for g in I.gens:
        c = g.exponents[k]
        if c:
            if g.degree == 1:
                return UnitIdeal(n)
            q = quotients(g)[k]
            qs.append(q)
            if c == 1:
                free_quotients.append(q)
        else:
            free.append(g)
    if free_quotients:
        free = [g for g in free if not _divisible(g.exponents, free_quotients)]
    return _ideal(n, qs + free)


def add_variable(I: MonomialIdeal, i: int):
    """The sum I + (x_i): x_i and the x_i-free minimal generators of I."""
    n = I.n
    check_variable_index(i, n)
    gens = [g for g in I.gens if not g.exponents[i - 1]]
    gens.append(_monomial((0,) * (i - 1) + (1,) + (0,) * (n - i), 1))
    return _ideal(n, gens)


def split_x(L: MonomialIdeal) -> Split:
    """Split a lex-segment ideal as L = x_1 * (L : x_1) + J.

    J collects the x_1-free generators, living in the last n-1
    variables; they stay minimal there.  The minimal generators of L are
    x_1 * G(L : x_1) together with G(J); check_split_identities
    verifies this.
    """
    if L.n < 2:
        raise ValueError("splitting needs at least two variables")
    if not is_lex_segment(L):
        raise ValueError("split_x requires a lex-segment ideal")
    return Split(colon_variable(L, 1), xfree_part(L))


def xfree_part(L: MonomialIdeal):
    """J: the x_1-free generators of L in the last n-1 variables, or
    ZeroIdeal(n - 1) when there are none.  Their projections, kept on
    them, stay glex-descending: dropping a leading 0 keeps the order."""
    projected = tuple(xfree_projection(g) for g in L.gens if not g.exponents[0])
    if projected:
        return _fill(object.__new__(MonomialIdeal), L.n - 1, projected)
    return ZeroIdeal(L.n - 1)


def lexify(I: MonomialIdeal) -> MonomialIdeal:
    """The lex-segment ideal with the same Hilbert function as I.

    Degree d holds the initial segment of size hilbert_value(I, d); its
    generators are the monomials after the end of the shadow of degree
    d-1, stepped through in glex order up to that size.  The loop stops
    at the first degree above max_gen_degree(I) that brings no generator:
    from there the shadow already accounts for every Hilbert value
    (Gotzmann persistence).
    Lex-segment input is its own lexification and comes back as is.
    """
    if is_lex_segment(I):
        return I
    n = I.n
    hilbert = _hilbert_function(I)
    top = max_gen_degree(I)
    # The loop always ends; the limit only stops a Hilbert function that
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
            # Ranks s..t-1: from x_1^d when s = 0, and otherwise on from
            # the shadow's end, whose rank is s - 1.
            if s:
                walk = glex_walk(last)
                next(walk)
            else:
                walk = glex_walk((d,) + (0,) * (n - 1))
            gens.extend(_monomial(e, d) for e in islice(walk, t - s))
            last = gens[-1].exponents
    return _ideal(n, gens)


def format_ideal(I: Ideal) -> str:
    """Render an ideal as a parenthesized generator list."""
    if isinstance(I, UnitIdeal):
        return "(1)"
    if isinstance(I, ZeroIdeal):
        return "(0)"
    return "(" + ", ".join(format_monomial(g) for g in I.gens) + ")"
