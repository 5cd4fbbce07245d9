"""Monomials in k[x_1, ..., x_n] and the graded lexicographic order.

A monomial is identified with its exponent vector; coefficients never
enter the picture.  Everything downstream sorts by *graded lex* (glex):
higher total degree wins, ties broken by the leftmost differing
exponent, so x > y > z among the degree-one monomials when n = 3.
Variables are indexed 1..n throughout; in three variables x, y, z are
aliases for x_1, x_2, x_3.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb


class Monomial:
    """An immutable exponent vector.

    The number of variables is the length of the tuple.  Operations that
    combine two monomials require equal lengths and raise ValueError on a
    mismatch rather than guessing an embedding.
    """

    __slots__ = ("exponents", "degree")

    def __init__(self, exponents):
        exps = tuple(int(e) for e in exponents)
        if not exps:
            raise ValueError("a monomial needs at least one variable")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps!r}")
        self.exponents = exps
        self.degree = sum(exps)

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial({self.exponents!r})"

    def is_unit(self) -> bool:
        return self.degree == 0


def one(n: int) -> Monomial:
    """The unit monomial 1 in n variables."""
    return Monomial((0,) * n)


def variable(i: int, n: int) -> Monomial:
    """The variable x_i as a monomial in n variables (i is 1-based)."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    return Monomial(tuple(1 if k == i - 1 else 0 for k in range(n)))


def glex_key(u: Monomial):
    """Sort key realizing graded lex: compare by (degree, exponents).

    Comparing exponent tuples left-to-right is exactly lex order with
    x_1 > x_2 > ... once degrees are equal.
    """
    return (u.degree, u.exponents)


def glex_compare(a: Monomial, b: Monomial) -> int:
    """Three-way glex comparison: 1 if a > b, -1 if a < b, 0 if equal."""
    if a.nvars != b.nvars:
        raise ValueError(
            f"cannot compare monomials in {a.nvars} and {b.nvars} variables"
        )
    ka, kb = glex_key(a), glex_key(b)
    if ka > kb:
        return 1
    if ka < kb:
        return -1
    return 0


def max_index(u: Monomial) -> int:
    """m(u): the largest index i with x_i dividing u (1-based).

    Undefined for the unit monomial.
    """
    for i in range(u.nvars - 1, -1, -1):
        if u.exponents[i] > 0:
            return i + 1
    raise ValueError("max_index is undefined for the unit monomial")


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b (componentwise exponent comparison)."""
    if a.nvars != b.nvars:
        raise ValueError(
            f"cannot test divisibility between {a.nvars} and {b.nvars} variables"
        )
    return all(ea <= eb for ea, eb in zip(a.exponents, b.exponents))


def mul_var(u: Monomial, i: int) -> Monomial:
    """u * x_i (i is 1-based)."""
    if not 1 <= i <= u.nvars:
        raise ValueError(f"variable index {i} out of range 1..{u.nvars}")
    e = list(u.exponents)
    e[i - 1] += 1
    return Monomial(e)


def div_var(u: Monomial, i: int) -> Monomial:
    """u / x_i; requires x_i | u."""
    if not 1 <= i <= u.nvars:
        raise ValueError(f"variable index {i} out of range 1..{u.nvars}")
    if u.exponents[i - 1] == 0:
        raise ValueError(f"x_{i} does not divide {u!r}")
    e = list(u.exponents)
    e[i - 1] -= 1
    return Monomial(e)


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in n variables, glex-descending.

    Results are cached and shared; callers must not mutate the tuple.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        return ()
    out = []
    # Choose which of the d factors is each variable; multisets of
    # {0..n-1} in lexicographically increasing order give exponent
    # vectors in lex-descending order already.
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for k in combo:
            e[k] += 1
        out.append(Monomial(e))
    return tuple(out)


def glex_rank(e: tuple[int, ...]) -> int:
    """Position of the exponent tuple e among the monomials of its degree,
    glex-descending: the index of Monomial(e) in
    monomials_of_degree(len(e), sum(e)), without building that list.

    A tuple of the same degree comes before e when it agrees with e up
    to some position k and is larger at k.  With r the degree left from
    k on, those tuples are the ones of degree r - e[k] - 1 in the
    n - k variables from k on (take e[k] + 1 off position k).
    """
    n = len(e)
    r = sum(e)
    rank = 0
    for k in range(n - 1):
        if r == e[k]:
            break
        m = n - k
        rank += comb(r - e[k] + m - 2, m - 1)
        r -= e[k]
    return rank


def glex_unrank(n: int, d: int, rank: int) -> tuple[int, ...]:
    """The exponent tuple at position rank among the degree-d monomials
    in n variables, glex-descending; the inverse of glex_rank."""
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0 or not 0 <= rank < comb(d + n - 1, n - 1):
        raise ValueError(f"no degree-{d} monomial of rank {rank} in {n} variables")
    e = []
    r = d
    for k in range(n - 1):
        m = n - k
        # comb(r - v + m - 2, m - 1) tuples have a larger exponent than
        # v here; it shrinks as v grows, so bisect for the least v whose
        # count does not exceed the rank.
        lo, hi = 0, r
        while lo < hi:
            mid = (lo + hi) // 2
            if comb(r - mid + m - 2, m - 1) <= rank:
                hi = mid
            else:
                lo = mid + 1
        rank -= comb(r - lo + m - 2, m - 1)
        e.append(lo)
        r -= lo
    e.append(r)
    return tuple(e)


VAR_LETTERS = ("x", "y", "z")


def format_monomial(u: Monomial) -> str:
    """Render a monomial as text the parser round-trips.

    Three or fewer variables use the letters x, y, z; more variables use
    x1..xn.  Factors are joined with '*' so indexed names stay
    unambiguous.  The unit monomial renders as "1".
    """
    if u.degree == 0:
        return "1"
    parts = []
    for i, e in enumerate(u.exponents):
        if e == 0:
            continue
        name = VAR_LETTERS[i] if u.nvars <= 3 else f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)
