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
from math import comb
from operator import attrgetter


class Monomial:
    """An immutable exponent vector.

    The number of variables is the length of the tuple.  Operations that
    combine two monomials require equal lengths and raise ValueError on a
    mismatch rather than guessing an embedding.  ``split``, set when u
    is built, is the Eliahou-Kervaire split of u != 1 (None for u = 1):
    the exponents before x_m(u), and the exponent of x_m(u).  One private
    slot per other value derived from the exponents alone keeps it, None
    until first use: ``_quotients`` holds :func:`quotients`,
    ``_rank`` :func:`kept_rank`, ``_shadow`` :func:`shadow_size` and
    ``_proj`` :func:`xfree_projection`.  Equality, hash, repr and
    pickling read the exponents alone.
    """

    __slots__ = ("exponents", "degree", "split", "_quotients", "_rank",
                 "_shadow", "_proj")

    def __new__(cls, exponents):
        exps = tuple(int(e) for e in exponents)
        if not exps:
            raise ValueError("a monomial needs at least one variable")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps!r}")
        return _monomial(exps, sum(exps))

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"Monomial({self.exponents!r})"

    def __reduce__(self):
        return _monomial, (self.exponents, self.degree)


def _monomial(exponents: tuple[int, ...], degree: int) -> Monomial:
    """The Monomial of an exponent tuple of nonnegative ints summing to
    degree, without the constructor's checks, which end here: the one
    place a monomial, unpickled ones too, is built and its split set."""
    u = object.__new__(Monomial)
    u.exponents = exponents
    u.degree = degree
    m = len(exponents)  # m(u): the last index with a nonzero exponent
    while m and not exponents[m - 1]:
        m -= 1
    u.split = (exponents[: m - 1], exponents[m - 1]) if m else None
    u._quotients = u._rank = u._shadow = u._proj = None
    return u


def quotients(u: Monomial) -> tuple:
    """u / x_i at index i - 1 where x_i divides u and None elsewhere,
    built on the first call for u and kept on it."""
    if u._quotients is None:
        e, d = u.exponents, u.degree - 1
        u._quotients = tuple(
            _monomial(e[:k] + (c - 1,) + e[k + 1 :], d) if c else None
            for k, c in enumerate(e)
        )
    return u._quotients


def kept_rank(u: Monomial) -> int:
    """glex_rank of u, found on the first call for u and kept on it."""
    if u._rank is None:
        u._rank = glex_rank(u.exponents)
    return u._rank


def shadow_size(u: Monomial) -> int:
    """glex_rank(u * x_n) + 1: the size of the shadow one degree up of the
    initial segment ending in u, found on the first call and kept on u."""
    if u._shadow is None:
        u._shadow = glex_rank(u.exponents[:-1] + (u.exponents[-1] + 1,)) + 1
    return u._shadow


def xfree_projection(u: Monomial) -> Monomial:
    """u, free of x_1, as a monomial in the last n - 1 variables, built on
    the first call for u and kept on it."""
    if u._proj is None:
        u._proj = _monomial(u.exponents[1:], u.degree)
    return u._proj


def one(n: int) -> Monomial:
    """The unit monomial 1 in n variables."""
    return Monomial((0,) * n)


def check_variable_index(i: int, n: int) -> None:
    """Raise ValueError unless x_i is one of n variables (1 <= i <= n)."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")


def variable(i: int, n: int) -> Monomial:
    """The variable x_i as a monomial in n variables (i is 1-based)."""
    check_variable_index(i, n)
    return Monomial(tuple(1 if k == i - 1 else 0 for k in range(n)))


# Sort key realizing graded lex: glex_key(u) is (u.degree, u.exponents),
# built in C.  Comparing exponent tuples left-to-right is exactly lex
# order with x_1 > x_2 > ... once degrees are equal.
glex_key = attrgetter("degree", "exponents")


def max_index(u: Monomial) -> int:
    """m(u): the largest index i with x_i dividing u (1-based).

    Undefined for the unit monomial.
    """
    if u.split is None:
        raise ValueError("max_index is undefined for the unit monomial")
    return len(u.split[0]) + 1


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b (componentwise exponent comparison)."""
    if a.nvars != b.nvars:
        raise ValueError(
            f"cannot test divisibility between {a.nvars} and {b.nvars} variables"
        )
    return all(ea <= eb for ea, eb in zip(a.exponents, b.exponents))


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in n variables, glex-descending.

    Results are cached and shared; callers must not mutate the tuple.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        return ()
    return tuple(_monomial(e, d) for e in glex_walk((d,) + (0,) * (n - 1)))


def glex_walk(e: tuple[int, ...]):
    """Yield e, then every exponent tuple after it of the same degree,
    glex-descending, down to x_n^d.

    The successor of a tuple takes one off its last nonzero exponent
    before x_n, at k, and moves the x_n exponent plus that one to k + 1;
    the step is made in place on one list.
    """
    e = list(e)
    last = len(e) - 1
    while True:
        yield tuple(e)
        k = last - 1
        while k >= 0 and not e[k]:
            k -= 1
        if k < 0:
            return
        e[k] -= 1
        moved = e[last] + 1
        e[last] = 0
        e[k + 1] = moved


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
