"""Shared worked examples.

Three showcase ideals exercise every code path:

- splice8: x*(x, y^2, yz, z^2) + (y, z)^8 -- a full power spliced onto
  a small quadric block, so the chain has a long degree jump.
- stagger: generators staggered over degrees 2..9, giving a ten-summand
  chain with three short summands.
- family26: a member of the family x*(x, y, z^t) + J (t = 2, least
  J-degree 6) whose chain picks up a summand with no source.

The expected chains and diagrams were computed by hand with the
binomial formula and the greedy algorithm and are frozen here.
"""

from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from lexbs import verify
from lexbs.cli import parse_ideal
from lexbs.ideal import max_gen_degree, minimalize
from lexbs.monomial import Monomial, divides, monomials_of_degree


@pytest.fixture(autouse=True)
def _empty_verify_cache():
    """Start every test with an empty verify cache, so no answer computed
    under a fault that another test injected can reach it."""
    verify.facts_of.cache_clear()


def m(*exps):
    return Monomial(exps)


def _contains_by_divisibility(I, u):
    # Membership oracle independent of the shadow recurrence.
    return any(divides(g, u) for g in I.gens)


def _is_lex_by_scan(I, extra_degrees=3):
    # Degree-by-degree prefix scan using only the divisibility oracle.
    for d in range(1, max_gen_degree(I) + 1 + extra_degrees):
        flags = [
            _contains_by_divisibility(I, u)
            for u in monomials_of_degree(I.n, d)
        ]
        seen_gap = False
        for f in flags:
            if not f:
                seen_gap = True
            elif seen_gap:
                return False
    return True


def borel_closure(monos):
    """Exponent tuples closed under u -> x_i * u / x_j for i < j.

    The ideal they generate is strongly stable, so stable.
    """
    todo, seen = list(monos), set(monos)
    while todo:
        e = todo.pop()
        for j in range(1, len(e)):
            if e[j]:
                for i in range(j):
                    f = list(e)
                    f[j] -= 1
                    f[i] += 1
                    f = tuple(f)
                    if f not in seen:
                        seen.add(f)
                        todo.append(f)
    return seen


@st.composite
def ideals(draw, max_deg=6, min_vars=2):
    """A random nonzero proper ideal in min_vars..4 variables, stable or
    not: one to five generators of degree 1..max_deg, Borel-closed half
    the time."""
    n = draw(st.integers(min_vars, 4))
    # The degree first, then the variable of each of its factors, so no
    # draw is thrown away.
    exps = st.integers(1, max_deg).flatmap(
        lambda d: st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
    ).map(lambda factors: tuple(factors.count(i) for i in range(n)))
    monos = draw(st.lists(exps, min_size=1, max_size=5))
    if draw(st.booleans()):
        monos = borel_closure(monos)
    return minimalize([Monomial(e) for e in monos], n)


SPLICE8_TEXT = (
    "x^2, xy^2, xyz, xz^2, y^8, y^7z, y^6z^2, y^5z^3, y^4z^4, "
    "y^3z^5, y^2z^6, yz^7, z^8"
)
STAGGER_TEXT = "x^2, xy^2, xyz, xz^2, y^4, y^3z, y^2z^2, yz^6, z^9"
FAMILY26_TEXT = "x^2, xy, xz^2, y^6, y^5z, y^4z^3, y^3z^4, y^2z^5, yz^6, z^9"


def splice8():
    return parse_ideal(SPLICE8_TEXT)


def stagger():
    return parse_ideal(STAGGER_TEXT)


def family26():
    return parse_ideal(FAMILY26_TEXT)


SPLICE8_BETTI = {
    (0, 2): 1,
    (0, 3): 3,
    (1, 4): 5,
    (2, 5): 2,
    (0, 8): 9,
    (1, 9): 17,
    (2, 10): 8,
}

SPLICE8_CHAIN = (
    (F(1), (2, 4, 5)),
    (F(2, 7), (3, 4, 10)),
    (F(9, 7), (3, 9, 10)),
    (F(8), (8, 9)),
    (F(1), (8,)),
)

SPLICE8_COLON_X_CHAIN = (
    (F(1), (1, 3, 4)),
    (F(2), (2, 3)),
    (F(1), (2,)),
)

SPLICE8_COLON_Y_CHAIN = (
    (F(1), (2, 3, 4)),
    (F(1, 7), (2, 3, 9)),
    (F(8, 7), (2, 8, 9)),
    (F(7), (7, 8)),
    (F(1), (7,)),
)

SPLICE8_AUGMENTED_CHAIN = (
    (F(1), (1, 9, 10)),
    (F(8), (8, 9)),
    (F(1), (8,)),
)

STAGGER_BETTI = {
    (0, 2): 1,
    (0, 3): 3,
    (0, 4): 3,
    (0, 7): 1,
    (0, 9): 1,
    (1, 4): 5,
    (1, 5): 5,
    (1, 8): 2,
    (1, 10): 2,
    (2, 5): 2,
    (2, 6): 2,
    (2, 9): 1,
    (2, 11): 1,
}

STAGGER_CHAIN = (
    (F(1), (2, 4, 5)),
    (F(2, 3), (3, 4, 6)),
    (F(2, 3), (3, 5, 6)),
    (F(1, 2), (3, 5, 9)),
    (F(3, 10), (4, 5, 9)),
    (F(1, 20), (4, 8, 9)),
    (F(1, 4), (4, 8, 11)),
    (F(1), (4, 10)),
    (F(1), (7, 10)),
    (F(1), (9,)),
)

STAGGER_TAIL = ((F(1), (4, 10)), (F(1), (7, 10)), (F(1), (9,)))

FAMILY26_BETTI = {
    (0, 2): 2,
    (0, 3): 1,
    (0, 6): 2,
    (0, 7): 4,
    (0, 9): 1,
    (1, 3): 1,
    (1, 4): 2,
    (1, 7): 3,
    (1, 8): 8,
    (1, 10): 2,
    (2, 5): 1,
    (2, 8): 1,
    (2, 9): 4,
    (2, 11): 1,
}

FAMILY26_CHAIN = (
    (F(1, 3), (2, 3, 5)),
    (F(1, 3), (2, 4, 5)),
    (F(1, 3), (2, 4, 8)),
    (F(2, 15), (2, 7, 8)),
    (F(1, 10), (2, 7, 9)),
    (F(1, 2), (3, 7, 9)),
    (F(1, 2), (3, 8, 9)),
    (F(1, 2), (6, 8, 11)),
    (F(1, 2), (6, 8)),
    (F(2), (7, 8)),
    (F(2), (7, 10)),
    (F(1), (9,)),
)

FAMILY26_TAIL = (
    (F(1, 2), (6, 8)),
    (F(2), (7, 8)),
    (F(2), (7, 10)),
    (F(1), (9,)),
)

# A thirteen-summand variant of the family26 chain: the first nine
# summands, then the four tail summands repeated with every degree
# raised by one.  Kept for the acceptance test; it does not reconstruct
# the diagram (the true chain is FAMILY26_CHAIN).
FAMILY26_THIRTEEN = FAMILY26_CHAIN[:9] + (
    (F(1, 2), (7, 9)),
    (F(2), (8, 9)),
    (F(2), (8, 11)),
    (F(1), (10,)),
)

QUADRIC_TEXT = "x^2, xy, xz, y^2"

QUADRIC_QUOTIENT_CHAIN = (
    (F(1, 3), (0, 2, 3, 4)),
    (F(2, 3), (0, 2, 3)),
)

QUADRIC_QUOTIENT_UNIT = (
    (F(8), (0, 2, 3, 4)),
    (F(4), (0, 2, 3)),
)

# `lexbs enumerate --max-deg D --machine` for D = 1..6, one tuple of
# stdout lines per D: the ideal count, then per law the pass, fail,
# vacuous and excluded counts.  This output is a contract: a faster
# campaign must print the same bytes.
CAMPAIGN_MACHINE_ROWS = {
    1: (
        "ideals\t1",
        "thm1\t0\t0\t1\t0",
        "thm2\t0\t0\t1\t0",
        "conjecture\t0\t0\t0\t1",
        "ek_vs_cone\t0\t0\t1\t0",
        "bhp\t1\t0\t0\t0",
        "lemmas\t1\t0\t0\t0",
    ),
    2: (
        "ideals\t4",
        "thm1\t1\t0\t3\t0",
        "thm2\t1\t0\t3\t0",
        "conjecture\t0\t0\t0\t4",
        "ek_vs_cone\t1\t0\t3\t0",
        "bhp\t4\t0\t0\t0",
        "lemmas\t4\t0\t0\t0",
    ),
    3: (
        "ideals\t14",
        "thm1\t7\t0\t7\t0",
        "thm2\t7\t0\t7\t0",
        "conjecture\t0\t0\t0\t14",
        "ek_vs_cone\t7\t0\t7\t0",
        "bhp\t14\t0\t0\t0",
        "lemmas\t14\t0\t0\t0",
    ),
    4: (
        "ideals\t51",
        "thm1\t36\t0\t15\t0",
        "thm2\t36\t0\t15\t0",
        "conjecture\t0\t0\t0\t51",
        "ek_vs_cone\t36\t0\t15\t0",
        "bhp\t51\t0\t0\t0",
        "lemmas\t51\t0\t0\t0",
    ),
    5: (
        "ideals\t202",
        "thm1\t171\t0\t31\t0",
        "thm2\t167\t0\t31\t4",
        "conjecture\t4\t0\t0\t198",
        "ek_vs_cone\t171\t0\t31\t0",
        "bhp\t202\t0\t0\t0",
        "lemmas\t202\t0\t0\t0",
    ),
    6: (
        "ideals\t876",
        "thm1\t813\t0\t63\t0",
        "thm2\t789\t0\t63\t24",
        "conjecture\t24\t0\t0\t852",
        "ek_vs_cone\t813\t0\t63\t0",
        "bhp\t876\t0\t0\t0",
        "lemmas\t876\t0\t0\t0",
    ),
}
