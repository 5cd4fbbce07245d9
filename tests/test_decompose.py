"""Greedy decomposition of Betti diagrams into chains of pure diagrams.

Every diagram produced by the closed formula for stable ideals decomposes:
repeatedly read off the top degree sequence, subtract the largest multiple
of its pure diagram that keeps all entries nonnegative, and stop at zero.
The resulting degree sequences strictly increase in the partial order where
s <= t iff s is at least as long and s_i <= t_i componentwise.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lexbs.betti import (
    BettiDiagram,
    ek_betti,
    mapping_cone_betti,
    quotient_diagram,
)
from lexbs.decompose import (
    Decomposition,
    bs_decompose,
    reconstruct,
    split_by_length,
    unit_normalized,
)
from lexbs.enumeration import enumerate_artinian_lex
from lexbs.ideal import minimalize
from lexbs.monomial import Monomial
from lexbs.pure import (
    NotDecomposable,
    pure_diagram,
    seq_leq,
    top_degree_sequence,
)
from lexbs.cli import parse_ideal

from conftest import (
    FAMILY26_CHAIN,
    FAMILY26_TEXT,
    QUADRIC_QUOTIENT_CHAIN,
    QUADRIC_QUOTIENT_UNIT,
    QUADRIC_TEXT,
    SPLICE8_CHAIN,
    borel_closure,
    splice8,
    stagger,
    STAGGER_CHAIN,
)


def as_pairs(D: Decomposition):
    return tuple((c, s) for c, s in D)


def test_frozen_chain_splice8():
    assert as_pairs(bs_decompose(ek_betti(splice8()))) == SPLICE8_CHAIN


def test_frozen_chain_stagger():
    assert as_pairs(bs_decompose(ek_betti(stagger()))) == STAGGER_CHAIN


def test_frozen_chain_family26():
    L = parse_ideal(FAMILY26_TEXT)
    assert as_pairs(bs_decompose(ek_betti(L))) == FAMILY26_CHAIN


def test_quotient_chain_and_unit_normalization():
    D = quotient_diagram(ek_betti(parse_ideal(QUADRIC_TEXT)))
    chain = bs_decompose(D)
    assert as_pairs(chain) == QUADRIC_QUOTIENT_CHAIN
    assert as_pairs(unit_normalized(chain)) == QUADRIC_QUOTIENT_UNIT


def test_koszul_quotient_is_single_pure():
    D = quotient_diagram(ek_betti(parse_ideal("x, y, z")))
    assert as_pairs(bs_decompose(D)) == ((1, (0, 1, 2, 3)),)


def test_pure_input_recovers_itself():
    D = pure_diagram((1, 3, 4)).as_betti(3, 5)
    assert as_pairs(bs_decompose(D)) == ((5, (1, 3, 4)),)


def test_scale_equivariance():
    base = ek_betti(splice8())
    for scale in (3, Fraction(1, 7)):
        scaled = BettiDiagram(3, {k: scale * v for k, v in base.items()})
        chain = bs_decompose(scaled)
        assert as_pairs(chain) == tuple(
            (scale * c, s) for c, s in SPLICE8_CHAIN
        )


def test_sequences_strictly_increase():
    for builder in (splice8, stagger):
        chain = bs_decompose(ek_betti(builder()))
        seqs = chain.sequences()
        for a, b in zip(seqs, seqs[1:]):
            assert seq_leq(a, b) and a != b


def test_length_bounded_by_support():
    for I in enumerate_artinian_lex(4):
        D = ek_betti(I)
        chain = bs_decompose(D)
        assert len(chain) <= sum(1 for _ in D.items())


def test_reconstruct_round_trip():
    for I in enumerate_artinian_lex(4):
        D = ek_betti(I)
        assert reconstruct(bs_decompose(D), I.n) == D
    quotient = quotient_diagram(ek_betti(parse_ideal(QUADRIC_TEXT)))
    assert reconstruct(bs_decompose(quotient), 3) == quotient


def test_not_decomposable_inputs():
    with pytest.raises(NotDecomposable):
        bs_decompose(BettiDiagram(3, {(0, 2): 1, (1, 3): 2}))
    with pytest.raises(NotDecomposable):
        bs_decompose(BettiDiagram(3, {}))


def test_split_by_length():
    full, short = split_by_length(bs_decompose(ek_betti(splice8())), 3)
    assert full == SPLICE8_CHAIN[:3]
    assert short == SPLICE8_CHAIN[3:]


def test_deterministic():
    a = bs_decompose(ek_betti(stagger()))
    b = bs_decompose(ek_betti(stagger()))
    assert as_pairs(a) == as_pairs(b)


@st.composite
def _stable_ideals(draw, max_deg=5):
    """A random stable ideal in 2-4 variables: a Borel-closed set."""
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, max_deg)] * n).filter(
        lambda e: 0 < sum(e) <= max_deg
    )
    monos = borel_closure(draw(st.lists(exps, min_size=1, max_size=4)))
    return minimalize([Monomial(e) for e in monos], n)


def _assert_exact_chain(B, chain, n):
    assert reconstruct(chain, n) == B
    seqs = chain.sequences()
    for a, b in zip(seqs, seqs[1:]):
        assert seq_leq(a, b) and a != b


@settings(max_examples=200, deadline=None)
@given(_stable_ideals())
def test_greedy_chain_property(I):
    B = ek_betti(I)
    # ek_betti and the cone skip BettiDiagram's checks, which must agree.
    assert B == BettiDiagram(I.n, B.entries)
    cone = mapping_cone_betti(B, B)
    assert cone == BettiDiagram(I.n, cone.entries)
    chain = bs_decompose(B)
    _assert_exact_chain(B, chain, I.n)
    # On an ideal in n variables the full-length summands open the chain
    # and the shorter ones close it.
    full, short = split_by_length(chain, I.n)
    assert full + short == chain.summands
    Q = quotient_diagram(B)
    _assert_exact_chain(Q, bs_decompose(Q), I.n)


def _fraction_peel(B):
    """Reference greedy peel on an exact Fraction remainder: the oracle
    for the integer peel of bs_decompose."""
    remainder = {key: Fraction(v) for key, v in B.items()}
    if not remainder:
        raise NotDecomposable("cannot decompose an empty diagram")
    summands = []
    while remainder:
        seq = top_degree_sequence(remainder)
        pi = pure_diagram(seq)
        alpha = min(remainder[key] / e for key, e in pi.items())
        for (i, d), e in pi.items():
            v = remainder[(i, d)] - alpha * e
            if v < 0:
                raise NotDecomposable(
                    f"entry ({i}, {d}) driven negative by pi{seq}"
                )
            if v == 0:
                del remainder[(i, d)]
            else:
                remainder[(i, d)] = v
        summands.append((alpha, seq))
    return Decomposition(tuple(summands))


def _outcome(peel, B):
    """The repr of the chain, or the NotDecomposable message."""
    try:
        return repr(peel(B))
    except NotDecomposable as exc:
        return f"NotDecomposable: {exc}"


def _assert_peels_agree(B):
    assert _outcome(bs_decompose, B) == _outcome(_fraction_peel, B)


def test_integer_peel_matches_fraction_peel_on_campaign_diagrams():
    for I in enumerate_artinian_lex(6):
        B = ek_betti(I)
        _assert_peels_agree(B)
        _assert_peels_agree(quotient_diagram(B))


@settings(max_examples=100, deadline=None)
@given(
    _stable_ideals(),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
)
def test_integer_peel_matches_fraction_peel_property(I, scale):
    B = ek_betti(I)
    for D in (B, quotient_diagram(B)):
        _assert_peels_agree(D)
        for factor in (scale, float(scale)):
            _assert_peels_agree(
                BettiDiagram(I.n, {k: factor * v for k, v in D.items()})
            )


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 6)),
        st.fractions(min_value=Fraction(1, 50), max_value=50),
        max_size=8,
    )
)
# Columns that start below or above 0.
@example({(-1, 0): Fraction(1), (0, 1): Fraction(1)})
@example({(1, 2): Fraction(1), (2, 3): Fraction(1)})
# The first step empties column 1 while column 2 keeps an entry.
@example(
    {(0, 0): Fraction(1), (1, 1): Fraction(1), (2, 2): Fraction(5), (2, 3): Fraction(1)}
)
# The first step empties the last column, which leaves a prefix.
@example({(0, 0): Fraction(5), (1, 1): Fraction(5), (2, 2): Fraction(1)})
# The first step moves the end of column 0 up past that of column 1.
@example({(0, 0): Fraction(1), (0, 5): Fraction(1), (1, 2): Fraction(5)})
# Denominator 5, and a later step takes a common factor out of s.
@example({(0, 0): Fraction(6, 5), (1, 3): Fraction(6, 5), (2, 4): Fraction(4, 5)})
def test_integer_peel_matches_fraction_peel_off_the_cone(entries):
    # Random entries: mostly outside the cone, where both peels must
    # raise the same NotDecomposable message.
    _assert_peels_agree(BettiDiagram(4, entries))
