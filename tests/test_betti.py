"""Graded Betti numbers of stable ideals.

The resolution data of a stable monomial ideal is determined by the maximal
variable indices of its generators:

    beta_{i, i+j}(I) = sum over generators u of degree j of C(m(u) - 1, i),

where m(u) is the largest index of a variable dividing u.  Cross-checks here:
a mapping-cone recursion on the splitting L = x*(L:x) + L', and the identity
expressing Hilbert function values as an alternating sum of Betti numbers.
"""

from fractions import Fraction
from math import comb

import pytest

from lexbs.betti import (
    BettiDiagram,
    ek_betti,
    mapping_cone_betti,
    proj_dim,
    quotient_diagram,
    regularity,
)
from lexbs.ideal import (
    MonomialIdeal,
    colon_variable,
    hilbert_value,
    minimalize,
    split_x,
)
from lexbs.enumeration import enumerate_artinian_lex
from lexbs.monomial import Monomial
from lexbs.cli import parse_ideal

from conftest import (
    FAMILY26_BETTI,
    FAMILY26_TEXT,
    SPLICE8_BETTI,
    STAGGER_BETTI,
    m,
    splice8,
    stagger,
)


def test_koszul_case():
    I = parse_ideal("x, y, z")
    assert ek_betti(I) == BettiDiagram(3, {(0, 1): 3, (1, 2): 3, (2, 3): 1})


def test_small_stable_ideal():
    I = parse_ideal("x, y^2, yz, z^2")
    assert ek_betti(I) == BettiDiagram(
        3, {(0, 1): 1, (0, 2): 3, (1, 3): 5, (2, 4): 2}
    )


def test_two_variable_power():
    I = minimalize([Monomial((8 - i, i)) for i in range(9)], 2)
    assert ek_betti(I) == BettiDiagram(2, {(0, 8): 9, (1, 9): 8})


def test_frozen_showcase_diagrams():
    assert dict(ek_betti(splice8()).items()) == SPLICE8_BETTI
    assert dict(ek_betti(stagger()).items()) == STAGGER_BETTI
    assert dict(ek_betti(parse_ideal(FAMILY26_TEXT)).items()) == FAMILY26_BETTI


def test_non_stable_rejected():
    I = minimalize([m(1, 0, 1)])
    with pytest.raises(ValueError) as err:
        ek_betti(I)
    assert "x*z" in str(err.value)


def test_entries_are_positive_integers():
    for I in enumerate_artinian_lex(3):
        for (i, j), value in ek_betti(I).items():
            assert isinstance(value, int) and value > 0
            assert 0 <= i < 3 and j > i


def _rebuilt(B):
    """B through BettiDiagram's own copy and checks."""
    return BettiDiagram(B.n, B.entries)


def test_built_diagrams_pass_the_constructor_checks():
    # ek_betti, the cone and quotients skip BettiDiagram's checks; their
    # entries must come out the same through them.
    for L in enumerate_artinian_lex(5):
        ideals = [L] + [colon_variable(L, i) for i in range(1, 4)]
        for I in ideals:
            if isinstance(I, MonomialIdeal):
                B = ek_betti(I)
                assert B == _rebuilt(B)
                assert quotient_diagram(B) == _rebuilt(quotient_diagram(B))
        colon, xfree = split_x(L)
        if isinstance(colon, MonomialIdeal):
            pieces = [ek_betti(colon)]
            if isinstance(xfree, MonomialIdeal):
                pieces.append(ek_betti(xfree))
            cone = mapping_cone_betti(*pieces)
            assert cone == _rebuilt(cone)


def test_mapping_cone_matches_direct_formula():
    for builder in (splice8, stagger):
        L = builder()
        colon, xfree = split_x(L)
        cone = mapping_cone_betti(ek_betti(colon), ek_betti(xfree))
        assert cone == ek_betti(L)


def test_mapping_cone_without_second_ideal():
    # x * (y, z): the cone degenerates to a pure degree shift.
    base = ek_betti(minimalize([Monomial((1, 0)), Monomial((0, 1))], 2))
    shifted = mapping_cone_betti(base, None)
    assert shifted == BettiDiagram(2, {(0, 2): 2, (1, 3): 1})


def test_quotient_diagram_quadric():
    I = parse_ideal("x^2, xy, xz, y^2")
    assert quotient_diagram(ek_betti(I)) == BettiDiagram(
        3, {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
    )


def test_quotient_diagram_koszul():
    I = parse_ideal("x, y, z")
    assert quotient_diagram(ek_betti(I)) == BettiDiagram(
        3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    )


def test_proj_dim_and_regularity():
    L = splice8()
    assert proj_dim(L) == 3
    assert regularity(L) == 8
    assert proj_dim(parse_ideal("x, y, z")) == 3
    assert proj_dim(minimalize([m(2, 0, 0)])) == 1


def test_diagram_validation():
    with pytest.raises(ValueError):
        BettiDiagram(3, {(0, 2): -1})
    # zero entries are dropped on construction
    D = BettiDiagram(3, {(0, 2): 1, (1, 3): 0})
    assert dict(D.items()) == {(0, 2): 1}
    assert D.get(1, 3) == 0
    assert bool(D)
    assert not bool(BettiDiagram(3, {}))


def test_diagram_equality_across_number_types():
    A = BettiDiagram(3, {(0, 2): 1})
    B = BettiDiagram(3, {(0, 2): Fraction(1)})
    assert A == B


def test_hilbert_alternating_sum_identity():
    # dim_k (R/I)_d  =  sum_i (-1)^i sum_j beta_{i,j}(R/I) * C(n-1+d-j, n-1)
    samples = [
        splice8(),
        stagger(),
        parse_ideal(FAMILY26_TEXT),
        parse_ideal("x, y^2, yz, z^2"),
    ]
    for I in samples:
        n = I.n
        quot = quotient_diagram(ek_betti(I))
        for d in range(0, regularity(I) + 5):
            direct = comb(n - 1 + d, n - 1) - hilbert_value(I, d)
            series = sum(
                (-1) ** i * value * comb(n - 1 + d - j, n - 1)
                for (i, j), value in quot.items()
                if d - j >= 0
            )
            assert direct == series, (I, d)
