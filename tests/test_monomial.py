import pytest

from lexbs.monomial import (
    Monomial,
    divides,
    div_var,
    format_monomial,
    glex_compare,
    glex_key,
    glex_rank,
    glex_unrank,
    max_index,
    monomials_of_degree,
    mul_var,
    one,
    variable,
)

from conftest import m


def test_degree_and_exponents():
    u = m(2, 0, 3)
    assert u.degree == 5
    assert u.exponents == (2, 0, 3)
    assert u.nvars == 3


def test_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Monomial((1, -1, 0))


def test_rejects_empty_exponent_vector():
    with pytest.raises(ValueError):
        Monomial(())


def test_equality_and_hash():
    assert m(1, 2, 0) == m(1, 2, 0)
    assert m(1, 2, 0) != m(1, 0, 2)
    assert len({m(1, 1, 0), m(1, 1, 0), m(0, 1, 1)}) == 2


def test_glex_degree_dominates():
    # z^3 has higher degree than x^2, so it is bigger in glex.
    assert glex_compare(m(0, 0, 3), m(2, 0, 0)) == 1


def test_glex_ties_broken_leftmost():
    assert glex_compare(m(2, 0, 0), m(1, 1, 0)) == 1
    assert glex_compare(m(1, 1, 0), m(1, 0, 1)) == 1
    assert glex_compare(m(1, 0, 1), m(0, 2, 0)) == 1
    assert glex_compare(m(1, 1, 1), m(1, 1, 1)) == 0
    assert glex_compare(m(0, 2, 0), m(1, 0, 1)) == -1


def test_glex_dimension_mismatch():
    with pytest.raises(ValueError):
        glex_compare(m(1, 0), m(1, 0, 0))


def test_sorting_by_key():
    monos = [m(0, 0, 2), m(1, 1, 0), m(2, 0, 0), m(0, 1, 1)]
    ordered = sorted(monos, key=glex_key, reverse=True)
    assert ordered == [m(2, 0, 0), m(1, 1, 0), m(0, 1, 1), m(0, 0, 2)]


def test_max_index():
    assert max_index(m(3, 0, 0)) == 1
    assert max_index(m(1, 2, 0)) == 2
    assert max_index(m(0, 0, 1)) == 3
    with pytest.raises(ValueError):
        max_index(one(3))


def test_divides():
    assert divides(m(1, 1, 0), m(2, 1, 3))
    assert not divides(m(2, 1, 3), m(1, 1, 0))
    assert divides(one(3), m(0, 5, 0))
    with pytest.raises(ValueError):
        divides(m(1, 0), m(1, 0, 0))


def test_mul_div_var():
    assert mul_var(m(1, 0, 2), 2) == m(1, 1, 2)
    assert div_var(m(1, 1, 2), 3) == m(1, 1, 1)
    with pytest.raises(ValueError):
        div_var(m(1, 0, 2), 2)
    with pytest.raises(ValueError):
        mul_var(m(1, 0, 2), 4)


def test_variable_and_one():
    assert variable(2, 3) == m(0, 1, 0)
    assert one(2) == Monomial((0, 0))
    with pytest.raises(ValueError):
        variable(0, 3)


def test_monomials_of_degree_small():
    assert monomials_of_degree(3, 2) == (
        m(2, 0, 0),
        m(1, 1, 0),
        m(1, 0, 1),
        m(0, 2, 0),
        m(0, 1, 1),
        m(0, 0, 2),
    )


def test_monomials_of_degree_counts_and_order():
    from math import comb

    for n in (1, 2, 3, 4):
        for d in range(0, 7):
            monos = monomials_of_degree(n, d)
            assert len(monos) == comb(n - 1 + d, n - 1)
            for a, b in zip(monos, monos[1:]):
                assert glex_compare(a, b) == 1


def test_glex_rank_and_unrank_match_master_list():
    for n in (1, 2, 3, 4):
        for d in range(0, 7):
            for r, u in enumerate(monomials_of_degree(n, d)):
                assert glex_rank(u.exponents) == r
                assert glex_unrank(n, d, r) == u.exponents


def test_glex_unrank_range():
    assert glex_unrank(3, 5000, 0) == (5000, 0, 0)
    assert glex_unrank(3, 5000, 5001 * 5002 // 2 - 1) == (0, 0, 5000)
    with pytest.raises(ValueError):
        glex_unrank(3, 2, 6)
    with pytest.raises(ValueError):
        glex_unrank(3, 2, -1)


def test_monomials_of_degree_cached():
    assert monomials_of_degree(3, 5) is monomials_of_degree(3, 5)


def test_format_monomial():
    assert format_monomial(one(3)) == "1"
    assert format_monomial(m(2, 1, 1)) == "x^2*y*z"
    assert format_monomial(m(0, 3, 0)) == "y^3"
    assert format_monomial(Monomial((2, 0, 0, 1))) == "x1^2*x4"
