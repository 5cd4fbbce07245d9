import pickle

import pytest
from hypothesis import given, strategies as st

from lexbs.monomial import (
    Monomial,
    _monomial,
    divides,
    format_monomial,
    glex_key,
    glex_rank,
    glex_walk,
    kept_rank,
    max_index,
    monomials_of_degree,
    one,
    quotients,
    shadow_size,
    variable,
    xfree_projection,
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


def test_quotients_are_kept_on_the_monomial():
    u = m(2, 1, 0)
    assert quotients(u) == (m(1, 1, 0), m(2, 0, 0), None)
    assert quotients(u) is quotients(u)
    assert quotients(m(0, 0, 1)) == (None, None, m(0, 0, 0))


# What a monomial keeps, each in its own slot, filled by its accessor.
# xfree_projection is defined on x_1-free monomials only.  The split is
# set when the monomial is built, so it is no kept value.
KEPT = (quotients, kept_rank, shadow_size, xfree_projection)
SLOTS = ("_quotients", "_rank", "_shadow", "_proj")


def _kept(u):
    return [getattr(u, slot) for slot in SLOTS]


def test_each_kept_value_has_its_own_slot():
    assert Monomial.__slots__ == ("exponents", "degree", "split", *SLOTS)


@pytest.mark.parametrize("build", [Monomial, lambda e: _monomial(e, sum(e))])
def test_kept_quotients_change_nothing_visible(build):
    # Equality, the hash, the repr and pickling read the exponents alone,
    # whatever is kept: nothing, one value, or all of them.
    fresh, one_kept, used = build((0, 2, 1)), build((0, 2, 1)), build((0, 2, 1))
    kept_rank(one_kept)
    for fill in KEPT:
        fill(used)
    assert set(_kept(fresh)) == {None}
    assert _kept(one_kept) == [None, 7, None, None]
    assert None not in _kept(used)
    for u in (fresh, one_kept, used):
        assert u.split == ((0, 2), 1)
    for u in (one_kept, used):
        assert fresh == u and hash(fresh) == hash(u)
        assert repr(u) == "Monomial((0, 2, 1))"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        pickled = pickle.dumps(fresh, protocol)
        assert pickle.dumps(one_kept, protocol) == pickled
        assert pickle.dumps(used, protocol) == pickled
        for u in (fresh, used):
            back = pickle.loads(pickle.dumps(u, protocol))
            assert back == fresh and hash(back) == hash(fresh)
            # An unpickled monomial keeps nothing, has its split, and
            # derives the same.
            assert back.degree == 3 and set(_kept(back)) == {None}
            assert back.split == ((0, 2), 1)
            assert [fill(back) for fill in KEPT] == _kept(used)


def test_kept_values_are_kept():
    u = m(0, 2, 1, 0)
    for k, fill in enumerate(KEPT):
        assert fill(u) is _kept(u)[k] is fill(u)
    assert u.split == ((0, 2), 1)
    assert xfree_projection(u) == m(2, 1, 0)
    assert xfree_projection(u).degree == 3
    assert one(3).split is None
    with pytest.raises(ValueError):
        max_index(one(3))


@given(st.lists(st.integers(0, 6), min_size=1, max_size=5).filter(any))
def test_kept_split_and_ranks_match_a_scan_property(e):
    u = Monomial(e)
    n, d = len(e), sum(e)
    m_u = max(i + 1 for i, c in enumerate(e) if c)  # the scan oracle
    assert u.split == (tuple(e[: m_u - 1]), e[m_u - 1])
    assert max_index(u) == m_u
    assert kept_rank(u) == glex_rank(tuple(e))
    assert monomials_of_degree(n, d)[kept_rank(u)] == u
    shadow = tuple(e[:-1]) + (e[-1] + 1,)
    assert shadow_size(u) == glex_rank(shadow) + 1
    assert monomials_of_degree(n, d + 1)[shadow_size(u) - 1].exponents == shadow
    # Read again, the kept values answer the same.
    assert (max_index(u), kept_rank(u)) == (m_u, glex_rank(tuple(e)))
    if not e[0]:
        assert xfree_projection(u).exponents == tuple(e[1:])
        assert xfree_projection(u).degree == d


def test_glex_degree_dominates():
    # z^3 has higher degree than x^2, so it is bigger in glex.
    assert glex_key(m(0, 0, 3)) > glex_key(m(2, 0, 0))


def test_glex_ties_broken_leftmost():
    assert glex_key(m(2, 0, 0)) > glex_key(m(1, 1, 0))
    assert glex_key(m(1, 1, 0)) > glex_key(m(1, 0, 1))
    assert glex_key(m(1, 0, 1)) > glex_key(m(0, 2, 0))
    assert glex_key(m(1, 1, 1)) == glex_key(m(1, 1, 1))
    assert glex_key(m(0, 2, 0)) < glex_key(m(1, 0, 1))


def test_sorting_by_key():
    monos = [m(0, 0, 2), m(1, 1, 0), m(2, 0, 0), m(0, 1, 1)]
    ordered = sorted(monos, key=glex_key, reverse=True)
    assert ordered == [m(2, 0, 0), m(1, 1, 0), m(0, 1, 1), m(0, 0, 2)]
    assert glex_key(m(1, 2, 0)) == (3, (1, 2, 0))


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
                assert glex_key(a) > glex_key(b)


def test_glex_rank_matches_master_list():
    for n in (1, 2, 3, 4):
        for d in range(0, 7):
            for r, u in enumerate(monomials_of_degree(n, d)):
                assert glex_rank(u.exponents) == r


def test_glex_walk_yields_the_rest_of_the_degree():
    # From every monomial the walk runs through the rest of its degree in
    # glex order, then stops.
    for n in range(1, 6):
        for d in range(0, 9):
            master = [u.exponents for u in monomials_of_degree(n, d)]
            for r, e in enumerate(master):
                assert list(glex_walk(e)) == master[r:]


def test_glex_walk_at_degree_5000():
    walk = glex_walk((5000, 0, 0))
    assert [next(walk) for _ in range(4)] == [
        (5000, 0, 0),
        (4999, 1, 0),
        (4999, 0, 1),
        (4998, 2, 0),
    ]
    assert list(glex_walk((0, 1, 4999))) == [(0, 1, 4999), (0, 0, 5000)]


def test_monomials_of_degree_cached():
    assert monomials_of_degree(3, 5) is monomials_of_degree(3, 5)


def test_format_monomial():
    assert format_monomial(one(3)) == "1"
    assert format_monomial(m(2, 1, 1)) == "x^2*y*z"
    assert format_monomial(m(0, 3, 0)) == "y^3"
    assert format_monomial(Monomial((2, 0, 0, 1))) == "x1^2*x4"
