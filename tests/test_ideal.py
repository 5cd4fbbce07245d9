"""Ideal operations, with a brute-force membership oracle for the lex
predicate and Hilbert counts."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lexbs.ideal import (
    MonomialIdeal,
    UnitIdeal,
    ZeroIdeal,
    add_variable,
    colon_variable,
    contains,
    format_ideal,
    gens_of_degree,
    hilbert_value,
    is_artinian,
    is_lex_segment,
    is_stable,
    lexify,
    max_gen_degree,
    min_gen_degree,
    minimalize,
    monomials_at_degree,
    segment_shadow_size,
    split_x,
    stable_violation,
)
from lexbs.monomial import Monomial, divides, glex_compare, monomials_of_degree, one
from lexbs.cli import parse_ideal

from conftest import FAMILY26_TEXT, SPLICE8_TEXT, m, splice8, stagger


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


def test_minimalize_drops_multiples():
    I = minimalize([m(1, 0, 0), m(2, 0, 0), m(1, 1, 0), m(0, 2, 0)])
    assert I.gens == (m(0, 2, 0), m(1, 0, 0))


def test_minimalize_dedupes():
    I = minimalize([m(0, 1, 0), m(0, 1, 0)])
    assert I.gens == (m(0, 1, 0),)


def test_minimalize_unit():
    assert minimalize([one(3), m(1, 0, 0)]) == UnitIdeal(3)


def test_minimalize_empty_is_error():
    with pytest.raises(ValueError):
        minimalize([])


def test_minimalize_dimension_mismatch():
    with pytest.raises(ValueError):
        minimalize([m(1, 0), m(1, 0, 0)])


def test_gens_sorted_descending():
    I = parse_ideal(SPLICE8_TEXT)
    for a, b in zip(I.gens, I.gens[1:]):
        assert glex_compare(a, b) == 1


def test_constructor_rejects_duplicates_and_units():
    with pytest.raises(ValueError):
        MonomialIdeal(3, (m(1, 0, 0), m(1, 0, 0)))
    with pytest.raises(ValueError):
        MonomialIdeal(3, (one(3),))
    with pytest.raises(ValueError):
        MonomialIdeal(3, ())


def test_contains():
    I = minimalize([m(1, 0, 0), m(0, 2, 0)])
    assert contains(I, m(1, 3, 1))
    assert contains(I, m(0, 2, 4))
    assert not contains(I, m(0, 1, 5))
    assert contains(UnitIdeal(3), one(3))
    assert not contains(ZeroIdeal(3), m(1, 0, 0))


def test_contains_matches_divisibility_oracle():
    for I in (splice8(), stagger(), minimalize([m(1, 1, 0), m(0, 0, 3)])):
        for d in range(0, max_gen_degree(I) + 3):
            for u in monomials_of_degree(3, d):
                assert contains(I, u) == _contains_by_divisibility(I, u)


def test_monomials_at_degree():
    I = minimalize([m(1, 0, 0), m(0, 1, 0)])
    assert monomials_at_degree(I, 2) == (
        m(2, 0, 0),
        m(1, 1, 0),
        m(1, 0, 1),
        m(0, 2, 0),
        m(0, 1, 1),
    )
    assert monomials_at_degree(I, 0) == ()
    assert monomials_at_degree(ZeroIdeal(3), 4) == ()
    assert len(monomials_at_degree(UnitIdeal(3), 2)) == 6


def test_hilbert_value_counts():
    I = splice8()
    for d in range(0, 12):
        assert hilbert_value(I, d) == sum(
            1
            for u in monomials_of_degree(3, d)
            if _contains_by_divisibility(I, u)
        )
    assert hilbert_value(I, -1) == 0


def test_is_lex_segment_examples():
    assert is_lex_segment(parse_ideal("x, y, z"))
    assert is_lex_segment(parse_ideal(SPLICE8_TEXT))
    assert is_lex_segment(parse_ideal(FAMILY26_TEXT))
    assert not is_lex_segment(minimalize([m(1, 0, 0), m(0, 0, 1)]))
    assert not is_lex_segment(minimalize([m(2, 0, 0), m(1, 1, 0), m(0, 2, 0)]))
    assert is_lex_segment(UnitIdeal(3))


def test_is_lex_segment_matches_scan_oracle():
    samples = [
        splice8(),
        stagger(),
        parse_ideal(FAMILY26_TEXT),
        minimalize([m(1, 0, 0), m(0, 0, 1)]),
        minimalize([m(2, 0, 0), m(1, 1, 0), m(0, 2, 0)]),
        minimalize([m(1, 0, 0), m(0, 3, 0)]),
        minimalize([m(2, 0, 0), m(1, 1, 0), m(1, 0, 1), m(0, 3, 0)]),
    ]
    for I in samples:
        assert is_lex_segment(I) == _is_lex_by_scan(I)


def test_stability():
    assert is_stable(parse_ideal("x, y^2, yz, z^2"))
    assert is_stable(minimalize([m(2, 0, 0), m(1, 1, 0), m(0, 2, 0)]))
    bad = minimalize([m(1, 0, 1)])
    witness = stable_violation(bad)
    assert witness is not None
    u, i, v = witness
    assert u == m(1, 0, 1) and i == 1 and v == m(2, 0, 0)


def test_stability_two_variables():
    # Full powers of the maximal ideal in two variables are stable.
    full = minimalize([Monomial((8 - i, i)) for i in range(9)], 2)
    assert is_stable(full)


def test_lex_implies_stable():
    for I in (splice8(), stagger(), parse_ideal(FAMILY26_TEXT)):
        assert is_lex_segment(I) and is_stable(I)


def test_colon_variable():
    L = splice8()
    a = colon_variable(L, 1)
    assert a == parse_ideal("x, y^2, yz, z^2")
    b = colon_variable(L, 2)
    assert b == parse_ideal(
        "x^2, xy, xz, y^7, y^6z, y^5z^2, y^4z^3, y^3z^4, y^2z^5, yz^6, z^7"
    )
    assert colon_variable(L, 3) == b
    assert colon_variable(parse_ideal("x, y, z"), 1) == UnitIdeal(3)


def test_colon_passthrough():
    I = minimalize([m(0, 2, 0), m(0, 0, 3)])
    assert colon_variable(I, 1) == I


def test_add_variable():
    I = parse_ideal("x^2, xy, xz, y^2, yz, z^2")
    assert add_variable(I, 1) == parse_ideal("x, y^2, yz, z^2")
    # adding an existing generator changes nothing
    J = parse_ideal("x, y, z")
    assert add_variable(J, 1) == J


def test_split_reconstructs():
    for text in (SPLICE8_TEXT, FAMILY26_TEXT):
        L = parse_ideal(text)
        colon, xfree = split_x(L)
        rebuilt = {
            Monomial((g.exponents[0] + 1,) + g.exponents[1:])
            for g in colon.gens
        } | {Monomial((0,) + g.exponents) for g in xfree.gens}
        assert rebuilt == set(L.gens)
        assert xfree.n == 2


def test_split_unit_colon():
    colon, xfree = split_x(parse_ideal("x, y, z"))
    assert colon == UnitIdeal(3)
    assert xfree == minimalize([Monomial((1, 0)), Monomial((0, 1))], 2)


def test_split_requires_lex():
    with pytest.raises(ValueError):
        split_x(minimalize([m(1, 0, 0), m(0, 0, 1)]))


def test_split_zero_xfree():
    # A lex ideal in 2 variables whose generators all involve x.
    L = minimalize([Monomial((2, 0)), Monomial((1, 1))], 2)
    assert is_lex_segment(L)
    colon, xfree = split_x(L)
    assert colon == minimalize([Monomial((1, 0)), Monomial((0, 1))], 2)
    assert xfree == ZeroIdeal(1)


def test_is_artinian():
    assert is_artinian(parse_ideal("x, y, z"))
    assert is_artinian(splice8())
    assert not is_artinian(parse_ideal("x, y"))
    assert not is_artinian(minimalize([m(1, 1, 0), m(0, 0, 2)]))
    assert is_artinian(UnitIdeal(3))
    assert not is_artinian(ZeroIdeal(3))


def test_gens_of_degree_and_degree_range():
    I = stagger()
    assert min_gen_degree(I) == 2
    assert max_gen_degree(I) == 9
    assert gens_of_degree(I, 4) == (m(0, 4, 0), m(0, 3, 1), m(0, 2, 2))
    assert gens_of_degree(I, 6) == ()


def test_lexify_fixed_point():
    for I in (splice8(), stagger(), parse_ideal("x, y, z")):
        assert lexify(I) == I


def test_lexify_quadratic_plane_ideal():
    I = minimalize([m(2, 0, 0), m(1, 1, 0), m(0, 2, 0)])
    assert lexify(I) == parse_ideal("x^2, xy, xz, y^3")


def test_lexify_two_variables():
    I = minimalize([Monomial((1, 1))], 2)
    assert lexify(I) == minimalize([Monomial((2, 0))], 2)


def test_lexify_preserves_hilbert_values():
    samples = [
        minimalize([m(2, 0, 0), m(1, 1, 0), m(0, 2, 0)]),
        minimalize([m(1, 1, 0), m(0, 0, 3)]),
        stagger(),
    ]
    for I in samples:
        lexed = lexify(I)
        assert is_lex_segment(lexed)
        for d in range(0, max(max_gen_degree(I), max_gen_degree(lexed)) + 4):
            assert hilbert_value(I, d) == hilbert_value(lexed, d)


def test_lexify_idempotent():
    I = minimalize([m(1, 1, 0), m(0, 0, 3)])
    assert lexify(lexify(I)) == lexify(I)


def test_format_ideal():
    assert format_ideal(UnitIdeal(3)) == "(1)"
    assert format_ideal(ZeroIdeal(2)) == "(0)"
    assert format_ideal(parse_ideal("y, x")) == "(x, y)"


# ----- property tests against brute-force oracles ---------------------------


def _hilbert_by_count(I, d):
    return sum(
        1 for u in monomials_of_degree(I.n, d) if _contains_by_divisibility(I, u)
    )


def _borel_closure(monos):
    # Close under u -> x_i * u / x_j for i < j; strongly stable, so stable.
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
def _ideals(draw, max_deg=6):
    """A random nonzero proper ideal in 2-4 variables, stable or not."""
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 4)] * n).filter(
        lambda e: 0 < sum(e) <= max_deg
    )
    monos = draw(st.lists(exps, min_size=1, max_size=5))
    if draw(st.booleans()):
        monos = _borel_closure(monos)
    return minimalize([Monomial(e) for e in monos], n)


_PROPERTY = settings(max_examples=150, deadline=None)


@_PROPERTY
@given(_ideals(), st.data())
def test_contains_matches_divisibility_property(I, data):
    e = data.draw(st.tuples(*[st.integers(0, 7)] * I.n))
    u = Monomial(e)
    assert contains(I, u) == _contains_by_divisibility(I, u)


@_PROPERTY
@given(_ideals())
def test_hilbert_value_matches_count_property(I):
    for d in range(0, max_gen_degree(I) + 3):
        assert hilbert_value(I, d) == _hilbert_by_count(I, d)


@_PROPERTY
@given(_ideals())
def test_is_lex_segment_matches_scan_property(I):
    assert is_lex_segment(I) == _is_lex_by_scan(I)


@_PROPERTY
@given(st.integers(1, 4), st.integers(0, 7), st.data())
def test_segment_shadow_size_matches_set_property(n, d, data):
    master = monomials_of_degree(n, d)
    t = data.draw(st.integers(0, len(master)))
    shadow = {
        e[:i] + (e[i] + 1,) + e[i + 1 :]
        for e in (u.exponents for u in master[:t])
        for i in range(n)
    }
    assert segment_shadow_size(n, d, t) == len(shadow)


# Generators of degree <= 3 keep the lexification below degree ~40 in
# four variables, where the brute-force oracle stays cheap; sextics can
# push it past degree 400.
@_PROPERTY
@given(_ideals(max_deg=3))
def test_lexify_property(I):
    lexed = lexify(I)
    assert is_lex_segment(lexed) and _is_lex_by_scan(lexed)
    for d in range(0, max(max_gen_degree(I), max_gen_degree(lexed)) + 3):
        assert hilbert_value(lexed, d) == _hilbert_by_count(I, d)


def test_lexify_reaches_degree_601():
    # The lexification of (x^2, xy, y^600) has generators up to degree 601.
    lexed = lexify(parse_ideal("x^2, xy, y^600"))
    assert is_lex_segment(lexed)
    assert max_gen_degree(lexed) == 601


def test_deep_z_power_predicates():
    I = parse_ideal("x, y, z^5000")
    assert is_lex_segment(I) and is_stable(I) and is_artinian(I)
    assert contains(I, m(0, 0, 5000)) and not contains(I, m(0, 0, 4999))
    assert hilbert_value(I, 5000) == comb(5002, 2)
    assert hilbert_value(I, 4999) == comb(5001, 2) - 1
    assert lexify(I) == I
