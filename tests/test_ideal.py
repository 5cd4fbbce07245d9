"""Ideal operations, with a brute-force membership oracle for the lex
predicate and Hilbert counts."""

import pickle
import random
from math import comb
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from lexbs.enumeration import enumerate_artinian_lex
from lexbs.ideal import (
    MonomialIdeal,
    UnitIdeal,
    ZeroIdeal,
    _ideal,
    _initial_segments,
    add_variable,
    colon_variable,
    contains,
    format_ideal,
    hilbert_value,
    is_artinian,
    is_lex_segment,
    is_stable,
    lexify,
    max_gen_degree,
    min_gen_degree,
    minimalize,
    split_x,
    stable_violation,
    xfree_part,
)
from lexbs.betti import ek_betti
from lexbs.monomial import (
    Monomial,
    glex_key,
    kept_rank,
    monomials_of_degree,
    one,
    quotients,
    shadow_size,
    variable,
    xfree_projection,
)
from lexbs.cli import parse_ideal

from conftest import (
    FAMILY26_TEXT,
    SPLICE8_TEXT,
    _contains_by_divisibility,
    _is_lex_by_scan,
    borel_closure,
    ideals,
    m,
    splice8,
    stagger,
)


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


@st.composite
def _generator_lists(draw):
    """Monomials in 1-4 variables, with repeats and the unit now and then;
    some lists are a whole degree piece, such as (x, y, z)^k, or contain
    one."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(exps, min_size=1, max_size=12))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        gens += [u.exponents for u in monomials_of_degree(n, k)]
    gens += draw(st.lists(st.sampled_from(gens), max_size=3))  # repeats
    return n, draw(st.permutations(gens))


@settings(max_examples=300, deadline=None)
@given(_generator_lists())
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 0)]))
@example((2, [(1, 1), (0, 0), (2, 0)]))
def test_minimalize_keeps_exactly_the_undivided_property(case):
    n, gens = case
    I = minimalize([Monomial(e) for e in gens], n)
    if (0,) * n in gens:
        assert I == UnitIdeal(n)
        return
    # The oracle: a generator stays iff no other distinct input divides it.
    kept = {
        e
        for e in gens
        if not any(d != e and all(map(le, d, e)) for d in gens)
    }
    got = [g.exponents for g in I.gens]
    assert got == sorted(kept, key=lambda e: (sum(e), e), reverse=True)


def test_gens_sorted_descending():
    I = parse_ideal(SPLICE8_TEXT)
    for a, b in zip(I.gens, I.gens[1:]):
        assert glex_key(a) > glex_key(b)


def test_constructor_rejects_duplicates_and_units():
    with pytest.raises(ValueError):
        MonomialIdeal(3, (m(1, 0, 0), m(1, 0, 0)))
    with pytest.raises(ValueError):
        MonomialIdeal(3, (one(3),))
    with pytest.raises(ValueError):
        MonomialIdeal(3, ())
    # x divides x*z: the constructor takes only minimal generators, and
    # minimalize drops the multiple.
    with pytest.raises(ValueError):
        MonomialIdeal(3, (m(1, 0, 0), m(1, 0, 1)))
    assert minimalize([m(1, 0, 0), m(1, 0, 1)]) == MonomialIdeal(3, (m(1, 0, 0),))


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
    # The exchange x*y of x*z lies in the ideal, but no generator is a
    # prefix of it; the witness is y, whose exchange x is not in the ideal.
    bad = parse_ideal("x^2, x*z, y")
    assert not is_stable(bad)
    assert stable_violation(bad) == (m(0, 1, 0), 1, m(1, 0, 0))
    # x*z is not minimal: no generator is a prefix of its exchange x*y,
    # which x divides.  Only _ideal builds such a generator list.
    assert is_stable(_ideal(3, [m(1, 0, 1), m(1, 0, 0)]))


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


def test_colon_reuses_one_quotient_per_generator_and_variable():
    # A campaign builds its ideals from a few hundred monomials, so a
    # quotient u/x_i built once serves every colon of every ideal with
    # the generator u.
    L = splice8()
    for i in range(1, 4):
        first, again = colon_variable(L, i), colon_variable(L, i)
        assert all(a is b for a, b in zip(first.gens, again.gens, strict=True))
    # M shares x*y^2 with L: their colons by x share y^2, by y share x*y.
    (u,) = [g for g in L.gens if g == m(1, 2, 0)]
    M = _ideal(3, [u, m(0, 3, 0), m(0, 0, 1)])
    for i, q in ((1, m(0, 2, 0)), (2, m(1, 1, 0))):
        (in_L,) = [g for g in colon_variable(L, i).gens if g == q]
        (in_M,) = [g for g in colon_variable(M, i).gens if g == q]
        assert in_L is in_M is quotients(u)[i - 1]


def test_colon_passthrough():
    I = minimalize([m(0, 2, 0), m(0, 0, 3)])
    assert colon_variable(I, 1) == I


def test_add_variable():
    I = parse_ideal("x^2, xy, xz, y^2, yz, z^2")
    assert add_variable(I, 1) == parse_ideal("x, y^2, yz, z^2")
    # adding an existing generator changes nothing
    J = parse_ideal("x, y, z")
    assert add_variable(J, 1) == J


def test_colon_and_add_variable_reject_bad_indices():
    I = parse_ideal("x^2, xy")
    for op in (colon_variable, add_variable):
        for i in (0, 4, -1):
            message = f"variable index {i} out of range 1..3"
            with pytest.raises(ValueError, match=message):
                op(I, i)


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


def test_lexify_fixed_point():
    for I in (splice8(), stagger(), parse_ideal("x, y, z")):
        assert lexify(I) is I


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


# ------------------------------------------- verdicts kept on the ideal


def test_constructors_leave_verdicts_undecided():
    # A verdict set by a constructor would go untested by every check
    # that reads it.
    decided = parse_ideal(SPLICE8_TEXT)
    assert is_lex_segment(decided) and is_stable(decided) and is_artinian(decided)
    built = [
        MonomialIdeal(3, decided.gens),
        _ideal(3, decided.gens),
        lexify(parse_ideal("x^2, y^2, z^2")),
        lexify(parse_ideal("x^2, xy, y^2")),
        colon_variable(decided, 1),
        add_variable(decided, 1),
        split_x(decided).xfree,
        *enumerate_artinian_lex(3),
    ]
    for I in built:
        assert (I._lex, I._stable, I._artinian) == (None, None, None), I


def test_decided_verdicts_survive_pickle():
    # Worker processes receive and return ideals by pickle.
    for text in (SPLICE8_TEXT, "x^2, xy, y^2", "xz, y^2"):
        I = parse_ideal(text)
        fresh = pickle.loads(pickle.dumps(I))
        assert (fresh._lex, fresh._stable, fresh._artinian) == (None, None, None)
        verdicts = (is_lex_segment(I), is_stable(I), is_artinian(I))
        J = pickle.loads(pickle.dumps(I))
        assert J == I and hash(J) == hash(I)
        assert (J._lex, J._stable, J._artinian) == verdicts
        assert (is_lex_segment(J), is_stable(J), is_artinian(J)) == verdicts


def test_format_ideal():
    assert format_ideal(UnitIdeal(3)) == "(1)"
    assert format_ideal(ZeroIdeal(2)) == "(0)"
    assert format_ideal(parse_ideal("y, x")) == "(x, y)"


# ----- property tests against brute-force oracles ---------------------------


def _hilbert_by_count(I, d):
    return sum(
        1 for u in monomials_of_degree(I.n, d) if _contains_by_divisibility(I, u)
    )


_PROPERTY = settings(max_examples=150, deadline=None)


@_PROPERTY
@given(ideals(), st.data())
def test_contains_matches_divisibility_property(I, data):
    e = data.draw(st.tuples(*[st.integers(0, 7)] * I.n))
    u = Monomial(e)
    assert contains(I, u) == _contains_by_divisibility(I, u)


@_PROPERTY
@given(ideals())
def test_hilbert_value_matches_count_property(I):
    assert min_gen_degree(I) == min(g.degree for g in I.gens)
    assert max_gen_degree(I) == max(g.degree for g in I.gens)
    for d in range(0, max_gen_degree(I) + 3):
        assert hilbert_value(I, d) == _hilbert_by_count(I, d)


def _stable_violation_by_scan(I):
    # The first exchange in glex order that no generator divides.
    for g in I.gens:
        e = g.exponents
        m_g = max(k for k, c in enumerate(e, 1) if c)
        for i in range(1, m_g):
            v = list(e)
            v[m_g - 1] -= 1
            v[i - 1] += 1
            u = Monomial(v)
            if not _contains_by_divisibility(I, u):
                return (g, i, u)
    return None


@_PROPERTY
@given(ideals(min_vars=1), st.randoms(use_true_random=False))
# x*z^2 needs x^2*z, which only the last prefix x^2*z^c finds, with
# c = 1, the exponent of z lowered by the exchange.
@example(parse_ideal("x^3, x^2y, x^2z, xy^2, xyz, xz^2"), random.Random(0))
# No prefix of x1^2*x2*x3*x4 is a generator, so the scan finds that
# x1^2*x3 divides it; x1*x2^2*x3*x4 then misses and is the witness.
@example(parse_ideal("x1*x2*x3*x4^2, x1^2*x3", n=4), random.Random(0))
def test_stable_violation_matches_scan_property(I, rnd):
    assert stable_violation(I) == _stable_violation_by_scan(I)
    # The same ideal with a multiple of a generator among the generators:
    # a prefix lookup that misses falls back to the scan.
    g = rnd.choice(I.gens)
    k = rnd.randrange(I.n)
    e = g.exponents
    multiple = Monomial(e[:k] + (e[k] + 1,) + e[k + 1 :])
    J = _ideal(I.n, sorted(I.gens + (multiple,), key=glex_key, reverse=True))
    assert stable_violation(J) == _stable_violation_by_scan(J)
    assert is_stable(J) == is_stable(I)


@_PROPERTY
@given(ideals())
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
    # The size the enumerator and the lex test read: one more than the
    # rank of u * x_n, for u the last monomial of the segment.
    assert (shadow_size(master[t - 1]) if t else 0) == len(shadow)


# Generators of degree <= 3 keep the lexification below degree ~40 in
# four variables, where the brute-force oracle stays cheap; sextics can
# push it past degree 400.
@_PROPERTY
@given(ideals(max_deg=3))
def test_lexify_property(I):
    lexed = lexify(I)
    assert is_lex_segment(lexed) and _is_lex_by_scan(lexed)
    for d in range(0, max(max_gen_degree(I), max_gen_degree(lexed)) + 3):
        assert hilbert_value(lexed, d) == _hilbert_by_count(I, d)


def _colon_by_textbook(I, i):
    # (I : x_i) is generated by u/x_i for x_i | u and by u otherwise.
    lowered = []
    for g in I.gens:
        e = list(g.exponents)
        e[i - 1] = max(e[i - 1] - 1, 0)
        lowered.append(Monomial(e))
    return minimalize(lowered, I.n)


def _sum_by_textbook(I, i):
    return minimalize(list(I.gens) + [variable(i, I.n)], I.n)


# colon_variable tests the x_i-free generators only against the quotients
# of generators with x_i to the first power.  In the first example, for
# i = 1, the quotient x of x^2 cannot divide y^2; the quotient y of x*y
# does.  The others take each way out of colon_variable, at the i named.
@_PROPERTY
@given(ideals(min_vars=1))
@example(minimalize([m(2, 0, 0), m(1, 1, 0), m(0, 2, 0), m(0, 0, 1)]))
# i = 1: every x-free generator is dropped, and the colon is (x, y, z).
@example(parse_ideal("x^2, xy, xz, y^3, y^2z, yz^2, z^3"))
# i = 3: no generator involves z, and the colon is the ideal itself.
@example(parse_ideal("x^2, xy, y^2"))
# i = 3: the quotient y^2 and the kept x^3 are sorted together: (x^3, y^2).
@example(parse_ideal("x^3, y^2z"))
# i = 1: x is a generator, and the colon is the unit ideal.
@example(parse_ideal("x, y^2"))
# add_variable keeps the x_i-free generators in order and puts x_i in
# before the degree-one generators after it.  i = 1: x^2 is dropped and x
# goes in before y.
@example(parse_ideal("y, x^2"))
# i = 2: y goes in between x and z.
@example(parse_ideal("x, z"))
# i = 4: x_4 goes in last, after x_3; x_1 stays behind x_2^2.
@example(minimalize([m(1, 0, 0, 0), m(0, 2, 0, 0), m(0, 0, 1, 0), m(0, 0, 0, 2)]))
# i = 2: y is already a generator, and the sum is the ideal itself.
@example(parse_ideal("x^2, y, z^3"))
def test_colon_and_add_variable_match_minimalize_property(I):
    for i in range(1, I.n + 1):
        for built, textbook in (
            (colon_variable(I, i), _colon_by_textbook(I, i)),
            (add_variable(I, i), _sum_by_textbook(I, i)),
        ):
            assert built == textbook
            assert hash(built) == hash(textbook)


def test_colons_of_campaign_ideals_match_the_textbook():
    # The colons the campaign builds: equal to the textbook colon, with the
    # glex-descending generators every MonomialIdeal keeps.
    for L in enumerate_artinian_lex(6):
        for i in (1, 2, 3):
            built = colon_variable(L, i)
            assert built == _colon_by_textbook(L, i)
            if isinstance(built, MonomialIdeal):
                assert list(built.gens) == sorted(built.gens, key=glex_key, reverse=True)


# Every lex ideal is Borel-closed, so lexifying Borel closures reaches
# them all, through lexify's fast count for stable input.
@_PROPERTY
@given(ideals(max_deg=3))
def test_split_xfree_matches_minimalize_property(I):
    closed = borel_closure([g.exponents for g in I.gens])
    L = lexify(minimalize([Monomial(e) for e in closed], I.n))
    projected = [Monomial(g.exponents[1:]) for g in L.gens if not g.exponents[0]]
    expected = minimalize(projected, L.n - 1) if projected else ZeroIdeal(L.n - 1)
    colon, xfree = split_x(L)
    assert xfree == expected and hash(xfree) == hash(expected)
    textbook_colon = _colon_by_textbook(L, 1)
    assert colon == textbook_colon and hash(colon) == hash(textbook_colon)


def _rebuilt(I, fill):
    """I on new Monomial objects, with every value they keep filled first
    when fill is true."""
    gens = [Monomial(g.exponents) for g in I.gens]
    for g in gens if fill else ():
        quotients(g), kept_rank(g), shadow_size(g)
        if not g.exponents[0]:
            xfree_projection(g)
    return _ideal(I.n, gens)


def _kernel_answers(I):
    try:
        diagram = ek_betti(I)
    except ValueError as exc:
        diagram = str(exc)
    J = xfree_part(I)
    return (
        stable_violation(I),
        diagram,
        _initial_segments(I),
        J,
        getattr(J, "_key", None),
    )


# Half the draws are lex ideals: lexified Borel closures, as above.
@_PROPERTY
@given(ideals(max_deg=3, min_vars=1), st.booleans())
def test_kernels_answer_the_same_on_kept_values_property(I, lex):
    if lex:
        closed = borel_closure([g.exponents for g in I.gens])
        I = lexify(minimalize([Monomial(e) for e in closed], I.n))
    fresh = _rebuilt(I, fill=False)
    answers = _kernel_answers(fresh)
    assert _kernel_answers(_rebuilt(I, fill=True)) == answers
    # The fresh monomials have now kept what the kernels read.
    assert _kernel_answers(_ideal(I.n, fresh.gens)) == answers
    assert answers[2] == _is_lex_by_scan(I)


@st.composite
def _mostly_with_pure_powers(draw):
    """n and generator exponent tuples in n = 1..4 variables, with a pure
    power of each variable four times in five."""
    n = draw(st.integers(1, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4))
    for i in range(n):
        if draw(st.integers(0, 4)):
            power = draw(st.integers(1, 4))
            exps.append(tuple(power if k == i else 0 for k in range(n)))
    return n, exps or [(0,) * n]


@_PROPERTY
@given(_mostly_with_pure_powers())
def test_is_artinian_matches_brute_force_property(case):
    n, exps = case
    I = minimalize([Monomial(e) for e in exps], n)
    # Artinian: some x_i^D lies in I for every i, D the top input degree.
    top = max(map(sum, exps))
    powers = [Monomial(tuple(top if k == i else 0 for k in range(n))) for i in range(n)]
    assert is_artinian(I) == all(contains(I, u) for u in powers)


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
