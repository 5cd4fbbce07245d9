"""The small value classes: equality, hashing, repr, pickling and the
config's errors.  The expected values were taken from the dataclass
versions of these classes, so a hand-written class that drifts from
them fails here."""

import pickle
from fractions import Fraction

import pytest

from lexbs.cli import parse_ideal
from lexbs.decompose import Decomposition
from lexbs.enumeration import CampaignConfig, CampaignSummary, CheckStats
from lexbs.ideal import Split, UnitIdeal, ZeroIdeal, split_x
from lexbs.verify import CHECKS, ProvenanceReport, explain_chain, facts_of

SIX = "('thm1', 'thm2', 'conjecture', 'ek_vs_cone', 'bhp', 'lemmas')"
L_TEXT = "x^2, xy, xz, y^2, yz^2, z^3"


def _fields(value, names):
    """A copy's arguments, read by attribute name."""
    return [getattr(value, name) for name in names.split()]


# (build, build an equal value, build an unequal one, repr, hashable)
CASES = {
    "UnitIdeal": (
        lambda: UnitIdeal(2),
        lambda: UnitIdeal(n=2),
        lambda: UnitIdeal(3),
        "UnitIdeal(n=2)",
        True,
    ),
    "ZeroIdeal": (
        lambda: ZeroIdeal(2),
        lambda: ZeroIdeal(n=2),
        lambda: ZeroIdeal(3),
        "ZeroIdeal(n=2)",
        True,
    ),
    "Decomposition": (
        lambda: Decomposition(((Fraction(1, 2), (1, 2)),)),
        lambda: Decomposition(((Fraction(2, 4), (1, 2)),)),
        lambda: Decomposition(()),
        "Decomposition(summands=((Fraction(1, 2), (1, 2)),))",
        True,
    ),
    "CampaignConfig": (
        lambda: CampaignConfig(max_deg=2),
        lambda: CampaignConfig(2, tuple(CHECKS), 1),
        lambda: CampaignConfig(2, ("bhp",), 2),
        f"CampaignConfig(max_deg=2, checks={SIX}, parallelism=1)",
        True,
    ),
    "CheckStats": (
        lambda: CheckStats(1, 2, 3, 4),
        lambda: CheckStats(passed=1, failed=2, vacuous=3, excluded=4),
        lambda: CheckStats(),
        "CheckStats(passed=1, failed=2, vacuous=3, excluded=4)",
        False,
    ),
    "CampaignSummary": (
        lambda: CampaignSummary(
            total_ideals=3,
            stats={"bhp": CheckStats(passed=3)},
            witnesses=(("thm1", "x", "w"),),
            exit_code=1,
        ),
        lambda: CampaignSummary(
            3, {"bhp": CheckStats(3, 0, 0, 0)}, (("thm1", "x", "w"),), 1
        ),
        lambda: CampaignSummary(3, {"bhp": CheckStats(passed=3)}, (), 0),
        "CampaignSummary(total_ideals=3, stats={'bhp': CheckStats(passed=3,"
        " failed=0, vacuous=0, excluded=0)}, witnesses=(('thm1', 'x', 'w'),),"
        " exit_code=1)",
        False,
    ),
    "Split": (
        lambda: split_x(parse_ideal(L_TEXT)),
        lambda: Split(*_fields(split_x(parse_ideal(L_TEXT)), "colon xfree")),
        lambda: split_x(parse_ideal("x, y, z")),
        "Split(colon=MonomialIdeal(3, (x, y, z)),"
        " xfree=MonomialIdeal(2, (x*y^2, y^3, x^2)))",
        True,
    ),
    "ProvenanceReport": (
        lambda: explain_chain(parse_ideal(L_TEXT)),
        lambda: ProvenanceReport(
            *_fields(explain_chain(parse_ideal(L_TEXT)), "ideal tagged unused")
        ),
        lambda: explain_chain(parse_ideal("x, y, z^2")),
        "ProvenanceReport(ideal=MonomialIdeal(3, (y*z^2, z^3, x^2, x*y, x*z,"
        " y^2)), tagged=((Fraction(1, 1), (2, 3, 4), ('L:x',)), (Fraction(2,"
        " 3), (2, 3, 5), ('L:y',)), (Fraction(2, 3), (2, 4, 5), ('L:y',"
        " 'L:z')), (Fraction(1, 1), (2, 4), ('(L,x)',)), (Fraction(1, 1), (3,"
        " 4), ('(L,x)',)), (Fraction(1, 1), (3,), ('(L,x)',))), unused=())",
        False,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_class_parity(name):
    build, build_equal, build_unequal, expected_repr, hashable = CASES[name]
    value, equal, unequal = build(), build_equal(), build_unequal()
    assert type(value).__name__ == name
    assert value == equal and not value != equal
    assert value != unequal and not value == unequal
    assert repr(value) == expected_repr
    if hashable:
        assert hash(value) == hash(equal)
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value and repr(back) == expected_repr


def test_unit_and_zero_ideals_stay_apart():
    # Both are keys of the facts cache, so equal ones would share facts.
    assert UnitIdeal(2) != ZeroIdeal(2)
    assert not UnitIdeal(2) == ZeroIdeal(2)
    assert facts_of(UnitIdeal(2)) is not facts_of(ZeroIdeal(2))
    assert facts_of(UnitIdeal(2)) is facts_of(UnitIdeal(n=2))


def test_check_stats_total():
    assert CheckStats(1, 2, 3, 4).total == 10
    assert CheckStats().total == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_deg": 0}, "max_deg must be at least 1"),
        ({"max_deg": 2, "checks": ()}, "no checks selected"),
        (
            {"max_deg": 2, "checks": ("thm3", "x")},
            "unknown checks: thm3, x (available: thm1, thm2, conjecture,"
            " ek_vs_cone, bhp, lemmas)",
        ),
        ({"max_deg": 2, "checks": ("bhp", "")}, "empty check name in 'bhp,'"),
        (
            {"max_deg": 2, "checks": ("bhp", "bhp")},
            "checks named more than once: bhp",
        ),
        ({"max_deg": 2, "parallelism": 0}, "parallelism must be at least 1"),
    ],
)
def test_campaign_config_errors(kwargs, message):
    with pytest.raises(ValueError) as info:
        CampaignConfig(**kwargs)
    assert str(info.value) == message
