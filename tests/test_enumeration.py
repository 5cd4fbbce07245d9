"""Enumeration of Artinian lex ideals in three variables and the check
campaign over them.

An Artinian lex ideal with generators in degrees <= D corresponds to a
vector (t_1, ..., t_D) of segment sizes where t_d is the number of
degree-d monomials in the ideal, t_D = C(D+2, 2), and each t_d lies
between the size of the previous segment's shadow and C(d+2, 2).  The
brute-force oracle below rebuilds the small cases straight from that
description, without the shadow-size shortcut.
"""

import multiprocessing
from itertools import product

import pytest

import lexbs.enumeration as enumeration
from lexbs.enumeration import (
    CHECKS,
    CampaignConfig,
    enumerate_artinian_lex,
    run_campaign,
)
from lexbs.ideal import (
    MonomialIdeal,
    is_artinian,
    is_lex_segment,
    max_gen_degree,
    minimalize,
)
from lexbs.monomial import monomials_of_degree
from lexbs.cli import parse_ideal


def test_counts_small_degrees():
    assert len(tuple(enumerate_artinian_lex(1))) == 1
    assert len(tuple(enumerate_artinian_lex(2))) == 4
    assert len(tuple(enumerate_artinian_lex(3))) == 14


def test_degree_two_census():
    found = set(enumerate_artinian_lex(2))
    expected = {
        parse_ideal("x, y, z"),
        parse_ideal("x, y, z^2"),
        parse_ideal("x, y^2, yz, z^2"),
        parse_ideal("x^2, xy, xz, y^2, yz, z^2"),
    }
    assert found == expected


def test_enumeration_invariants():
    ideals = tuple(enumerate_artinian_lex(4))
    assert len(ideals) == len(set(ideals))
    for I in ideals:
        assert I.n == 3
        assert is_lex_segment(I)
        assert is_artinian(I)
        assert max_gen_degree(I) <= 4


def test_enumeration_deterministic():
    assert tuple(enumerate_artinian_lex(3)) == tuple(enumerate_artinian_lex(3))


def test_brute_force_oracle_degree_three():
    # Take every prefix combination of the degree-1, 2, 3 monomial lists,
    # minimalize, and keep the Artinian lex ideals generated in degrees
    # <= 3.  This must reproduce the enumeration exactly.
    tiers = [monomials_of_degree(3, d) for d in (1, 2, 3)]
    found = set()
    for t1, t2, t3 in product(range(4), range(7), range(11)):
        gens = list(tiers[0][:t1]) + list(tiers[1][:t2]) + list(tiers[2][:t3])
        if not gens:
            continue
        I = minimalize(gens, 3)
        if not isinstance(I, MonomialIdeal):
            continue
        if not is_lex_segment(I) or not is_artinian(I) or max_gen_degree(I) > 3:
            continue
        found.add(I)
    assert found == set(enumerate_artinian_lex(3))
    assert len(found) == 14


def test_campaign_degree_two_statistics():
    summary = run_campaign(CampaignConfig(max_deg=2))
    assert summary.total_ideals == 4
    assert summary.exit_code == 0
    assert summary.witnesses == ()

    def quad(name):
        s = summary.stats[name]
        return (s.passed, s.failed, s.vacuous, s.excluded)

    assert quad("thm1") == (1, 0, 3, 0)
    assert quad("thm2") == (1, 0, 3, 0)
    assert quad("conjecture") == (0, 0, 0, 4)
    assert quad("ek_vs_cone") == (1, 0, 3, 0)
    assert quad("bhp") == (4, 0, 0, 0)
    assert quad("lemmas") == (4, 0, 0, 0)
    for name in CHECKS:
        assert summary.stats[name].total == 4


def test_campaign_subset_of_checks():
    summary = run_campaign(CampaignConfig(max_deg=3, checks=("bhp",)))
    assert set(summary.stats) == {"bhp"}
    assert summary.stats["bhp"].passed == 14
    assert summary.exit_code == 0


def test_campaign_parallel_matches_serial():
    serial = run_campaign(CampaignConfig(max_deg=3, parallelism=1))
    parallel = run_campaign(CampaignConfig(max_deg=3, parallelism=2))
    assert serial.total_ideals == parallel.total_ideals
    assert serial.stats == parallel.stats
    assert serial.witnesses == parallel.witnesses
    assert serial.exit_code == parallel.exit_code


def test_campaign_releases_workers_when_a_check_raises(monkeypatch):
    def broken(ideal):
        raise RuntimeError("injected")

    monkeypatch.setitem(enumeration._CHECK_FUNCTIONS, "bhp", broken)
    with pytest.raises(RuntimeError, match="injected"):
        run_campaign(CampaignConfig(max_deg=5, checks=("bhp",), parallelism=2))
    assert multiprocessing.active_children() == []


def test_campaign_validation():
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(max_deg=0))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(max_deg=2, n=4))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(max_deg=2, checks=()))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(max_deg=2, checks=("thm3",)))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(max_deg=2, parallelism=0))
