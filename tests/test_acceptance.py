"""Acceptance gate: one numbered test per shipped guarantee.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
item.  Every equality here is exact — rational arithmetic throughout,
no tolerances — and the numbered items carry the runtime ceilings they
were promised with.  Budgets are generous on purpose: they catch
algorithmic regressions (an accidental exponential), not machine noise.
"""

import time
from fractions import Fraction
from itertools import product

from lexbs.betti import ek_betti
from lexbs.decompose import bs_decompose, reconstruct
from lexbs.enumeration import CampaignConfig, enumerate_artinian_lex, run_campaign
from lexbs.ideal import (
    MonomialIdeal,
    UnitIdeal,
    add_variable,
    colon_variable,
    is_artinian,
    is_lex_segment,
    is_stable,
    max_gen_degree,
    minimalize,
)
from lexbs.monomial import Monomial, monomials_of_degree
from lexbs.verify import (
    chain_of,
    check_lex_dominance,
    explain_chain,
    family_closed_form,
    family_ideal,
)
from lexbs.cli import main

from conftest import (
    FAMILY26_TEXT,
    FAMILY26_THIRTEEN,
    SPLICE8_CHAIN,
    STAGGER_CHAIN,
    splice8,
    stagger,
)
from lexbs.cli import parse_ideal

F = Fraction


def pairs(decomposition):
    return tuple((c, s) for c, s in decomposition)


def test_01_unit_normalized_quotient_chain_cli(capsys):
    start = time.perf_counter()
    code = main(
        ["decompose", "x^2,xy,xz,y^2", "--quotient", "--norm", "unit"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["8 pi(0,2,3,4)", "4 pi(0,2,3)"]
    assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_02_lcm_normalized_chain_of_splice8():
    start = time.perf_counter()
    chain = pairs(bs_decompose(ek_betti(splice8())))
    elapsed = time.perf_counter() - start
    assert chain == SPLICE8_CHAIN
    assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_03_ten_summand_chain_and_single_source_tag():
    start = time.perf_counter()
    L = stagger()
    chain = pairs(bs_decompose(ek_betti(L)))
    tag = explain_chain(L).sources_of((4, 8, 11))
    elapsed = time.perf_counter() - start
    assert len(chain) == 10
    assert chain == STAGGER_CHAIN
    assert chain[-3:] == ((1, (4, 10)), (1, (7, 10)), (1, (9,)))
    assert [c for c, _ in chain[:7]] == [
        1,
        F(2, 3),
        F(2, 3),
        F(1, 2),
        F(3, 10),
        F(1, 20),
        F(1, 4),
    ]
    assert tag == ("L:z",)
    assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_04_family26_thirteen_summand_display():
    start = time.perf_counter()
    L = parse_ideal(FAMILY26_TEXT)
    chain = pairs(bs_decompose(ek_betti(L)))
    report = explain_chain(L)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    # The parts that hold: the chain contains 1/3 * pi(2,4,8) and the
    # provenance pass tags exactly that summand as extra.
    assert (F(1, 3), (2, 4, 8)) in chain
    assert report.extras() == ((2, 4, 8),)
    # The thirteen-summand variant does not reconstruct the diagram (its
    # first column sums to 1/2 at degree 7 against an entry of 4, and
    # nothing covers degree 9), so the greedy chain cannot equal it.  The
    # assertion states that variant anyway and is expected to stay red;
    # README.md explains why it is kept.
    assert chain == FAMILY26_THIRTEEN, (
        "displayed thirteen-summand chain is not the greedy decomposition; "
        f"the decomposition has {len(chain)} summands: {chain}"
    )


def test_05_closed_form_matches_decomposition_on_grid():
    start = time.perf_counter()
    mismatches = []
    for s in range(3, 9):
        for t in range(2, s):
            direct = pairs(bs_decompose(ek_betti(family_ideal(t, s))))
            formula = pairs(family_closed_form(t, s))
            if direct != formula:
                mismatches.append((t, s))
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_06_campaign_over_all_ideals_up_to_degree_seven():
    start = time.perf_counter()
    summary = run_campaign(CampaignConfig(max_deg=7, parallelism=1))
    elapsed = time.perf_counter() - start

    # Passed, failed, vacuous and excluded ideals per law.
    rows = {
        name: (s.passed, s.failed, s.vacuous, s.excluded)
        for name, s in summary.stats.items()
    }
    assert rows == {
        "thm1": (4012, 0, 127, 0),
        "thm2": (3920, 0, 127, 92),
        "conjecture": (92, 0, 0, 4047),
        "ek_vs_cone": (4012, 0, 127, 0),
        "bhp": (4139, 0, 0, 0),
        "lemmas": (4139, 0, 0, 0),
    }
    assert summary.witnesses == ()
    assert summary.exit_code == 0
    assert summary.total_ideals == 4139
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_07_every_campaign_decomposition_reconstructs():
    # The chains the campaign consumes: each ideal's own, its colon's
    # (when proper), and its augmentation's.  The colons and augmentations
    # are campaign ideals too, so chain_of computes each chain once.
    for L in enumerate_artinian_lex(7):
        assert reconstruct(chain_of(L), 3) == ek_betti(L)
        colon = colon_variable(L, 1)
        if isinstance(colon, MonomialIdeal):
            assert reconstruct(chain_of(colon), 3) == ek_betti(colon)
        augmented = add_variable(L, 1)
        assert reconstruct(chain_of(augmented), 3) == ek_betti(augmented)


def test_08_enumeration_counts_match_brute_force():
    start = time.perf_counter()
    assert len(tuple(enumerate_artinian_lex(1))) == 1
    assert len(tuple(enumerate_artinian_lex(2))) == 4

    tiers = [monomials_of_degree(3, d) for d in (1, 2, 3)]
    oracle = set()
    for t1, t2, t3 in product(range(4), range(7), range(11)):
        gens = list(tiers[0][:t1]) + list(tiers[1][:t2]) + list(tiers[2][:t3])
        if not gens:
            continue
        I = minimalize(gens, 3)
        if not isinstance(I, MonomialIdeal):
            continue
        if is_lex_segment(I) and is_artinian(I) and max_gen_degree(I) <= 3:
            oracle.add(I)
    assert oracle == set(enumerate_artinian_lex(3))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_09_dominance_on_stable_non_lex_corpus():
    start = time.perf_counter()
    corpus = []
    for d in range(2, 9):
        for j in range(2, d + 1):
            gens = [Monomial((d - i, i, 0)) for i in range(j + 1)]
            corpus.append(minimalize(gens, 3))
    assert len(corpus) >= 20
    for I in corpus:
        assert is_stable(I) and not is_lex_segment(I), I
        report = check_lex_dominance(I)
        assert report.verdict == "pass", (I, report.witness)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
