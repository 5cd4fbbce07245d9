"""Enumeration of Artinian lex ideals in three variables and the check
campaign over them.

An Artinian lex ideal with generators in degrees <= D corresponds to a
vector (t_1, ..., t_D) of segment sizes where t_d is the number of
degree-d monomials in the ideal, t_D = C(D+2, 2), and each t_d lies
between the size of the previous segment's shadow and C(d+2, 2).  The
brute-force oracle below rebuilds the small cases straight from that
description, without the shadow-size shortcut.
"""

import faulthandler
import gc
import multiprocessing
import os
import signal
import time
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

import lexbs.enumeration as enumeration
import lexbs.verify as verify
from lexbs.enumeration import (
    CHECKS,
    CampaignConfig,
    _check_share,
    _merge,
    available_cpus,
    enumerate_artinian_lex,
    run_campaign,
    worker_count,
)
from lexbs.ideal import (
    MonomialIdeal,
    UnitIdeal,
    _ideal,
    add_variable,
    colon_variable,
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


@pytest.mark.parametrize("shares", [2, 3, 4, 5])
def test_share_enumerates_its_own_positions(monkeypatch, shares):
    # A share is a slice of the one walk: exactly every shares-th ideal of
    # the full order, and it builds no ideal of the others.
    full = tuple(enumerate_artinian_lex(6))
    built = []

    def counted(n, gens):
        built.append(gens)
        return _ideal(n, gens)

    monkeypatch.setattr(enumeration, "_ideal", counted)
    for k in range(shares):
        built.clear()
        part = tuple(enumerate_artinian_lex(6, k, shares))
        assert part == tuple(islice(full, k, None, shares))
        assert len(built) == len(part) == len(range(k, 876, shares))
    assert len(full) == 876


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


def _odd_fails(ideal):
    # An injected law that fails on ideals with an odd number of generators.
    if len(ideal.gens) % 2:
        return verify.CheckReport(ideal, "applicable", "fail", "odd")
    return verify.CheckReport(ideal, "applicable", "pass")


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_shares_compose_in_enumeration_order(monkeypatch, shares):
    monkeypatch.setitem(verify.CHECKS, "odd", _odd_fails)
    checks = tuple(verify.CHECKS)
    serial = run_campaign(CampaignConfig(max_deg=5, checks=checks))
    # Workers finish in any order; the merge must not depend on it.
    merged = _merge(
        reversed([_check_share(5, checks, k, shares) for k in range(shares)]),
        checks,
    )
    assert merged.total_ideals == serial.total_ideals == 202
    assert merged.stats == serial.stats
    assert merged.witnesses == serial.witnesses
    assert [w for w in merged.witnesses if w[0] == "odd"] == [
        ("odd", repr(L), "odd")
        for L in enumerate_artinian_lex(5)
        if len(L.gens) % 2
    ]
    assert merged.exit_code == serial.exit_code == 1


@settings(max_examples=30, deadline=None)
@given(
    max_deg=st.integers(1, 5),
    kinds=st.tuples(*[st.sampled_from(["applicable", "vacuous", "excluded"])] * 3),
    shares=st.integers(1, 3),
)
def test_witness_rows_are_the_failed_counts(max_deg, kinds, shares):
    # _odd_fails, and _odd_fails under a status chosen by the number of
    # generators mod 3: a comparison that fails under a vacuous or excluded
    # status counts as that kind, and only a failed outcome lists a row.
    def under_status(ideal):
        report = _odd_fails(ideal)
        kind = kinds[len(ideal.gens) % 3]
        return verify.CheckReport(ideal, kind, report.verdict, report.witness)

    checks = ("thm2", "odd", "under_status")
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(verify.CHECKS, "odd", _odd_fails)
        patch.setitem(verify.CHECKS, "under_status", under_status)
        summary = _merge(
            [_check_share(max_deg, checks, k, shares) for k in range(shares)],
            checks,
        )
    rows = Counter(name for name, _, _ in summary.witnesses)
    for name in checks:
        assert rows[name] == summary.stats[name].failed
    odd = [L for L in enumerate_artinian_lex(max_deg) if len(L.gens) % 2]
    assert rows["odd"] == len(odd)
    assert rows["under_status"] == sum(
        kinds[len(L.gens) % 3] == "applicable" for L in odd
    )


def test_campaign_parallel_matches_serial(monkeypatch):
    checks = tuple(CHECKS)
    if multiprocessing.get_start_method() == "fork":
        # Only a forked worker inherits the injected law; one started by
        # forkserver or spawn imports a CHECKS without it.
        monkeypatch.setitem(verify.CHECKS, "odd", _odd_fails)
        checks += ("odd",)
    serial = run_campaign(CampaignConfig(max_deg=5, checks=checks, parallelism=1))
    parallel = run_campaign(CampaignConfig(max_deg=5, checks=checks, parallelism=2))
    assert serial.total_ideals == parallel.total_ideals
    assert serial.stats == parallel.stats
    assert serial.witnesses == parallel.witnesses
    assert serial.exit_code == parallel.exit_code


needs_two_cpus = pytest.mark.skipif(
    (available_cpus() or 1) < 2, reason="with one CPU the campaign runs serially"
)


@contextmanager
def _hang_guard(seconds=60):
    # A campaign that hangs ends the test run with every thread's stack.
    faulthandler.dump_traceback_later(seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def _fault_at_second_ideal(monkeypatch, max_deg, fault):
    """Inject a law that calls fault() on the second ideal of the
    enumeration, which share 1 checks first, and sleeps 5 ms on every
    other ideal, so share 0 alone takes seconds."""
    second = next(islice(enumerate_artinian_lex(max_deg), 1, None))

    def law(ideal):
        if ideal == second:
            fault()
        time.sleep(0.005)
        return verify.CheckReport(ideal, "applicable", "pass")

    # A forked worker inherits the entry; a worker started by forkserver
    # or spawn imports a CHECKS without it and raises KeyError.  Either
    # way the campaign must raise at once and the pool must go.
    monkeypatch.setitem(verify.CHECKS, "injected", law)


def test_campaign_releases_workers_when_a_check_raises(monkeypatch):
    def fault():
        raise RuntimeError("injected")

    _fault_at_second_ideal(monkeypatch, 7, fault)
    start = time.monotonic()
    with _hang_guard(), pytest.raises((RuntimeError, KeyError), match="injected"):
        run_campaign(
            CampaignConfig(max_deg=7, checks=("injected",), parallelism=2)
        )
    # Share 0 alone sleeps about 10 s; the fault must not wait for it.
    assert time.monotonic() - start < 5
    assert multiprocessing.active_children() == []


@contextmanager
def _collector(enabled):
    """Run the block with the cyclic collector on or off, and restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_campaign_makes_no_cyclic_garbage():
    # A share pauses the cyclic collector, which is safe only while no
    # check and no enumerator leaves a reference cycle behind.
    gc.collect()
    with _collector(False):
        run_campaign(CampaignConfig(max_deg=5))
        assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_campaign_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    def fault():
        raise RuntimeError("injected")

    _fault_at_second_ideal(monkeypatch, 3, fault)
    with _collector(enabled):
        run_campaign(CampaignConfig(max_deg=3))
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="injected"):
            run_campaign(CampaignConfig(max_deg=3, checks=("injected",)))
        assert gc.isenabled() is enabled


@needs_two_cpus
def test_campaign_raises_when_a_worker_is_killed(monkeypatch):
    parent = os.getpid()

    def fault():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    _fault_at_second_ideal(monkeypatch, 7, fault)
    start = time.monotonic()
    with _hang_guard(), pytest.raises((BrokenProcessPool, KeyError)):
        run_campaign(
            CampaignConfig(max_deg=7, checks=("injected",), parallelism=2)
        )
    assert time.monotonic() - start < 5
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_campaign_parent_memory_does_not_grow_with_the_ideals():
    # The parent holds no ideal and no per-ideal row, only counts and
    # failures: its peak stays far below one row per ideal (876 at D=6).
    config = CampaignConfig(max_deg=6, parallelism=2)
    run_campaign(config)  # warm-up: imports and pool machinery
    tracemalloc.start()
    try:
        run_campaign(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 1024


def test_campaign_witness_names_the_ideal(monkeypatch):
    def fails(ideal):
        return verify.CheckReport(ideal, "applicable", "fail", "synthetic")

    monkeypatch.setitem(verify.CHECKS, "bhp", fails)
    summary = run_campaign(CampaignConfig(max_deg=2, checks=("thm1", "bhp")))
    assert summary.witnesses == tuple(
        ("bhp", repr(L), "synthetic") for L in enumerate_artinian_lex(2)
    )
    assert summary.exit_code == 1


def test_campaign_validation():
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(max_deg=0))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(max_deg=2, checks=()))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(max_deg=2, checks=("thm3",)))
    with pytest.raises(ValueError, match="more than once: bhp"):
        run_campaign(CampaignConfig(max_deg=2, checks=("bhp", "bhp")))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(max_deg=2, parallelism=0))


def test_worker_count_is_clamped_to_the_cpus():
    # The count only: no pool is started here.
    assert worker_count(1, 2) == 1
    assert worker_count(2, 2) == 2
    assert worker_count(64, 2) == 2
    assert worker_count(3, 8) == 3
    assert worker_count(4, None) == 1


def test_campaign_runs_in_process_on_one_allowed_cpu(monkeypatch):
    # Under `taskset -c 0` on a two-CPU host, os.cpu_count() is 2 while
    # the process may run on one CPU only: two workers would take turns.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert available_cpus() == 1
    shares = []

    def recorded(max_deg, checks, k, count, work=_check_share):
        shares.append((k, count))
        return work(max_deg, checks, k, count)

    monkeypatch.setattr(enumeration, "_check_share", recorded)
    summary = run_campaign(CampaignConfig(max_deg=4, parallelism=2))
    assert shares == [(0, 1)]
    assert multiprocessing.active_children() == []
    assert summary == run_campaign(CampaignConfig(max_deg=4))


@pytest.mark.parametrize("max_deg", range(1, 6))
def test_campaign_outcome_does_not_depend_on_check_order(max_deg):
    # The checks share the derived facts of each ideal; running them in
    # the opposite order must not change any outcome.
    forward = run_campaign(CampaignConfig(max_deg=max_deg))
    backward = run_campaign(
        CampaignConfig(max_deg=max_deg, checks=tuple(reversed(CHECKS)))
    )
    assert forward.total_ideals == backward.total_ideals
    assert forward.stats == backward.stats
    for name in CHECKS:
        assert [w for w in forward.witnesses if w[0] == name] == [
            w for w in backward.witnesses if w[0] == name
        ]
    assert forward.exit_code == backward.exit_code


def test_colon_and_augmented_ideals_stay_in_the_enumeration():
    # (L : x_1), when proper, and (L, x_1) of every campaign ideal are
    # campaign ideals of the same degree bound.  This closure is why the
    # chain cache hits on every chain the checks ask for beyond L's own.
    for max_deg in range(1, 7):
        ideals = set(enumerate_artinian_lex(max_deg))
        for L in ideals:
            colon = colon_variable(L, 1)
            assert isinstance(colon, UnitIdeal) or colon in ideals, L
            assert add_variable(L, 1) in ideals, L
