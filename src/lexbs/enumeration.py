"""Exhaustive generation of Artinian lex-segment ideals in three
variables, and the campaign driver that runs checks over all of them.

An Artinian lex ideal whose generators all have degree <= D contains
the full degree-D piece (otherwise some z^e with e > D would be a
generator).  Its Hilbert values (t_1, ..., t_D) therefore determine it
completely -- degree d holds the initial segment of size t_d -- and a
size vector arises from an ideal exactly when each segment contains the
shadow of the previous one and the last is full.  Enumeration walks
those vectors; the minimal generators in degree d are the consecutive
slice of the master list between the shadow size and t_d.
"""

from __future__ import annotations

import os
from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import count, islice
from operator import itemgetter

from .ideal import MonomialIdeal, _fill
from .monomial import monomials_of_degree, shadow_size
from .verify import CHECKS


def enumerate_artinian_lex(
    max_deg: int, k: int = 0, shares: int = 1
) -> Iterator[MonomialIdeal]:
    """Yield every Artinian lex-segment ideal in three variables with
    generators in degrees <= max_deg, each exactly once, in a fixed
    deterministic order (lexicographic in the segment-size vectors).

    With shares > 1, yield only the ideals at positions k, k + shares,
    k + 2*shares, ... of that order; the others cost a tuple, not an ideal.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    masters = [monomials_of_degree(3, d) for d in range(max_deg + 1)]
    for gens in islice(_walk(masters, 1, 0, ()), k, None, shares):
        # Minimal and glex-descending by construction: see _walk.
        yield _fill(object.__new__(MonomialIdeal), 3, gens)


def _walk(masters, d: int, prev_t: int, gens: tuple):
    """Generator tuples of the ideals with gens below degree d (each
    degree's slice goes ahead of the lower ones), whose degree d - 1 piece
    holds the first prev_t monomials.  Not a closure calling itself: that
    would be a reference cycle, which only the cyclic collector frees."""
    master = masters[d]
    lower = shadow_size(masters[d - 1][prev_t - 1]) if prev_t else 0
    if d == len(masters) - 1:
        yield master[lower:] + gens
        return
    for t in range(lower, len(master) + 1):
        yield from _walk(masters, d + 1, t, master[lower:t] + gens)


class CampaignConfig(
    namedtuple("CampaignConfig", ("max_deg", "checks", "parallelism"))
):
    """What to run: degree bound, check subset, worker processes.

    Built only from valid values: a check name that is empty, not in
    CHECKS or named twice, a degree bound or a worker count below 1
    raises ValueError here, so run_campaign trusts the config.
    """

    __slots__ = ()

    def __new__(
        cls,
        max_deg: int,
        checks: tuple[str, ...] = tuple(CHECKS),
        parallelism: int = 1,
    ):
        if not checks:
            raise ValueError("no checks selected")
        if "" in checks:
            raise ValueError(f"empty check name in {','.join(checks)!r}")
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            raise ValueError(
                f"unknown checks: {', '.join(unknown)} "
                f"(available: {', '.join(CHECKS)})"
            )
        repeated = [c for c in CHECKS if checks.count(c) > 1]
        if repeated:
            raise ValueError(f"checks named more than once: {', '.join(repeated)}")
        if max_deg < 1:
            raise ValueError("max_deg must be at least 1")
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        return super().__new__(cls, max_deg, checks, parallelism)


class CheckStats(
    namedtuple(
        "CheckStats",
        ("passed", "failed", "vacuous", "excluded"),
        defaults=(0, 0, 0, 0),
    )
):
    """Per-check outcome counts over a campaign."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(self)


class CampaignSummary(
    namedtuple(
        "CampaignSummary", ("total_ideals", "stats", "witnesses", "exit_code")
    )
):
    """Aggregated campaign outcome.

    `stats` maps each check to its CheckStats; `witnesses` lists (check,
    ideal, witness) for every report counted as failed, in enumeration
    order; `exit_code` is 1 exactly when a check other than `conjecture`
    failed somewhere.
    """

    __slots__ = ()


def _check_share(max_deg: int, checks: tuple[str, ...], k: int, shares: int):
    """Worker body: build and check the ideals at positions k,
    k + shares, k + 2*shares, ... of the enumeration.

    Returns (counts, failures): a Counter of the ideals checked under
    "ideals" and of each check's outcomes under (check, CheckStats field),
    and each failure as (position, check, ideal repr, witness).  No ideal
    is sent to the worker, and only counts and failures come back.
    """
    import gc  # here: a single-ideal command never needs it
    counts = Counter()
    failures = []
    # enumerate_artinian_lex is looked up here, not bound at import, so
    # a caller may wrap it to time each ideal.
    ideals = enumerate_artinian_lex(max_deg, k, shares)
    # No check makes a reference cycle, so the cyclic collector would only
    # walk the facts cache again and again; it is paused meanwhile.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for position, ideal in zip(count(k, shares), ideals):
            counts["ideals"] += 1
            for name in checks:
                report = CHECKS[name](ideal)
                counts[name, report.outcome] += 1
                if report.outcome == "failed":
                    failures.append((position, name, repr(ideal), report.witness or ""))
    finally:
        if collecting:
            gc.enable()
    return counts, failures


def run_campaign(config: CampaignConfig) -> CampaignSummary:
    """Run the configured checks over every enumerated ideal.

    Each of K worker processes builds every K-th ideal of the
    enumeration for itself and checks it; the parent keeps only the counts and the
    failures it gets back, so its memory does not grow with the degree
    bound.  A serial run checks the one share in-process.  The summary
    is deterministic and independent of parallelism: failures are put
    back in enumeration order.  The config checked itself when it was
    built.
    """
    args = (config.max_deg, config.checks)
    workers = worker_count(config.parallelism, os.cpu_count())
    if workers == 1:
        return _merge([_check_share(*args, 0, 1)], config.checks)
    # Imported here: it loads multiprocessing, which a serial run or a
    # single-ideal query never needs.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_check_share, *args, k, workers) for k in range(workers)
        ]
        try:
            shares = [future.result() for future in as_completed(futures)]
        except BaseException:
            # Every share runs to the end of the campaign, and leaving the
            # block waits for each.  ProcessPoolExecutor has no public way
            # to stop running workers before Python 3.14
            # (terminate_workers), so end its processes here.
            for process in pool._processes.values():
                process.terminate()
            raise
    return _merge(shares, config.checks)


def worker_count(requested: int, cpus: int | None) -> int:
    """Worker processes for a campaign that asks for `requested` on a
    host with `cpus` CPUs (None when unknown): no more than the CPUs.
    More would only take turns on them, each with its own caches."""
    return min(requested, cpus or 1)


def _merge(shares, checks: tuple[str, ...]) -> CampaignSummary:
    """Add up the shares' counts and put their failures in enumeration
    order."""
    counts = Counter()
    failures = []
    for share_counts, share_failures in shares:
        counts.update(share_counts)
        failures.extend(share_failures)
    # Stable: one ideal's failures stay in check order.
    failures.sort(key=itemgetter(0))
    stats = {
        name: CheckStats(*(counts[name, kind] for kind in CheckStats._fields))
        for name in checks
    }
    bad = any(
        name != "conjecture" and stats[name].failed > 0 for name in checks
    )
    # A failed comparison on the excluded family is a finding, not a bug:
    # `conjecture` failures never flip the exit code.
    return CampaignSummary(
        total_ideals=counts["ideals"],
        stats=stats,
        witnesses=tuple(failure[1:] for failure in failures),
        exit_code=1 if bad else 0,
    )
