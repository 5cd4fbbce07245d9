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
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Optional

from .ideal import MonomialIdeal, _ideal, segment_shadow_size
from .monomial import monomials_of_degree
from .verify import CHECKS


def enumerate_artinian_lex(max_deg: int) -> Iterator[MonomialIdeal]:
    """Yield every Artinian lex-segment ideal in three variables with
    generators in degrees <= max_deg, each exactly once, in a fixed
    deterministic order (lexicographic in the segment-size vectors).
    """
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")

    def rec(d: int, prev_t: int, gens: list) -> Iterator[MonomialIdeal]:
        lower = segment_shadow_size(3, d - 1, prev_t) if d > 1 else 0
        master = monomials_of_degree(3, d)
        full = len(master)
        choices = (full,) if d == max_deg else range(lower, full + 1)
        for t in choices:
            new_gens = master[lower:t]
            gens.extend(new_gens)
            if d == max_deg:
                # Minimal by construction: no slice meets the shadow below it.
                yield _ideal(3, gens)
            else:
                yield from rec(d + 1, t, gens)
            del gens[len(gens) - len(new_gens) :]

    yield from rec(1, 0, [])


@dataclass(frozen=True)
class CampaignConfig:
    """What to run: degree bound, check subset, worker processes.

    Built only from valid values: a check name that is empty, not in
    CHECKS or named twice, a degree bound or a worker count below 1
    raises ValueError here, so run_campaign trusts the config.
    """

    max_deg: int
    checks: tuple[str, ...] = tuple(CHECKS)
    parallelism: int = 1

    def __post_init__(self):
        checks = self.checks
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
        if self.max_deg < 1:
            raise ValueError("max_deg must be at least 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


@dataclass
class CheckStats:
    """Per-check outcome counts over a campaign."""

    passed: int = 0
    failed: int = 0
    vacuous: int = 0
    excluded: int = 0

    @property
    def total(self) -> int:
        return self.passed + self.failed + self.vacuous + self.excluded


@dataclass
class CampaignSummary:
    """Aggregated campaign outcome.

    `witnesses` lists (check, ideal, witness) for every failure, in
    enumeration order; `exit_code` is 1 exactly when a check other than
    `conjecture` failed somewhere.
    """

    total_ideals: int
    stats: dict = field(default_factory=dict)
    witnesses: tuple = ()
    exit_code: int = 0


def _run_checks(ideal: MonomialIdeal, checks: tuple[str, ...]):
    """Worker body: evaluate each named check on one ideal.

    Returns primitives only, so results cross process boundaries
    cheaply: (ideal repr, ((check, status kind, verdict, witness), ...)).
    Only a failure witness names the ideal, so the repr is None when no
    check failed.
    """
    rows = []
    for name in checks:
        report = CHECKS[name](ideal)
        rows.append((name, report.status_kind, report.verdict, report.witness))
    failed = any(row[2] == "fail" for row in rows)
    return (repr(ideal) if failed else None, tuple(rows))


def run_campaign(config: CampaignConfig) -> CampaignSummary:
    """Run the configured checks over every enumerated ideal.

    The summary is deterministic and independent of parallelism: worker
    results are merged in enumeration order.  The config checked itself
    when it was built.
    """
    checks = config.checks
    workers = worker_count(config.parallelism, os.cpu_count())
    ideals = enumerate_artinian_lex(config.max_deg)
    worker = partial(_run_checks, checks=checks)
    if workers == 1:
        return _merge(map(worker, ideals), checks)
    # Imported here: it loads multiprocessing, which a serial run or a
    # single-ideal query never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            return _merge(pool.map(worker, ideals, chunksize=64), checks)
        except BaseException:
            # Drop the queued chunks: leaving the block waits for the pool.
            pool.shutdown(cancel_futures=True)
            raise


def worker_count(requested: int, cpus: Optional[int]) -> int:
    """Worker processes for a campaign that asks for `requested` on a
    host with `cpus` CPUs (None when unknown): no more than the CPUs.
    More would only take turns on them, each with its own caches."""
    return min(requested, cpus or 1)


def _merge(results, checks: tuple[str, ...]) -> CampaignSummary:
    """Fold per-ideal check rows, in enumeration order, into a summary."""
    stats = {name: CheckStats() for name in checks}
    witnesses = []
    total = 0
    for ideal_repr, rows in results:
        total += 1
        for name, kind, verdict, witness in rows:
            bucket = stats[name]
            if kind == "vacuous":
                bucket.vacuous += 1
            elif kind == "excluded":
                bucket.excluded += 1
            elif verdict == "pass":
                bucket.passed += 1
            else:
                bucket.failed += 1
            if verdict == "fail":
                witnesses.append((name, ideal_repr, witness or ""))

    bad = any(
        name != "conjecture" and stats[name].failed > 0 for name in checks
    )
    # A failed comparison on the excluded family is a finding, not a bug:
    # `conjecture` failures never flip the exit code.
    return CampaignSummary(
        total_ideals=total,
        stats=stats,
        witnesses=tuple(witnesses),
        exit_code=1 if bad else 0,
    )
