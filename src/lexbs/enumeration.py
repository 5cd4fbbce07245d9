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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Optional

from .ideal import MonomialIdeal, segment_shadow_size
from .monomial import monomials_of_degree
from .verify import (
    CheckReport,
    check_colon_prefix,
    check_cone_assembly,
    check_excluded_family_tails,
    check_lex_dominance,
    check_split_identities,
    check_tail_agreement,
)

CHECKS = ("thm1", "thm2", "conjecture", "ek_vs_cone", "bhp", "lemmas")

_CHECK_FUNCTIONS = {
    "thm1": check_colon_prefix,
    "thm2": check_tail_agreement,
    "conjecture": check_excluded_family_tails,
    "ek_vs_cone": check_cone_assembly,
    "bhp": check_lex_dominance,
    "lemmas": check_split_identities,
}


def enumerate_artinian_lex(max_deg: int, n: int = 3) -> Iterator[MonomialIdeal]:
    """Yield every Artinian lex-segment ideal with generators in
    degrees <= max_deg, each exactly once, in a fixed deterministic
    order (lexicographic in the segment-size vectors).
    """
    if n != 3:
        raise ValueError("enumeration is implemented for 3 variables only")
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")

    def count(d: int) -> int:
        return (d + 1) * (d + 2) // 2

    def rec(d: int, prev_t: int, gens: list) -> Iterator[MonomialIdeal]:
        lower = segment_shadow_size(3, d - 1, prev_t) if d > 1 else 0
        full = count(d)
        choices = (full,) if d == max_deg else range(lower, full + 1)
        master = monomials_of_degree(3, d)
        for t in choices:
            if t < lower:
                continue
            new_gens = master[lower:t]
            gens.extend(new_gens)
            if d == max_deg:
                yield MonomialIdeal(3, tuple(gens))
            else:
                yield from rec(d + 1, t, gens)
            del gens[len(gens) - len(new_gens) :]

    yield from rec(1, 0, [])


@dataclass(frozen=True)
class CampaignConfig:
    """What to run: degree bound, check subset, worker processes."""

    max_deg: int
    checks: tuple[str, ...] = CHECKS
    parallelism: int = 1
    n: int = 3


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


def _reduce_report(report: CheckReport) -> tuple[str, Optional[str], Optional[str]]:
    return (report.status_kind, report.verdict, report.witness)


def _run_checks(ideal: MonomialIdeal, checks: tuple[str, ...]):
    """Worker body: evaluate each named check on one ideal.

    Returns primitives only, so results cross process boundaries
    cheaply: (ideal repr, ((check, status kind, verdict, witness), ...)).
    """
    rows = []
    for name in checks:
        report = _CHECK_FUNCTIONS[name](ideal)
        kind, verdict, witness = _reduce_report(report)
        rows.append((name, kind, verdict, witness))
    return (repr(ideal), tuple(rows))


def run_campaign(config: CampaignConfig) -> CampaignSummary:
    """Run the configured checks over every enumerated ideal.

    The summary is deterministic and independent of parallelism: worker
    results are merged in enumeration order.
    """
    if config.n != 3:
        raise ValueError("campaigns are implemented for 3 variables only")
    if config.max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    checks = tuple(config.checks)
    if not checks:
        raise ValueError("no checks selected")
    unknown = [c for c in checks if c not in _CHECK_FUNCTIONS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    if config.parallelism < 1:
        raise ValueError("parallelism must be at least 1")

    ideals = enumerate_artinian_lex(config.max_deg, config.n)
    worker = partial(_run_checks, checks=checks)
    if config.parallelism == 1:
        return _merge(map(worker, ideals), checks)
    with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
        try:
            return _merge(pool.map(worker, ideals, chunksize=64), checks)
        except BaseException:
            # Drop the queued chunks: leaving the block waits for the pool.
            pool.shutdown(cancel_futures=True)
            raise


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
