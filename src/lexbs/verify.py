"""Executable checks tying the machinery together.

Each check takes an ideal and returns a CheckReport with a hypothesis
status (applicable / excluded(reason) / vacuous(reason)), a verdict
(pass / fail plus a concrete witness on failure), and enough detail to
reproduce the comparison by hand.  A check stopped by its hypothesis
gate reports a status and no verdict; otherwise its comparison returns
its first witness or None, and _report, the one place a verdict is set,
fails the check exactly when there is a witness.  CHECKS maps the name
of each law, as `lexbs check` and `lexbs enumerate --checks` accept it,
to its check.  The checks:

- check_colon_prefix: the full-length summands of the chain of
  (L : x_1), shifted by +1, open the chain of L, with equal
  coefficients except possibly a larger final one.
- check_tail_agreement: the short summands of the chains of L and
  (L, x_1) coincide.
- check_excluded_family_tails: the same tail comparison on the family
  x*(x, y, z^t) + J that the previous check excludes.
- family_closed_form: the predicted chain of x*(x, y, z^(t-1)) + (y,z)^s.
- explain_chain: tags each summand of L's chain with the colon ideals
  or (L, x_1) whose chains induce it.
- check_lex_dominance: Betti numbers never drop under lexification.
- check_split_identities: structural facts about the splitting
  L = x_1*(L : x_1) + J used throughout.

The checks read what they derive from an ideal (the split, the colons,
(L, x_1), the family test, the Betti diagram and its greedy chain) from
its IdealFacts, which computes each item at most once.  A campaign meets
each ideal again as a different but equal object, the colon or (L, x_1)
of others, so facts_of finds facts by value in a bounded cache, the only
one in this module, and returns those of the first ideal met equal to its
argument; chain_of reads the chain from there.  The ideals the facts
derive are the ideals of their own facts, so an ideal's lex and stability
answers (kept on the ideal; see is_lex_segment and is_stable), its
diagram and its chain are decided once per distinct ideal while its facts
stay cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Union

from .betti import ek_betti, mapping_cone_betti
from .decompose import Decomposition, bs_decompose, split_by_length
from .ideal import (
    Ideal,
    MonomialIdeal,
    Split,
    UnitIdeal,
    ZeroIdeal,
    add_variable,
    colon_variable,
    format_ideal,
    is_artinian,
    is_lex_segment,
    is_stable,
    lexify,
    max_gen_degree,
    min_gen_degree,
    minimalize,
    xfree_part,
)
from .monomial import Monomial, variable
from .pure import pure_diagram


class CheckReport:
    """Outcome of one check on one ideal.

    The status reads "kind" or "kind(reason)".  A check may give it as a
    pair (kind, word) instead, where word() words the reason: the text is
    then worded on the first read of `status` and kept, so a campaign,
    which reads only `status_kind`, never words it.
    """

    __slots__ = ("ideal", "_status", "verdict", "witness", "details")

    def __init__(
        self,
        ideal: Ideal,
        status: Union[str, tuple[str, Callable[[], str]]],
        verdict: Optional[str] = None,
        witness: Optional[str] = None,
        details: Optional[dict] = None,
    ):
        self.ideal = ideal
        self._status = status
        self.verdict = verdict
        self.witness = witness
        self.details = {} if details is None else details

    @property
    def status(self) -> str:
        """The status text, worded on the first read."""
        if isinstance(self._status, tuple):
            kind, word = self._status
            self._status = f"{kind}({word()})"
        return self._status

    @property
    def status_kind(self) -> str:
        """The status without its parenthesized reason."""
        if isinstance(self._status, tuple):
            return self._status[0]
        return self._status.split("(", 1)[0]

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


def _report(L, status, witness: Optional[str], details: dict) -> CheckReport:
    """The report of a comparison that ran: "fail" with its witness, or "pass"."""
    verdict = "pass" if witness is None else "fail"
    return CheckReport(L, status, verdict, witness, details)


class IdealFacts:
    """What the checks derive from one ideal, each item computed on first
    use and then kept.

    Take them from facts_of: `ideal` is then the first ideal met equal to
    the one asked for, and the split, the colons and (L, x_1) are the
    ideals of their own facts.  The items call the module-level functions
    at that moment, so a function rebound here (a tracer, a fault
    injected by a test) is the one used.
    """

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self._colons: dict[int, Ideal] = {}

    @cached_property
    def artinian(self) -> bool:
        return is_artinian(self.ideal)

    @cached_property
    def split(self):
        """L = x_1 * (L : x_1) + J, for lex L in two or more variables:
        the colon by x_1 and the projection of the x_1-free generators."""
        return Split(self.colon(1), facts_of(xfree_part(self.ideal)).ideal)

    def colon(self, i: int):
        """(L : x_i)."""
        if i not in self._colons:
            self._colons[i] = facts_of(colon_variable(self.ideal, i)).ideal
        return self._colons[i]

    @cached_property
    def augmented(self):
        """(L, x_1)."""
        return facts_of(add_variable(self.ideal, 1)).ideal

    @cached_property
    def diagram(self):
        """Betti diagram of the ideal."""
        return ek_betti(self.ideal)

    @cached_property
    def chain(self) -> Decomposition:
        """Greedy chain of the Betti diagram; non-stable input raises
        ek_betti's ValueError."""
        return bs_decompose(self.diagram)

    @cached_property
    def family(self):
        """(t, k) when L is in the family x*(x, y, z^t) + J that
        classify_excluded_family describes, and False otherwise."""
        return self._family(word=False)

    def family_reason(self) -> str:
        """Why L is not in the family, in classify_excluded_family's words."""
        return self._family(word=True)

    def _family(self, word: bool):
        """(t, k) for a member of the family; for any other L, the reason
        why not when word is true and False when not, so that only a
        reader of the reason pays for its text."""
        L = self.ideal
        if L.n != 3:
            return word and "not a 3-variable ideal"
        colon, xfree = self.split
        if isinstance(colon, UnitIdeal):
            return word and "x is a generator, so the colon by x is the unit ideal"
        if isinstance(xfree, ZeroIdeal):
            return word and "splitting is degenerate"
        # Lex-descending, (x, y, z^t) reads x, y, z^t, and whatever
        # follows x and y in that order is free of both.
        shape = sorted((g.exponents for g in colon.gens), reverse=True)
        if len(shape) != 3 or shape[:2] != [(1, 0, 0), (0, 1, 0)]:
            return word and (
                f"colon by x is {format_ideal(colon)}, "
                "not of the form (x, y, z^t)"
            )
        t = shape[2][2]
        k = min_gen_degree(xfree)
        if len(xfree.gens) == k + 1 and max_gen_degree(xfree) == k:
            return word and f"J is the full power (y, z)^{k}"
        if not 1 < t < k - 1:
            return word and f"t = {t} is outside 1 < t < k-1 = {k - 1}"
        return (t, k)


@lru_cache(maxsize=8192)
def facts_of(I: Ideal) -> IdealFacts:
    """The facts of the first ideal met equal to I (cached)."""
    return IdealFacts(I)


def chain_of(I: MonomialIdeal) -> Decomposition:
    """Greedy chain of the ideal's Betti diagram, kept in its facts."""
    return facts_of(I).chain


# perfbench/tracing.py reads chain_of.cache_info(): the facts cache.
chain_of.cache_info = facts_of.cache_info


def _shift_seq(seq: tuple[int, ...], by: int = 1) -> tuple[int, ...]:
    return tuple(d + by for d in seq)


def check_colon_prefix(L: MonomialIdeal) -> CheckReport:
    """Shifted-prefix law for the chain of an Artinian lex ideal.

    Write A = (L : x_1).  The full-length summands of A's chain, with
    every degree raised by one, must open L's chain: same sequences,
    same coefficients except that the last one may grow.
    """
    f = facts_of(L)
    if not is_lex_segment(f.ideal):
        return CheckReport(L, "excluded(not a lex-segment ideal)")
    if not f.artinian:
        return CheckReport(
            L, "excluded(no pure power of some variable: quotient not Artinian)"
        )
    colon = f.colon(1)
    if isinstance(colon, UnitIdeal):
        return CheckReport(L, "vacuous(colon by x_1 is the unit ideal)")
    n = L.n
    dec_colon = chain_of(colon)
    dec_L = chain_of(L)
    full_colon, _ = split_by_length(dec_colon, n)
    full_L, _ = split_by_length(dec_L, n)
    expected = tuple((coeff, _shift_seq(seq)) for coeff, seq in full_colon)
    t1 = len(expected)
    details = {
        "prefix_length": t1,
        "colon": colon,
        "colon_chain": dec_colon,
        "ideal_chain": dec_L,
        "shifted_prefix": expected,
        "ideal_prefix": full_L[:t1],
    }
    return _report(L, "applicable", _prefix_witness(full_L, expected), details)


def _prefix_witness(full_L, expected) -> Optional[str]:
    """First way the full-length summands full_L fail to open with the
    shifted prefix `expected`, or None: too few summands, then a
    sequence, then an inner coefficient, then a smaller last one."""
    t1 = len(expected)
    if len(full_L) < t1:
        return f"chain has {len(full_L)} full-length summands, need at least {t1}"
    for k in range(t1):
        if full_L[k][1] != expected[k][1]:
            return f"summand {k}: sequence {full_L[k][1]} != shifted {expected[k][1]}"
    for k in range(t1 - 1):
        if full_L[k][0] != expected[k][0]:
            return f"summand {k}: coefficient {full_L[k][0]} != {expected[k][0]}"
    last = t1 - 1
    if full_L[last][0] < expected[last][0]:
        return f"summand {last}: coefficient {full_L[last][0]} < {expected[last][0]}"
    return None


def _compare_tails(tail_a, tail_b) -> Optional[str]:
    """First difference between two summand lists, or None if equal."""
    if len(tail_a) != len(tail_b):
        return f"tail lengths differ: {len(tail_a)} vs {len(tail_b)}"
    for k, (a, b) in enumerate(zip(tail_a, tail_b)):
        if a != b:
            return f"tail position {k}: {a} vs {b}"
    return None


def _tail_report(L: MonomialIdeal, status: str) -> CheckReport:
    """Shared tail comparison between the chains of L and (L, x_1)."""
    n = L.n
    Lx = facts_of(L).augmented
    _, tail_L = split_by_length(chain_of(L), n)
    _, tail_Lx = split_by_length(chain_of(Lx), n)
    details = {"tail": tail_L, "augmented_tail": tail_Lx, "augmented": Lx}
    return _report(L, status, _compare_tails(tail_L, tail_Lx), details)


def classify_excluded_family(L: MonomialIdeal):
    """Decide membership in the family x*(x, y, z^t) + J, J not a power.

    Returns the pair (t, k) with k the least generator degree of J when
    L belongs to the family with 1 < t < k-1, and otherwise a human
    readable reason why not.  Assumes L is an Artinian lex ideal.
    """
    f = facts_of(L)
    return f.family or f.family_reason()


def check_tail_agreement(L: MonomialIdeal) -> CheckReport:
    """Shared-tail law: short summands of L and (L, x_1) coincide.

    The family x*(x, y, z^t) + J with J not a full power and
    1 < t < k-1 is outside the hypothesis; such ideals are reported
    excluded but the comparison is still evaluated and recorded.
    """
    f = facts_of(L)
    if not is_lex_segment(f.ideal):
        return CheckReport(L, "excluded(not a lex-segment ideal)")
    if not f.artinian:
        return CheckReport(L, "vacuous(quotient not Artinian)")
    if isinstance(f.colon(1), UnitIdeal):
        # x_1 is in L, so (L, x_1) = L and the two tails are the same list.
        return _tail_report(
            L, "vacuous(L already contains x_1, so L = (L, x_1))"
        )
    if f.family:
        t, k = f.family
        status = f"excluded(family x*(x, y, z^{t}) + J with k = {k})"
    else:
        status = "applicable"
    return _tail_report(L, status)


def check_excluded_family_tails(L: MonomialIdeal) -> CheckReport:
    """Tail agreement on the family the previous check excludes."""
    f = facts_of(L)
    if not is_lex_segment(f.ideal):
        return CheckReport(L, "excluded(wrong-family: not a lex-segment ideal)")
    if not f.artinian:
        return CheckReport(L, "excluded(wrong-family: quotient not Artinian)")
    if not f.family:
        return CheckReport(
            L, ("excluded", lambda: f"wrong-family: {f.family_reason()}")
        )
    return _tail_report(L, "applicable")


def family_ideal(t: int, s: int) -> MonomialIdeal:
    """The ideal x*(x, y, z^(t-1)) + (y, z)^s for 1 <= t <= s-1, s >= 2.

    At t = 1 the first factor collapses to (x).  These are Artinian lex
    ideals for every admissible (t, s).
    """
    if s < 2 or not 1 <= t <= s - 1:
        raise ValueError(f"need s >= 2 and 1 <= t <= s-1, got t={t}, s={s}")
    if t == 1:
        head = [variable(1, 3)]
    else:
        head = [
            Monomial((2, 0, 0)),
            Monomial((1, 1, 0)),
            Monomial((1, 0, t - 1)),
        ]
    tail = [Monomial((0, s - i, i)) for i in range(s + 1)]
    return minimalize(head + tail, 3)


def family_closed_form(t: int, s: int) -> Decomposition:
    """Predicted greedy chain for family_ideal(t, s).

    Assembled from (coefficient, degree sequence, display scale)
    triples; each display scale is converted to the canonical integral
    normalization of pure_diagram.  Sequences that degenerate (fail to
    strictly increase) at small t are dropped, zero coefficients are
    dropped, and adjacent equal sequences merge; at t = 2 two such
    merges occur and at t = 1 only three summands survive.
    """
    if s < 2 or not 1 <= t <= s - 1:
        raise ValueError(f"need s >= 2 and 1 <= t <= s-1, got t={t}, s={s}")
    raw = (
        (Fraction(1, t), (2, 3, t + 2), t * (t - 1)),
        (Fraction(1, t), (2, t + 1, t + 2), t * (t - 1)),
        (Fraction(1, s), (2, t + 1, s + 2), s * (t - 1) * (s - t + 1)),
        (Fraction(t - 1, s), (2, s + 1, s + 2), s * (s - 1)),
        (Fraction(1), (t, s + 1, s + 2), (s + 1 - t) * (s + 2 - t)),
        (Fraction(s), (s, s + 1), 1),
        (Fraction(1), (s,), 1),
    )
    out: list[tuple[Fraction, tuple[int, ...]]] = []
    for coeff, seq, scale in raw:
        if any(a >= b for a, b in zip(seq, seq[1:])):
            continue
        if coeff == 0:
            continue
        canonical = coeff * Fraction(scale, pure_diagram(seq).lam)
        if canonical == 0:
            continue
        if out and out[-1][1] == seq:
            out[-1] = (out[-1][0] + canonical, seq)
        else:
            out.append((canonical, seq))
    return Decomposition(tuple(out))


COLON_SOURCES = ("L:x", "L:y", "L:z")
AUGMENTED_SOURCE = "(L,x)"


@dataclass
class ProvenanceReport:
    """Chain of L with each summand tagged by its sources.

    Full-length summands are traced to the colon ideals L:x, L:y, L:z
    (a source matches when its chain contains the summand's sequence
    lowered by one); short summands are traced to (L, x).  Summands with
    no source are "extra".  `unused` lists source summands that induce
    nothing in L's chain.
    """

    ideal: MonomialIdeal
    tagged: tuple[tuple[Fraction, tuple[int, ...], tuple[str, ...]], ...]
    unused: tuple[tuple[str, tuple[int, ...]], ...]

    def sources_of(self, seq: tuple[int, ...]) -> tuple[str, ...]:
        for _, s, srcs in self.tagged:
            if s == tuple(seq):
                return srcs
        raise KeyError(f"{seq} is not a summand of the chain")

    def extras(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s for _, s, srcs in self.tagged if not srcs)


def explain_chain(L: MonomialIdeal) -> ProvenanceReport:
    """Annotate the chain of an Artinian lex ideal in three variables."""
    if L.n != 3:
        raise ValueError("provenance annotation needs a 3-variable ideal")
    f = facts_of(L)
    if not is_lex_segment(f.ideal):
        raise ValueError("provenance annotation needs a lex-segment ideal")
    if not f.artinian:
        raise ValueError("provenance annotation needs an Artinian quotient")
    chains = {}
    for idx, name in enumerate(COLON_SOURCES, start=1):
        c = f.colon(idx)
        chains[name] = (
            Decomposition(()) if isinstance(c, UnitIdeal) else chain_of(c)
        )
    chains[AUGMENTED_SOURCE] = chain_of(f.augmented)
    # Every chain here belongs to an ideal in three variables, so its
    # full-length summands are a prefix and its short ones the suffix.
    source_full = {
        name: tuple(seq for _, seq in split_by_length(chains[name], 3)[0])
        for name in COLON_SOURCES
    }
    _, short_lx = split_by_length(chains[AUGMENTED_SOURCE], 3)
    source_short = tuple(seq for _, seq in short_lx)
    full, short = split_by_length(chain_of(L), 3)

    tagged = [
        (
            coeff,
            seq,
            tuple(
                name
                for name in COLON_SOURCES
                if _shift_seq(seq, -1) in source_full[name]
            ),
        )
        for coeff, seq in full
    ]
    tagged += [
        (coeff, seq, (AUGMENTED_SOURCE,) if seq in source_short else ())
        for coeff, seq in short
    ]
    own_full = {seq for _, seq in full}
    own_short = {seq for _, seq in short}
    unused = [
        (name, seq)
        for name in COLON_SOURCES
        for seq in source_full[name]
        if _shift_seq(seq) not in own_full
    ]
    unused += [
        (AUGMENTED_SOURCE, seq) for seq in source_short if seq not in own_short
    ]
    return ProvenanceReport(L, tuple(tagged), tuple(unused))


def check_cone_assembly(L: MonomialIdeal) -> CheckReport:
    """EK diagram of L equals the mapping-cone assembly of its pieces.

    Needs both split pieces to be proper: the colon not the unit ideal
    and at least one x_1-free generator.
    """
    f = facts_of(L)
    if not is_lex_segment(f.ideal):
        return CheckReport(L, "vacuous(not a lex-segment ideal)")
    if L.n < 2:
        return CheckReport(L, "vacuous(one variable: nothing to split)")
    colon, xfree = f.split
    if isinstance(colon, UnitIdeal):
        return CheckReport(L, "vacuous(colon by x_1 is the unit ideal)")
    if isinstance(xfree, ZeroIdeal):
        return CheckReport(L, "vacuous(no x_1-free generators)")
    cone = mapping_cone_betti(
        facts_of(colon).diagram, facts_of(xfree).diagram
    )
    direct = f.diagram
    # Both diagrams have L.n, so they differ exactly where an entry does;
    # only then are the keys scanned for the first difference.
    witness = None
    if cone != direct:
        witness = next(
            (
                f"beta_({i},{j}): cone gives {cone.get(i, j)}, "
                f"direct formula gives {direct.get(i, j)}"
                for i, j in sorted(set(cone.entries) | set(direct.entries))
                if cone.get(i, j) != direct.get(i, j)
            ),
            None,
        )
    return _report(L, "applicable", witness, {"cone": cone, "direct": direct})


def check_lex_dominance(I: MonomialIdeal) -> CheckReport:
    """Betti numbers of a stable ideal never exceed its lexification's."""
    f = facts_of(I)
    if not is_stable(f.ideal):
        return CheckReport(
            I, "vacuous(not stable: the Betti formula does not apply)"
        )
    lex = lexify(f.ideal)
    B = f.diagram
    B_lex = facts_of(lex).diagram
    # A lex ideal is its own lexification, and then B_lex is B.
    equal = B is B_lex or B == B_lex
    witness = None
    if not equal:
        witness = next(
            (
                f"beta_({i},{j}) = {v} exceeds lexification's {B_lex.get(i, j)}"
                for (i, j), v in sorted(B.items())
                if v > B_lex.get(i, j)
            ),
            None,
        )
    details = {"lexification": lex, "equal": equal}
    return _report(I, "applicable", witness, details)


def check_split_identities(L: MonomialIdeal) -> CheckReport:
    """Structural facts about L = x_1*(L : x_1) + J for lex L.

    Checks, with a failure witness per item: every colon (L : x_i) is
    lex or the unit ideal; L is stable; the splitting reconstructs the
    generators; J is lex over the smaller ring; the degree gap
    min degree of J >= max degree of (L : x_1) + 1; the generator-count
    identities on J's Betti numbers in two variables.
    """
    f = facts_of(L)
    if not is_lex_segment(f.ideal):
        return CheckReport(L, "vacuous(not a lex-segment ideal)")
    if L.n < 2:
        return CheckReport(L, "vacuous(one variable: nothing to split)")
    failures: list[str] = []
    n = L.n
    for i in range(1, n + 1):
        c = f.colon(i)
        if not is_lex_segment(c):
            failures.append(
                f"(L : x_{i}) = {format_ideal(c)} is not a lex segment"
            )
    if not is_stable(f.ideal):
        failures.append("lex-segment ideal is not stable")
    colon, xfree = f.split
    # Exponent tuples of x_1 * G(L : x_1), then of G(J); a failure
    # witness lists their monomials as a set built in this order.
    if isinstance(colon, UnitIdeal):
        rebuilt = [(1,) + (0,) * (n - 1)]
    else:
        rebuilt = [(g.exponents[0] + 1,) + g.exponents[1:] for g in colon.gens]
    if isinstance(xfree, MonomialIdeal):
        rebuilt += [(0,) + g.exponents for g in xfree.gens]
    if set(rebuilt) != {g.exponents for g in L.gens}:
        failures.append(
            "splitting failed to reconstruct generators: "
            f"{set(map(Monomial, rebuilt))} vs {set(L.gens)}"
        )
    if (
        min_gen_degree(L) >= 2
        and isinstance(colon, MonomialIdeal)
        and min_gen_degree(colon) != min_gen_degree(L) - 1
    ):
        failures.append(
            f"least generator degree {min_gen_degree(L)} does not drop "
            f"by one in the colon ({min_gen_degree(colon)})"
        )
    if isinstance(xfree, MonomialIdeal):
        if not is_lex_segment(xfree):
            failures.append(
                f"J = {format_ideal(xfree)} is not a lex segment over "
                "the smaller ring"
            )
        if isinstance(colon, MonomialIdeal):
            gap_lo = min_gen_degree(xfree)
            gap_hi = max_gen_degree(colon)
            if gap_lo < gap_hi + 1:
                failures.append(
                    f"degree gap fails: least degree {gap_lo} of J is "
                    f"not above max degree {gap_hi} of the colon"
                )
        if xfree.n == 2:
            failures.extend(_two_variable_column_identities(xfree))
    details = {"failures": tuple(failures)}
    return _report(L, "applicable", "; ".join(failures) or None, details)


def _two_variable_column_identities(J: MonomialIdeal) -> list[str]:
    """Betti identities of a lex ideal J in two variables, read from its
    Betti diagram c.

    With k the least generator degree: c_{0,k} = c_{1,k+1} + 1, and
    c_{0,j} = c_{1,j+1} for every j > k (only the pure power of the
    first variable has m(u) = 1).  When the degree-k piece is full
    (c_{0,k} = k+1), the ideal is the whole power, so c_{1,k+1} = k and
    nothing lives above degree k.
    """
    c = facts_of(J).diagram
    k = min_gen_degree(J)
    problems = []
    if c.get(0, k) != c.get(1, k + 1) + 1:
        problems.append(
            f"c_(0,{k}) = {c.get(0, k)} != c_(1,{k + 1}) + 1 "
            f"= {c.get(1, k + 1) + 1}"
        )
    for j in range(k + 1, max_gen_degree(J) + 1):
        if c.get(0, j) != c.get(1, j + 1):
            problems.append(
                f"c_(0,{j}) = {c.get(0, j)} != c_(1,{j + 1}) = {c.get(1, j + 1)}"
            )
    if c.get(0, k) == k + 1:
        if c.get(1, k + 1) != k:
            problems.append(
                f"full degree-{k} piece but c_(1,{k + 1}) = {c.get(1, k + 1)} != {k}"
            )
        above = [
            (i, j) for (i, j), _ in c.items() if j - i > k
        ]
        if above:
            problems.append(
                f"full degree-{k} piece but entries persist at {sorted(above)}"
            )
    return problems


# The one registry of the laws, in the column order of a campaign.  Keep it
# a dict of the check functions: `lexbs check` and the campaign look a check
# up here at each call, so a value rebound here reaches `lexbs check`, a
# serial campaign and forked workers, but not workers that a forkserver or
# spawn start method starts afresh.
CHECKS = {
    "thm1": check_colon_prefix,
    "thm2": check_tail_agreement,
    "conjecture": check_excluded_family_tails,
    "ek_vs_cone": check_cone_assembly,
    "bhp": check_lex_dominance,
    "lemmas": check_split_identities,
}
