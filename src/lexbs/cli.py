"""Command-line surface.

Subcommands: betti, decompose, check, explain, enumerate, gen.  Results
go to stdout, diagnostics to stderr, and all rational output is exact
(never decimal).  The ideal grammar accepted everywhere:

    ideal := '(' mono (',' mono)* ')' | mono (',' mono)*
    mono  := term ('*'? term)*
    term  := var exponent?

With three or fewer variables the variables are letters among x, y, z
and digits following a letter are an exponent, with or without '^'
("x2y" means x^2*y).  With --vars N for N > 3 the variables are x1..xN,
digits after 'x' select the variable, and exponents require '^'
("x2^3" is the cube of the second variable).  Whitespace is free.
Powers of parenthesized ideals are not part of the grammar; `lexbs gen
power-ideal y,z 8` prints the expanded generator list of (y, z)^8.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

from .betti import BettiDiagram, ek_betti, quotient_diagram
from .decompose import bs_decompose, unit_normalized
from .enumeration import CampaignConfig, run_campaign
from .ideal import MonomialIdeal, UnitIdeal, format_ideal, minimalize
from .monomial import Monomial
from .pure import NotDecomposable
from .verify import CHECKS, explain_chain


class IdealSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


_DIGITS = frozenset("0123456789")


class _Scanner:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def read_int(self) -> int | None:
        """The number the ASCII digits 0-9 at the current position spell,
        consumed; None if there are none."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            return None
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise self.error("number too long", start) from None

    def error(self, message: str, pos: int | None = None) -> IdealSyntaxError:
        """A syntax error at character `pos` (default: the current one),
        reported at its offset in the UTF-8 bytes of the text."""
        at = self.pos if pos is None else pos
        return IdealSyntaxError(message, len(self.text[:at].encode()))


_ALIAS = {"x": 0, "y": 1, "z": 2}


def _parse_variable(sc: _Scanner, n: int) -> int:
    ch = sc.peek()
    if ch is None:
        raise sc.error("expected a variable")
    if n <= 3:
        if ch not in _ALIAS:
            raise sc.error(
                f"unknown variable {ch!r} (expected one of "
                f"{', '.join(list(_ALIAS)[:n])})"
            )
        idx = _ALIAS[ch]
        if idx >= n:
            raise sc.error(f"unknown variable {ch!r} with only {n} variable(s)")
        sc.pos += 1
        return idx
    if ch != "x":
        raise sc.error(
            f"unknown variable {ch!r} (with {n} variables use x1..x{n})"
        )
    sc.pos += 1
    start = sc.pos
    i = sc.read_int()
    if i is None:
        raise sc.error(f"variable index expected after 'x' (use x1..x{n})")
    if not 1 <= i <= n:
        raise sc.error(f"variable x{i} out of range (1..{n})", start)
    return i - 1


def _parse_exponent(sc: _Scanner, n: int) -> int:
    ch = sc.peek()
    if ch == "^":
        sc.pos += 1
        e = sc.read_int()
        if e is None:
            raise sc.error("exponent digits expected after '^'")
        return e
    if n <= 3 and ch in _DIGITS:
        return sc.read_int()
    return 1


def _parse_monomial(sc: _Scanner, n: int) -> Monomial:
    exps = [0] * n
    saw_term = False
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch is None or ch in ",)":
            break
        if ch == "*":
            if not saw_term:
                raise sc.error("unexpected '*'")
            sc.pos += 1
            continue
        idx = _parse_variable(sc, n)
        exps[idx] += _parse_exponent(sc, n)
        saw_term = True
    if not saw_term:
        raise sc.error("expected a monomial")
    return Monomial(exps)


def parse_ideal(text: str, n: int = 3):
    """Parse the ideal grammar; returns MonomialIdeal or UnitIdeal.

    A generator with all exponents zero (say "x^0") collapses to 1 and
    makes the unit ideal; callers decide how loudly to complain.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    sc = _Scanner(text)
    sc.skip_ws()
    wrapped = False
    if sc.peek() == "(":
        wrapped = True
        sc.pos += 1
    monos = [_parse_monomial(sc, n)]
    sc.skip_ws()
    while sc.peek() == ",":
        sc.pos += 1
        monos.append(_parse_monomial(sc, n))
        sc.skip_ws()
    if wrapped:
        if sc.peek() != ")":
            raise sc.error("expected ',' or ')'")
        sc.pos += 1
        sc.skip_ws()
    if sc.pos != len(sc.text):
        if sc.peek() == "^":
            raise sc.error(
                "powers of ideals are not supported; expand the generators "
                "(try `lexbs gen power-ideal`)"
            )
        raise sc.error(f"unexpected {sc.peek()!r}")
    return minimalize(monos, n)


def render_betti(B: BettiDiagram) -> str:
    """Betti table text: columns are homological degree i, rows are
    j - i, zeros print as '-'.  An empty diagram prints header only.
    """
    return "\n".join(_betti_lines(B))


def _betti_lines(B: BettiDiagram):
    """The lines of render_betti's table, one at a time: only the line
    being built is held, however many rows the table has."""
    if B.entries:
        max_i = max(i for i, _ in B.entries)
        rows = [j - i for (i, j) in B.entries]
        row_range = range(min(rows), max(rows) + 1)
    else:
        max_i = -1
        row_range = range(0)
    cols = range(max_i + 1)
    # Every entry has a cell, and every other cell prints as '-'.  The
    # widest label is at one end of the row range.
    ends = [*row_range[:1], *row_range[-1:]]
    label_w = max([len(str(r)) for r in ends] + [1])
    col_w = max(
        [len(str(c)) for c in cols[-1:]]
        + [len(str(v)) for v in B.entries.values()]
        + [1]
    )
    yield " " * label_w + " |" + "".join(f" {str(c).rjust(col_w)}" for c in cols)
    yield "-" * label_w + "-+" + "-" * (len(cols) * (col_w + 1))
    for r in row_range:
        cells = (str(B.get(c, c + r) or "-") for c in cols)
        yield str(r).rjust(label_w) + " |" + "".join(
            f" {cell.rjust(col_w)}" for cell in cells
        )


def render_summand(coeff: Fraction, seq, machine: bool = False) -> str:
    body = ",".join(str(d) for d in seq)
    if machine:
        c = Fraction(coeff)
        return f"{c.numerator}/{c.denominator}\t{body}"
    return f"{coeff} pi({body})"


def _emit(text: str):
    sys.stdout.write(text + "\n")


def _diag(text: str):
    sys.stderr.write(text + "\n")


def _parse_or_exit(text: str, n: int):
    if n < 1:
        _diag(f"error: --vars must be at least 1, got {n}")
        raise SystemExit(2)
    ideal = parse_ideal(text, n)
    if isinstance(ideal, UnitIdeal):
        _diag(
            "warning: a generator reduces to 1, so this is the unit ideal; "
            "nothing to do"
        )
        raise SystemExit(2)
    return ideal


def _diagram_or_exit(args) -> BettiDiagram:
    """The Betti diagram of the ideal argument, or of R/I with --quotient;
    a non-stable ideal exits 2 with the stability message."""
    ideal = _parse_or_exit(args.ideal, args.vars)
    try:
        diagram = ek_betti(ideal)
    except ValueError as exc:
        _diag(f"error: {exc}")
        raise SystemExit(2)
    return quotient_diagram(diagram) if args.quotient else diagram


def _cmd_betti(args) -> int:
    for line in _betti_lines(_diagram_or_exit(args)):
        _emit(line)
    return 0


def _cmd_decompose(args) -> int:
    diagram = _diagram_or_exit(args)
    try:
        dec = bs_decompose(diagram)
    except NotDecomposable as exc:
        _diag(f"error: not decomposable: {exc}")
        return 2
    summands = unit_normalized(dec) if args.norm == "unit" else dec.summands
    for coeff, seq in summands:
        _emit(render_summand(coeff, seq, machine=args.machine))
    return 0


def _cmd_check(args) -> int:
    ideal = _parse_or_exit(args.ideal, args.vars)
    report = CHECKS[args.property](ideal)
    _emit(f"ideal: {format_ideal(ideal)}")
    _emit(f"status: {report.status}")
    _emit(f"verdict: {report.verdict if report.verdict else '(nothing checked)'}")
    if report.witness:
        _emit(f"witness: {report.witness}")
    for key in ("shifted_prefix", "ideal_prefix", "tail", "augmented_tail"):
        if key in report.details:
            rendered = ", ".join(
                render_summand(c, s) for c, s in report.details[key]
            )
            _emit(f"{key.replace('_', ' ')}: [{rendered}]")
    if report.failed:
        return 1
    if report.status_kind == "excluded":
        return 2
    return 0


def _cmd_explain(args) -> int:
    ideal = _parse_or_exit(args.ideal, args.vars)
    try:
        report = explain_chain(ideal)
    except ValueError as exc:
        _diag(f"error: {exc}")
        return 2
    _emit(f"ideal: {format_ideal(ideal)}")
    _emit("chain:")
    for coeff, seq, sources in report.tagged:
        label = ", ".join(sources) if sources else "extra"
        _emit(f"  {render_summand(coeff, seq)}  [{label}]")
    _emit("unused source summands:")
    if report.unused:
        for name, seq in report.unused:
            _emit(f"  {name}: pi({','.join(str(d) for d in seq)})")
    else:
        _emit("  (none)")
    return 0


def _cmd_enumerate(args) -> int:
    checks = tuple(CHECKS) if args.checks is None else tuple(args.checks.split(","))
    try:
        config = CampaignConfig(
            max_deg=args.max_deg, checks=checks, parallelism=args.jobs
        )
    except ValueError as exc:
        _diag(f"error: {exc}")
        return 2
    summary = run_campaign(config)
    if args.machine:
        _emit(f"ideals\t{summary.total_ideals}")
        for name in checks:
            s = summary.stats[name]
            _emit(f"{name}\t{s.passed}\t{s.failed}\t{s.vacuous}\t{s.excluded}")
        for name, ideal_repr, witness in summary.witnesses:
            _emit(f"witness\t{name}\t{ideal_repr}\t{witness}")
    else:
        _emit(f"ideals checked: {summary.total_ideals}")
        _emit(f"{'check':<12} {'pass':>6} {'fail':>6} {'vacuous':>8} {'excluded':>9}")
        for name in checks:
            s = summary.stats[name]
            _emit(
                f"{name:<12} {s.passed:>6} {s.failed:>6} "
                f"{s.vacuous:>8} {s.excluded:>9}"
            )
        if summary.witnesses:
            _emit("failures:")
            for name, ideal_repr, witness in summary.witnesses:
                _emit(f"  {name}: {ideal_repr}: {witness}")
    return summary.exit_code


def _variable_key(name: str):
    """(False, i) for the letter x, y or z (i = 0, 1, 2), (True, i) for the
    indexed name x<i>, i >= 1, the names the parser reads in its two
    modes; None for any other name."""
    if name in _ALIAS:
        return (False, _ALIAS[name])
    digits = name[1:]
    if name[:1] != "x" or not digits or not set(digits) <= _DIGITS:
        return None
    try:
        i = int(digits)
    except ValueError:  # more digits than int() converts
        return None
    return (True, i) if i >= 1 else None


def _cmd_gen(args) -> int:
    if args.what != "power-ideal":
        _diag(f"error: unknown generator {args.what!r}")
        return 2
    names = [v.strip() for v in args.variables.split(",")]
    if not any(names):
        _diag("error: no variables given")
        return 2
    keys = []
    for name in names:
        key = _variable_key(name)
        if key is None:
            _diag(
                f"error: {name!r} is not a variable name "
                "(use x, y, z, or x1, x2, ...)"
            )
            return 2
        keys.append(key)
    if len({indexed for indexed, _ in keys}) > 1:
        _diag("error: x, y, z and x1, x2, ... cannot be mixed")
        return 2
    if len(set(keys)) != len(keys):
        _diag("error: repeated variable name")
        return 2
    if args.degree < 1:
        _diag("error: the exponent must be at least 1")
        return 2
    terms = []
    for combo in combinations_with_replacement(range(len(names)), args.degree):
        counts = [0] * len(names)
        for k in combo:
            counts[k] += 1
        parts = [
            names[k] if c == 1 else f"{names[k]}^{c}"
            for k, c in enumerate(counts)
            if c > 0
        ]
        terms.append("*".join(parts))
    _emit(", ".join(terms))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexbs",
        description=(
            "Exact Betti diagrams of stable monomial ideals and their "
            "greedy decompositions into pure diagrams."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ideal_arg(p):
        p.add_argument("ideal", help="generators, e.g. \"x^2, xy, xz, y^2\"")
        p.add_argument(
            "--vars",
            type=int,
            default=3,
            metavar="N",
            help="number of variables (default 3; beyond 3 use x1..xN)",
        )

    p_betti = sub.add_parser("betti", help="print the Betti table")
    add_ideal_arg(p_betti)
    p_betti.add_argument(
        "--quotient",
        action="store_true",
        help="table of R/I instead of I",
    )
    p_betti.set_defaults(func=_cmd_betti)

    p_dec = sub.add_parser("decompose", help="print the greedy chain")
    add_ideal_arg(p_dec)
    p_dec.add_argument("--quotient", action="store_true",
                       help="decompose the diagram of R/I instead of I")
    p_dec.add_argument(
        "--norm",
        choices=("lcm", "unit"),
        default="lcm",
        help="coefficient normalization against the canonical integral "
        "pure diagram (lcm) or the unit-top one (unit)",
    )
    p_dec.add_argument(
        "--machine",
        action="store_true",
        help="one summand per line as p/q<TAB>d0,d1,...",
    )
    p_dec.set_defaults(func=_cmd_decompose)

    p_check = sub.add_parser(
        "check", help="run a property check on one ideal"
    )
    p_check.add_argument("property", choices=CHECKS)
    add_ideal_arg(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_explain = sub.add_parser(
        "explain", help="tag each chain summand with its sources"
    )
    add_ideal_arg(p_explain)
    p_explain.set_defaults(func=_cmd_explain)

    p_enum = sub.add_parser(
        "enumerate", help="check all Artinian lex ideals up to a degree"
    )
    p_enum.add_argument("--max-deg", type=int, required=True, metavar="D")
    p_enum.add_argument(
        "--checks",
        metavar="LIST",
        help=f"comma-separated subset of: {', '.join(CHECKS)} (default all)",
    )
    p_enum.add_argument("--jobs", type=int, default=1, metavar="K")
    p_enum.add_argument(
        "--machine", action="store_true", help="tab-separated stable output"
    )
    p_enum.set_defaults(func=_cmd_enumerate)

    p_gen = sub.add_parser(
        "gen", help="emit generator lists for common constructions"
    )
    p_gen.add_argument("what", help="currently only: power-ideal")
    p_gen.add_argument(
        "variables",
        help="comma-separated variables among x, y, z or x1, x2, ..., e.g. y,z",
    )
    p_gen.add_argument("degree", type=int, help="the power k")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


# The parser main builds on its first call and reuses on every later one:
# building it costs far more than a light query.  Reuse is safe because
# parse_args returns a new Namespace each call, `check`'s choices are the
# live CHECKS dict, and the handlers read module globals when they run.
# Only the handler functions are bound at build time, so a `_cmd_*`
# rebound after the first call would not be reached.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except IdealSyntaxError as exc:
        _diag(f"error: {exc}")
        return 2
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except Exception as exc:
        # A fault in lexbs, not a finding: exit 1 means a counterexample.
        detail = " ".join(str(exc).split())  # one line whatever the message
        _diag(f"error: internal error: {type(exc).__name__}: {detail}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
