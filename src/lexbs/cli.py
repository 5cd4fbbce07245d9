"""Command-line surface.

Subcommands: betti, decompose, check, explain, enumerate, gen.  Results
go to stdout, diagnostics to stderr, and all rational output is exact
(never decimal).  The ideal grammar accepted everywhere:

    ideal := '(' mono (',' mono)* ')' | mono (',' mono)*
    mono  := '1' | term ('*'? term)*
    term  := var exponent?

With three or fewer variables the variables are letters among x, y, z
and digits following a letter are an exponent, with or without '^'
("x2y" means x^2*y).  With --vars N for N > 3 the variables are x1..xN,
digits after 'x' select the variable, and exponents require '^'
("x2^3" is the cube of the second variable).  Whitespace (whatever
str.isspace accepts) may stand around generators, ',', '(', ')' and '*',
and between terms, but not inside a term: "x ^2" and "x^ 2" are syntax
errors.  A '*' stands between two terms, so "x*" and "x**y" are syntax
errors too.  The number generator is the digit 1 alone ("01" is a
syntax error), but exponents and indices may carry leading zeros:
"x^007" is x^7 and "x01" is x1.  Powers of parenthesized ideals are not
part of the grammar; `lexbs gen power-ideal y,z 8` prints the expanded
generator list of (y, z)^8.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .betti import BettiDiagram, ek_betti, quotient_diagram
from .decompose import bs_decompose, unit_normalized
from .enumeration import CampaignConfig, run_campaign
from .ideal import MonomialIdeal, UnitIdeal, format_ideal, minimalize
from .monomial import _monomial, glex_walk
from .verify import CHECKS, explain_chain


class _Refusal(Exception):
    """An input or usage error: main writes the one stderr line it carries
    and returns 2."""


class IdealSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


_ALIAS = {"x": 0, "y": 1, "z": 2}


@lru_cache(maxsize=None)
def _tokens(n: int):
    """The token patterns of the grammar in n variables (n > 3 all read
    x1, x2, ...), compiled on first use: a campaign never parses.

    They are a run of whitespace; a number and the whitespace after it;
    and a term, with the whitespace after it and the '*' that may join it
    to the next term and the whitespace after that.  A term's groups are
    the variable (a letter, or the index after 'x'), the '^', the
    exponent digits and the '*'.  Digits are the ASCII 0-9 only, and \\s
    is exactly the whitespace of str.isspace.
    """
    variable = f"([{'xyz'[:n]}])" if n <= 3 else "x([0-9]+)"
    return (
        re.compile(r"\s*"),
        re.compile(r"([0-9]+)\s*"),
        re.compile(variable + r"(\^?)([0-9]*)\s*(\*?)\s*"),
    )


def _error(text: str, pos: int, message: str) -> IdealSyntaxError:
    """A syntax error at character pos, reported at its offset in the
    UTF-8 bytes of the text."""
    return IdealSyntaxError(message, len(text[:pos].encode()))


def _number(text: str, m, group: int) -> int:
    """The number that group of the match m spells."""
    try:
        return int(m[group])
    except ValueError:  # more digits than int() converts
        raise _error(text, m.start(group), "number too long") from None


def _no_term(text: str, pos: int, n: int, after: str) -> IdealSyntaxError:
    """The error where a term should start at pos but none does; after is
    '' at the start of a generator and '*' after a '*'."""
    ch = text[pos : pos + 1]
    if ch in ",)*":  # or the end of the text
        if after:
            return _error(text, pos, "expected a variable after '*'")
        if ch == "*":
            return _error(text, pos, "unexpected '*'")
        return _error(text, pos, "expected a monomial")
    if n > 3:
        if ch == "x":
            return _error(
                text, pos + 1, f"variable index expected after 'x' (use x1..x{n})"
            )
        return _error(
            text, pos, f"unknown variable {ch!r} (with {n} variables use x1..x{n})"
        )
    if ch in _ALIAS:
        return _error(text, pos, f"unknown variable {ch!r} with only {n} variable(s)")
    return _error(
        text,
        pos,
        f"unknown variable {ch!r} (expected one of {', '.join(list(_ALIAS)[:n])})",
    )


def parse_ideal(text: str, n: int = 3):
    """Parse the ideal grammar; returns MonomialIdeal or UnitIdeal.

    A generator 1 or x^0 makes the unit ideal, so format_ideal's "(1)"
    parses back; callers decide how loudly to complain.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    space, number, term = _tokens(min(n, 4))
    space, term = space.match, term.match
    pos = space(text).end()
    wrapped = text.startswith("(", pos)
    if wrapped:
        pos = space(text, pos + 1).end()
    monos = []
    while True:
        exps = [0] * n
        degree = 0
        m = term(text, pos)
        if m is None:
            one = number.match(text, pos)
            if one is None:
                raise _no_term(text, pos, n, "")
            if one[1] != "1":  # a number is a whole generator
                _number(text, one, 1)  # raises first on a number too long
                raise _error(text, pos, "the only number that is a generator is 1")
            pos = one.end()
        while m is not None:
            var, caret, digits, star = m.groups()
            if n <= 3:
                i = _ALIAS[var]
            else:
                i = _number(text, m, 1) - 1
                if not 0 <= i < n:
                    raise _error(
                        text, m.start(1), f"variable x{i + 1} out of range (1..{n})"
                    )
            if digits:
                e = _number(text, m, 3)
            elif caret:
                raise _error(text, m.end(2), "exponent digits expected after '^'")
            else:
                e = 1
            exps[i] += e
            degree += e
            pos = m.end()
            m = term(text, pos)
            if m is None and (star or text[pos : pos + 1] not in ",)"):
                raise _no_term(text, pos, n, star)
        monos.append(_monomial(tuple(exps), degree))
        if not text.startswith(",", pos):
            break
        pos = space(text, pos + 1).end()
    if wrapped:
        if not text.startswith(")", pos):
            raise _error(text, pos, "expected ',' or ')'")
        pos = space(text, pos + 1).end()
    if pos != len(text):
        if text[pos] == "^":
            raise _error(
                text,
                pos,
                "powers of ideals are not supported; expand the generators "
                "(try `lexbs gen power-ideal`)",
            )
        raise _error(text, pos, f"unexpected {text[pos]!r}")
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


def _ideal_arg(text: str, n: int):
    if n < 1:
        raise _Refusal(f"error: --vars must be at least 1, got {n}")
    try:
        ideal = parse_ideal(text, n)
    except IdealSyntaxError as exc:
        raise _Refusal(f"error: {exc}")
    if isinstance(ideal, UnitIdeal):
        raise _Refusal(
            "warning: a generator reduces to 1, so this is the unit ideal; "
            "nothing to do"
        )
    return ideal


def _diagram_arg(args) -> BettiDiagram:
    """The Betti diagram of the ideal argument, or of R/I with --quotient;
    a non-stable ideal is refused with the stability message."""
    ideal = _ideal_arg(args.ideal, args.vars)
    try:
        diagram = ek_betti(ideal)
    except ValueError as exc:
        raise _Refusal(f"error: {exc}")
    return quotient_diagram(diagram) if args.quotient else diagram


def _cmd_betti(args) -> int:
    for line in _betti_lines(_diagram_arg(args)):
        _emit(line)
    return 0


def _cmd_decompose(args) -> int:
    # A module's diagram always peels: a failure is a fault in lexbs, exit 3.
    dec = bs_decompose(_diagram_arg(args))
    summands = unit_normalized(dec) if args.norm == "unit" else dec.summands
    for coeff, seq in summands:
        _emit(render_summand(coeff, seq, machine=args.machine))
    return 0


def _cmd_check(args) -> int:
    ideal = _ideal_arg(args.ideal, args.vars)
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
    ideal = _ideal_arg(args.ideal, args.vars)
    try:
        report = explain_chain(ideal)
    except ValueError as exc:
        raise _Refusal(f"error: {exc}")
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
        raise _Refusal(f"error: {exc}")
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
    if name[:1] != "x" or not (digits.isascii() and digits.isdigit()):
        return None
    try:
        i = int(digits)
    except ValueError:  # more digits than int() converts
        return None
    return (True, i) if i >= 1 else None


def _cmd_gen(args) -> int:
    if args.what != "power-ideal":
        raise _Refusal(f"error: unknown generator {args.what!r}")
    names = [v.strip() for v in args.variables.split(",")]
    if not any(names):
        raise _Refusal("error: no variables given")
    keys = []
    for name in names:
        key = _variable_key(name)
        if key is None:
            raise _Refusal(
                f"error: {name!r} is not a variable name "
                "(use x, y, z, or x1, x2, ...)"
            )
        keys.append(key)
    if len({indexed for indexed, _ in keys}) > 1:
        raise _Refusal("error: x, y, z and x1, x2, ... cannot be mixed")
    if len(set(keys)) != len(keys):
        raise _Refusal("error: repeated variable name")
    if args.degree < 1:
        raise _Refusal("error: the exponent must be at least 1")
    terms = []
    for counts in glex_walk((args.degree,) + (0,) * (len(names) - 1)):
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
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # Unbuffered, a write the reader cut off returns short and the text
        # layer drops the rest; a BufferedWriter retries: BrokenPipeError.
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(stdout.buffer), stdout.encoding, stdout.errors
        )
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`lexbs ... | head -1`).  Point it
        # at the null device, so the flush at exit writes nowhere, and exit
        # with the shell's status for death by SIGPIPE.
        try:
            fd = sys.stdout.fileno()  # an in-process StringIO has none
        except (AttributeError, OSError):
            return 141
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 141
    except _Refusal as exc:
        _diag(str(exc))
        return 2
    except Exception as exc:
        # A fault in lexbs, not a finding: exit 1 means a counterexample.
        detail = " ".join(str(exc).split())  # one line whatever the message
        _diag(f"error: internal error: {type(exc).__name__}: {detail}")
        return 3
    finally:
        if sys.stdout is not stdout:
            # Detach both layers, not close: fd 1 stays open.
            sys.stdout.detach().detach()
            sys.stdout = stdout
