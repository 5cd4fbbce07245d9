"""Command-line surface: the generator grammar, rendering, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lexbs.betti import ek_betti, quotient_diagram
from lexbs.decompose import Decomposition
from lexbs.enumeration import enumerate_artinian_lex
from lexbs.ideal import MonomialIdeal, UnitIdeal, format_ideal, minimalize
from lexbs.monomial import Monomial
from lexbs.pure import NotDecomposable
from lexbs.verify import CheckReport

import lexbs
import lexbs.cli as cli
import lexbs.verify as verify
from lexbs.cli import IdealSyntaxError, main, parse_ideal, render_betti

from conftest import (
    CAMPAIGN_MACHINE_ROWS,
    FAMILY26_TEXT,
    QUADRIC_TEXT,
    SPLICE8_TEXT,
    STAGGER_TEXT,
    m,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- parsing


def test_parse_basic():
    I = parse_ideal("x^2, xy, xz, y^2")
    assert I == minimalize([m(2, 0, 0), m(1, 1, 0), m(1, 0, 1), m(0, 2, 0)])


def test_parse_digit_shorthand():
    assert parse_ideal("x2y") == parse_ideal("x^2*y")
    assert parse_ideal("xy2z3") == parse_ideal("x*y^2*z^3")


def test_parse_whitespace_and_parens():
    # Around generators, ',', '(', ')' and '*', and between terms.
    assert parse_ideal(" ( x^2 ,  x y ) ") == parse_ideal("x^2, xy")
    spaced = " \t( x^2 * y ,\u00a0x y2 z , z^3 )\n"
    assert parse_ideal(spaced) == parse_ideal("(x^2*y,x*y^2*z,z^3)")
    assert parse_ideal(" x1 * x2^2 x3 , x4 ", 4) == parse_ideal("x1*x2^2*x3,x4", 4)


def test_parse_indexed_mode():
    I = parse_ideal("x1*x2^2, x4^3", 4)
    assert I == minimalize(
        [Monomial((1, 2, 0, 0)), Monomial((0, 0, 0, 3))], 4
    )


def test_parse_power_of_ideal_is_rejected_with_hint():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("(y,z)^8")
    text = str(err.value)
    assert text.startswith("syntax error at byte 5")
    assert "lexbs gen power-ideal" in text


def test_parse_unknown_variable():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("xw")
    assert str(err.value).startswith("syntax error at byte 1")
    assert "'w'" in str(err.value)


def test_parse_truncated_exponent():
    with pytest.raises(IdealSyntaxError):
        parse_ideal("x^")


def test_parse_stray_character_offset():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("x^2, @")
    assert "byte 5" in str(err.value)


@pytest.mark.parametrize(
    "text, n, offset, message",
    [
        ("x\u00b2", 3, 1, "unknown variable '\u00b2' (expected one of x, y, z)"),
        ("x^\u0663", 3, 2, "exponent digits expected after '^'"),
        ("x1\u00b2", 4, 2, "unknown variable '\u00b2' (with 4 variables use x1..x4)"),
    ],
)
def test_only_ascii_digits_are_digits(capsys, text, n, offset, message):
    # str.isdigit() also accepts superscripts and other scripts' digits,
    # which int() then rejects or reads as ASCII ones.
    code, out, err = run(capsys, "betti", text, "--vars", str(n))
    assert (code, out) == (2, "")
    assert err == f"error: syntax error at byte {offset}: {message}\n"


def test_syntax_error_offset_counts_utf8_bytes():
    # The no-break space is one character and two bytes.
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("x,\u00a0q")
    assert err.value.offset == 4
    assert str(err.value) == (
        "syntax error at byte 4: unknown variable 'q' (expected one of x, y, z)"
    )


def test_number_longer_than_int_converts(capsys):
    # int() refuses strings of more than 4300 digits by default.
    digits = "1" * 5000
    for argv, offset in (
        (("betti", f"x^{digits}"), 2),
        (("betti", "--vars", "4", f"x1, x{digits}"), 5),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: syntax error at byte {offset}: number too long\n"


def test_parse_bare_number():
    # 1 is a whole generator (test_unit_ideal_round_trips); no other
    # number is, and the error names the number, not a variable.
    for text, offset in (("2", 0), ("x, 12", 3), ("1x", 1)):
        with pytest.raises(IdealSyntaxError) as err:
            parse_ideal(text)
        assert err.value.offset == offset
        assert "variable" not in str(err.value)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("x*", 2),
        ("x* ", 3),
        ("x**y", 2),
        ("x * * y", 4),
        ("x*, y", 2),
        ("(x*)", 3),
        ("x1*", 3),
    ],
)
def test_a_star_stands_between_two_terms(capsys, text, offset):
    n = 4 if "1" in text else 3
    code, out, err = run(capsys, "betti", text, "--vars", str(n))
    assert (code, out) == (2, "")
    assert err == (
        f"error: syntax error at byte {offset}: expected a variable after '*'\n"
    )


@pytest.mark.parametrize(
    "text, offset, message",
    [
        ("x ^2", 2, "unknown variable '^' (expected one of x, y, z)"),
        ("x^ 2", 2, "exponent digits expected after '^'"),
        ("x 2", 2, "unknown variable '2' (expected one of x, y, z)"),
        ("x\u00a0^2", 3, "unknown variable '^' (expected one of x, y, z)"),
    ],
)
def test_no_whitespace_inside_a_term(text, offset, message):
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal(text)
    assert str(err.value) == f"syntax error at byte {offset}: {message}"


def test_whitespace_and_digits_are_the_same_on_every_code_point():
    # Unicode tables differ between Python versions; the classes the
    # parser's patterns use must still be str.isspace and ASCII 0-9.
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    space, number, _ = cli._tokens(3)
    assert space.sub("", chars) == "".join(c for c in chars if not c.isspace())
    assert "".join(number.findall(chars)) == "0123456789"
    for c in filter(str.isspace, chars):
        text = f"{c}({c}x^2{c}*{c}y{c}z{c},{c}z{c}){c}"
        assert parse_ideal(text) == parse_ideal("x^2*y*z, z")
    for c in filter(str.isnumeric, chars):
        if c in "0123456789":
            continue
        for text, offset in (("x^" + c, 2), ("x" + c, 1), ("x1" + c, 2)):
            with pytest.raises(IdealSyntaxError) as err:
                parse_ideal(text, 4 if text.startswith("x1") else 3)
            assert err.value.offset == offset
        with pytest.raises(IdealSyntaxError) as err:
            parse_ideal(c)
        assert err.value.offset == 0


# Made by tests/data/make_parse_cases.py; see there for the layout.
PARSE_CASES = Path(__file__).resolve().parent / "data" / "parse_cases.tsv"


def test_golden_parser_corpus():
    wrong = []
    with open(PARSE_CASES, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            n, text, want = line.rstrip("\n").split("\t")
            text = json.loads(text)
            try:
                got = format_ideal(parse_ideal(text, int(n)))
            except IdealSyntaxError as exc:
                got = str(exc)
            if got != want:
                wrong.append((number, text, want, got))
    assert number == 4000
    assert wrong == []


def test_parse_variable_out_of_range():
    with pytest.raises(IdealSyntaxError):
        parse_ideal("y", 1)


def test_parse_unit_generator():
    assert parse_ideal("x^0") == UnitIdeal(3)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_unit_ideal_round_trips(capsys, n):
    text = format_ideal(UnitIdeal(n))
    assert text == "(1)"
    assert parse_ideal(text, n) == UnitIdeal(n)
    code, out, err = run(capsys, "betti", text, "--vars", str(n))
    assert (code, out) == (2, "")
    assert err.startswith("warning: a generator reduces to 1")


@pytest.mark.parametrize("text, offset", [("01", 0), ("001", 0), ("x, 01", 3)])
def test_only_the_digit_one_is_a_number_generator(capsys, text, offset):
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal(text)
    assert err.value.offset == offset
    assert str(err.value).endswith("the only number that is a generator is 1")
    code, out, err = run(capsys, "betti", text)
    assert (code, out) == (2, "")
    assert "the only number that is a generator is 1" in err
    # A number too long to read is still named as such, leading zeros or not.
    for digits in ("0" * 4999 + "1", "1" * 5000):
        with pytest.raises(IdealSyntaxError, match="number too long"):
            parse_ideal(digits)
    # Exponents and variable indices still read leading zeros.
    assert parse_ideal("x^007, y") == parse_ideal("x^7, y")
    assert parse_ideal("x01*x2^03", 4) == parse_ideal("x1*x2^3", 4)


def test_round_trip_through_format():
    from lexbs.ideal import format_ideal

    for text in (SPLICE8_TEXT, STAGGER_TEXT, "x, y, z"):
        I = parse_ideal(text)
        assert parse_ideal(format_ideal(I)) == I


# --------------------------------------------------------------- rendering


def test_render_betti_quadric_quotient():
    D = quotient_diagram(ek_betti(parse_ideal("x^2, xy, xz, y^2")))
    assert render_betti(D) == (
        "  | 0 1 2 3\n"
        "--+--------\n"
        "0 | 1 - - -\n"
        "1 | - 4 4 1"
    )


def test_render_betti_empty():
    from lexbs.betti import BettiDiagram

    rendered = render_betti(BettiDiagram(3, {}))
    assert len(rendered.splitlines()) == 2


# ------------------------------------------------------------- subcommands


def test_betti_command(capsys):
    code, out, err = run(capsys, "betti", "--quotient", "x^2, xy, xz, y^2")
    assert code == 0
    assert out.splitlines() == [
        "  | 0 1 2 3",
        "--+--------",
        "0 | 1 - - -",
        "1 | - 4 4 1",
    ]


def test_betti_rejects_non_stable(capsys):
    code, out, err = run(capsys, "betti", "xz")
    assert code == 2
    assert "x*z" in err
    # The first generator in glex order whose exchange leaves the ideal is
    # y, though x*z has an exchange, x*y, with no generator as a prefix.
    code, out, err = run(capsys, "betti", "x^2, x*z, y")
    assert (code, out) == (2, "")
    assert err == (
        "error: ideal is not stable: generator y needs x_1*y/x_2 = x "
        "in the ideal\n"
    )


def test_decompose_unit_normalized(capsys):
    code, out, err = run(
        capsys, "decompose", "--quotient", "--norm", "unit", "x^2, xy, xz, y^2"
    )
    assert code == 0
    assert out.splitlines() == ["8 pi(0,2,3,4)", "4 pi(0,2,3)"]


def test_decompose_machine(capsys):
    code, out, err = run(capsys, "decompose", "--machine", SPLICE8_TEXT)
    assert code == 0
    assert out.splitlines() == [
        "1/1\t2,4,5",
        "2/7\t3,4,10",
        "9/7\t3,9,10",
        "8/1\t8,9",
        "1/1\t8",
    ]


def test_decompose_never_prints_decimals(capsys):
    code, out, err = run(capsys, "decompose", STAGGER_TEXT)
    assert code == 0
    assert "." not in out


def test_unit_ideal_input_warns(capsys):
    code, out, err = run(capsys, "decompose", "x^0")
    assert code == 2
    assert "unit ideal" in err


def test_check_pass(capsys):
    code, out, err = run(capsys, "check", "thm1", SPLICE8_TEXT)
    assert code == 0
    assert "verdict: pass" in out
    assert "shifted prefix: [1 pi(2,4,5)]" in out


def test_check_vacuous(capsys):
    code, out, err = run(capsys, "check", "thm1", "x, y, z")
    assert code == 0
    assert "status: vacuous(colon by x_1 is the unit ideal)" in out


def test_check_excluded_exit(capsys):
    code, out, err = run(
        capsys,
        "check",
        "conjecture",
        "x^2, xy, xz^2, y^4, y^3z, y^2z^2, yz^3, z^4",
    )
    assert code == 2
    assert "excluded(wrong-family: J is the full power (y, z)^4)" in out


def test_check_wrong_family_status(capsys):
    # The campaign never reads this reason, so it is worded only when the
    # status text is read; the text stays the same.
    code, out, err = run(capsys, "check", "conjecture", SPLICE8_TEXT)
    assert code == 2
    assert out.splitlines()[1:] == [
        "status: excluded(wrong-family: colon by x is (y^2, y*z, z^2, x), "
        "not of the form (x, y, z^t))",
        "verdict: (nothing checked)",
    ]


def test_check_thm1_builds_no_split(capsys, monkeypatch):
    # thm1 reads (L : x_1) alone: neither split_x nor J is built, through
    # whichever module refers to them.
    calls = []
    for module in (lexbs.ideal, verify):
        for name in ("split_x", "xfree_part"):
            if hasattr(module, name):

                def counted(L, work=getattr(module, name), name=name):
                    calls.append(name)
                    return work(L)

                monkeypatch.setattr(module, name, counted)
    code, out, err = run(capsys, "check", "thm1", SPLICE8_TEXT)
    assert (code, err) == (0, "")
    assert "verdict: pass" in out
    assert calls == []


def test_check_failure_exit(capsys, monkeypatch):
    def always_fails(ideal):
        return CheckReport(ideal, "applicable", "fail", "synthetic witness")

    monkeypatch.setitem(verify.CHECKS, "bhp", always_fails)
    code, out, err = run(capsys, "check", "bhp", "x, y, z")
    assert code == 1
    assert "witness: synthetic witness" in out


def test_check_help_lists_every_law(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    out = capsys.readouterr().out
    assert "{thm1,thm2,conjecture,ek_vs_cone,bhp,lemmas}" in out


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_check_replays_campaign_rows(capsys, name):
    # Each campaign row is reproduced by `lexbs check <name> "<ideal>"`.
    for L in enumerate_artinian_lex(3):
        report = verify.CHECKS[name](L)
        kind, verdict = report.status_kind, report.verdict
        code, out, err = run(capsys, "check", name, format_ideal(L))
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert fields["status"].split("(", 1)[0] == kind
        assert fields["verdict"] == (verdict or "(nothing checked)")
        # The status decides first: a comparison that ran under an excluded
        # or vacuous status is no counterexample.
        expected = {"excluded": 2, "vacuous": 0}.get(kind, int(verdict == "fail"))
        assert code == expected


def _family_tails_disagree(max_deg):
    """Append a short summand to the chain of each member of the family
    x*(x, y, z^t) + J with generators in degrees <= max_deg, so that its
    tail disagrees with that of (L, x); return the members.  Only the
    members' own chains change: (L, x) = (x) + J is also that of ideals
    outside the family, whose thm2 comparison must still pass."""
    members = [
        L
        for L in enumerate_artinian_lex(max_deg)
        if isinstance(verify.classify_excluded_family(L), tuple)
    ]
    for L in members:
        facts = verify.facts_of(L)
        facts._chain = Decomposition(facts.chain.summands + ((F(1), (99,)),))
    return members


def test_excluded_failed_comparison_is_no_counterexample(capsys):
    # thm2 excludes the family, so a tail that disagrees there is evidence
    # about the conjecture, not a counterexample to thm2: `check thm2`
    # exits 2 and still shows the comparison, `check conjecture` exits 1.
    members = _family_tails_disagree(5)
    assert len(members) == 4
    witnesses = [verify.CHECKS["conjecture"](L).witness for L in members]
    assert all(w.startswith("tail lengths differ: ") for w in witnesses)
    text = format_ideal(members[0])
    code, out, err = run(capsys, "check", "thm2", text)
    assert (code, err) == (2, "")
    assert {"verdict: fail", f"witness: {witnesses[0]}"} <= set(out.splitlines())
    code, out, err = run(capsys, "check", "conjecture", text)
    assert (code, err) == (1, "")
    assert {"verdict: fail", f"witness: {witnesses[0]}"} <= set(out.splitlines())
    # The campaign counts each report once, under its outcome, and lists
    # a witness row only for a failed outcome.
    code, out, err = run(
        capsys, "enumerate", "--max-deg", "5", "--checks", "thm2,conjecture",
        "--machine",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:3] == [
        "ideals\t202", "thm2\t167\t0\t31\t4", "conjecture\t0\t4\t0\t198"
    ]
    assert lines[3:] == [
        f"witness\tconjecture\t{L!r}\t{w}" for L, w in zip(members, witnesses)
    ]


@pytest.mark.parametrize("name", ["ek_vs_cone", "lemmas"])
def test_check_splitting_in_one_variable_is_vacuous(capsys, name):
    code, out, err = run(capsys, "check", name, "x^2", "--vars", "1")
    assert code == 0
    assert "status: vacuous(one variable: nothing to split)" in out


def test_explain_command(capsys):
    code, out, err = run(capsys, "explain", SPLICE8_TEXT)
    assert code == 0
    lines = out.splitlines()
    assert "  1 pi(2,4,5)  [L:x]" in lines
    assert "  2/7 pi(3,4,10)  [L:y, L:z]" in lines
    assert "  8 pi(8,9)  [(L,x)]" in lines
    k = lines.index("unused source summands:")
    assert lines[k + 1 :] == ["  L:y: pi(2,3,4)", "  L:z: pi(2,3,4)"]


def test_enumerate_machine(capsys):
    for max_deg, rows in CAMPAIGN_MACHINE_ROWS.items():
        code, out, err = run(
            capsys, "enumerate", "--max-deg", str(max_deg), "--machine"
        )
        assert (code, err) == (0, "")
        assert out == "".join(line + "\n" for line in rows)


def test_enumerate_parallel_output_identical(capsys):
    code_a, out_a, _ = run(capsys, "enumerate", "--max-deg", "2", "--machine")
    code_b, out_b, _ = run(
        capsys, "enumerate", "--max-deg", "2", "--machine", "--jobs", "2"
    )
    assert (code_a, out_a) == (code_b, out_b)


def test_enumerate_human(capsys):
    code, out, err = run(capsys, "enumerate", "--max-deg", "2")
    assert code == 0
    assert out.startswith("ideals checked: 4\n")


def test_enumerate_unknown_check(capsys):
    code, out, err = run(
        capsys, "enumerate", "--max-deg", "2", "--checks", "thm3"
    )
    assert code == 2
    assert "unknown checks: thm3" in err


def test_enumerate_empty_check_name(capsys):
    # Both lists name an empty check: "" is not the default of all checks.
    for checks in ("", "bhp,"):
        code, out, err = run(
            capsys, "enumerate", "--max-deg", "2", "--checks", checks, "--machine"
        )
        assert (code, out) == (2, "")
        assert err == f"error: empty check name in {checks!r}\n"


def test_enumerate_fault_in_a_check_is_an_internal_error(capsys, monkeypatch):
    # A ValueError from inside a check is a fault, not a bad argument.
    def broken(ideal):
        raise ValueError("injected\nfault")

    monkeypatch.setitem(verify.CHECKS, "bhp", broken)
    code, out, err = run(
        capsys, "enumerate", "--max-deg", "2", "--checks", "bhp", "--machine"
    )
    assert code == 3
    assert out == ""
    assert err == "error: internal error: ValueError: injected fault\n"


def test_enumerate_subset(capsys):
    code, out, err = run(
        capsys, "enumerate", "--max-deg", "2", "--checks", "bhp", "--machine"
    )
    assert code == 0
    assert out.splitlines() == ["ideals\t4", "bhp\t4\t0\t0\t0"]


def test_gen_power_ideal(capsys):
    code, out, err = run(capsys, "gen", "power-ideal", "y,z", "3")
    assert code == 0
    assert out.strip() == "y^3, y^2*z, y*z^2, z^3"
    assert parse_ideal(out.strip()) == minimalize(
        [m(0, 3, 0), m(0, 2, 1), m(0, 1, 2), m(0, 0, 3)]
    )
    # Names betti would reject are usage errors, an empty one included.
    for names, bad in (("q,w", "'q'"), (",z", "''")):
        code, out, err = run(capsys, "gen", "power-ideal", names, "2")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {bad} is not a variable name (use x, y, z, or x1, x2, ...)\n"
        )
    # Every list gen accepts parses, in the mode its names belong to, as
    # the power of distinct variables: C(k + r - 1, r - 1) generators.
    for names, n in (
        ("x", 3),
        ("z,x", 3),
        ("x,y,z", 3),
        (" y , z ", 3),
        ("x1,x2", 4),
        ("x3,x1,x5", 5),
    ):
        code, out, err = run(capsys, "gen", "power-ideal", names, "3")
        assert (code, err) == (0, "")
        r = names.count(",") + 1
        assert len(parse_ideal(out.strip(), n).gens) == comb(r + 2, r - 1)
        code, _, err = run(capsys, "betti", out.strip(), "--vars", str(n))
        assert "syntax error" not in err


def test_gen_streams_its_terms(monkeypatch):
    # The 45,451 terms of (x, y, z)^300 (about 0.8 MB) go out one by one,
    # so the run holds next to none of them at once.  Degree 300 keeps the
    # traced run short; the peak does not grow with the degree.
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        main(["gen", "power-ideal", "x", "1"])  # warm-up: the parser
        tracemalloc.start()
        try:
            code = main(["gen", "power-ideal", "x,y,z", "300"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1024 * 1024


def test_gen_errors(capsys):
    code, _, err = run(capsys, "gen", "power-ideal", "y,y", "2")
    assert code == 2 and "repeated" in err
    code, _, err = run(capsys, "gen", "power-ideal", "x1,x01", "2")
    assert code == 2 and "repeated" in err
    code, _, err = run(capsys, "gen", "power-ideal", "x,x2", "2")
    assert (code, err) == (2, "error: x, y, z and x1, x2, ... cannot be mixed\n")
    code, _, err = run(capsys, "gen", "power-ideal", "x0,x1", "2")
    assert code == 2 and "'x0' is not a variable name" in err
    code, _, err = run(capsys, "gen", "power-ideal", "y,z", "0")
    assert code == 2
    code, _, err = run(capsys, "gen", "laurent", "y,z", "2")
    assert code == 2 and "unknown generator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("betti", "x"),
        ("decompose", "x"),
        ("check", "thm1", "x"),
        ("explain", "x"),
    ],
)
@pytest.mark.parametrize("n", ["0", "-2"])
def test_vars_below_one_is_a_usage_error(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--vars", n)
    assert (code, out) == (2, "")
    assert err == f"error: --vars must be at least 1, got {n}\n"


def test_syntax_error_exit_code(capsys):
    code, out, err = run(capsys, "betti", "(y,z)^8")
    assert code == 2
    assert "syntax error at byte 5" in err
    assert "lexbs gen power-ideal" in err


def test_unexpected_error_exit_code(capsys, monkeypatch):
    def broken(ideal):
        raise RuntimeError("injected\nfault")

    monkeypatch.setattr(cli, "ek_betti", broken)
    code, out, err = run(capsys, "betti", "x, y, z")
    assert code == 3
    assert out == ""
    assert err == "error: internal error: RuntimeError: injected fault\n"


# Every input or usage refusal: exit 2, nothing on stdout and exactly one
# line on stderr, returned by main rather than raised out of it.
REFUSALS = [
    (("betti", "x", "--vars", "0"), "error: --vars must be at least 1, got 0"),
    (("decompose", "x", "--vars", "-2"), "error: --vars must be at least 1, got -2"),
    (
        ("betti", "1, x"),
        "warning: a generator reduces to 1, so this is the unit ideal; "
        "nothing to do",
    ),
    (
        ("check", "thm1", "1"),
        "warning: a generator reduces to 1, so this is the unit ideal; "
        "nothing to do",
    ),
    (
        ("betti", "xz"),
        "error: ideal is not stable: generator x*z needs x_1*x*z/x_3 = x^2 "
        "in the ideal",
    ),
    (
        ("decompose", "x^2, x*z, y"),
        "error: ideal is not stable: generator y needs x_1*y/x_2 = x "
        "in the ideal",
    ),
    (
        ("explain", "x^2, xy, y^2"),
        "error: provenance annotation needs a lex-segment ideal",
    ),
    (
        ("explain", "x1, x2", "--vars", "4"),
        "error: provenance annotation needs a 3-variable ideal",
    ),
    (("explain", "x, y"), "error: provenance annotation needs an Artinian quotient"),
    (
        ("betti", "(y,z)^8"),
        "error: syntax error at byte 5: powers of ideals are not supported; "
        "expand the generators (try `lexbs gen power-ideal`)",
    ),
    (
        ("enumerate", "--max-deg", "2", "--checks", "thm3"),
        "error: unknown checks: thm3 "
        "(available: thm1, thm2, conjecture, ek_vs_cone, bhp, lemmas)",
    ),
    (
        ("enumerate", "--max-deg", "2", "--checks", ""),
        "error: empty check name in ''",
    ),
    (
        ("enumerate", "--max-deg", "2", "--checks", "bhp,bhp"),
        "error: checks named more than once: bhp",
    ),
    (("enumerate", "--max-deg", "0"), "error: max_deg must be at least 1"),
    (
        ("enumerate", "--max-deg", "2", "--jobs", "0"),
        "error: parallelism must be at least 1",
    ),
    (("gen", "laurent", "y,z", "2"), "error: unknown generator 'laurent'"),
    (("gen", "power-ideal", ",", "2"), "error: no variables given"),
    (
        ("gen", "power-ideal", "q,w", "2"),
        "error: 'q' is not a variable name (use x, y, z, or x1, x2, ...)",
    ),
    (
        ("gen", "power-ideal", "x,x2", "2"),
        "error: x, y, z and x1, x2, ... cannot be mixed",
    ),
    (("gen", "power-ideal", "y,y", "2"), "error: repeated variable name"),
    (("gen", "power-ideal", "y,z", "0"), "error: the exponent must be at least 1"),
    # Too many variables to hold one generator's exponents: an index-sized
    # integer overflows, or the list cannot be allocated.
    (
        ("betti", "x, y", "--vars", "99999999999999999999"),
        "error: --vars 99999999999999999999 is too large",
    ),
    (
        ("betti", "x, y", "--vars", "1000000000000000"),
        "error: --vars 1000000000000000 is too large",
    ),
]


@pytest.mark.parametrize("argv, line", REFUSALS)
def test_refusal_is_one_stderr_line_and_exit_2(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", line + "\n")


def test_a_diagram_that_does_not_peel_is_a_fault(capsys, monkeypatch):
    # decompose peels only Betti diagrams of modules, which always peel;
    # a failure there is a fault in lexbs, not an input error.
    def broken(diagram):
        raise NotDecomposable("x")

    monkeypatch.setattr(cli, "bs_decompose", broken)
    assert run(capsys, "decompose", QUADRIC_TEXT) == (
        3,
        "",
        "error: internal error: NotDecomposable: x\n",
    )


# ------------------------------------------------------ any text at all

# Texts that argparse would not read as options, drawn from any character
# but mostly from the grammar's, so that most get past their first few.
_ARGUMENT_TEXT = st.text(
    st.one_of(st.sampled_from("xyz0123456789^*,() "), st.characters()),
    max_size=16,
).filter(lambda s: not s.startswith("-"))


# Digits that str.isdigit() accepts but int() rejects or reads as ASCII.
_NON_ASCII_DIGITS = ("x\u00b2", "x^\u0663", "xy\u00b2z")


@settings(max_examples=300, deadline=None)
@given(_ARGUMENT_TEXT)
@example(_NON_ASCII_DIGITS[0])
@example(_NON_ASCII_DIGITS[1])
@example(_NON_ASCII_DIGITS[2])
def test_parse_ideal_returns_or_raises_a_syntax_error_property(text):
    try:
        ideal = parse_ideal(text)
    except IdealSyntaxError:
        return
    assert isinstance(ideal, (MonomialIdeal, UnitIdeal))


# `betti` is left out: a text such as "z99999999999" asks for a table
# with 10^11 rows, which is an answer, only a long one.
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([("check", "thm2"), ("decompose",), ("explain",)]),
    _ARGUMENT_TEXT,
)
@example(("decompose",), _NON_ASCII_DIGITS[0])
@example(("explain",), _NON_ASCII_DIGITS[2])
def test_any_ideal_text_ends_in_an_honest_exit_property(command, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, text])
    assert code in (0, 1, 2), err.getvalue()


# -------------------------------------------- deep degrees, 1 s ceilings

DEEP_LEX = "x^2, xy, xz, y^3, y^2z, yz^2, z^600"


def timed_run(capsys, *argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{argv} took {elapsed:.2f} s"
    return code, out, err


def test_betti_deep_z_power(capsys):
    code, out, err = timed_run(capsys, "betti", "x, y, z^5000")
    assert code == 0
    lines = out.splitlines()
    # rows are j - i: x and y sit in row 1, z^5000 in row 5000
    assert lines[2].split() == ["1", "|", "2", "1", "-"]
    assert lines[-1].split() == ["5000", "|", "1", "2", "1"]
    assert len(lines) == 2 + 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "thm1", DEEP_LEX),
        ("explain", DEEP_LEX),
        ("check", "bhp", DEEP_LEX),
        ("check", "bhp", "x^2, x*y, y^600"),
    ],
)
def test_deep_degree_commands_exit_zero(capsys, argv):
    code, out, err = timed_run(capsys, *argv)
    assert code == 0, err


# ----------------------------------------------- one parser per process

# (argv, expected exit) covering every way a call can end; an exit given
# as SystemExit(code) comes from argparse itself.
MIXED_CALLS = [
    (("betti", QUADRIC_TEXT), 0),
    (("betti", "--quotient", QUADRIC_TEXT), 0),
    (("decompose", "--norm", "unit", "--machine", QUADRIC_TEXT), 0),
    (("betti", "--vars", "4", "x1^2, x1*x2, x1*x3, x2^2"), 0),
    (("check", "thm2", FAMILY26_TEXT), 2),
    (("betti", "(y,z)^8"), 2),
    (("betti", "xz"), 2),
    (("bogus", QUADRIC_TEXT), SystemExit(2)),
    (("check", "--help"), SystemExit(0)),
    (("explain", SPLICE8_TEXT), 0),
]


def outcome(capsys, argv):
    """Exit code (or the SystemExit argparse raised), stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kept_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    fresh = {}
    for argv, expected in MIXED_CALLS:
        monkeypatch.setattr(cli, "_parser", None)
        fresh[argv] = outcome(capsys, argv)
        if isinstance(expected, SystemExit):
            expected = ("SystemExit", expected.code)
        assert fresh[argv][0] == expected, argv
    monkeypatch.setattr(cli, "_parser", None)
    calls = [argv for argv, _ in MIXED_CALLS]
    for argv in calls + calls[::-1]:
        assert outcome(capsys, argv) == fresh[argv], argv


def test_main_builds_the_parser_once(capsys, monkeypatch):
    build = cli.build_parser
    built = []

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv, _ in MIXED_CALLS * 3:
        outcome(capsys, argv)
    assert len(built) == 1
    assert build() is not build()


def _env():
    """This process's environment, with lexbs importable from its source
    tree."""
    src = os.path.dirname(os.path.dirname(lexbs.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _python(*args):
    """Run this interpreter with lexbs importable from its source tree."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=60,
    )


@pytest.mark.parametrize(
    "flags, unbuffered",
    [((), None), ((), "1"), (("-u",), None)],
    ids=["buffered", "PYTHONUNBUFFERED", "-u"],
)
def test_reader_closing_stdout_is_a_quiet_exit(flags, unbuffered):
    # `lexbs ... | head -1`.  The one 78 KB line does not fit in a 64 KB
    # pipe buffer, so a write is still blocked when the reader closes
    # after one byte, and the pipe breaks on every run.  Unbuffered
    # (PYTHONUNBUFFERED or -u), that write comes back short rather than
    # failing, and must still end in the same quiet exit.
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    child = subprocess.Popen(
        [sys.executable, *flags, "-m", "lexbs", "gen", "power-ideal", "x,y,z", "100"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert os.read(child.stdout.fileno(), 1) == b"x"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    # 141 is the shell's status for SIGPIPE; 1 and 3 would claim a
    # counterexample or a fault in lexbs.
    assert (child.wait(timeout=60), err) == (141, b"")


def test_import_builds_no_parser():
    # Building the parser at import would add its cost to every process
    # that imports lexbs.cli, the campaign's workers included.
    probe = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import lexbs.cli\n"
        "print(len(made), lexbs.cli._parser)\n"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 None\n"


def test_import_loads_no_process_pool():
    # Only a campaign with more than one worker needs the pool, and loading
    # it makes up about half the time of importing lexbs.cli.
    probe = (
        "import sys\n"
        "import lexbs.cli\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'}"
        " & set(sys.modules)))\n"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_import_adds_only_lexbs():
    # Every process of the CLI pays for this import.  Past lexbs's own
    # stdlib dependencies it loads nothing: dataclasses alone pulled in
    # inspect, ast, dis and tokenize.  The baseline is subtracted, so a
    # stdlib that loads more for these modules does not fail the test.
    # Every lexbs module starts with `from __future__ import annotations`,
    # which imports __future__.
    probe = (
        "import sys\n"
        "import __future__, argparse, fractions, collections, functools\n"
        "import itertools, math, operator, os\n"
        "before = set(sys.modules)\n"
        "import lexbs.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    result = _python("-S", "-c", probe)
    assert result.returncode == 0, result.stderr
    added = result.stdout.split()
    assert added and all(
        name == "lexbs" or name.startswith("lexbs.") for name in added
    ), added


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs RLIMIT_AS enforced"
)
def test_betti_table_streams_in_bounded_memory():
    # Building the whole table first took about 0.4 KB per row, so this
    # 300,002-row table ran out of the 100 MiB address space.
    probe = (
        "import resource, sys\n"
        "limit = 100 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from lexbs.cli import main\n"
        "sys.exit(main(['betti', 'x, y, z^300000']))\n"
    )
    result = _python("-c", probe)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert len(lines) == 2 + 300000
    assert lines[-1].split() == ["300000", "|", "1", "2", "1"]


def test_python_dash_m_runs_the_cli(capsys):
    result = _python("-m", "lexbs", "betti", QUADRIC_TEXT)
    code, out, err = run(capsys, "betti", QUADRIC_TEXT)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)
    assert code == 0
